import sys

from .cli import main


def run() -> int:
    """cli.main, exiting 141 (killed by SIGPIPE) when the reader closes stdout.

    stdout then points at devnull, so the interpreter's final flush cannot raise.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(run())
