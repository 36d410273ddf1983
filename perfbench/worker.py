"""The benchmark's workload process: one per run, one closed-loop client.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It imports
entropia, warms up at toy size (that is the set-up time), then runs timed
passes of one workload until ``--seconds`` have passed, printing one JSON
line per pass: wall time, per-operation latencies and every output, which
run.py checks against the oracle after this process has exited.  With
``--trace 1`` passes alternate between untraced and traced (tracer
installed), the factorize-by-size microbenchmark runs before the first
traced pass, and the spans go to ``perfbench/out/`` at exit.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

import entropia  # noqa: E402
from entropia import arith, cli, entropy, laws  # noqa: E402

clock = time.perf_counter

SETUP_PROBES = 10
REFERENCE_ITERATIONS = 200_000
IMPORT_PROBES = 20
PROBE_TIMEOUT_S = 30


def _subjects(summary) -> int:
    """Subjects a suite checked: CheckSummary.checked, ScanSummary.pairs."""
    return summary.checked if hasattr(summary, "checked") else summary.pairs


def _one(_result) -> int:
    return 1


# (module, attribute, kind, item count of a result) for every traced name.
TRACE_TARGETS = [
    ("arith", "factorize", "function", None),
    ("arith", "is_prime", "function", None),
    ("arith", "Factorization", "class", None),
    ("arith", "spf_sieve", "function", None),
    ("arith", "factored_range", "generator", None),
    ("arith", "exponential_divisors", "function", len),
    ("arith", "small_divisors", "function", None),
    ("arith", "divisors", "function", len),
    ("entropy", "entropy_H", "function", None),
    ("entropy", "entropy_Hbar", "function", None),
    ("entropy", "entropy_H_appended", "function", None),
    ("numfield", "split_prime", "function", None),
    ("numfield", "ideal_entropy", "function", None),
    ("numfield", "ideal_exponential_divisors", "function", len),
    *[("laws", fn, "function", _subjects) for _, fn, _, _ in inputs.SWEEP_SUITES],
    ("laws", "product_entropy_gap", "function", _one),
    ("laws", "gap_formula", "function", _one),
    ("laws", "classify_prop41", "function", _one),
    ("cli", "main", "function", None),
    ("cli", "canonical_json", "function", None),
]


def sweep_ops(suites) -> list:
    ops = []
    for name, fn, args in suites:
        def call(fn=fn, args=args):
            summary = getattr(laws, fn)(*args)
            return {"subjects": _subjects(summary), "summary": asdict(summary)}
        ops.append((name, call))
    return ops


def draws_ops(data: dict) -> list:
    ops = []
    for m, n in data["eq"]:
        def call(m=m, n=n):
            rep = laws.product_entropy_gap(m, n)
            return [rep.h_m, rep.h_n, rep.h_mn, rep.gap, rep.relation.value]
        ops.append(("eq", call))
    cache = {}  # as in laws.random_hbar_additivity: H-bar of m and n once per pass
    for m, n in data["hbar"]:
        def call(m=m, n=n):
            for v in (m, n):
                if v not in cache:
                    cache[v] = entropy.entropy_Hbar(arith.factorize(v))
            return [cache[m], cache[n], entropy.entropy_Hbar(arith.factorize(m * n))]
        ops.append(("hbar", call))
    for n, p, alpha in data["appended"]:
        def call(n=n, p=p, alpha=alpha):
            closed = entropy.entropy_H_appended(arith.factorize(n), p, alpha)
            return [closed, entropy.entropy_H(arith.factorize(n * p**alpha))]
        ops.append(("appended", call))
    for n, p, alpha, beta in data["prop41"]:
        def call(n=n, p=p, alpha=alpha, beta=beta):
            rep = laws.classify_prop41(n, p, alpha, beta, strict=False)
            return [rep.threshold, rep.h_alpha, rep.h_beta,
                    list(rep.cases), list(rep.contradictions)]
        ops.append(("prop41", call))
    return ops


def cli_ops(argvs: list) -> list:
    ops = []
    for argv in argvs:
        def call(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return [code, buf.getvalue()]
        ops.append((argv[1], call))
    return ops


def make_ops(workload: str, data) -> list:
    """(kind, call) per operation of one pass over inputs.pass_inputs data."""
    return {"sweep": sweep_ops, "draws": draws_ops, "cli": cli_ops}[workload](data)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop that never calls the program."""
    start = clock()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return clock() - start


def run_pass(ops: list, tr, references: int = 10) -> dict:
    """Run the ops in order, cut into ``references`` segments.

    A reference loop runs, untimed, before the first segment and after each
    one, so every segment is bracketed by two of them.  ``segments`` holds
    (operations, seconds) per segment; the pass time is their sum.
    """
    latencies, outputs, kinds, segments = [], [], [], []
    every = max(1, len(ops) // references) if references else len(ops)
    reference = [reference_loop()] if references else []
    count = 0
    start = clock()
    for i, (kind, call) in enumerate(ops, 1):
        if tr is not None:
            tr.begin("op." + kind)
        t = clock()
        outputs.append(call())
        latencies.append(clock() - t)
        if tr is not None:
            tr.end(1)
        kinds.append(kind)
        count += 1
        if i % every == 0 or i == len(ops):
            segments.append((count, clock() - start))
            if references:
                reference.append(reference_loop())
            count = 0
            start = clock()
    return {"wall_s": sum(s for _, s in segments), "segments": segments,
            "latency_s": latencies, "kinds": kinds, "outputs": outputs,
            "reference_s": reference}


def factorize_by_size(seed: int) -> dict:
    out = {}
    for size, values in inputs.factorize_sizes(seed).items():
        times, entries = [], []
        for n in values:
            t = clock()
            f = arith.factorize(n)
            times.append(clock() - t)
            entries.append([list(e) for e in f.entries])
        out[size] = {"values": values, "latency_s": times, "entries": entries}
    return out


def probe_plan(args) -> list[tuple[str, list[str]]]:
    """Short-lived processes to time, ordered so each kind spreads over the run."""
    py = sys.executable
    setup = [py, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    plans = {
        "setup": [setup] * SETUP_PROBES,
        "cold": [[py, "-m", "entropia", *argv] for argv in inputs.cold_start_argvs(args.seed)],
    }
    if args.trace:
        plans["interpreter"] = [[py, "-c", "pass"]] * IMPORT_PROBES
        plans["import"] = [[py, "-c", "import entropia"]] * IMPORT_PROBES
        plans["importtime"] = [[py, "-X", "importtime", "-c", "import entropia"]] * IMPORT_PROBES
    spread = [(i / len(argvs), kind, argv)
              for kind, argvs in plans.items() for i, argv in enumerate(argvs)]
    return [(kind, argv) for _, kind, argv in sorted(spread, key=lambda t: t[:2])]


def run_probes(batch: list[tuple[str, list[str]]]) -> list[dict]:
    """Time (kind, argv) processes one at a time, while nothing else of the benchmark runs.

    A reference loop runs before the first process and after each one, so
    every process is bracketed by two of them.
    """
    if not batch:
        return []
    out = []
    reference = reference_loop()
    for kind, argv in batch:
        start = clock()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        seconds = clock() - start
        before, reference = reference, reference_loop()
        out.append({"kind": kind, "argv": argv[3:] if kind == "cold" else [],
                    "code": proc.returncode, "seconds": seconds,
                    "reference_s": [before, reference],
                    "stdout": proc.stdout if kind in ("cold", "setup") else "",
                    "stderr": proc.stderr if kind == "importtime" else ""})
    return out


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("sweep", "draws", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    run_pass(make_ops(args.workload, inputs.pass_inputs(args.workload, args.seed, -1, True)),
             None, references=0)
    setup_s = clock() - _T0
    emit({"setup_s": setup_s, "entropia": entropia.__file__})
    if args.setup_only:
        return 0

    probes = probe_plan(args)
    launched = 0
    tr = tracing.Tracer() if args.trace else None
    cache = getattr(arith.is_prime, "cache_info", None)
    final = {"is_prime_cache": {"hits": 0, "misses": 0}}
    index = 0
    spent = 0.0
    while index < 1 + args.trace or spent < args.seconds:
        traced = tr is not None and index % 2 == 1
        if traced:
            if "factorize_by_size" not in final:
                final["factorize_by_size"] = factorize_by_size(args.seed)
            before = cache() if cache else None
            undo = tracing.install(tr, "entropia", TRACE_TARGETS)
        ops = make_ops(args.workload, inputs.pass_inputs(args.workload, args.seed, index))
        record = run_pass(ops, tr if traced else None)
        del ops
        if traced:
            tracing.uninstall(undo)
            if before is not None:
                after = cache()
                final["is_prime_cache"]["hits"] += after.hits - before.hits
                final["is_prime_cache"]["misses"] += after.misses - before.misses
        spent += record["wall_s"]
        due = round(len(probes) * min(1.0, spent / args.seconds))
        record.update(index=index, traced=traced,
                      probes=run_probes(probes[launched:due]))
        launched = max(launched, due)
        emit(record)
        if index == 0:  # a fixed amount of work: set-up and one pass
            final["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1
    if tr is not None:
        final["stats"] = tr.stats
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tr.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    final["probes"] = run_probes(probes[launched:])
    emit({"final": final})
    return 0


if __name__ == "__main__":
    sys.exit(main())
