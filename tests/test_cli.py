import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from entropia import arith, cli, laws
from entropia.cli import canonical_json, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), out


# --- canonical JSON ---------------------------------------------------------


def test_canonical_json_is_idempotent_and_sorted():
    doc = {"b": 1 / 3, "a": [math.pi, {"z": 2, "y": 1e-30}]}
    text = canonical_json(doc)
    assert text == canonical_json(json.loads(text))
    assert text.index('"a"') < text.index('"b"')
    assert " " not in text


def test_round_floats_pins_12_significant_digits():
    assert cli._round_floats(math.pi) == 3.14159265359
    assert cli._round_floats({"x": [0.1 + 0.2]}) == {"x": [0.3]}
    assert cli._round_floats(7) == 7


# --- entropy ----------------------------------------------------------------


def test_entropy_json_golden(capsys):
    code, doc, text = run_json(capsys, "entropy", "24")
    assert code == 0
    assert doc["status"] == "ok"
    r = doc["result"]
    assert r["n"] == 24 and r["bigOmega"] == 4 and r["smallOmega"] == 2
    assert r["tau"] == 8 and r["sigma"] == 60 and r["tauE"] == 2
    assert r["H"] == pytest.approx(math.log(4) - 0.75 * math.log(3), abs=1e-9)
    # emitted text round-trips byte-for-byte
    assert canonical_json(json.loads(text)) == text.rstrip("\n")


def test_entropy_text_output(capsys):
    code, out, _ = run(capsys, "entropy", "6")
    assert code == 0
    assert "0.69314718056" in out  # log 2 at 12 significant digits


def test_entropy_of_the_20th_primorial_needs_no_divisor_list(capsys):
    # 2^20 divisors, above MAX_DIVISORS: Hbar is a sum over the 20 primes.
    n = math.prod(arith.primes_up_to(71))
    assert n == 557940830126698960967415390
    code, doc, _ = run_json(capsys, "entropy", str(n))
    assert code == 0 and doc["status"] == "ok"
    assert doc["result"]["tau"] == 1048576
    assert doc["result"]["Hbar"] == 4.29515095079


def test_entropy_hbar_of_a_large_prime_keeps_its_digits(capsys):
    # Hbar(p) is about log p / p; a divisor-sum difference of size log p reads 0.
    code, doc, _ = run_json(capsys, "entropy", "1000000000000000003")
    assert code == 0
    assert doc["result"]["Hbar"] == 4.24465316739e-17


def test_entropy_rejects_small_n(capsys):
    code, out, err = run(capsys, "entropy", "1")
    assert code == 2
    assert "error" in err
    code, doc, _ = run_json(capsys, "entropy", "0")
    assert code == 2 and doc["status"] == "error"


# --- edivisors --------------------------------------------------------------


def test_edivisors_golden(capsys):
    code, doc, _ = run_json(capsys, "edivisors", "12")
    assert code == 0
    assert doc["result"]["edivisors"] == [6, 12]
    assert doc["result"]["count"] == 2


def test_edivisors_cap_exceeded(capsys, monkeypatch):
    from entropia import arith

    monkeypatch.setattr(arith, "MAX_DIVISORS", 1)
    code, doc, _ = run_json(capsys, "edivisors", "12")
    assert code == 2 and doc["status"] == "error"


# --- compare ----------------------------------------------------------------


def test_compare_goldens(capsys):
    code, doc, _ = run_json(capsys, "compare", "22", "105")
    assert code == 0
    assert doc["result"]["relation"] == "LESS"
    assert doc["result"]["gap"] == pytest.approx(math.log(5 / 6), abs=1e-9)
    code, doc, _ = run_json(capsys, "compare", "6", "35")
    assert doc["result"]["relation"] == "EQUAL"


def test_compare_factors_each_input_once(capsys, monkeypatch):
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or real(n))
    assert main(["--json", "compare", "22", "105"]) == 0
    assert calls == [22, 105]


def test_entropy_of_psi12(capsys):
    # The least strong pseudoprime to the bases 2..37 is a semiprime.
    code, doc, _ = run_json(capsys, "entropy", str(arith.PSI_12))
    assert code == 0
    assert doc["result"]["tau"] == 4
    assert doc["result"]["H"] == pytest.approx(math.log(2), abs=1e-12)


def test_compare_non_coprime_is_usage_error(capsys):
    code, _, err = run(capsys, "compare", "6", "10")
    assert code == 2 and "error" in err


# --- ideal ------------------------------------------------------------------


def test_ideal_goldens(capsys):
    code, doc, _ = run_json(capsys, "ideal", "cubic:2", "31")
    assert code == 0
    r = doc["result"]
    assert r["g"] == 3 and r["factors"] == [[1, 1], [1, 1], [1, 1]]
    assert r["H"] == pytest.approx(math.log(3), abs=1e-9)
    code, doc, _ = run_json(capsys, "ideal", "cyclo:5", "5")
    assert doc["result"]["factors"] == [[4, 1]] and doc["result"]["H"] == 0.0


def test_ideal_text_prints_one_line_per_factor(capsys):
    code, out, _ = run(capsys, "ideal", "cubic:2", "5")
    assert code == 0
    assert "factors:\n  - [1, 2]\n  - [1, 1]\ng " in out
    code, _, text = run_json(capsys, "ideal", "cubic:2", "5")
    assert '"factors":[[1,2],[1,1]]' in text


def test_ideal_bad_field_spec(capsys):
    code, _, err = run(capsys, "ideal", "weird:3", "7")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "ideal", "quad:12", "7")
    assert code == 2


# --- verify -----------------------------------------------------------------


def test_verify_bounds_ok(capsys):
    code, doc, _ = run_json(capsys, "verify", "bounds", "--max", "1000")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["result"]["checked"] == 999
    assert doc["result"]["violationCount"] == 0


def test_verify_corollary_int_reports_violation(capsys):
    code, doc, _ = run_json(capsys, "verify", "corollary-int", "--max", "100")
    assert code == 1
    assert doc["status"] == "violation"
    assert doc["result"]["violationCount"] > 0
    assert any("n=60" in v for v in doc["result"]["violations"])


def test_verify_products(capsys):
    code, doc, _ = run_json(capsys, "verify", "products", "--max", "60")
    assert code == 0
    counts = doc["result"]["counts"]
    assert counts["LESS"] > 0 and counts["EQUAL"] > 0
    assert doc["result"]["checked"] == sum(counts.values())
    assert doc["result"]["violationCount"] == 0


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2 and "unknown suite" in err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


@pytest.mark.parametrize(
    "suite",
    ["bounds", "corollary-int", "edivisors", "products", "splitting",
     "eq-identity", "shannon", "hbar-limit"],
)
@pytest.mark.parametrize("bound", ["0", "1"])
def test_verify_empty_range_is_usage_error(capsys, suite, bound):
    code, doc, _ = run_json(capsys, "verify", suite, "--max", bound)
    assert code == 2 and doc["status"] == "error"
    assert doc["inputs"] == {"suite": suite, "max": int(bound), "seed": 0}
    assert "bound" in doc["result"]["error"]


@pytest.mark.parametrize(
    "suite", [name for name, (_, bound) in laws.SUITES.items() if bound is None] + ["all"]
)
def test_verify_rejects_max_where_no_bound_applies(capsys, suite):
    code, doc, _ = run_json(capsys, "verify", suite, "--max", "5")
    assert code == 2 and doc["status"] == "error"
    assert doc["inputs"] == {"suite": suite, "max": 5, "seed": 0}


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = run(capsys, "--json", "verify", "all")
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    names = [
        "bounds", "products", "families", "eq-identity", "prop41", "corollary-int",
        "corollary-ideal", "splitting", "edivisors", "hbar-additivity", "shannon",
        "hbar-closed-form", "hbar-limit", "appended-identity", "exponents-ge3",
        "ideal-edivisors",
    ]
    assert [doc["inputs"]["suite"] for doc in docs] == names
    assert [doc["result"]["suite"] for doc in docs] == names
    failing = {
        doc["result"]["suite"] for doc in docs if doc["result"]["violationCount"] > 0
    }
    assert failing == {"exponents-ge3", "prop41", "corollary-int", "corollary-ideal"}
    for doc in docs:
        assert (doc["status"] == "violation") == (doc["result"]["suite"] in failing)
        assert doc["result"]["checked"] > 0
    assert docs[names.index("shannon")] == run_json(capsys, "verify", "shannon")[1]


def test_verify_oversized_sieve_is_usage_error(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated a sieve table above the cap")

    monkeypatch.setattr(np, "zeros", refuse)
    code, doc, _ = run_json(capsys, "verify", "edivisors", "--max", str(10**10))
    assert code == 2 and doc["status"] == "error"
    assert doc["inputs"]["max"] == 10**10


def test_error_envelope_keeps_inputs(capsys):
    code, doc, _ = run_json(capsys, "compare", "6", "10")
    assert code == 2 and doc["inputs"] == {"m": 6, "n": 10}


def test_pollard_failure_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(arith, "_POLLARD_CONSTANTS", ())
    n = 10007 * 10009  # both primes above the trial-division limit
    code, doc, _ = run_json(capsys, "entropy", str(n))
    assert code == 2 and doc["status"] == "error"
    assert doc["inputs"] == {"n": n}
    assert "pollard" in doc["result"]["error"]


# --- per-process setup ------------------------------------------------------


def test_cached_parser_matches_a_fresh_one(capsys):
    argvs = [
        ("--json", "verify", "products", "--max", "30"),
        ("--json", "entropy", "not-a-number"),
        ("--json", "entropy", "360"),
        ("--json", "verify", "shannon"),
        ("verify", "shannon", "--max", "1"),
        ("entropy", "360"),
        ("--json", "compare", "22", "105"),
    ]
    assert cli.build_parser() is cli.build_parser()
    reused = [run(capsys, *argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert reused[1][0] == 2 and "usage:" in reused[1][2]
    assert json.loads(reused[2][1])["inputs"] == {"n": 360}


def _python(*argv):
    """Run a fresh interpreter on argv with this checkout's entropia."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# The optional modules each query loads: laws and numfield only on the
# queries that use them (compare's laws imports numfield).
QUERY_LOADS = {
    "import": {"entropia.arith"},
    "entropy": {"entropia.arith"},
    "edivisors": {"entropia.arith"},
    "compare": {"entropia.arith", "entropia.laws", "entropia.numfield"},
    "ideal": {"entropia.arith", "entropia.numfield"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["-c", "import entropia"],
        ["-m", "entropia", "--json", "entropy", "360"],
        ["-m", "entropia", "--json", "compare", "22", "105"],
        ["-m", "entropia", "--json", "ideal", "cubic:2", "31"],
        ["-m", "entropia", "--json", "edivisors", "360"],
    ],
)
def test_queries_never_import_numpy(argv):
    proc = _python("-X", "importtime", *argv)
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    query = argv[3] if argv[0] == "-m" else "import"
    optional = {"entropia.arith", "entropia.laws", "entropia.numfield"}
    assert imported & optional == QUERY_LOADS[query]
    assert not {name for name in imported if name.split(".")[0] == "numpy"}


def test_lazy_names_resolve_after_a_bare_import():
    _python("-c", textwrap.dedent("""\
        import sys
        import entropia

        assert "entropia.laws" not in sys.modules
        assert "entropia.numfield" not in sys.modules
        star = {}
        exec("from entropia import *", star)
        owner = dict.fromkeys(["Factorization", "factorize"], "arith")
        owner |= dict.fromkeys(["entropy_H", "entropy_Hbar"], "entropy")
        owner |= dict.fromkeys(["SplittingPattern", "ideal_entropy", "split_prime"], "numfield")
        for name in entropia.__all__:
            if name in owner:
                want = getattr(sys.modules[f"entropia.{owner[name]}"], name)
            else:
                want = sys.modules[f"entropia.{name}"]
            assert getattr(entropia, name) is want is star[name], name
        try:
            entropia.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("entropia.no_such_name resolved")
    """))


@pytest.mark.parametrize(
    "entry",
    [
        ["-m", "entropia"],
        # what the installed `entropia` console script runs
        ["-c", "import sys; from entropia.__main__ import run; sys.exit(run())"],
    ],
)
def test_closed_stdout_exits_141_without_a_traceback(entry):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, *entry, "--json", "verify", "corollary-ideal"],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
