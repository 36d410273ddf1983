"""Benchmark entry point: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload sweep|draws|cli --seed N --seconds S --trace 0|1

Runs from the root of a checkout and uses the entropia sources in its
``src``.  One run starts one workload process (perfbench/worker.py), which
runs timed passes for S seconds and, between them and one at a time, the
probe processes: set-up probes, cold starts of ``python -m entropia --json
entropy <n>``, and with ``--trace 1`` the interpreter and import-time
probes.  Only after it has exited are the outputs checked against the
oracle (perfbench/oracle.py), so no timing includes oracle work.  The last line of
standard output is one JSON object: the end-to-end metrics with ``--trace
0``, the per-layer ones with ``--trace 1``.  The lines before it give each
metric with its unit and sample count, and the by-design findings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

CHILD_TIMEOUT_S = 170

# The host's speed changes by up to a half, within seconds, with the load
# other tenants put on its shared cores; CPU time slows as much as wall
# time, so it is no steadier.  A fixed pure-Python loop
# (worker.reference_loop) runs before and after every timed segment of a
# pass and every probe process; each time is reported scaled to the speed at
# which that loop takes REFERENCE_S (about its median on the baseline host),
# using the mean of the two loops around it.  That takes the run-to-run
# spread of wall_s from 0.2-0.45 down to 0.04-0.1 of the median.  The
# unscaled values are printed as well.
REFERENCE_S = 0.020


def scaled(seconds: float, around: list[float]) -> float:
    """``seconds`` at the speed where the reference loop takes REFERENCE_S."""
    return seconds * REFERENCE_S * len(around) / sum(around)


def scaled_wall(record: dict) -> float:
    """A pass's time at reference speed, each segment scaled by the loops around it."""
    refs = record["reference_s"]
    return sum(scaled(seconds, refs[j : j + 2])
               for j, (_count, seconds) in enumerate(record["segments"]))


class RunError(Exception):
    """The program could not be run; the benchmark prints no result."""


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def import_times(stderr: str) -> tuple[float, float]:
    """(entropia, numpy) cumulative import ms from ``python -X importtime``."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) / 1000
    return cumulative["entropia"], cumulative.get("numpy", 0.0)


class Run:
    """Everything one run measured, and the failures the oracle found."""

    def __init__(self, args) -> None:
        self.args = args
        self.failures: list[str] = []
        self.attempted = 0
        self.findings: list[str] = []
        self.unparsed_witnesses = 0
        self.prop41_contradicted = 0

    def measure(self) -> None:
        args = self.args
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"the workload process ran past {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise RunError(f"the workload process exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        where = Path(records[0]["entropia"]).resolve()
        if ROOT / "src" not in where.parents:
            raise RunError(f"imported entropia from {where}, not from this checkout")
        self.passes = [r for r in records if "wall_s" in r]
        self.final = records[-1]["final"]
        probes = [p for r in self.passes for p in r["probes"]] + self.final["probes"]
        self.probes = {}
        for probe in probes:
            if probe["kind"] != "cold" and probe["code"] != 0:
                raise RunError(f"a {probe['kind']} probe exited {probe['code']}")
            self.probes.setdefault(probe["kind"], []).append(probe)
        for probe in self.probes["setup"]:
            probe["seconds"] = json.loads(probe["stdout"].splitlines()[0])["setup_s"]

    # --- correctness -------------------------------------------------------

    def _fail(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)

    def check(self) -> None:
        import oracle

        args = self.args
        for record in self.passes:
            data = inputs.pass_inputs(args.workload, args.seed, record["index"])
            for verdict in oracle.check_pass(args.workload, data, record["outputs"]):
                self._fail(verdict)
            if args.workload == "sweep":
                self.unparsed_witnesses += sum(
                    oracle.check_witness(name, message) == "unparsed"
                    for name, out in zip(record["kinds"], record["outputs"])
                    for message in out["summary"]["violations"])
            elif args.workload == "draws":
                self.prop41_contradicted += sum(
                    bool(out[4]) for kind, out in zip(record["kinds"], record["outputs"])
                    if kind == "prop41")
        for probe in self.probes["cold"]:
            self._fail(oracle.check_cli(probe["argv"], probe["code"], probe["stdout"]))
        for size, bench in self.final.get("factorize_by_size", {}).items():
            for n, entries in zip(bench["values"], bench["entries"]):
                self._fail(oracle.check_factorization(n, entries))
        self._findings(oracle.sweep_expected(inputs.pass_inputs("sweep", 0, 0))
                       if args.workload == "sweep" else None)

    def _findings(self, expected) -> None:
        """The tallies of claims that are false by design (not failures)."""
        if expected is not None:
            ci, cd = expected["corollary-int"], expected["corollary-ideal"]
            self.findings = [
                f"corollary-int: {ci['violations']} e-divisors with H(d_e) > H(n) in "
                f"{ci['failing_subjects']} of {ci['subjects']} conforming n (criterion 10)",
                f"corollary-ideal: {cd['violations']} e-divisor patterns in "
                f"{cd['failing_subjects']} of {cd['subjects']} patterns",
                f"products: {expected['products']['violations']} exponents>=3 or "
                f"two-prime-power shape violations among {expected['products']['subjects']} pairs",
            ]
        elif self.args.workload == "draws":
            draws = len(self.passes) * inputs.DRAWS_PER_MIX
            self.findings = [f"prop41: {self.prop41_contradicted} of {draws} quadruples "
                             "contradict a trichotomy case (criterion 9)"]
        if self.unparsed_witnesses:
            self.findings.append(f"{self.unparsed_witnesses} witness lines in a format "
                                 "the oracle does not read")

    # --- metrics -----------------------------------------------------------

    def reference_s(self) -> float:
        """Median time of the reference loop over the run."""
        samples = [t for p in self.passes for t in p["reference_s"]]
        samples += [t for probes in self.probes.values() for p in probes for t in p["reference_s"]]
        return statistics.median(samples)

    def probe_s(self, kind: str) -> float:
        """Median time of the probe processes of one kind, at reference speed."""
        return statistics.median(scaled(p["seconds"], p["reference_s"])
                                 for p in self.probes[kind])

    def _pass_timings(self, scale: bool) -> tuple[float, float, float, float, str]:
        """wall_s, subjects_per_s, query p50 and p99 (ms), and the latency sample note.

        With ``scale``, the times of each segment of a pass are scaled by the
        two reference loops around it.
        """
        walls, rates, latencies, by_suite = [], [], [], {}
        for p in self.passes:
            refs, factors = p["reference_s"], []
            for j, (count, _seconds) in enumerate(p["segments"]):
                factors += [scaled(1.0, refs[j : j + 2]) if scale else 1.0] * count
            scaled_ops = [k * t for k, t in zip(factors, p["latency_s"])]
            walls.append(scaled_wall(p) if scale else p["wall_s"])
            rates.append(sum(self._subjects(p)) / walls[-1])
            latencies += scaled_ops
            for kind, t in zip(p["kinds"], scaled_ops):
                by_suite.setdefault(kind, []).append(t)
        samples = f"{len(latencies)} operations"
        if self.args.workload == "sweep":
            # Seven suite calls a pass are too few for a tail: take each
            # suite's median call, so p99 is the slowest suite's median.
            latencies = [statistics.median(ts) for ts in by_suite.values()]
            samples = f"median call of each of {len(latencies)} suites"
        return (statistics.median(walls), statistics.median(rates),
                1e3 * statistics.median(latencies), 1e3 * p99(latencies), samples)

    def end_to_end(self) -> list[tuple[str, float, str, str]]:
        wall, rate, p50, p99_ms, samples = self._pass_timings(scale=True)
        raw = self._pass_timings(scale=False)
        n_pass = f"median of {len(self.passes)} passes"

        def probe_median(kind: str, unit: float) -> tuple[float, str]:
            unscaled = unit * statistics.median(p["seconds"] for p in self.probes[kind])
            return (unit * self.probe_s(kind),
                    f"median of {len(self.probes[kind])} processes; unscaled {unscaled:.6g}")

        setup, setup_note = probe_median("setup", 1.0)
        cold, cold_note = probe_median("cold", 1e3)
        return [
            ("setup_s", setup, "s", setup_note),
            ("wall_s", wall, "s", f"{n_pass}; unscaled {raw[0]:.6g}"),
            ("subjects_per_s", rate, "1/s", f"{n_pass}; unscaled {raw[1]:.6g}"),
            ("query_p50_ms", p50, "ms", f"{samples}; unscaled {raw[2]:.6g}"),
            ("query_p99_ms", p99_ms, "ms", f"{samples}; unscaled {raw[3]:.6g}"),
            ("cold_start_p50_ms", cold, "ms", cold_note),
            ("peak_rss_mb", self.final["peak_rss_mb"], "MB",
             "workload process, over set-up and the first pass"),
        ]

    def _subjects(self, record: dict) -> list[int]:
        if self.args.workload == "sweep":
            return [out["subjects"] for out in record["outputs"]]
        return [1] * len(record["outputs"])

    def per_layer(self) -> list[tuple[str, float, str, str]]:
        traced = [p for p in self.passes if p["traced"]]
        untraced = [scaled_wall(p) for p in self.passes if not p["traced"]]
        k = len(traced)
        stats = self.final["stats"]
        note = f"per pass, mean of {k} traced passes"

        out = []
        for name, fields in LAYER_FIELDS:
            calls, _total, self_s, items = (v / k for v in stats.get(name, (0, 0, 0, 0)))
            values = {"calls": (calls, "count"), "s": (self_s, "s"), "items": (items, "count"),
                      "checked": (items, "count"), "self_s": (self_s, "s")}
            for field in fields:
                value, unit = values[field]
                out.append((f"{name}.{field}", value, unit, note))

        for size, bench in self.final["factorize_by_size"].items():
            out.append((f"arith.factorize.us_p50.{size}",
                        1e6 * statistics.median(bench["latency_s"]), "us",
                        f"{len(bench['latency_s'])} inputs in [{size}, 10x{size})"))
        cache = self.final["is_prime_cache"]
        lookups = cache["hits"] + cache["misses"]
        out.append(("arith.is_prime.cache_hit_ratio", cache["hits"] / lookups if lookups else 0.0,
                    "ratio", f"hits / {lookups} lookups over the traced passes"))
        out.append(("arith.is_prime.cache_lookups", lookups / k, "count", note))

        # Wall times of whole processes, at reference speed like cold_start_p50_ms;
        # -X importtime inflates what it times, so it only gives numpy's share.
        interpreter = 1e3 * self.probe_s("interpreter")
        import_ms = 1e3 * self.probe_s("import") - interpreter
        numpy_share = statistics.median(numpy / total for total, numpy in (
            import_times(p["stderr"]) for p in self.probes["importtime"]))
        probes = f"medians of {len(self.probes['import'])} processes"
        out += [
            ("cli.interpreter_ms", interpreter, "ms", f"python -c pass, {probes}"),
            ("cli.import_ms", import_ms, "ms",
             f"python -c 'import entropia' minus python -c pass, {probes}"),
            ("cli.import_numpy_ms", numpy_share * import_ms, "ms",
             f"import_ms x numpy's share of it under -X importtime ({numpy_share:.3f})"),
            ("cli.cold_rest_ms", 1e3 * self.probe_s("cold") - interpreter - import_ms, "ms",
             "cold start minus interpreter and import"),
        ]

        traced_wall = statistics.median(scaled_wall(p) for p in traced)
        accounted = sum(self_s for _calls, _total, self_s, _items in stats.values())
        out += [
            ("trace.wall_s", traced_wall, "s",
             f"median of {k} traced passes, at reference speed"),
            ("trace.overhead_s", traced_wall - statistics.median(untraced), "s",
             f"median of {k} traced minus median of {len(untraced)} untraced passes"),
            ("trace.accounted_share", accounted / sum(p["wall_s"] for p in traced), "ratio",
             "self time of all spans / traced wall time, both unscaled"),
        ]
        return out


_LAWS = [fn for _, fn, _, _ in inputs.SWEEP_SUITES] + [
    "product_entropy_gap", "gap_formula", "classify_prop41"]

# Per-layer figures read from the tracer's per-name totals; ".s" is self time.
LAYER_FIELDS = [
    ("arith.factorize", ("calls", "s")),
    ("arith.is_prime", ("calls", "s")),
    ("arith.Factorization", ("calls", "s")),
    ("arith.spf_sieve", ("s",)),
    ("arith.factored_range", ("items", "s")),
    ("arith.exponential_divisors", ("calls", "items", "s")),
    ("arith.small_divisors", ("calls", "s")),
    ("arith.divisors", ("items", "s")),
    ("entropy.entropy_H", ("calls", "s")),
    ("entropy.entropy_Hbar", ("calls", "s")),
    ("entropy.entropy_H_appended", ("calls", "s")),
    ("numfield.split_prime", ("calls", "s")),
    ("numfield.ideal_entropy", ("calls", "s")),
    ("numfield.ideal_exponential_divisors", ("items", "s")),
    *[(f"laws.{fn}", ("s", "checked")) for fn in _LAWS],
    ("cli.main", ("calls", "self_s")),
    ("cli.canonical_json", ("s",)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "draws", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "entropia" / "__init__.py").is_file():
        print(f"error: no entropia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        run.measure()
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run.check()
    metrics = run.per_layer() if args.trace else run.end_to_end()

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for name, value, unit, note in metrics:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} ({note})")
    print(f"  {'reference_loop_ms':<44} {1e3 * run.reference_s():>14.6g} ms     "
          "(median of the reference loops run between operations and probes)")
    share = len(run.failures) / run.attempted
    print(f"  {'failed_share':<44} {share:>14.6g} ratio  "
          f"({len(run.failures)} of {run.attempted} operations rejected by the oracle)")
    for finding in run.findings:
        print(f"  finding: {finding}")
    for reason in run.failures[:10]:
        print(f"  FAILED: {reason}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
