"""Independent oracle for every output the benchmark times.

It shares no code with entropia.  Factorizations come from sympy's
``factorint`` (that of a product of coprime numbers is the union of
theirs), and divisor lists, tau and sigma are expanded from them;
splitting patterns come from factoring the defining polynomial over F_p
(sympy's square-free and distinct-degree factorizations); entropies from
their Shannon definitions; and the range-sweep tallies from numpy sieves
and closed counts, not from the program's loops.  Each ``check_*`` returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter
from functools import lru_cache

import numpy as np
import sympy
from sympy import ZZ, Poly, cyclotomic_poly, symbols
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_sqf_list

REL_TOL = 1e-9  # the CLI prints 12 significant digits
EQUAL_TOL = 1e-12  # the program's LESS/EQUAL/GREATER and trichotomy tolerance
_X = symbols("x")


def close(got, want: float, tol: float = REL_TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))


@lru_cache(maxsize=1 << 18)
def factors(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sympy.factorint(n).items())


def exponents(n: int) -> tuple[int, ...]:
    return tuple(a for _, a in factors(n))


@lru_cache(maxsize=1 << 16)
def _shannon(exps: tuple[int, ...]) -> float:
    total = sum(exps)
    return -math.fsum(a / total * math.log(a / total) for a in exps) if total else 0.0


def shannon_H(exps) -> float:
    """Shannon entropy of the weights a_i / Omega, in nats."""
    return _shannon(tuple(sorted(exps)))


def H(n: int) -> float:
    return shannon_H(exponents(n))


def divisor_list(fac) -> list[int]:
    ds = [1]
    for p, a in fac:
        ds = [d * p**k for d in ds for k in range(a + 1)]
    return ds


def _hbar_of(ds: list[int]) -> float:
    """Shannon entropy of d / sigma over the divisors d."""
    sigma = sum(ds)
    return math.log(sigma) - math.fsum(d * math.log(d) for d in ds) / sigma


@lru_cache(maxsize=1 << 18)
def Hbar(n: int) -> float:
    return _hbar_of(divisor_list(factors(n)))


def relation(gap: float) -> str:
    """True relation of a gap that is either exactly 0 or far from it."""
    if abs(gap) < REL_TOL:
        return "EQUAL"
    return "GREATER" if gap > 0 else "LESS"


def _tau(k: int) -> int:
    return sum(1 for d in range(1, k + 1) if k % d == 0)


def edivisor_values(n: int) -> list[int]:
    choices = [[p**b for b in range(1, a + 1) if a % b == 0] for p, a in factors(n)]
    return sorted(math.prod(c) for c in itertools.product(*choices))


# --- per-input checks ------------------------------------------------------


def check_eq(m: int, n: int, out) -> str | None:
    h_m, h_n, h_mn, gap, rel = out
    want_mn = shannon_H(exponents(m) + exponents(n))
    want_gap = want_mn - H(m) - H(n)
    if not (close(h_m, H(m)) and close(h_n, H(n)) and close(h_mn, want_mn)
            and close(gap, want_gap) and rel == relation(want_gap)):
        return f"compare({m}, {n}) gave {out}, oracle gap {want_gap}"
    return None


def check_hbar(m: int, n: int, out) -> str | None:
    want = [Hbar(m), Hbar(n), _hbar_of(divisor_list(factors(m) + factors(n)))]
    if not all(close(g, w) for g, w in zip(out, want)):
        return f"Hbar of ({m}, {n}, {m * n}) gave {out}, oracle {want}"
    return None


def check_appended(n: int, p: int, alpha: int, out) -> str | None:
    want = shannon_H(exponents(n) + (alpha,))
    if not all(close(g, want) for g in out):
        return f"H({n}*{p}^{alpha}) gave {out}, oracle {want}"
    return None


def prop41(n: int, p: int, alpha: int, beta: int) -> tuple:
    """(threshold, H(n p^alpha), H(n p^beta), cases, contradicted cases)."""
    exps = exponents(n)
    thr = sum(exps) * math.exp(-shannon_H(exps))
    h_a = shannon_H(exps + (alpha,))
    h_b = shannon_H(exps + (beta,))
    cases = []
    if beta >= thr - EQUAL_TOL:
        cases.append("i")
    if alpha <= thr + EQUAL_TOL:
        cases.append("ii")
    if beta <= thr + EQUAL_TOL and alpha >= thr - EQUAL_TOL:
        cases.append("iii")
    contra = [c for c in cases
              if (c != "ii" and h_a > h_b + EQUAL_TOL) or (c == "ii" and h_a < h_b - EQUAL_TOL)]
    return thr, h_a, h_b, cases, contra


def check_prop41(n: int, p: int, alpha: int, beta: int, out) -> str | None:
    thr, h_a, h_b, cases, contra = prop41(n, p, alpha, beta)
    got_thr, got_a, got_b, got_cases, got_contra = out
    if not (close(got_thr, thr) and close(got_a, h_a) and close(got_b, h_b)
            and got_cases == cases and got_contra == contra):
        return f"prop41{(n, p, alpha, beta)} gave {out}, oracle {[thr, h_a, h_b, cases, contra]}"
    return None


def entropy_result(n: int) -> dict:
    exps = exponents(n)
    ds = divisor_list(factors(n))
    h = shannon_H(exps)
    return {
        "n": n, "H": h, "Hbar": _hbar_of(ds),
        "bigOmega": sum(exps), "smallOmega": len(exps), "tau": len(ds), "sigma": sum(ds),
        "tauE": math.prod(_tau(a) for a in exps), "threshold": sum(exps) * math.exp(-h),
    }


def compare_result(m: int, n: int) -> dict:
    h_mn = shannon_H(exponents(m) + exponents(n))
    gap = h_mn - H(m) - H(n)
    return {"m": m, "n": n, "Hm": H(m), "Hn": H(n), "Hmn": h_mn, "gap": gap,
            "relation": relation(gap)}


@lru_cache(maxsize=None)
def defining_polynomial(spec: str) -> tuple[int, ...]:
    """Integer coefficients of a monic generator of the ring of integers."""
    family, value = spec.split(":")
    k = int(value)
    if family == "quad":
        poly = _X**2 - _X - (k - 1) // 4 if k % 4 == 1 else _X**2 - k
    elif family == "cyclo":
        poly = cyclotomic_poly(k, _X)
    elif family == "cubic":
        poly = _X**3 - k
    else:
        raise ValueError(f"unknown field family in {spec!r}")
    return tuple(int(c) for c in Poly(poly, _X).all_coeffs())


@lru_cache(maxsize=1 << 14)
def ideal_result(spec: str, p: int) -> dict:
    """Dedekind-Kummer: p O_K factors as the defining polynomial does mod p."""
    coeffs = defining_polynomial(spec)
    factors = []
    # square-free parts give the multiplicities e, distinct-degree
    # factorization of each part the number of irreducibles of each degree f
    for part, e in gf_sqf_list([c % p for c in coeffs], p, ZZ)[1]:
        for product, f in gf_ddf_zassenhaus(part, p, ZZ):
            factors += [(e, f)] * ((len(product) - 1) // f)
    factors.sort(reverse=True)
    es = [e for e, _ in factors]
    return {"field": spec, "degree": len(coeffs) - 1, "p": p,
            "factors": [list(f) for f in factors], "g": len(factors),
            "H": shannon_H(es),
            "tau": math.prod(e + 1 for e in es), "tauE": math.prod(_tau(e) for e in es)}


def edivisors_result(n: int) -> dict:
    values = edivisor_values(n)
    return {"n": n, "count": len(values), "edivisors": values}


def _matches(got, want) -> bool:
    if isinstance(want, float):
        return close(got, want)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() >= want.keys() and all(
            _matches(got[k], v) for k, v in want.items())
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _matches(g, w) for g, w in zip(got, want))
    return got == want


def cli_expected(argv: list[str]) -> dict:
    """The result an ``entropia --json <command> ...`` call must report."""
    command, *rest = argv[1:]
    if command == "entropy":
        return entropy_result(int(rest[0]))
    if command == "compare":
        return compare_result(int(rest[0]), int(rest[1]))
    if command == "ideal":
        return ideal_result(rest[0], int(rest[1]))
    if command == "edivisors":
        return edivisors_result(int(rest[0]))
    raise ValueError(f"no oracle for command {command!r}")


def check_cli(argv: list[str], code: int, stdout: str) -> str | None:
    if code != 0:
        return f"{' '.join(argv)} exited {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"{' '.join(argv)} printed no JSON envelope"
    want = cli_expected(argv)
    if doc.get("status") != "ok" or doc.get("command") != argv[1] or not _matches(
            doc.get("result"), want):
        return f"{' '.join(argv)} gave {stdout.strip()}, oracle {want}"
    return None


def check_factorization(n: int, entries) -> str | None:
    want = sorted(factors(n))
    if [tuple(e) for e in entries] != want:
        return f"factorize({n}) gave {entries}, oracle {want}"
    return None


# --- range sweeps ----------------------------------------------------------

# Fields of laws.FIELD_MATRIX, the matrix both splitting sweeps run over.
FIELD_COUNT = 8 + 5 + 4


def _mixed_corollary(s: int, t: int) -> int:
    """E-divisors of n (s exponent-1 and t exponent-2 primes) with H above H(n).

    An e-divisor keeps a square at j of the t primes and the first power at
    the rest, so its exponent multiset is (s + t - j) ones and j twos.
    """
    h_n = shannon_H((1,) * s + (2,) * t)
    return sum(math.comb(t, j) for j in range(t + 1)
               if shannon_H((1,) * (s + t - j) + (2,) * j) > h_n + EQUAL_TOL)


def corollary_int_tallies(limit: int) -> dict:
    """Conforming n <= limit (omega >= 3, exponents in {1, 2}) and violations."""
    omega = np.zeros(limit + 1, dtype=np.int64)
    squares = np.zeros(limit + 1, dtype=np.int64)
    cubed = np.zeros(limit + 1, dtype=bool)
    for p in sympy.primerange(2, limit + 1):
        omega[p::p] += 1
        squares[p * p :: p * p] += 1
        cubed[p**3 :: p**3] = True
    conforming = (omega >= 3) & ~cubed
    classes = Counter(zip((omega - squares)[conforming].tolist(),
                          squares[conforming].tolist()))
    per_class = {st: _mixed_corollary(*st) for st in classes}
    return {
        "subjects": int(conforming.sum()),
        "violations": sum(count * per_class[st] for st, count in classes.items()),
        "failing_subjects": sum(count for st, count in classes.items() if per_class[st]),
    }


def corollary_ideal_tallies(max_g: int) -> dict:
    patterns = [es for g in range(3, max_g + 1) for es in itertools.product((1, 2), repeat=g)]
    per = [_mixed_corollary(es.count(1), es.count(2)) for es in patterns]
    return {"subjects": len(patterns), "violations": sum(per),
            "failing_subjects": sum(1 for v in per if v)}


def _shape_k(exps) -> int | None:
    return max(exps) if len(exps) == 2 and min(exps) == 1 else None


def products_tallies(max_m: int, max_n: int) -> dict:
    """Coprime-pair gap scan, vectorised over the whole grid."""
    top = max(max_m, max_n)
    values = np.arange(2, top + 1)
    exps = [exponents(int(v)) for v in values]
    omega = np.array([sum(e) for e in exps], dtype=float)
    alog = np.array([math.fsum(a * math.log(a) for a in e) for e in exps])
    h = np.array([shannon_H(e) for e in exps])
    m, n = values[: max_m - 1, None], values[None, : max_n - 1]
    coprime = np.gcd(m, n) == 1
    om, on = omega[: max_m - 1, None], omega[None, : max_n - 1]
    total = om + on
    h_mn = np.log(total) - (alog[: max_m - 1, None] + alog[None, : max_n - 1]) / total
    gap = np.where(coprime, h_mn - h[: max_m - 1, None] - h[None, : max_n - 1], np.nan)
    g = gap[coprime]
    equal = np.abs(g) < REL_TOL
    shape_violations = 0
    for i, j in zip(*np.nonzero(coprime)):
        ei, ej = exps[i], exps[j]
        k = _shape_k(ei)
        if k is not None and k == _shape_k(ej):
            shape_violations += relation(gap[i, j]) != ("EQUAL" if k == 1 else "GREATER")
        if min(ei + ej) >= 3:
            shape_violations += relation(gap[i, j]) != "GREATER"
    return {
        "subjects": int(coprime.sum()),
        "counts": {"LESS": int((~equal & (g < 0)).sum()), "EQUAL": int(equal.sum()),
                   "GREATER": int((~equal & (g > 0)).sum())},
        "max_gap": float(g.max()), "min_gap": float(g.min()),
        "violations": shape_violations,
        # smallest |gap| that is not a true zero: the classification margin
        "margin": float(np.abs(g[~equal]).min()),
    }


@lru_cache(maxsize=4)
def sweep_expected(suites: tuple) -> dict:
    """Expected tallies of each (name, laws function, bounds) suite, derived here."""
    out = {}
    for name, _fn, args in suites:
        if name == "bounds":
            out[name] = {"subjects": args[0] - 1, "violations": 0}
        elif name == "corollary-int":
            out[name] = corollary_int_tallies(args[0])
        elif name == "edivisors":
            out[name] = {"subjects": args[0] - 1, "violations": 0}
        elif name == "products":
            out[name] = products_tallies(*args)
        elif name == "splitting":
            out[name] = {"subjects": FIELD_COUNT * int(sympy.primepi(args[0])),
                         "violations": 0}
        elif name == "ideal-edivisors":  # default max_p = 200
            out[name] = {"subjects": FIELD_COUNT * int(sympy.primepi(args[0] if args else 200)),
                         "violations": 0}
        elif name == "corollary-ideal":  # default max_g = 5
            out[name] = corollary_ideal_tallies(args[0] if args else 5)
        else:
            raise ValueError(f"no expected tallies for suite {name!r}")
    return out


_INT_WITNESS = re.compile(r"n=(\d+): H\((\d+)\) = (\S+) > H\(n\) = (\S+)$")
_IDEAL_WITNESS = re.compile(r"e=\(([\d, ]+)\): H\(\(([\d, ]+)\)\) = (\S+) > H\(I\) = (\S+)$")


def _divides_each(betas, es) -> bool:
    return len(betas) == len(es) and all(e % b == 0 for b, e in zip(betas, es))


def check_witness(suite: str, message: str) -> str | None:
    """Re-check one reported counterexample; None if it is a true one.

    Returns "unparsed" for a message in a format this oracle does not read.
    """
    if suite == "corollary-int":
        hit = _INT_WITNESS.match(message)
        if not hit:
            return "unparsed"
        n, d = int(hit[1]), int(hit[2])
        h_d, h_n = H(d), H(n)
        ok = (d in edivisor_values(n) and h_d > h_n + EQUAL_TOL
              and close(float(hit[3]), h_d) and close(float(hit[4]), h_n))
    elif suite == "corollary-ideal":
        hit = _IDEAL_WITNESS.match(message)
        if not hit:
            return "unparsed"
        es = tuple(int(v) for v in hit[1].split(","))
        betas = tuple(int(v) for v in hit[2].split(","))
        h_d, h_i = shannon_H(betas), shannon_H(es)
        # the beta vector may be listed in the pattern's canonical (descending) order
        fits = _divides_each(betas, es) or _divides_each(betas, sorted(es, reverse=True))
        ok = (fits and h_d > h_i + EQUAL_TOL
              and close(float(hit[3]), h_d) and close(float(hit[4]), h_i))
    else:
        return "unparsed"
    return None if ok else f"{suite} witness is not a counterexample: {message}"


def check_sweep_suite(name: str, subjects: int, summary: dict, want: dict) -> list[str]:
    """Problems with one suite's summary; empty when it matches the oracle."""
    problems = []
    if subjects != want["subjects"]:
        problems.append(f"{name}: {subjects} subjects, oracle {want['subjects']}")
    if name == "products":
        if summary["counts"] != want["counts"]:
            problems.append(f"products: counts {summary['counts']}, oracle {want['counts']}")
        if len(summary["violations"]) != want["violations"]:
            problems.append(f"products: {len(summary['violations'])} shape violations, "
                            f"oracle {want['violations']}")
        for key, extreme, rel in (("witness_greater", want["max_gap"], "GREATER"),
                                  ("witness_less", want["min_gap"], "LESS")):
            if summary[key] is None:
                if want["counts"][rel]:
                    problems.append(f"products: no {key}, oracle {want['counts'][rel]} pairs")
                continue
            m, n, gap = summary[key]
            oracle_gap = shannon_H(exponents(m) + exponents(n)) - H(m) - H(n)
            if not (close(gap, oracle_gap) and close(gap, extreme) and math.gcd(m, n) == 1):
                problems.append(f"products: {key} {summary[key]} is not the extreme gap {extreme}")
        return problems
    if summary["violation_count"] != want["violations"]:
        problems.append(f"{name}: {summary['violation_count']} violations, "
                        f"oracle {want['violations']}")
    for message in summary["violations"]:
        reason = check_witness(name, message)
        if reason not in (None, "unparsed"):
            problems.append(reason)
    return problems


def check_pass(workload: str, data, outputs: list) -> list[str | None]:
    """One verdict per operation of a pass over inputs.pass_inputs data."""
    count = sum(map(len, data.values())) if workload == "draws" else len(data)
    if len(outputs) != count:
        return [f"{len(outputs)} outputs for {count} inputs"]
    if workload == "sweep":
        expected = sweep_expected(data)
        return ["; ".join(check_sweep_suite(name, out["subjects"], out["summary"],
                                            expected[name])) or None
                for (name, _fn, _args), out in zip(data, outputs)]
    if workload == "draws":
        outs = iter(outputs)
        return ([check_eq(m, n, next(outs)) for m, n in data["eq"]]
                + [check_hbar(m, n, next(outs)) for m, n in data["hbar"]]
                + [check_appended(*draw, next(outs)) for draw in data["appended"]]
                + [check_prop41(*draw, next(outs)) for draw in data["prop41"]])
    return [check_cli(argv, code, stdout) for argv, (code, stdout) in zip(data, outputs)]
