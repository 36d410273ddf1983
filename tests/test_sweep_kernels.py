"""The range sweeps on the exponent-statistics kernel against per-n loops.

The oracle functions below are the per-n loops the sweeps used before they
moved onto arith.exponent_stats, kept verbatim, with the smallest-prime-
factor sieve and decode they ran on.  The kernel sweeps must reproduce their
summaries exactly: tallies, messages, witnesses and the floats inside them.
"""

import math
from dataclasses import asdict
from functools import cache
from itertools import product as _cartesian

import numpy as np
import pytest

from entropia import arith, laws
from entropia.arith import Factorization
from entropia.errors import DomainError, RangeError
from entropia.laws import (
    DEFAULT_SCAN_LIMIT,
    EQUAL_TOL,
    CheckSummary,
    Relation,
    ScanSummary,
    _corollary_int_on,
    _relation,
)

CHUNK = laws.SWEEP_CHUNK
SWEEP_LIMITS = [2, 3, 100, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7, 10**5]


# --- the per-n loops, verbatim ------------------------------------------------


def spf_sieve(limit: int) -> np.ndarray:
    """Smallest-prime-factor table up to limit; spf[p] == p for primes."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[1] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p::p]
            view[view == 0] = p
    rest = spf == 0
    spf[rest] = np.nonzero(rest)[0]
    return spf


def factored_range(limit: int):
    """Yield (n, [(p, a), ...]) for every n in [2, limit] via an SPF table."""
    table = spf_sieve(limit).tolist()
    for n in range(2, limit + 1):
        m = n
        entries = []
        while m > 1:
            p = table[m]
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            entries.append((p, a))
        yield n, entries


def _entropy_of_exponents(exps: list[int]) -> float:
    omega_big = sum(exps)
    if omega_big <= 1:
        return 0.0
    acc = 0.0
    for a in exps:
        if a > 1:
            acc += (a / omega_big) * math.log(a)
    return math.log(omega_big) - acc


def _shape_k(exps: tuple[int, ...]) -> int | None:
    """k if the exponent multiset is {k, 1} over exactly two primes, else None."""
    if len(exps) != 2:
        return None
    hi, lo = max(exps), min(exps)
    return hi if lo == 1 else None


def loop_scan_product_inequality(
    max_m: int, max_n: int, *, limit: int = DEFAULT_SCAN_LIMIT
) -> ScanSummary:
    if max_m > limit or max_n > limit:
        raise RangeError(f"scan bounds above the limit {limit}")
    summary = ScanSummary(max_m, max_n)
    top = max(max_m, max_n)
    if top < 2:
        return summary
    facts: dict[int, list[tuple[int, int]]] = {}
    for v, entries in factored_range(top):
        facts[v] = entries
    h_cache = {v: _entropy_of_exponents([a for _, a in e]) for v, e in facts.items()}
    for m in range(2, max_m + 1):
        em = facts[m]
        for n in range(2, max_n + 1):
            if math.gcd(m, n) != 1:
                continue
            en = facts[n]
            summary.pairs += 1
            exps = [a for _, a in em] + [a for _, a in en]
            gap = _entropy_of_exponents(exps) - h_cache[m] - h_cache[n]
            rel = _relation(gap)
            summary.counts[rel.value] += 1
            if rel is Relation.GREATER and (
                summary.witness_greater is None or gap > summary.witness_greater[2]
            ):
                summary.witness_greater = (m, n, gap)
            if rel is Relation.LESS and (
                summary.witness_less is None or gap < summary.witness_less[2]
            ):
                summary.witness_less = (m, n, gap)
            km = _shape_k(tuple(a for _, a in em))
            kn = _shape_k(tuple(a for _, a in en))
            if km is not None and km == kn:
                expected = Relation.EQUAL if km == 1 else Relation.GREATER
                if rel is not expected:
                    summary.violations.append(
                        f"two-prime-power shape ({m}, {n}), k={km}: "
                        f"expected {expected.value}, got {rel.value}"
                    )
            if all(a >= 3 for a in exps) and rel is not Relation.GREATER:
                summary.violations.append(
                    f"exponents>=3 shape ({m}, {n}): expected GREATER, got {rel.value}"
                )
    return summary


def loop_sweep_entropy_bounds(limit: int) -> CheckSummary:
    """Check 0 <= H(n) <= log omega(n) for every n in [2, limit]."""
    summary = CheckSummary("bounds", 0)
    table = spf_sieve(limit).tolist()
    # Omega(n) <= 63 for anything a sweep can reach; table lookups only.
    logs = [0.0] + [math.log(k) for k in range(1, 64)]
    alog = [0.0] + [k * math.log(k) for k in range(1, 64)]
    for n in range(2, limit + 1):
        m = n
        omega_big = 0
        omega_small = 0
        s = 0.0
        while m > 1:
            p = table[m]
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            omega_big += a
            omega_small += 1
            s += alog[a]
        h = logs[omega_big] - s / omega_big if omega_big > 1 else 0.0
        summary.checked += 1
        if not -EQUAL_TOL <= h <= logs[omega_small] + EQUAL_TOL:
            summary.record(f"H({n}) = {h} outside [0, log {omega_small}]")
    return summary


def loop_sweep_corollary_int(limit: int) -> CheckSummary:
    """Run check_corollary_int over every conforming n <= limit."""
    summary = CheckSummary("corollary-int", 0)
    for n, entries in factored_range(limit):
        if len(entries) < 3 or any(a not in (1, 2) for _, a in entries):
            continue
        f = Factorization(tuple(entries), n)
        rep = _corollary_int_on(f, strict=False)
        summary.checked += 1
        for value, h_d in rep.violations:
            summary.record(
                f"n={n}: H({value}) = {h_d:.12g} > H(n) = {rep.h_subject:.12g}"
            )
    return summary


def loop_sweep_edivisor_counts(limit: int) -> tuple[CheckSummary, list[int]]:
    """Check |exponential_divisors(n)| == tau_e(n) for every n in [2, limit];
    also returns the count for each n."""
    summary = CheckSummary("edivisors", 0)
    counts = []
    for n, entries in factored_range(limit):
        f = Factorization(tuple(entries), n)
        expected = arith.tau_e(f.exponents)
        got = len(arith.exponential_divisors(f))
        counts.append(got)
        summary.checked += 1
        if got != expected:
            summary.record(f"n={n}: {got} e-divisors, tau_e = {expected}")
    return summary, counts


def loop_exponential_divisors(f: Factorization) -> list[Factorization]:
    if f.value == 1:
        raise DomainError("exponential divisors are defined only for n > 1")
    count = arith.tau_e(f.exponents)
    cap = arith.MAX_DIVISORS
    if count > cap:
        raise RangeError(f"{f.value} has {count} e-divisors, above the cap {cap}")
    choices = [arith.small_divisors(a) for a in f.exponents]
    primes = f.primes
    out = []
    for betas in _cartesian(*choices):
        val = 1
        for p, b in zip(primes, betas):
            val *= p**b
        out.append(Factorization(tuple(zip(primes, betas)), val))
    out.sort(key=lambda g: g.value)
    return out


# --- kernel sweeps against the loops ------------------------------------------


@pytest.mark.parametrize("limit", SWEEP_LIMITS)
def test_bounds_matches_loop(limit):
    assert asdict(laws.sweep_entropy_bounds(limit)) == asdict(
        loop_sweep_entropy_bounds(limit)
    )


@pytest.mark.parametrize("limit", SWEEP_LIMITS)
def test_corollary_int_matches_loop(limit):
    assert asdict(laws.sweep_corollary_int(limit)) == asdict(
        loop_sweep_corollary_int(limit)
    )


@pytest.mark.parametrize("bound", [2, 20, 200, 400])
def test_products_match_loop(bound):
    assert asdict(laws.scan_product_inequality(bound, bound)) == asdict(
        loop_scan_product_inequality(bound, bound)
    )


def test_products_rectangular_match_loop():
    for max_m, max_n in ((2, 50), (50, 2), (37, 120), (120, 37)):
        assert asdict(laws.scan_product_inequality(max_m, max_n)) == asdict(
            loop_scan_product_inequality(max_m, max_n)
        )


def test_products_blocks_match_one_block(monkeypatch):
    whole = asdict(laws.scan_product_inequality(150, 150))
    monkeypatch.setattr(laws, "SCAN_BLOCK", 149 * 7)  # 7 rows per block
    assert asdict(laws.scan_product_inequality(150, 150)) == whole


@pytest.mark.parametrize(
    "tol, kernel, loop, bound",
    [
        (-0.05, laws.sweep_entropy_bounds, loop_sweep_entropy_bounds, 3000),
        (-1e-9, laws.sweep_corollary_int, loop_sweep_corollary_int, 3000),
        (0.2, lambda b: laws.scan_product_inequality(b, b),
         lambda b: loop_scan_product_inequality(b, b), 60),
    ],
)
def test_violation_paths_match_loop(monkeypatch, tol, kernel, loop, bound):
    # A moved tolerance makes every sweep report violations, so the message
    # and witness paths are compared too, not just empty lists.
    monkeypatch.setattr(laws, "EQUAL_TOL", tol)
    monkeypatch.setitem(globals(), "EQUAL_TOL", tol)
    got = asdict(kernel(bound))
    assert got == asdict(loop(bound))
    assert got["violations"]


@cache
def loop_edivisor_counts() -> list[int]:
    """|exponential_divisors(n)| for n in [2, max(SWEEP_LIMITS)], by the loop."""
    summary, counts = loop_sweep_edivisor_counts(max(SWEEP_LIMITS))
    assert summary.ok
    return counts


@pytest.mark.parametrize("limit", [3000] + SWEEP_LIMITS)
def test_tau_e_routes_match_loop(limit):
    want = loop_edivisor_counts()[: limit - 1]
    kernel = np.concatenate([laws._tau_e_by_kernel(st) for st in laws._stat_chunks(limit)])
    assert kernel.tolist() == want
    assert laws._tau_e_by_convolution(limit)[2:].tolist() == want
    summary = laws.sweep_edivisor_counts(limit)
    assert summary.checked == limit - 1 and summary.ok
    assert summary.extra == {"tauESum": sum(want), "enumeratedTo": min(limit, 10**4)}


# --- goldens at the acceptance bounds -----------------------------------------


def test_bounds_golden():
    summary = laws.sweep_entropy_bounds(10**6)
    assert summary.checked == 999999
    assert summary.violation_count == 0 and summary.violations == []


def test_corollary_int_golden():
    summary = laws.sweep_corollary_int(10**5)
    assert summary.checked == 44503
    assert summary.violation_count == 18554
    assert len(summary.violations) == laws.MAX_VIOLATIONS_KEPT
    assert summary.violations[0] == (
        "n=60: H(30) = 1.09861228867 > H(n) = 1.03972077084"
    )


def test_edivisors_golden():
    summary = laws.sweep_edivisor_counts(10**5)
    assert summary.checked == 10**5 - 1
    assert summary.violation_count == 0 and summary.violations == []
    assert summary.extra == {"tauESum": 159860, "enumeratedTo": 10**4}


def test_products_golden():
    summary = laws.scan_product_inequality(400, 400)
    assert summary.counts == {"LESS": 15654, "EQUAL": 9842, "GREATER": 71060}
    assert summary.pairs == 15654 + 9842 + 71060
    assert summary.witness_greater[:2] == (32, 243)
    assert summary.witness_less[:2] == (78, 385)
    assert summary.violations == []


# --- empty ranges ---------------------------------------------------------------


@pytest.mark.parametrize("bound", [-1, 0, 1])
def test_sweeps_reject_empty_ranges(bound):
    for sweep in (
        laws.sweep_entropy_bounds,
        laws.sweep_corollary_int,
        laws.sweep_edivisor_counts,
        laws.sweep_splitting,
    ):
        with pytest.raises(DomainError):
            sweep(bound)
    with pytest.raises(DomainError):
        laws.scan_product_inequality(bound, 10)
    with pytest.raises(DomainError):
        laws.scan_product_inequality(10, bound)


# --- e-divisor enumeration ------------------------------------------------------


def test_exponential_divisors_match_loop():
    for n in range(2, 3001):
        f = arith.factorize(n)
        got = arith.exponential_divisors(f)
        want = [d.value for d in loop_exponential_divisors(f)]
        assert got == want, n


def test_small_divisors_memo_cannot_be_corrupted():
    first = arith.small_divisors(12)
    assert first == [1, 2, 3, 4, 6, 12]
    first.append(99)
    first[0] = -1
    assert arith.small_divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.small_divisors(12) is not arith.small_divisors(12)
    assert arith.tau_e(arith.factorize(2**12).exponents) == 6
    with pytest.raises(DomainError):
        arith.small_divisors(0)
