"""Checkers and scanners for the product-entropy laws.

Each check_* function verifies one claimed inequality on concrete inputs and
raises VerificationError when the claim fails numerically; the sweep_* and
random_* functions run the same checks over ranges or seeded random draws
and return tallies instead of raising.  A failed claim is a finding, not a
bug: the scanners exist precisely to surface counterexamples.  SUITES is
the one registry of suites, which ``entropia verify`` runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, product as _cartesian

from . import arith, entropy, numfield
from .arith import Factorization
from .errors import DomainError, RangeError, VerificationError

EQUAL_TOL = 1e-12

MAX_VIOLATIONS_KEPT = 20

DEFAULT_SCAN_LIMIT = 10**4

# Values per exponent_stats call in a range sweep.
SWEEP_CHUNK = 1 << 16

# Pairs per block of the coprime-pair scan.
SCAN_BLOCK = 1 << 18

# Largest n whose e-divisors the edivisors suite enumerates.
ENUMERATION_LIMIT = 10**4


class Relation(str, Enum):
    LESS = "LESS"
    EQUAL = "EQUAL"
    GREATER = "GREATER"


def _relation(gap: float) -> Relation:
    if abs(gap) <= EQUAL_TOL:
        return Relation.EQUAL
    return Relation.GREATER if gap > 0 else Relation.LESS


def _require_bound(suite: str, bound: int, least: int = 2) -> None:
    if bound < least:
        raise DomainError(f"{suite} needs a range bound >= {least}, got {bound}")


@dataclass(frozen=True)
class GapReport:
    """H(mn) - H(m) - H(n) with its classification and the three entropies."""

    m: int
    n: int
    h_m: float
    h_n: float
    h_mn: float
    gap: float
    relation: Relation


def _gap_direct(m: int, n: int) -> GapReport:
    h_m = entropy.entropy_H(arith.factorize(m))
    h_n = entropy.entropy_H(arith.factorize(n))
    h_mn = entropy.entropy_H(arith.factorize(m * n))
    gap = h_mn - h_m - h_n
    return GapReport(m, n, h_m, h_n, h_mn, gap, _relation(gap))


def _merged_gap(fm: Factorization, fn: Factorization) -> GapReport:
    """The gap report of coprime m, n, with H(mn) from their merged entries:
    the same floats as _gap_direct, without factoring m, n or mn again."""
    h_m = entropy.entropy_H(fm)
    h_n = entropy.entropy_H(fn)
    h_mn = entropy.entropy_H(arith.coprime_product(fm, fn))
    gap = h_mn - h_m - h_n
    return GapReport(fm.value, fn.value, h_m, h_n, h_mn, gap, _relation(gap))


def gap_formula(fm: Factorization, fn: Factorization) -> float:
    """The gap H(mn) - H(m) - H(n) for coprime m, n in closed form.

    Derived directly from the definition of H:

        gap = [Omega(n)/Omega(m) * sum a_i log a_i
               + Omega(m)/Omega(n) * sum b_j log b_j] / (Omega(m) + Omega(n))
              - log(Omega(m) Omega(n) / (Omega(m) + Omega(n)))
    """
    om = arith.big_omega(fm)
    on = arith.big_omega(fn)
    sa = sum(a * math.log(a) for a in fm.exponents if a > 1)
    sb = sum(b * math.log(b) for b in fn.exponents if b > 1)
    total = om + on
    return (on * sa / om + om * sb / on) / total - math.log(om * on / total)


def product_entropy_gap(m: int, n: int) -> GapReport:
    """Gap report for coprime m, n >= 2, cross-checked against gap_formula.

    m and n are factored once each; H(mn) comes from their merged entries,
    which are the factorization of mn because m and n are coprime.  The
    direct and closed-form routes must agree to 1e-12 relative; a mismatch
    indicates a real defect and raises VerificationError.
    """
    if m < 2 or n < 2:
        raise DomainError("m and n must both be >= 2")
    if math.gcd(m, n) != 1:
        raise DomainError(f"gcd({m}, {n}) != 1")
    fm, fn = arith.factorize(m), arith.factorize(n)
    rep = _merged_gap(fm, fn)
    formula = gap_formula(fm, fn)
    if abs(rep.gap - formula) > EQUAL_TOL * max(1.0, abs(rep.gap)):
        raise VerificationError(
            f"gap routes disagree for ({m}, {n}): direct {rep.gap}, formula {formula}"
        )
    return rep


def _require_distinct_primes(*ps: int) -> None:
    if len(set(ps)) != len(ps):
        raise DomainError(f"primes must be distinct, got {ps}")
    for p in ps:
        if not arith.is_prime(p):
            raise DomainError(f"{p} is not prime")


def check_family_pkq(p: int, q: int, t: int, k: int) -> GapReport:
    """m = p^k q, n = p^k t (not coprime): H(mn) < H(m) + H(n) must hold."""
    _require_distinct_primes(p, q, t)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    rep = _gap_direct(p**k * q, p**k * t)
    if rep.relation is not Relation.LESS:
        raise VerificationError(f"expected LESS for p^k q family, got {rep}")
    return rep


def check_family_two_prime_powers(
    p1: int, p2: int, q1: int, q2: int, k: int
) -> GapReport:
    """m = p1^k p2, n = q1^k q2: equality at k = 1, strict GREATER for k >= 2."""
    _require_distinct_primes(p1, p2, q1, q2)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    rep = _gap_direct(p1**k * p2, q1**k * q2)
    expected = Relation.EQUAL if k == 1 else Relation.GREATER
    if rep.relation is not expected:
        raise VerificationError(f"expected {expected.value} at k={k}, got {rep}")
    return rep


def check_family_exponents_ge3(m: int, n: int) -> GapReport:
    """Coprime m, n with every exponent >= 3: H(mn) > H(m) + H(n) must hold."""
    if math.gcd(m, n) != 1:
        raise DomainError(f"gcd({m}, {n}) != 1")
    fm, fn = arith.factorize(m), arith.factorize(n)
    if not fm.entries or not fn.entries:
        raise DomainError("m and n must both be >= 2")
    if any(a < 3 for a in fm.exponents + fn.exponents):
        raise DomainError("every exponent of m and n must be >= 3")
    rep = _merged_gap(fm, fn)
    if rep.relation is not Relation.GREATER:
        raise VerificationError(f"expected GREATER for exponents>=3 family, got {rep}")
    return rep


@dataclass(frozen=True)
class Prop41Report:
    """Which trichotomy cases (n, p, alpha, beta) satisfies, and any failures.

    Cases (threshold T = Omega(n) e^{-H(n)}, boundaries overlap within tol):
      i:   beta >= T            -> claims H(n p^alpha) <= H(n p^beta)
      ii:  alpha <= T           -> claims H(n p^alpha) >= H(n p^beta)
      iii: beta <= T <= alpha   -> claims H(n p^alpha) <= H(n p^beta)
    """

    n: int
    p: int
    alpha: int
    beta: int
    threshold: float
    h_alpha: float
    h_beta: float
    cases: tuple[str, ...]
    contradictions: tuple[str, ...]


def classify_prop41(
    n: int, p: int, alpha: int, beta: int, *, strict: bool = True
) -> Prop41Report:
    """Classify the appended-prime-power trichotomy and verify its orderings.

    All satisfied cases are reported (they overlap at the threshold).  With
    strict=True a contradicted case raises VerificationError; scanners pass
    strict=False and tally the contradictions instead.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if n % p == 0:
        raise DomainError(f"p = {p} must be coprime to n = {n}")
    if not 1 <= beta <= alpha:
        raise DomainError(f"need alpha >= beta >= 1, got alpha={alpha}, beta={beta}")
    f = arith.factorize(n)
    t = arith.big_omega(f)
    h = entropy.entropy_H(f)
    thr = t * math.exp(-h)
    h_a = entropy.appended_closed_form(t, h, alpha)
    h_b = entropy.appended_closed_form(t, h, beta)
    cases: list[str] = []
    if beta >= thr - EQUAL_TOL:
        cases.append("i")
    if alpha <= thr + EQUAL_TOL:
        cases.append("ii")
    if beta <= thr + EQUAL_TOL and alpha >= thr - EQUAL_TOL:
        cases.append("iii")
    contradictions = []
    for case in cases:
        if case in ("i", "iii") and h_a > h_b + EQUAL_TOL:
            contradictions.append(case)
        elif case == "ii" and h_a < h_b - EQUAL_TOL:
            contradictions.append(case)
    report = Prop41Report(
        n, p, alpha, beta, thr, h_a, h_b, tuple(cases), tuple(contradictions)
    )
    if strict and contradictions:
        raise VerificationError(f"trichotomy contradicted: {report}")
    return report


@dataclass(frozen=True)
class CorollaryReport:
    """Outcome of an H(d_e) <= H(n) sweep over all e-divisors of one input."""

    subject: int | tuple[int, ...]
    h_subject: float
    checked: int
    violations: tuple[tuple[int | tuple[int, ...], float], ...]


def _edivisor_bound(
    subject: str, exponents: tuple[int, ...]
) -> tuple[float, int, list[tuple[tuple[int, ...], float]]]:
    """The e-divisor bound H(d_e) <= H on one exponent sequence: the
    exponents of an integer or the ramification indices of pO_K alike.

    Requires at least 3 exponents, each in {1, 2}.  Returns H of the
    sequence, the number of e-divisor vectors, and each vector whose entropy
    exceeds H by more than EQUAL_TOL, with that entropy, in product order.
    """
    if len(exponents) < 3:
        raise DomainError(f"{subject}: {len(exponents)} exponents, need at least 3")
    if any(a not in (1, 2) for a in exponents):
        raise DomainError(f"{subject}: an exponent outside {{1, 2}}")
    h = entropy.entropy_of_exponents(exponents)
    vectors = arith.exponential_divisor_vectors(exponents)
    hs = map(entropy.entropy_of_exponents, vectors)
    return h, len(vectors), [(v, h_v) for v, h_v in zip(vectors, hs) if h_v > h + EQUAL_TOL]


def check_corollary_int(n: int, *, strict: bool = True) -> CorollaryReport:
    """Assert H(d_e) <= H(n) for every e-divisor of n.

    Requires omega(n) >= 3 and every exponent in {1, 2}.  The claim fails
    for any such n with mixed exponents (the radical of n is an e-divisor
    with entropy log omega(n) > H(n)); strict=True raises on the first
    counterexample found.
    """
    f = arith.factorize(n)
    return _corollary_int_on(f, strict=strict)


def _corollary_int_on(f: Factorization, *, strict: bool) -> CorollaryReport:
    h_n, checked, bad = _edivisor_bound(f"n={f.value}", f.exponents)
    violations = sorted((math.prod(map(pow, f.primes, bs)), h_d) for bs, h_d in bad)
    report = CorollaryReport(f.value, h_n, checked, tuple(violations))
    if strict and violations:
        raise VerificationError(f"H(d_e) <= H(n) fails: {report}")
    return report


def check_corollary_ideal(
    sp: numfield.SplittingPattern, *, strict: bool = True
) -> CorollaryReport:
    """Ideal version: H of every e-divisor pattern <= H(I), for g >= 3 and
    all ramification indices in {1, 2}."""
    es = sp.ramification_indices
    h_i, checked, violations = _edivisor_bound(f"indices {es}", es)
    report = CorollaryReport(es, h_i, checked, tuple(violations))
    if strict and violations:
        raise VerificationError(f"H(d_e) <= H(I) fails: {report}")
    return report


@dataclass
class ScanSummary:
    """Deterministic tallies of a coprime-pair gap scan."""

    max_m: int
    max_n: int
    pairs: int = 0
    counts: dict[str, int] = field(
        default_factory=lambda: {"LESS": 0, "EQUAL": 0, "GREATER": 0}
    )
    witness_greater: tuple[int, int, float] | None = None
    witness_less: tuple[int, int, float] | None = None
    violations: list[str] = field(default_factory=list)


def scan_product_inequality(
    max_m: int, max_n: int, *, limit: int = DEFAULT_SCAN_LIMIT
) -> ScanSummary:
    """Classify the gap over all coprime pairs 2 <= m <= max_m, 2 <= n <= max_n.

    Also checks every pair matching one of the parametric family shapes
    against that family's claimed relation; mismatches land in violations.
    The p^k q / p^k t family shares the prime p, so its pairs are never
    coprime and never appear here.

    The gap depends only on the exponent sequences of m and n, so it is
    computed once per pair of sequences and broadcast over the grid, one
    block of rows at a time.  Witnesses are the first extreme pair in
    row-major order.
    """
    import numpy as np
    if max_m > limit or max_n > limit:
        raise RangeError(f"scan bounds above the limit {limit}")
    _require_bound("products", min(max_m, max_n))
    summary = ScanSummary(max_m, max_n)
    st = arith.exponent_stats(2, max(max_m, max_n) + 1)
    rows, seq = np.unique(st.exponents.T, axis=0, return_inverse=True)
    seq = seq.reshape(-1)
    exps = [tuple(int(a) for a in row if a) for row in rows]
    h = [entropy.entropy_of_exponents(e) for e in exps]
    gaps = np.array(
        [
            [entropy.entropy_of_exponents(ei + ej) - hi - hj for ej, hj in zip(exps, h)]
            for ei, hi in zip(exps, h)
        ]
    )
    # k of the two-prime-power shape {k, 1} over exactly two primes, else 0.
    shape = np.where((st.small_omega == 2) & (st.min_exp == 1), st.max_exp, 0)
    all_ge3 = st.min_exp >= 3
    ns = np.arange(2, max_n + 1)
    step = max(1, SCAN_BLOCK // len(ns))
    for lo in range(2, max_m + 1, step):
        ms = np.arange(lo, min(lo + step, max_m + 1))[:, None]
        coprime = np.gcd(ms, ns) == 1
        gap = gaps[seq[ms - 2], seq[ns - 2]]
        near = np.abs(gap) <= EQUAL_TOL
        equal = coprime & near
        greater = coprime & ~near & (gap > 0)
        less = coprime & ~equal & ~greater
        summary.pairs += int(coprime.sum())
        summary.counts["EQUAL"] += int(equal.sum())
        summary.counts["GREATER"] += int(greater.sum())
        summary.counts["LESS"] += int(less.sum())
        for attr, sign, mask in (
            ("witness_greater", 1.0, greater),
            ("witness_less", -1.0, less),
        ):
            if not mask.any():
                continue
            i, j = np.unravel_index(np.argmax(np.where(mask, sign * gap, -np.inf)), gap.shape)
            best = getattr(summary, attr)
            if best is None or sign * gap[i, j] > sign * best[2]:
                setattr(summary, attr, (int(ms[i, 0]), int(ns[j]), float(gap[i, j])))
        km, kn = shape[ms - 2], shape[ns - 2]
        wrong_shape = (km > 0) & (km == kn) & np.where(km == 1, ~equal, ~greater)
        wrong_ge3 = all_ge3[ms - 2] & all_ge3[ns - 2] & ~greater
        for i, j in zip(*np.nonzero(coprime & (wrong_shape | wrong_ge3))):
            m, n = int(ms[i, 0]), int(ns[j])
            rel = _relation(float(gap[i, j])).value
            if wrong_shape[i, j]:
                k = int(km[i, 0])
                expected = Relation.EQUAL if k == 1 else Relation.GREATER
                summary.violations.append(
                    f"two-prime-power shape ({m}, {n}), k={k}: "
                    f"expected {expected.value}, got {rel}"
                )
            else:
                summary.violations.append(
                    f"exponents>=3 shape ({m}, {n}): expected GREATER, got {rel}"
                )
    return summary


@dataclass
class CheckSummary:
    """Outcome of one sweep or randomized suite."""

    name: str
    checked: int
    violations: list[str] = field(default_factory=list)
    violation_count: int = 0
    extra: dict = field(default_factory=dict)

    def record(self, message: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATIONS_KEPT:
            self.violations.append(message)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def _stat_chunks(limit: int):
    """exponent_stats over [2, limit], SWEEP_CHUNK values at a time."""
    for lo in range(2, limit + 1, SWEEP_CHUNK):
        yield arith.exponent_stats(lo, min(lo + SWEEP_CHUNK, limit + 1))


def sweep_entropy_bounds(limit: int) -> CheckSummary:
    """Check 0 <= H(n) <= log omega(n) for every n in [2, limit]."""
    import numpy as np
    _require_bound("bounds", limit)
    summary = CheckSummary("bounds", 0)
    # log k for every Omega(n) and omega(n) of an int64 (k <= 63).
    logs = np.array([0.0] + [math.log(k) for k in range(1, 64)])
    for st in _stat_chunks(limit):
        big = st.big_omega
        h = np.where(big > 1, logs[big] - st.alog_sum / big, 0.0)
        ok = (-EQUAL_TOL <= h) & (h <= logs[st.small_omega] + EQUAL_TOL)
        summary.checked += len(h)
        for i in np.nonzero(~ok)[0]:
            summary.record(
                f"H({st.lo + i}) = {float(h[i])} outside [0, log {st.small_omega[i]}]"
            )
    return summary


def _corollary_class_violations(s: int, t: int) -> int:
    """Violating e-divisors of any n with s exponent-1 and t exponent-2 primes.

    An e-divisor keeping j of the squares has exponents 1^(s+t-j) 2^j, and
    C(t, j) e-divisors do.  The terms of H depend only on the exponent, so
    these synthetic sequences give the same floats as the real ones.
    """
    h_n = entropy.entropy_of_exponents((1,) * s + (2,) * t)
    return sum(
        math.comb(t, j)
        for j in range(t + 1)
        if entropy.entropy_of_exponents((1,) * (s + t - j) + (2,) * j)
        > h_n + EQUAL_TOL
    )


def sweep_corollary_int(limit: int) -> CheckSummary:
    """Run check_corollary_int over every conforming n <= limit.

    Violations are counted once per class (s, t) of conforming n and
    multiplied by the class size.  E-divisors are enumerated, through
    check_corollary_int's own route, only for the n whose witness lines are
    kept; a count that disagrees with the class count raises
    VerificationError.
    """
    import numpy as np
    _require_bound("corollary-int", limit)
    checked = 0
    total = 0
    witnesses: list[str] = []
    for st in _stat_chunks(limit):
        conforming = (st.small_omega >= 3) & (st.max_exp <= 2)
        t = st.squares[conforming]
        s = st.small_omega[conforming] - t
        classes = range(len(st.exponents) + 1)
        table = np.array(
            [[_corollary_class_violations(i, j) for j in classes] for i in classes]
        )
        counts = table[s, t]
        checked += len(counts)
        total += int(counts.sum())
        for n, count in zip(st.n[conforming][counts > 0], counts[counts > 0]):
            if len(witnesses) >= MAX_VIOLATIONS_KEPT:
                break
            rep = _corollary_int_on(arith.factorize(int(n)), strict=False)
            if len(rep.violations) != count:
                raise VerificationError(
                    f"n={n}: {len(rep.violations)} violating e-divisors, "
                    f"class count {count}"
                )
            for value, h_d in rep.violations:
                witnesses.append(
                    f"n={n}: H({value}) = {h_d:.12g} > H(n) = {rep.h_subject:.12g}"
                )
    return CheckSummary(
        "corollary-int", checked, witnesses[:MAX_VIOLATIONS_KEPT], total
    )


def _tau_e_by_kernel(st: arith.ExponentStats):
    """tau_e of every n in one exponent_stats block: the product of tau(a)
    over its exponents, tau being the one arith.tau_e takes."""
    import numpy as np
    # tau(a) for every exponent of an int64 (a <= 63); 0 stands for no prime.
    taus = np.array([1] + [arith.tau_e((a,)) for a in range(1, 64)])
    return taus[st.exponents].prod(axis=0)


def _convolution_weights(limit: int) -> list[tuple[int, int]]:
    """(k, g(k)) for every powerful k <= limit with g(k) != 0, k = 1 included.

    g is multiplicative with g(p) = 0 and g(p^a) = tau(a) - tau(a - 1) for
    a >= 2, so that tau_e = 1 * g (Subbarao, "On some arithmetic
    convolutions", LNM 251, 1972).  tau is counted here by its own sieve.
    """
    top = limit.bit_length()  # above every exponent of an n <= limit
    tau = [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            tau[m] += 1
    primes = arith.primes_up_to(math.isqrt(limit))
    out = [(1, 1)]

    def extend(k: int, g: int, first: int) -> None:
        for i in range(first, len(primes)):
            p = primes[i]
            q, a = k * p * p, 2
            if q > limit:
                return
            while q <= limit:
                w = g * (tau[a] - tau[a - 1])
                if w:  # a zero weight makes every multiple's weight zero too
                    out.append((q, w))
                    extend(q, w, i + 1)
                q, a = q * p, a + 1

    extend(1, 1, 0)
    return out


def _tau_e_by_convolution(limit: int):
    """tau_e(n) at index n for every n <= limit, as the sum of g(k) over k | n."""
    import numpy as np
    arith._require_sieve_limit(limit)
    acc = np.zeros(limit + 1, dtype=np.int32)
    for k, w in _convolution_weights(limit):
        acc[k::k] += w
    return acc


def _edivisors_by_definition(f: Factorization) -> list[int]:
    """The divisors d of n with the primes of n and v_p(d) | a_p at every p,
    ascending: the candidates are d = rad(n) d' for every d' | n / rad(n)."""
    rad = 1
    for p, _ in f.entries:
        rad *= p
    candidates = [rad]
    for p, a in f.entries:
        if a > 1:
            candidates = [d * p**k for d in candidates for k in range(a)]
    candidates.sort()
    out = []
    for d in candidates:
        for p, a in f.entries:
            v, m = 1, d // p  # p divides every candidate
            while m % p == 0:
                m //= p
                v += 1
            if a % v:
                break
        else:
            out.append(d)
    return out


def sweep_edivisor_counts(limit: int) -> CheckSummary:
    """tau_e(n) by two independent routes for every n in [2, limit], and the
    e-divisor enumerator against the definition for n <= ENUMERATION_LIMIT.

    The exponent kernel takes the product of tau(a) over the exponents of n;
    the convolution route sums g(k) over the powerful k | n.  Each n where
    they differ, or where exponential_divisors lists other values than the
    definition gives, is a violation.
    """
    _require_bound("edivisors", limit)
    convolution = _tau_e_by_convolution(limit)
    enumerated_to = min(limit, ENUMERATION_LIMIT)
    summary = CheckSummary(
        "edivisors", limit - 1, extra={"tauESum": 0, "enumeratedTo": enumerated_to}
    )
    for st in _stat_chunks(limit):
        kernel = _tau_e_by_kernel(st)
        convolved = convolution[st.lo : st.lo + len(kernel)]
        summary.extra["tauESum"] += int(kernel.sum())
        for i in (kernel != convolved).nonzero()[0]:
            summary.record(
                f"n={st.lo + i}: tau_e = {kernel[i]} by the exponent kernel, "
                f"{convolved[i]} by 1 * g"
            )
    for n in range(2, enumerated_to + 1):
        f = arith.factorize(n)
        got = arith.exponential_divisors(f)
        want = _edivisors_by_definition(f)
        if got != want:
            summary.record(f"n={n}: e-divisors {got} enumerated, {want} by definition")
    return summary


# The field matrix exercised by the splitting sweep and the acceptance suite.
FIELD_MATRIX: tuple[numfield.FieldSpec, ...] = tuple(
    [numfield.Quadratic(d) for d in (-1, 2, -2, 3, -3, 5, -5, 13)]
    + [numfield.CyclotomicPrime(l) for l in (3, 5, 7, 11, 13)]
    + [numfield.PureCubic(m) for m in (2, 3, 5, 7)]
)


def _pattern_faults(fld: numfield.FieldSpec, factors: tuple) -> tuple[str, ...]:
    """What the pattern of factors breaks in fld: sum e_i f_i = degree, and
    for a Galois field uniform (e, f), e f g = degree and H(p O_K) = log g
    to EQUAL_TOL.  Depends on the field and the factors alone, not on p."""
    try:  # SplittingPattern refuses sum e_i f_i != degree
        sp = numfield.SplittingPattern(factors, field=fld)
    except DomainError as exc:
        return (str(exc),)
    if not numfield.is_galois(fld):
        return ()
    es = set(sp.ramification_indices)
    fs = set(sp.residue_degrees)
    if len(es) != 1 or len(fs) != 1:
        return ("non-uniform Galois pattern",)
    faults = []
    if es.pop() * fs.pop() * sp.g != fld.degree:
        faults.append("efg != degree")
    if abs(numfield.ideal_entropy(sp) - math.log(sp.g)) > EQUAL_TOL:
        faults.append("H != log g")
    return tuple(faults)


def sweep_splitting(max_p: int, fields=FIELD_MATRIX) -> CheckSummary:
    """Structural splitting invariants over all primes <= max_p.

    For every field: sum e_i f_i = degree.  For Galois fields additionally
    uniform (e, f) with e f g = degree and H(p O_K) = log g to 1e-12.
    Every (field, p) is split, but each distinct pattern of a field is
    built and judged once, and each p with that pattern records its faults.
    """
    _require_bound("splitting", max_p)
    summary = CheckSummary("splitting", 0)
    primes = arith.primes_up_to(max_p)
    for fld in fields:
        label = numfield.field_label(fld)
        faults_of: dict[tuple[tuple[int, int], ...], tuple[str, ...]] = {}
        for p in primes:
            factors = numfield.split_factors(fld, p)
            faults = faults_of.get(factors)
            if faults is None:
                faults = faults_of[factors] = _pattern_faults(fld, factors)
            for fault in faults:
                summary.record(f"{label}, p={p}: {fault}")
        summary.checked += len(primes)
    return summary


def generated_ideal_patterns(max_p: int = 200) -> list[numfield.SplittingPattern]:
    """All patterns from the field matrix over primes <= max_p."""
    primes = arith.primes_up_to(max_p)
    return [numfield.split_prime(fld, p) for fld in FIELD_MATRIX for p in primes]


def sweep_ideal_edivisor_counts(max_p: int = 200) -> CheckSummary:
    """The e-divisor vectors of the ramification indices against the
    definition, every b with b_i | e_i in product order, over generated
    patterns."""
    _require_bound("ideal-edivisors", max_p)
    summary = CheckSummary("ideal-edivisors", 0)
    for sp in generated_ideal_patterns(max_p):
        summary.checked += 1
        es = sp.ramification_indices
        got = arith.exponential_divisor_vectors(es)
        want = [
            bs
            for bs in _cartesian(*(range(1, e + 1) for e in es))
            if all(e % b == 0 for e, b in zip(es, bs))
        ]
        if got != want:
            summary.record(f"pattern {sp.factors}: e-divisor vectors {got}, definition {want}")
    return summary


def sweep_corollary_ideal(max_g: int = 5) -> CheckSummary:
    """The e-divisor bound over every sequence of 3 <= g <= max_g
    ramification indices in {1, 2} (residue degrees are irrelevant to H).
    Each witness line names an e-divisor vector of its own sequence e."""
    _require_bound("corollary-ideal", max_g, least=3)
    summary = CheckSummary("corollary-ideal", 0)
    for g in range(3, max_g + 1):
        for es in _cartesian((1, 2), repeat=g):
            h_i, _, violations = _edivisor_bound(f"e={es}", es)
            summary.checked += 1
            for betas, h_d in violations:
                summary.record(f"e={es}: H({betas}) = {h_d:.12g} > H(I) = {h_i:.12g}")
    return summary


def _random_coprime_pair(rng: random.Random, bound: int) -> tuple[int, int]:
    while True:
        m = rng.randint(2, bound)
        n = rng.randint(2, bound)
        if math.gcd(m, n) == 1:
            return m, n


def random_eq_identity(
    count: int = 10**4, bound: int = 10**6, seed: int = 0
) -> CheckSummary:
    """product_entropy_gap's direct vs closed-form cross-check on random
    coprime pairs."""
    # Below 3 the only pair is (2, 2), which is never coprime.
    _require_bound("eq-identity", bound, least=3)
    rng = random.Random(seed)
    summary = CheckSummary("eq-identity", count, extra={"bound": bound, "seed": seed})
    for _ in range(count):
        try:
            product_entropy_gap(*_random_coprime_pair(rng, bound))
        except VerificationError as exc:
            summary.record(str(exc))
    return summary


def random_hbar_additivity(
    count: int = 10**4, bound: int = 10**3, seed: int = 0, tol: float = 1e-9
) -> CheckSummary:
    """|Hbar(mn) - Hbar(m) - Hbar(n)| <= tol on random coprime pairs."""
    rng = random.Random(seed)
    summary = CheckSummary("hbar-additivity", count, extra={"bound": bound})
    # v -> (factorization of v, Hbar(v)); Hbar(mn) is taken from the merge.
    cache: dict[int, tuple[Factorization, float]] = {}
    for _ in range(count):
        m, n = _random_coprime_pair(rng, bound)
        for v in (m, n):
            if v not in cache:
                f = arith.factorize(v)
                cache[v] = f, entropy.entropy_Hbar(f)
        (fm, hm), (fn, hn) = cache[m], cache[n]
        combined = entropy.entropy_Hbar(arith.coprime_product(fm, fn))
        if abs(combined - hm - hn) > tol:
            summary.record(f"({m}, {n}): residual {combined - hm - hn}")
    return summary


def check_hbar_closed_form(
    max_p: int = 50, max_alpha: int = 12, tol: float = 1e-9
) -> CheckSummary:
    """Closed-form hbar_prime_power vs brute-force divisor-sum Hbar(p^alpha)."""
    summary = CheckSummary("hbar-closed-form", 0)
    for p in arith.primes_up_to(max_p):
        for alpha in range(1, max_alpha + 1):
            closed = entropy.hbar_prime_power(p, alpha)
            brute = entropy.entropy_Hbar(arith.factorize(p**alpha))
            summary.checked += 1
            if abs(closed - brute) > tol:
                summary.record(f"p={p}, alpha={alpha}: {closed} vs {brute}")
    return summary


def check_hbar_limit_monotone(limit: int = 10**6) -> CheckSummary:
    """hbar_limit strictly decreasing over all primes <= limit."""
    import numpy as np
    _require_bound("hbar-limit", limit)
    primes = arith.primes_up_to(limit)
    p = np.array(primes, dtype=np.float64)
    values = p * np.log(p) / (p - 1) - np.log(p - 1)
    bad = np.nonzero(np.diff(values) >= 0)[0]
    kept = [
        f"not decreasing between primes {primes[i]} and {primes[i+1]}"
        for i in bad[:MAX_VIOLATIONS_KEPT]
    ]
    return CheckSummary("hbar-limit", len(primes), kept, len(bad), {"limit": limit})


def check_shannon_identity(max_p: int = 100, tol: float = 1e-12) -> CheckSummary:
    """H_S(1/p, 1-1/p) == (1 - 1/p) * hbar_limit(p) for primes p <= max_p."""
    _require_bound("shannon", max_p)
    summary = CheckSummary("shannon", 0)
    for p in arith.primes_up_to(max_p):
        hs = entropy.shannon_entropy(entropy.Distribution((1 / p, 1 - 1 / p)))
        rhs = (1 - 1 / p) * entropy.hbar_limit(p)
        summary.checked += 1
        if abs(hs - rhs) > tol:
            summary.record(f"p={p}: H_S = {hs}, identity value {rhs}")
    return summary


def check_appended_identity(
    count: int = 10**4, seed: int = 0, tol: float = 1e-12
) -> CheckSummary:
    """Closed-form entropy_H_appended vs direct entropy_H on random triples."""
    rng = random.Random(seed)
    primes = arith.primes_up_to(300)
    summary = CheckSummary("appended-identity", count, extra={"seed": seed})
    for _ in range(count):
        n = rng.randint(2, 10**5)
        p = rng.choice(primes)
        while n % p == 0:
            p = rng.choice(primes)
        alpha = rng.randint(1, 12)
        f = arith.factorize(n)
        closed = entropy.entropy_H_appended(f, p, alpha)
        power = Factorization(((p, alpha),), p**alpha)
        direct = entropy.entropy_H(arith.coprime_product(f, power))
        if abs(closed - direct) > tol * max(1.0, abs(direct)):
            summary.record(f"(n={n}, p={p}, alpha={alpha}): {closed} vs {direct}")
    return summary


def random_prop41(count: int = 10**4, seed: int = 0) -> CheckSummary:
    """Tally trichotomy contradictions over seeded random (n, p, alpha, beta).

    The case-iii claim is numerically false (e.g. n=12, p=5, alpha=2,
    beta=1), so a nonzero tally is the expected outcome of a full scan.
    """
    rng = random.Random(seed)
    primes = arith.primes_up_to(100)
    summary = CheckSummary("prop41", count, extra={"seed": seed})
    for _ in range(count):
        n = rng.randint(2, 10**4)
        p = rng.choice(primes)
        while n % p == 0:
            p = rng.choice(primes)
        beta = rng.randint(1, 8)
        alpha = beta + rng.randint(0, 8)
        rep = classify_prop41(n, p, alpha, beta, strict=False)
        if rep.contradictions:
            summary.record(
                f"(n={n}, p={p}, alpha={alpha}, beta={beta}): cases {rep.cases} "
                f"contradicted in {rep.contradictions}; H(np^a)={rep.h_alpha:.12g}, "
                f"H(np^b)={rep.h_beta:.12g}, threshold={rep.threshold:.12g}"
            )
    return summary


def random_exponents_ge3_family(
    count: int = 10**3, seed: int = 0
) -> CheckSummary:
    """check_family_exponents_ge3 on random shape-conforming coprime pairs."""
    rng = random.Random(seed)
    primes = arith.primes_up_to(60)
    summary = CheckSummary("exponents-ge3", count, extra={"seed": seed})
    for _ in range(count):
        ps = rng.sample(primes, rng.randint(2, 4))
        split = rng.randint(1, len(ps) - 1)
        m = math.prod(p ** rng.randint(3, 6) for p in ps[:split])
        n = math.prod(p ** rng.randint(3, 6) for p in ps[split:])
        try:
            check_family_exponents_ge3(m, n)
        except VerificationError as exc:
            summary.record(str(exc))
    return summary


def check_family_grids(
    pkq_primes: int = 10, pkq_max_k: int = 10, tpp_primes: int = 8, tpp_max_k: int = 8
) -> CheckSummary:
    """Both parametric family checks over their full stated grids."""
    summary = CheckSummary("families", 0)
    first = arith.primes_up_to(1000)
    base = first[:pkq_primes]
    for p in base:
        for q in base:
            for t in base:
                if len({p, q, t}) != 3:
                    continue
                for k in range(1, pkq_max_k + 1):
                    summary.checked += 1
                    try:
                        check_family_pkq(p, q, t, k)
                    except VerificationError as exc:
                        summary.record(str(exc))
    base = first[:tpp_primes]
    equal_at = set()
    for quad in combinations(base, 4):
        p1, p2, q1, q2 = quad
        for k in range(1, tpp_max_k + 1):
            summary.checked += 1
            try:
                rep = check_family_two_prime_powers(p1, p2, q1, q2, k)
                if rep.relation is Relation.EQUAL:
                    equal_at.add(k)
            except VerificationError as exc:
                summary.record(str(exc))
    summary.extra["equal_at_k"] = sorted(equal_at)
    if equal_at != {1}:
        summary.record(f"EQUAL observed at k = {sorted(equal_at)}, expected only 1")
    return summary


# Suite name -> (runner(bound, seed) -> summary, default bound, or None for a
# suite that takes no bound).  Each name is the one its summary reports.
SUITES = {
    "bounds": (lambda bound, seed: sweep_entropy_bounds(bound), 10**5),
    "products": (lambda bound, seed: scan_product_inequality(bound, bound), 200),
    "families": (lambda bound, seed: check_family_grids(), None),
    "eq-identity": (lambda bound, seed: random_eq_identity(bound=bound, seed=seed), 10**6),
    "prop41": (lambda bound, seed: random_prop41(seed=seed), None),
    "corollary-int": (lambda bound, seed: sweep_corollary_int(bound), 10**4),
    "corollary-ideal": (lambda bound, seed: sweep_corollary_ideal(), None),
    "splitting": (lambda bound, seed: sweep_splitting(bound), 10**4),
    "edivisors": (lambda bound, seed: sweep_edivisor_counts(bound), 10**4),
    "hbar-additivity": (lambda bound, seed: random_hbar_additivity(seed=seed), None),
    "shannon": (lambda bound, seed: check_shannon_identity(bound), 100),
    "hbar-closed-form": (lambda bound, seed: check_hbar_closed_form(), None),
    "hbar-limit": (lambda bound, seed: check_hbar_limit_monotone(bound), 10**6),
    "appended-identity": (lambda bound, seed: check_appended_identity(seed=seed), None),
    "exponents-ge3": (lambda bound, seed: random_exponents_ge3_family(seed=seed), None),
    "ideal-edivisors": (lambda bound, seed: sweep_ideal_edivisor_counts(), None),
}
