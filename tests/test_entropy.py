import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropia import arith, entropy
from entropia.arith import factorize
from entropia.entropy import (
    Distribution,
    entropy_H,
    entropy_H_appended,
    entropy_Hbar,
    entropy_report,
    hbar_limit,
    hbar_prime_power,
    shannon_entropy,
    threshold,
)
from entropia.errors import DomainError


def divisor_sum_hbar(ds):
    """-sum w log w over the divisors ds, w = d / sigma, independent of the package.

    No term cancels: log w is log1p(-(sigma - d) / sigma) when w > 1/2.
    """
    sigma = sum(ds)
    return -math.fsum(
        d / sigma
        * (math.log1p(-(sigma - d) / sigma) if 2 * d > sigma else math.log(d / sigma))
        for d in ds
    )


def brute_hbar(n):
    """Divisor-sum oracle for the divisor entropy, over divisors found by trial."""
    return divisor_sum_hbar([d for d in range(1, n + 1) if n % d == 0])


# --- exponent entropy H -----------------------------------------------------


def test_H_goldens():
    assert entropy_H(factorize(6)) == pytest.approx(math.log(2), abs=1e-15)
    assert entropy_H(factorize(2310)) == pytest.approx(math.log(5), abs=1e-15)
    # the 1/4 factor matters: the value is 0.5623..., not 2.2493...
    assert entropy_H(factorize(24)) == pytest.approx(
        math.log(4) - 0.75 * math.log(3), abs=1e-15
    )
    assert entropy_H(factorize(180)) == pytest.approx(
        math.log(5) - 0.8 * math.log(2), abs=1e-15
    )


def test_H_prime_powers_exactly_zero():
    for p in (2, 3, 5, 31):
        for a in (1, 2, 7):
            assert entropy_H(factorize(p**a)) == 0.0
    assert entropy_H(factorize(1)) == 0.0


@given(st.integers(min_value=2, max_value=10**5))
def test_H_bounds(n):
    f = factorize(n)
    h = entropy_H(f)
    assert -1e-12 <= h <= math.log(arith.small_omega(f)) + 1e-12


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=10**4), st.integers(min_value=1, max_value=5))
def test_H_power_invariant(n, k):
    assert entropy_H(factorize(n**k)) == pytest.approx(
        entropy_H(factorize(n)), abs=1e-12
    )


def test_H_squarefree_and_uniform_powers_hit_upper_bound():
    for n in (30, 2310, 6):
        f = factorize(n)
        assert entropy_H(f) == pytest.approx(math.log(arith.small_omega(f)), abs=1e-12)
    for k in (2, 3, 5):
        f = factorize((2 * 3 * 5) ** k)
        assert entropy_H(f) == pytest.approx(math.log(3), abs=1e-12)


# --- Shannon entropy --------------------------------------------------------


def test_shannon_goldens():
    assert shannon_entropy(Distribution((0.5, 0.5))) == pytest.approx(math.log(2))
    assert shannon_entropy(Distribution((1.0,))) == 0.0


def test_distribution_validation():
    with pytest.raises(DomainError):
        Distribution((0.5, 0.6))
    with pytest.raises(DomainError):
        Distribution((1.5, -0.5))
    with pytest.raises(DomainError):
        Distribution(())


def test_shannon_two_point_identity():
    # H_S(1/p, 1 - 1/p) = (1 - 1/p) * lim_alpha Hbar(p^alpha)
    for p in arith.primes_up_to(100):
        hs = shannon_entropy(Distribution((1 / p, 1 - 1 / p)))
        assert hs == pytest.approx((1 - 1 / p) * hbar_limit(p), abs=1e-12)


# --- divisor entropy Hbar ---------------------------------------------------


def test_hbar_goldens():
    assert entropy_Hbar(factorize(1)) == 0.0
    assert entropy_Hbar(factorize(2)) == pytest.approx(
        math.log(3) - (2 / 3) * math.log(2), abs=1e-15
    )
    assert entropy_Hbar(factorize(6)) == pytest.approx(brute_hbar(6), abs=1e-12)
    assert entropy_Hbar(factorize(6)) == pytest.approx(
        entropy_Hbar(factorize(2)) + entropy_Hbar(factorize(3)), abs=1e-12
    )


def _mpmath_hbar(f, mpmath):
    """Hbar to 60 digits from the divisors, expanded from f's entries."""
    ds = [1]
    for p, a in f.entries:
        ds = [d * p**k for d in ds for k in range(a + 1)]
    # The difference below loses about as many digits as sigma has.
    with mpmath.workdps(60 + len(str(sum(ds)))):
        sigma = mpmath.mpf(sum(ds))
        return mpmath.log(sigma) - mpmath.fsum(d * mpmath.log(d) for d in ds) / sigma


def test_hbar_relative_error_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(9)
    values = [*range(2, 3001), *(rng.randint(2, 10**12) for _ in range(500))]
    values += [963761198400, 2**39, 3**25]  # 6720 divisors; long prime powers
    values += [999999999989, 10**18 + 3, 10**307 + 657]  # primes: Hbar ~ log p / p
    fs = [factorize(n) for n in values]
    p, q = 1000000000000037, 3000000000000037  # a 31-digit semiprime
    fs.append(arith.Factorization(((p, 1), (q, 1)), p * q))
    assert entropy_Hbar(factorize(1)) == 0.0
    for f in fs:
        want = _mpmath_hbar(f, mpmath)
        assert abs(entropy_Hbar(f) - want) <= 1e-14 * want, f.value


def test_unordered_divisors_are_the_divisors():
    for n in (1, 2, 12, 360, 2**10 * 3**3 * 7):
        f = factorize(n)
        ds = arith.unordered_divisors(f)
        assert ds[0] == 1
        assert sorted(ds) == [d for d in range(1, n + 1) if n % d == 0]


@given(st.integers(min_value=2, max_value=2000))
def test_hbar_matches_bruteforce(n):
    assert entropy_Hbar(factorize(n)) == pytest.approx(brute_hbar(n), rel=1e-13)


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=10**3), st.integers(min_value=2, max_value=10**3))
def test_hbar_additive_on_coprime(m, n):
    if math.gcd(m, n) != 1:
        return
    dm = [d for d in range(1, m + 1) if m % d == 0]
    dn = [d for d in range(1, n + 1) if n % d == 0]
    assert divisor_sum_hbar([a * b for a in dm for b in dn]) == pytest.approx(
        entropy_Hbar(factorize(m)) + entropy_Hbar(factorize(n)), rel=1e-13
    )


def test_hbar_prime_power_closed_form():
    for p in (2, 3, 5, 7, 47):
        for alpha in range(1, 13):
            closed = hbar_prime_power(p, alpha)
            assert closed == pytest.approx(
                divisor_sum_hbar([p**k for k in range(alpha + 1)]), rel=1e-13
            )
            assert closed == entropy_Hbar(factorize(p**alpha))
    with pytest.raises(DomainError):
        hbar_prime_power(4, 2)


def test_hbar_prime_power_approaches_limit():
    for p in (2, 3, 11):
        lim = hbar_limit(p)
        deltas = [abs(hbar_prime_power(p, a) - lim) for a in (5, 20, 80)]
        assert deltas == sorted(deltas, reverse=True)
        assert deltas[-1] < 1e-9
    # huge alpha must not overflow
    assert hbar_prime_power(2, 10**6) == pytest.approx(hbar_limit(2), abs=1e-12)


def test_hbar_limit_goldens():
    assert hbar_limit(2) == pytest.approx(2 * math.log(2), abs=1e-15)
    assert hbar_limit(3) == pytest.approx(1.5 * math.log(3) - math.log(2), abs=1e-15)
    assert hbar_limit(999983) < 2e-5
    with pytest.raises(DomainError):
        hbar_limit(9)


def test_hbar_limit_relative_error_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for p in (2, 3, 999983, 999999999989, 10**18 + 3):
        with mpmath.workdps(60):
            want = -mpmath.log1p(-mpmath.mpf(1) / p) + mpmath.log(p) / (p - 1)
        assert abs(hbar_limit(p) - want) <= 1e-14 * want, p


# --- appended prime power ---------------------------------------------------


def test_appended_goldens():
    f6 = factorize(6)
    assert entropy_H_appended(f6, 5, 2) == pytest.approx(
        math.log(4) - 0.5 * math.log(2), abs=1e-12
    )
    assert entropy_H_appended(f6, 5, 1) == pytest.approx(math.log(3), abs=1e-12)
    assert entropy_H_appended(f6, 5, 10**6) < 5e-5


def test_appended_validation():
    f6 = factorize(6)
    with pytest.raises(DomainError):
        entropy_H_appended(f6, 3, 1)  # p | n
    with pytest.raises(DomainError):
        entropy_H_appended(f6, 4, 1)  # not prime
    with pytest.raises(DomainError):
        entropy_H_appended(factorize(1), 5, 1)


def test_appended_matches_direct_on_random_triples():
    rng = random.Random(1)
    primes = arith.primes_up_to(200)
    for _ in range(500):
        n = rng.randint(2, 10**4)
        p = rng.choice(primes)
        while n % p == 0:
            p = rng.choice(primes)
        alpha = rng.randint(1, 10)
        closed = entropy_H_appended(factorize(n), p, alpha)
        direct = entropy_H(factorize(n * p**alpha))
        assert closed == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_appended_closed_form_relative_error_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for n in (6, 12, 2310, 2**3 * 3**5 * 7):
        exps = factorize(n).exponents
        t, h = sum(exps), entropy_H(factorize(n))
        for alpha in (1, 7, 10**6, 10**12, 10**15):
            with mpmath.workdps(60):
                total = t + alpha
                want = mpmath.log(total) - (
                    mpmath.fsum(a * mpmath.log(a) for a in (*exps, alpha)) / total
                )
            got = entropy.appended_closed_form(t, h, alpha)
            assert abs(got - want) <= 1e-14 * want, (n, alpha)


def test_appended_tail_decreasing_for_squarefree_base():
    f6 = factorize(6)
    values = [entropy_H_appended(f6, 5, a) for a in range(2, 40)]
    assert all(x > y for x, y in zip(values, values[1:]))


# --- threshold --------------------------------------------------------------


def test_threshold_goldens():
    assert threshold(factorize(30)) == pytest.approx(1.0, abs=1e-12)
    assert threshold(factorize(2**5)) == pytest.approx(5.0, abs=1e-12)
    assert threshold(factorize(12)) == pytest.approx(2 ** (2 / 3), abs=1e-12)
    with pytest.raises(DomainError):
        threshold(factorize(1))


# --- report -----------------------------------------------------------------


def test_entropy_report_consistency():
    rep = entropy_report(24)
    assert rep.big_omega == 4 and rep.small_omega == 2
    assert rep.tau == 8 and rep.sigma == 60 and rep.tau_e == 2
    assert rep.threshold == pytest.approx(rep.big_omega * math.exp(-rep.H), rel=1e-12)
    with pytest.raises(DomainError):
        entropy_report(1)
