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


def brute_hbar(n):
    """Divisor-sum oracle for the divisor entropy, independent of the package."""
    ds = [d for d in range(1, n + 1) if n % d == 0]
    sigma = sum(ds)
    return math.log(sigma) - math.fsum(d * math.log(d) for d in ds) / sigma


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


def _hbar_sorted_oracle(f):
    """entropy_Hbar as it was: fsum over the ascending divisors d > 1."""
    if f.value == 1:
        return 0.0
    sigma = arith.divisor_sum(f)
    acc = math.fsum(d * math.log(d) for d in sorted(arith.unordered_divisors(f)) if d > 1)
    return math.log(sigma) - acc / sigma


def test_hbar_equals_the_sorted_divisor_sum_bit_for_bit():
    rng = random.Random(9)
    values = [*range(1, 3001), *(rng.randint(2, 10**12) for _ in range(500))]
    values += [963761198400, 2**39, 3**25]  # 6720 divisors; long prime powers
    for n in values:
        f = factorize(n)
        assert entropy_Hbar(f).hex() == _hbar_sorted_oracle(f).hex(), n


def test_unordered_divisors_are_the_divisors():
    for n in (1, 2, 12, 360, 2**10 * 3**3 * 7):
        f = factorize(n)
        ds = arith.unordered_divisors(f)
        assert ds[0] == 1
        assert sorted(ds) == [d for d in range(1, n + 1) if n % d == 0]


@given(st.integers(min_value=2, max_value=2000))
def test_hbar_matches_bruteforce(n):
    assert entropy_Hbar(factorize(n)) == pytest.approx(brute_hbar(n), abs=1e-10)


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=10**3), st.integers(min_value=2, max_value=10**3))
def test_hbar_additive_on_coprime(m, n):
    if math.gcd(m, n) != 1:
        return
    assert entropy_Hbar(factorize(m * n)) == pytest.approx(
        entropy_Hbar(factorize(m)) + entropy_Hbar(factorize(n)), abs=1e-9
    )


def test_hbar_prime_power_closed_form():
    for p in (2, 3, 5, 7, 47):
        for alpha in range(1, 13):
            assert hbar_prime_power(p, alpha) == pytest.approx(
                entropy_Hbar(factorize(p**alpha)), abs=1e-9
            )
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
