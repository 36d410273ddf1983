import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropia import arith
from entropia.arith import Factorization, factorize
from entropia.errors import DomainError, RangeError


# --- independent oracles (deliberately naive) -------------------------------


def naive_factor(n):
    out = []
    d = 2
    while d * d <= n:
        a = 0
        while n % d == 0:
            n //= d
            a += 1
        if a:
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_e_divisors(n):
    """E-divisors by filtering the divisor list against the definition."""
    fn = dict(naive_factor(n))
    out = []
    for d in naive_divisors(n):
        fd = dict(naive_factor(d))
        if set(fd) == set(fn) and all(fn[p] % b == 0 for p, b in fd.items()):
            out.append(d)
    return out


# --- factorize --------------------------------------------------------------


def test_factorize_goldens():
    assert factorize(24).entries == ((2, 3), (3, 1))
    assert factorize(1).entries == ()
    assert factorize(1).value == 1
    assert factorize(2310).entries == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))


def test_factorize_rejects_zero():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(-6)


def test_factorize_large_semiprime_uses_rho():
    p, q = 1000003, 1000033
    assert factorize(p * q).entries == ((p, 1), (q, 1))


def test_factorize_64bit_scale():
    n = 2**61 - 1  # Mersenne prime
    assert factorize(n).entries == ((n, 1),)
    assert factorize(2 * 3 * n).entries == ((2, 1), (3, 1), (n, 1))


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_reconstructs(n):
    f = factorize(n)
    assert math.prod(p**a for p, a in f.entries) == n
    assert all(arith.is_prime(p) for p, _ in f.entries)
    assert list(f.primes) == sorted(set(f.primes))


def test_factorization_validates():
    with pytest.raises(DomainError):
        Factorization(((4, 1),), 4)  # 4 not prime
    with pytest.raises(DomainError):
        Factorization(((3, 1), (2, 1)), 6)  # not ascending
    with pytest.raises(DomainError):
        Factorization(((2, 1),), 6)  # wrong value


def test_coprime_product_merges_entries():
    f = arith.coprime_product(factorize(22), factorize(105))
    assert f == factorize(22 * 105)
    assert f.value == 22 * 105
    with pytest.raises(DomainError):
        arith.coprime_product(factorize(6), factorize(10))  # 2 is shared


# --- primality past the deterministic Miller-Rabin range --------------------


def test_psi12_is_composite():
    # A strong pseudoprime to every base 2..37; the strong Lucas test rejects it.
    assert arith.PSI_12 == 399165290221 * 798330580441
    assert not arith.is_prime(arith.PSI_12)
    assert factorize(arith.PSI_12).entries == ((399165290221, 1), (798330580441, 1))


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_matches_the_sieve_past_psi_2():
    limit = 1_400_000  # above psi_2 = 1373653, where a third base comes in
    primes = set(arith.primes_up_to(limit))
    assert [n for n in range(limit + 1) if arith.is_prime(n) != (n in primes)] == []


def test_every_tier_bound_is_a_composite_pseudoprime_to_its_bases():
    # Each psi_k passes the k bases that is_prime uses below it, so no tier
    # can be raised, and is_prime still calls it composite.
    bounds = [psi for psi, _ in arith._MR_TIERS]
    assert bounds[-1] == arith.PSI_12
    for psi, bases in arith._MR_TIERS:
        assert all(_strong_probable_prime(psi, a) for a in bases), psi
        assert not arith.is_prime(psi), psi


def test_primality_around_each_tier_bound_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    for psi, _ in arith._MR_TIERS:
        for _ in range(300):
            n = psi + rng.randrange(-10**5, 10**5) | 1
            assert arith.is_prime(n) == sympy.isprime(n), n


def test_trial_division_proves_every_cofactor_below_10_6(monkeypatch):
    # Below 9973^2 the loop always stops at some p with p^2 > n, so
    # Pollard-Brent and its primality test are never reached.  The longest
    # loops are on primes, so every prime below 10^6 is tried.
    def refuse(n, acc):
        raise AssertionError(f"_factor_into({n})")

    monkeypatch.setattr(arith, "_factor_into", refuse)
    values = [*range(1, 10**5), *arith.primes_up_to(10**6), *range(10**6 - 10**4, 10**6)]
    for n in values:
        f = factorize(n)
        assert math.prod(p**a for p, a in f.entries) == n


def test_strong_lucas_rejects_lucas_pseudoprimes_only():
    # The strong Lucas pseudoprimes below 2 * 10^4 (OEIS A217255) pass it;
    # every other odd composite there fails it and every prime passes.
    pseudoprimes = {5459, 5777, 10877, 16109, 18971}
    for n in range(39, 2 * 10**4, 2):
        prime = all(n % p for p in range(3, math.isqrt(n) + 1, 2))
        assert arith._is_strong_lucas_prp(n) == (prime or n in pseudoprimes), n


def test_primality_and_factorization_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)

    def log_uniform(lo, hi):
        return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    values = [arith.PSI_12]
    values += [log_uniform(10**6, 10**30) for _ in range(1500)]
    values += [sympy.nextprime(log_uniform(10**6, 10**30)) for _ in range(100)]
    values += [
        sympy.nextprime(log_uniform(10**6, 10**15)) * sympy.nextprime(log_uniform(10**6, 10**15))
        for _ in range(100)
    ]
    for n in values:
        assert arith.is_prime(n) == sympy.isprime(n), n
    for _ in range(80):
        n = log_uniform(10**6, 10**18)
        assert factorize(n).entries == tuple(sorted(sympy.factorint(n).items())), n


# --- counting functions -----------------------------------------------------


@pytest.mark.parametrize("n,expected", [(24, 4), (1, 0), (180, 5)])
def test_big_omega(n, expected):
    assert arith.big_omega(factorize(n)) == expected


@pytest.mark.parametrize("n,expected", [(24, 2), (1, 0), (2310, 5)])
def test_small_omega(n, expected):
    assert arith.small_omega(factorize(n)) == expected


@pytest.mark.parametrize("n,expected", [(24, 8), (1, 1), (49, 3), (9, 3)])
def test_divisor_count(n, expected):
    assert arith.divisor_count(factorize(n).exponents) == expected


@pytest.mark.parametrize("n,expected", [(6, 12), (1, 1), (24, 60)])
def test_divisor_sum(n, expected):
    assert arith.divisor_sum(factorize(n)) == expected


@given(st.integers(min_value=1, max_value=10**4))
def test_divisor_functions_match_bruteforce(n):
    f = factorize(n)
    ds = naive_divisors(n)
    assert sorted(arith.unordered_divisors(f)) == ds
    assert arith.divisor_count(f.exponents) == len(ds)
    assert arith.divisor_sum(f) == sum(ds)


def test_divisors_cap(monkeypatch):
    monkeypatch.setattr(arith, "MAX_DIVISORS", 5)
    with pytest.raises(RangeError):
        arith.unordered_divisors(factorize(24))  # 8 divisors
    assert sorted(arith.unordered_divisors(factorize(8))) == [1, 2, 4, 8]


# --- exponential divisors ---------------------------------------------------


def test_tau_e_goldens():
    assert arith.tau_e(factorize(1).exponents) == 1
    assert arith.tau_e(factorize(12).exponents) == 2  # oracle: {6, 12}
    assert naive_e_divisors(12) == [6, 12]
    assert arith.tau_e(factorize(3**4).exponents) == 3  # oracle: {3, 9, 81}
    assert naive_e_divisors(81) == [3, 9, 81]


def test_exponential_divisors_goldens():
    assert arith.exponential_divisors(factorize(12)) == [6, 12]
    assert 60 in arith.exponential_divisors(factorize(180))
    assert arith.exponential_divisors(factorize(7)) == [7]
    with pytest.raises(DomainError):
        arith.exponential_divisors(factorize(1))


@given(st.integers(min_value=2, max_value=10**4))
def test_exponential_divisors_match_bruteforce(n):
    f = factorize(n)
    got = arith.exponential_divisors(f)
    assert got == naive_e_divisors(n)
    assert len(got) == arith.tau_e(f.exponents)


@given(st.integers(min_value=2, max_value=10**5))
def test_e_divisors_divide_and_keep_support(n):
    f = factorize(n)
    for d in arith.exponential_divisors(f):
        assert n % d == 0
        assert all(d % p == 0 for p in f.primes)


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=10**4), st.integers(min_value=2, max_value=10**4))
def test_tau_e_multiplicative_on_coprime(m, n):
    if math.gcd(m, n) != 1:
        return
    assert arith.tau_e(factorize(m * n).exponents) == arith.tau_e(
        factorize(m).exponents
    ) * arith.tau_e(factorize(n).exponents)


# --- sieves -----------------------------------------------------------------


def test_primes_up_to():
    assert arith.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.primes_up_to(1) == []


def test_sieves_refuse_oversized_tables_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated a sieve table above the cap")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "ones", refuse)
    # primes_up_to's flag table: a module global shadows the builtin.
    monkeypatch.setattr(arith, "bytearray", refuse, raising=False)
    with pytest.raises(RangeError):
        arith.primes_up_to(arith.MAX_SIEVE_LIMIT + 1)
    with pytest.raises(RangeError):
        arith.primes_up_to(10**10)
    with pytest.raises(RangeError):
        arith.exponent_stats(2, arith.MAX_SIEVE_LIMIT + 3)


def test_exponent_stats_agree_with_factorize():
    alog = [0.0] + [k * math.log(k) for k in range(1, 64)]
    for lo, hi in ((1, 1), (1, 2), (1, 500), (2, 3), (10**6 - 300, 10**6 + 300),
                   (2**40, 2**40 + 300), (10**12 - 300, 10**12 + 300)):
        st = arith.exponent_stats(lo, hi)
        assert st.n.tolist() == list(range(lo, hi))
        for i, n in enumerate(range(lo, hi)):
            exps = factorize(n).exponents
            assert tuple(int(a) for a in st.exponents[:, i] if a) == exps
            assert st.big_omega[i] == sum(exps)
            assert st.small_omega[i] == len(exps)
            assert st.min_exp[i] == min(exps, default=0)
            assert st.max_exp[i] == max(exps, default=0)
            assert st.squares[i] == exps.count(2)
            s = 0.0
            for a in exps:
                s += alog[a]
            assert st.alog_sum[i] == s  # same additions in the same order
    with pytest.raises(DomainError):
        arith.exponent_stats(0, 5)
    with pytest.raises(DomainError):
        arith.exponent_stats(5, 4)
