import math

import pytest

from entropia import arith, laws, numfield
from entropia.errors import DomainError
from entropia.numfield import (
    CyclotomicPrime,
    PureCubic,
    Quadratic,
    SplittingPattern,
    ideal_entropy,
    parse_field_spec,
    split_prime,
)


# --- field specs ------------------------------------------------------------


def test_field_validation():
    assert Quadratic(-1).degree == 2
    assert CyclotomicPrime(5).degree == 4
    assert PureCubic(2).degree == 3
    with pytest.raises(DomainError):
        Quadratic(12)  # not squarefree
    with pytest.raises(DomainError):
        Quadratic(1)
    with pytest.raises(DomainError):
        CyclotomicPrime(2)
    with pytest.raises(DomainError):
        CyclotomicPrime(9)
    with pytest.raises(DomainError):
        PureCubic(8)  # not cubefree
    with pytest.raises(DomainError):
        PureCubic(10)  # 100 = 1 mod 9, non-monogenic case


def test_parse_field_spec():
    assert parse_field_spec("quad:-1") == Quadratic(-1)
    assert parse_field_spec("cyclo:7") == CyclotomicPrime(7)
    assert parse_field_spec("cubic:2") == PureCubic(2)
    for bad in ("quad", "Quad:5", "cubic:x", "weird:3"):
        with pytest.raises(DomainError):
            parse_field_spec(bad)
    assert numfield.field_label(parse_field_spec("quad:-5")) == "quad:-5"


# --- splitting patterns -----------------------------------------------------


def test_pattern_canonical_order_and_validation():
    sp = SplittingPattern(((1, 1), (2, 1), (1, 2)))
    assert sp.factors == ((2, 1), (1, 2), (1, 1))
    assert sp.g == 3
    with pytest.raises(DomainError):
        SplittingPattern(())
    with pytest.raises(DomainError):
        SplittingPattern(((0, 1),))
    with pytest.raises(DomainError):
        SplittingPattern(((1, 1),), p=5, field=Quadratic(-1))  # sum ef != 2


def test_split_goldens():
    assert split_prime(CyclotomicPrime(5), 5).factors == ((4, 1),)
    sp = split_prime(PureCubic(2), 29)
    assert sp.g == 2 and sp.ramification_indices == (1, 1)
    assert sorted(sp.residue_degrees) == [1, 2]
    assert split_prime(PureCubic(2), 31).factors == ((1, 1), (1, 1), (1, 1))
    assert split_prime(Quadratic(-1), 2).factors == ((2, 1),)
    with pytest.raises(DomainError):
        split_prime(Quadratic(-1), 4)


def test_quadratic_rules():
    zi = Quadratic(-1)  # Gaussian integers
    assert split_prime(zi, 5).factors == ((1, 1), (1, 1))  # 1 mod 4 splits
    assert split_prime(zi, 7).factors == ((1, 2),)  # 3 mod 4 inert
    q5 = Quadratic(5)
    assert split_prime(q5, 5).factors == ((2, 1),)
    assert split_prime(q5, 11).factors == ((1, 1), (1, 1))
    # p = 2: d mod 8 trichotomy
    assert split_prime(Quadratic(-7), 2).factors == ((1, 1), (1, 1))
    assert split_prime(Quadratic(5), 2).factors == ((1, 2),)
    assert split_prime(Quadratic(3), 2).factors == ((2, 1),)


def test_cyclotomic_residue_degree_is_multiplicative_order():
    field = CyclotomicPrime(7)
    for p in arith.primes_up_to(100):
        if p == 7:
            continue
        sp = split_prime(field, p)
        f = sp.residue_degrees[0]
        assert pow(p, f, 7) == 1
        assert all(pow(p, d, 7) != 1 for d in range(1, f))
        assert sp.g * f == 6


def test_pure_cubic_density_sanity():
    field = PureCubic(2)
    gs_mod1 = set()
    for p in arith.primes_up_to(10**4):
        if p in (2, 3):  # p | 3m for m = 2: totally ramified, not part of the claim
            continue
        sp = split_prime(field, p)
        if p % 3 == 1:
            gs_mod1.add(sp.g)
        else:
            assert sp.g == 2
    assert gs_mod1 == {1, 3}


def test_splitting_invariants_over_matrix():
    fields = (
        [Quadratic(d) for d in (-1, 2, -2, 3, -3, 5, -5, 13)]
        + [CyclotomicPrime(l) for l in (3, 5, 7, 11, 13)]
        + [PureCubic(m) for m in (2, 3, 5, 7)]
    )
    for field in fields:
        for p in arith.primes_up_to(500):
            sp = split_prime(field, p)
            assert sum(e * f for e, f in sp.factors) == field.degree
            if numfield.is_galois(field):
                es, fs = set(sp.ramification_indices), set(sp.residue_degrees)
                assert len(es) == 1 and len(fs) == 1
                assert es.pop() * fs.pop() * sp.g == field.degree
                assert ideal_entropy(sp) == pytest.approx(math.log(sp.g), abs=1e-12)


def test_splitting_matches_sympy_prime_decomposition():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.primes import prime_decomp

    x = sympy.Symbol("x")
    # Non-squarefree cubics, where Z[m^(1/3)] is not the ring of integers.
    fields = list(laws.FIELD_MATRIX) + [PureCubic(m) for m in (4, 9, 12, 18, 20)]
    for field in fields:
        if isinstance(field, Quadratic):
            poly = x**2 - field.d
        elif isinstance(field, CyclotomicPrime):
            poly = sympy.cyclotomic_poly(field.l, x)
        else:
            poly = x**3 - field.m
        zk, dk = round_two(sympy.Poly(poly, x))  # the maximal order, once per field
        for p in arith.primes_up_to(59):
            want = sorted(((P.e, P.f) for P in prime_decomp(p, ZK=zk, dK=dk)), reverse=True)
            assert split_prime(field, p).factors == tuple(want), (field, p)


# --- ideal functionals ------------------------------------------------------


def test_ideal_entropy_goldens():
    assert ideal_entropy(SplittingPattern(((4, 1),))) == 0.0
    assert ideal_entropy(SplittingPattern(((1, 2), (1, 1)))) == pytest.approx(
        math.log(2), abs=1e-15
    )
    assert ideal_entropy(SplittingPattern(((1, 1),) * 3)) == pytest.approx(
        math.log(3), abs=1e-15
    )
    assert ideal_entropy(SplittingPattern(((1, 6),))) == 0.0  # inert
    assert ideal_entropy(SplittingPattern(((6, 1),))) == 0.0  # totally ramified


def test_ideal_entropy_bounds():
    for sp in (
        SplittingPattern(((2, 1), (2, 1), (1, 1))),
        SplittingPattern(((3, 1), (1, 1))),
        SplittingPattern(((1, 1),) * 4),
    ):
        h = ideal_entropy(sp)
        assert -1e-12 <= h <= math.log(sp.g) + 1e-12


# tau, tau_e and the e-divisor vectors of an ideal are arith's, taken on
# the ramification indices.


def test_ideal_tau_goldens():
    assert arith.divisor_count(SplittingPattern(((4, 1),)).ramification_indices) == 5
    assert arith.divisor_count(SplittingPattern(((1, 1),) * 3).ramification_indices) == 8
    assert arith.divisor_count(SplittingPattern(((1, 5),)).ramification_indices) == 2


def test_ideal_tau_e_goldens():
    assert arith.tau_e(SplittingPattern(((4, 1),)).ramification_indices) == 3
    assert arith.tau_e(SplittingPattern(((1, 1),) * 4).ramification_indices) == 1
    assert arith.tau_e(SplittingPattern(((2, 1), (2, 1))).ramification_indices) == 4


def test_ideal_exponential_divisors():
    sp = SplittingPattern(((4, 1),))
    assert arith.exponential_divisor_vectors(sp.ramification_indices) == [(1,), (2,), (4,)]
    sp = SplittingPattern(((1, 1),) * 3)
    assert arith.exponential_divisor_vectors(sp.ramification_indices) == [(1, 1, 1)]
    sp = SplittingPattern(((2, 1), (2, 1), (1, 1)))
    vectors = arith.exponential_divisor_vectors(sp.ramification_indices)
    assert len(vectors) == 4 == arith.tau_e(sp.ramification_indices)


def test_ideal_edivisor_counts_on_generated_patterns():
    for field in (Quadratic(-1), CyclotomicPrime(7), PureCubic(3)):
        for p in arith.primes_up_to(200):
            sp = split_prime(field, p)
            es = sp.ramification_indices
            assert len(arith.exponential_divisor_vectors(es)) == arith.tau_e(es)
