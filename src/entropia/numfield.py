"""Prime splitting in three monogenic number-field families.

Supported families and their splitting rules:

* Quadratic(d), d squarefree: Kronecker/Legendre symbol of the discriminant.
* CyclotomicPrime(l), l an odd prime: residue degree = multiplicative order
  of p mod l; p = l is totally ramified.
* PureCubic(m), m cubefree with m^2 not 1 mod 9: Dedekind's criterion on
  x^3 - m over F_p, resolved by the cubic-residue character of m.  For
  m = a b^2 (a, b squarefree and coprime) Z[m^(1/3)] has index b in the
  ring of integers, so it is the full ring only when m is squarefree; the
  criterion still holds at every p not dividing b, and every p | b is
  totally ramified, which the rule returns.

A SplittingPattern is just the multiset of (ramification index, residue
degree) pairs; prime ideals are represented by position only.  Its tau,
tau_e and e-divisors are arith's, taken on the ramification indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith
from .entropy import entropy_of_exponents
from .errors import DomainError, UnsupportedCaseError


@dataclass(frozen=True)
class Quadratic:
    """Q(sqrt(d)) for squarefree d, d not in {0, 1}."""

    d: int

    def __post_init__(self) -> None:
        if self.d in (0, 1):
            raise DomainError("d must not be 0 or 1")
        if any(a > 1 for a in arith.factorize(abs(self.d)).exponents):
            raise DomainError(f"d = {self.d} is not squarefree")

    @property
    def degree(self) -> int:
        return 2


@dataclass(frozen=True)
class CyclotomicPrime:
    """Q(zeta_l) for an odd prime l; degree l - 1."""

    l: int

    def __post_init__(self) -> None:
        if self.l < 3 or not arith.is_prime(self.l):
            raise DomainError(f"l = {self.l} must be an odd prime")

    @property
    def degree(self) -> int:
        return self.l - 1


@dataclass(frozen=True)
class PureCubic:
    """Q(m^(1/3)) for cubefree m >= 2 with m^2 != 1 mod 9.

    Z[m^(1/3)] is the ring of integers only for squarefree m; for
    m = a b^2 its index is b, and the primes dividing b, where Dedekind's
    criterion does not apply, are totally ramified.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise DomainError(f"m = {self.m} must be >= 2")
        if any(a > 2 for a in arith.factorize(self.m).exponents):
            raise DomainError(f"m = {self.m} is not cubefree")
        if self.m * self.m % 9 == 1:
            raise DomainError(
                f"m = {self.m} has m^2 = 1 mod 9; that case is not monogenic"
            )

    @property
    def degree(self) -> int:
        return 3


FieldSpec = Quadratic | CyclotomicPrime | PureCubic


def parse_field_spec(text: str) -> FieldSpec:
    """Parse the CLI grammar: quad:<d>, cyclo:<l>, cubic:<m> (case-sensitive)."""
    prefix, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"field spec {text!r} lacks a ':'")
    try:
        value = int(rest)
    except ValueError as exc:
        raise DomainError(f"field parameter {rest!r} is not an integer") from exc
    if prefix == "quad":
        return Quadratic(value)
    if prefix == "cyclo":
        return CyclotomicPrime(value)
    if prefix == "cubic":
        return PureCubic(value)
    raise DomainError(f"unknown field family {prefix!r}")


def field_label(field: FieldSpec) -> str:
    if isinstance(field, Quadratic):
        return f"quad:{field.d}"
    if isinstance(field, CyclotomicPrime):
        return f"cyclo:{field.l}"
    if isinstance(field, PureCubic):
        return f"cubic:{field.m}"
    raise UnsupportedCaseError(f"unknown field spec {field!r}")


def is_galois(field: FieldSpec) -> bool:
    """Quadratic and prime-cyclotomic extensions are Galois over Q."""
    return isinstance(field, (Quadratic, CyclotomicPrime))


@dataclass(frozen=True)
class SplittingPattern:
    """The multiset {(e_i, f_i)} of p O_K, descending by (e, f).

    field and p are None for a pattern given by hand, such as one passed to
    check_corollary_ideal; the degree constraint sum e_i f_i = [K:Q] is
    enforced only when a field is attached.
    """

    factors: tuple[tuple[int, int], ...]
    p: int | None = None
    field: FieldSpec | None = None

    def __post_init__(self) -> None:
        if not self.factors:
            raise DomainError("a splitting pattern needs at least one factor")
        for e, f in self.factors:
            if e < 1 or f < 1:
                raise DomainError(f"(e, f) = ({e}, {f}) must both be >= 1")
        canon = tuple(sorted(self.factors, reverse=True))
        if canon != self.factors:
            object.__setattr__(self, "factors", canon)
        if self.field is not None:
            total = sum(e * f for e, f in self.factors)
            if total != self.field.degree:
                raise DomainError(
                    f"sum e_i f_i = {total} != degree {self.field.degree}"
                )

    @property
    def g(self) -> int:
        return len(self.factors)

    @property
    def ramification_indices(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.factors)

    @property
    def residue_degrees(self) -> tuple[int, ...]:
        return tuple(f for _, f in self.factors)


def _legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _split_quadratic(d: int, p: int) -> tuple[tuple[int, int], ...]:
    if p == 2:
        r = d % 8
        if r == 1:
            return ((1, 1), (1, 1))
        if r == 5:
            return ((1, 2),)
        return ((2, 1),)
    disc = d if d % 4 == 1 else 4 * d
    symbol = _legendre(disc, p)
    if symbol == 1:
        return ((1, 1), (1, 1))
    if symbol == -1:
        return ((1, 2),)
    return ((2, 1),)


def _multiplicative_order(p: int, modulus: int) -> int:
    group_order = modulus - 1
    for d in arith.small_divisors(group_order):
        if pow(p, d, modulus) == 1:
            return d
    raise UnsupportedCaseError(f"no order of {p} mod {modulus}; {modulus} not prime?")


def _split_cyclotomic(l: int, p: int) -> tuple[tuple[int, int], ...]:
    degree = l - 1
    if p == l:
        return ((degree, 1),)
    f = _multiplicative_order(p, l)
    return ((1, f),) * (degree // f)


def _split_pure_cubic(m: int, p: int) -> tuple[tuple[int, int], ...]:
    if m % p == 0 or p == 3:
        # x^3 - m is a cube mod p in both subcases: totally ramified.
        return ((3, 1),)
    if p % 3 == 2:
        # Cubing is a bijection on F_p*, so exactly one root.
        return ((1, 2), (1, 1))
    if pow(m, (p - 1) // 3, p) == 1:
        return ((1, 1), (1, 1), (1, 1))
    return ((1, 3),)


def split_factors(field: FieldSpec, p: int) -> tuple[tuple[int, int], ...]:
    """The (e, f) pairs of p O_K by the field family's rule, for a p the
    caller knows is prime; nothing is tested or validated."""
    if isinstance(field, Quadratic):
        return _split_quadratic(field.d, p)
    if isinstance(field, CyclotomicPrime):
        return _split_cyclotomic(field.l, p)
    if isinstance(field, PureCubic):
        return _split_pure_cubic(field.m, p)
    raise UnsupportedCaseError(f"unknown field spec {field!r}")


def split_prime(field: FieldSpec, p: int) -> SplittingPattern:
    """Splitting pattern of p O_K for the given field family."""
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    return SplittingPattern(split_factors(field, p), p=p, field=field)


def ideal_entropy(sp: SplittingPattern) -> float:
    """log Omega(I) - (1/Omega) * sum e_i log e_i with Omega(I) = sum e_i.

    Exactly 0.0 for g = 1 (inert and totally ramified ideals).
    """
    return entropy_of_exponents(sp.ramification_indices)

