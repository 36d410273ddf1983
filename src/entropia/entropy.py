"""Entropy functionals of integers.

Two entropies live here: the exponent entropy H (Shannon entropy of the
distribution alpha_i / Omega(n) over the prime exponents) and the divisor
entropy Hbar (Shannon entropy of d / sigma(n) over the divisors d).  All
logarithms are natural; every value is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap

from . import arith
from .arith import Factorization
from .errors import DomainError

_SUM_TOL = 1e-12


def entropy_of_exponents(exps) -> float:
    """entropy_H of any n whose exponents, in ascending prime order, are exps.

    The terms are added in the order given, as entropy_H adds them, so both
    give the same float.  entropy_H keeps its own loop because it runs once
    per query, and building an exponent tuple per call adds about a quarter
    to its time.
    """
    omega_big = sum(exps)
    if omega_big <= 1:
        return 0.0
    acc = 0.0
    for a in exps:
        if a > 1:
            acc += (a / omega_big) * math.log(a)
    return math.log(omega_big) - acc


def entropy_H(f: Factorization) -> float:
    """Exponent entropy: log Omega(n) - (1/Omega) * sum alpha_i log alpha_i.

    Returns 0.0 for n = 1 and for prime powers (exactly, by construction:
    the alpha/Omega weight is 1.0 when there is a single prime).
    """
    omega_big = arith.big_omega(f)
    if omega_big <= 1:
        return 0.0
    acc = 0.0
    for _, a in f.entries:
        if a > 1:
            acc += (a / omega_big) * math.log(a)
    return math.log(omega_big) - acc


@dataclass(frozen=True)
class Distribution:
    """A discrete probability distribution with strictly positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise DomainError("a distribution needs at least one weight")
        for w in self.weights:
            if not 0.0 < w <= 1.0:
                raise DomainError(f"weight {w} outside (0, 1]")
        if abs(sum(self.weights) - 1.0) > _SUM_TOL:
            raise DomainError(f"weights sum to {sum(self.weights)}, not 1")


def shannon_entropy(d: Distribution) -> float:
    """- sum p_i log p_i (nats).  A weight of exactly 1 contributes 0."""
    return -math.fsum(w * math.log(w) for w in d.weights)


def entropy_Hbar(f: Factorization) -> float:
    """Divisor entropy: the Shannon entropy of d / sigma(n) over the divisors d.

    The divisor distribution of a coprime product is the product of the
    factors' distributions, so Hbar is additive: the fsum of one prime-power
    term per entry of f.  No divisor list is built, and no term subtracts two
    numbers of size log sigma(n), so the float is right to rounding even when
    Hbar is tiny (n with a large prime factor).
    """
    return math.fsum(starmap(_hbar_term, f.entries))


def _hbar_term(p: int, alpha: int) -> float:
    """Hbar(p^alpha) without cancellation.  With r = 1/p it is

        -log1p(-r) + log1p(-r^(alpha+1))
        + log p * (r/(1-r) - (alpha+1) r^(alpha+1) / (1 - r^(alpha+1))).

    r^(alpha+1) underflows to 0 for large alpha, which leaves hbar_limit.
    Unchecked: a Factorization's entries are already validated.
    """
    r = 1 / p
    s = r ** (alpha + 1)
    return (
        math.log1p(-s) - math.log1p(-r)
        + math.log(p) * (r / (1 - r) - (alpha + 1) * s / (1 - s))
    )


def hbar_prime_power(p: int, alpha: int) -> float:
    """Closed form of entropy_Hbar at p^alpha; the same float as entropy_Hbar."""
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    return _hbar_term(p, alpha)


def hbar_limit(p: int) -> float:
    """Limit of entropy_Hbar(p^alpha) as alpha grows: -log1p(-1/p) + log p/(p-1)."""
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    return math.log(p) / (p - 1) - math.log1p(-1 / p)


def entropy_H_appended(f: Factorization, p: int, alpha: int) -> float:
    """H(n * p^alpha) for p coprime to n, via the closed form in Omega(n), H(n).

    Identical (to rounding) to entropy_H of the full factorization, but does
    not require materializing n * p^alpha, so alpha can be huge.
    """
    if f.value < 2:
        raise DomainError("n must be >= 2")
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if f.value % p == 0:
        raise DomainError(f"{p} divides {f.value}; p must be coprime to n")
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    return appended_closed_form(arith.big_omega(f), entropy_H(f), alpha)


def appended_closed_form(t: int, h: float, alpha: int) -> float:
    """H(n * p^alpha) from t = Omega(n) >= 1 and h = H(n), p coprime to n.

    (t*h + t*log1p(alpha/t) + alpha*log1p(t/alpha)) / (t + alpha): every
    term is non-negative, so no digits cancel however large alpha is.
    Unchecked: entropy_H_appended validates its inputs and then calls this,
    so callers that already hold t and h get the same float.
    """
    return (t * h + t * math.log1p(alpha / t) + alpha * math.log1p(t / alpha)) / (t + alpha)


def threshold(f: Factorization) -> float:
    """Omega(n) * exp(-H(n)): the pivot deciding how appending p^alpha moves H.

    Equals 1 (to rounding) for squarefree n, and alpha for prime powers.
    """
    if f.value < 2:
        raise DomainError("threshold is defined for n >= 2")
    return arith.big_omega(f) * math.exp(-entropy_H(f))


@dataclass(frozen=True)
class EntropyReport:
    """All per-integer quantities the CLI reports for one n."""

    n: int
    H: float
    Hbar: float
    big_omega: int
    small_omega: int
    tau: int
    sigma: int
    tau_e: int
    threshold: float


def entropy_report(n: int) -> EntropyReport:
    if n < 2:
        raise DomainError(f"reports cover n >= 2, got {n}")
    f = arith.factorize(n)
    return EntropyReport(
        n=n,
        H=entropy_H(f),
        Hbar=entropy_Hbar(f),
        big_omega=arith.big_omega(f),
        small_omega=arith.small_omega(f),
        tau=arith.divisor_count(f.exponents),
        sigma=arith.divisor_sum(f),
        tau_e=arith.tau_e(f.exponents),
        threshold=threshold(f),
    )
