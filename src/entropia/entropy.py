"""Entropy functionals of integers.

Two entropies live here: the exponent entropy H (Shannon entropy of the
distribution alpha_i / Omega(n) over the prime exponents) and the divisor
entropy Hbar (Shannon entropy of d / sigma(n) over the divisors d).  All
logarithms are natural; every value is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

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
    """Divisor entropy: log sigma(n) - (1/sigma) * sum_{d|n} d log d.

    sigma and the divisor list are exact integers; floats enter only in the
    log-sum.  fsum rounds the exact sum once, so neither the order of the
    divisors nor the d = 1 term (0.0) changes it.  Additive over coprime
    arguments.
    """
    if f.value == 1:
        return 0.0
    sigma = arith.divisor_sum(f)
    ds = arith.unordered_divisors(f)
    acc = math.fsum(map(mul, ds, map(math.log, ds)))
    return math.log(sigma) - acc / sigma


def hbar_prime_power(p: int, alpha: int) -> float:
    """Closed form of entropy_Hbar at p^alpha.

    Evaluated in log space, so large alpha never overflows: the leading
    term x / (e^x - 1) with x = (alpha+1) log p is flushed to 0 once e^x
    saturates.
    """
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    logp = math.log(p)
    x = (alpha + 1) * logp
    lead = x / math.expm1(x) if x < 700.0 else 0.0
    return -lead + math.log1p(-math.exp(-x)) - math.log(p - 1) + p * logp / (p - 1)


def hbar_limit(p: int) -> float:
    """Limit of entropy_Hbar(p^alpha) as alpha grows: p log p/(p-1) - log(p-1)."""
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    return p * math.log(p) / (p - 1) - math.log(p - 1)


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

    Unchecked: entropy_H_appended validates its inputs and then calls this,
    so callers that already hold t and h get the same float.
    """
    total = t + alpha
    return (
        t * h / total
        + math.log(total)
        - (t * math.log(t) + alpha * math.log(alpha)) / total
    )


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
