"""Exact integer factorization and the arithmetic functions built on it.

Everything here is exact integer arithmetic, except the sum of a log a
that exponent_stats carries for the range sweeps.  Factorization is trial
division over primes below 10^4, which proves its last cofactor prime once
p^2 exceeds it, followed by Brent's variant of Pollard rho.  The primality
test is Miller-Rabin with the fewest of the prime bases 2..37 that are
proven exact for n's size (one base below 2047, all twelve below PSI_12);
from PSI_12 on, a strong Lucas test follows, so the test is at least BPSW.
tau, tau_e and the e-divisor exponent vectors take an exponent sequence, so
the integers and the ideals pO_K share them.  exponent_stats sieves the
exponents of a whole block of consecutive integers with numpy, imported by
the range kernels only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product as _cartesian
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, RangeError

if TYPE_CHECKING:
    import numpy as np

_TRIAL_LIMIT = 10**4

# Largest range a sieve table covers: primes_up_to's flags, an exponent_stats
# block, the edivisors suite's int32 convolution table (40 MB at this size).
MAX_SIEVE_LIMIT = 10**7

# Longest divisor or e-divisor list the enumerators will build.
MAX_DIVISORS = 10**6

# Polynomial constants c of x^2 + c that _pollard_brent tries, in order.
_POLLARD_CONSTANTS = range(1, 1000)

# Witness set of a Miller-Rabin test that is deterministic below PSI_12.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The least strong pseudoprime to every base in _MR_WITNESSES
# (399165290221 * 798330580441; Sorenson & Webster, Math. Comp. 86, 2017).
PSI_12 = 318665857834031151167461

# (psi_k, first k bases): psi_k is the least strong pseudoprime to the first
# k prime bases, so below it those k bases are exact (Pomerance, Selfridge &
# Wagstaff, Math. Comp. 35, 1980; Jaeschke, Math. Comp. 61, 1993; Jiang &
# Deng, Math. Comp. 83, 2014; Sorenson & Webster).  psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9, so k = 8, 10 and 11 never help.
_MR_TIERS = tuple(
    (psi, _MR_WITNESSES[:k])
    for psi, k in (
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (3825123056546413051, 9),
        (PSI_12, 12),
    )
)


def _require_sieve_limit(limit: int) -> None:
    if limit > MAX_SIEVE_LIMIT:
        raise RangeError(f"sieve limit {limit} is above the cap {MAX_SIEVE_LIMIT}")


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    _require_sieve_limit(limit)
    flags = bytearray(b"\x01") * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), flags))


_SMALL_PRIMES: tuple[int, ...] = tuple(primes_up_to(_TRIAL_LIMIT))
_TRIAL_PAIRS: tuple[tuple[int, int], ...] = tuple((p, p * p) for p in _SMALL_PRIMES)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases of n's tier in _MR_TIERS, and from PSI_12 on
    to all twelve bases 2..37 and a strong Lucas test.

    Exact below PSI_12.  From there on it is at least BPSW, for which no
    composite that passes is known.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Without a break, bases is the last tier's: all twelve, for n >= PSI_12.
    for psi, bases in _MR_TIERS:
        if n < psi:
            break
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI_12 or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 37 with Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie & Wagstaff, Math. Comp. 35, 1980)."""
    r = math.isqrt(n)
    if r * r == n:  # no D has (D/n) = -1
        return False
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0:  # gcd(|D|, n) > 1 and |D| < n
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    inv2 = (n + 1) // 2
    # U_j, V_j and Q^j mod n, from j = 1 along the bits of k (P = 1).
    u, v, qj = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qj = u * v % n, (v * v - 2 * qj) % n, qj * qj % n
        if bit == "1":
            u, v, qj = (u + v) * inv2 % n, (d * u + v) * inv2 % n, qj * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qj = (v * v - 2 * qj) % n, qj * qj % n
        if v == 0:
            return True
    return False


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant).

    The polynomial constant c is swept deterministically, so repeated runs
    factor identically.
    """
    if n % 2 == 0:
        return 2
    for c in _POLLARD_CONSTANTS:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # the sign of q never changes a gcd
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise RangeError(f"pollard rho exhausted its parameter sweep on {n}")


# Factorization.exponents is read on every divisor and e-divisor call and
# twice per gap_formula call, and big_omega on every entropy_H call; mapping
# itemgetter is the cheapest way to read the exponents for both.
_second = itemgetter(1)


@dataclass(frozen=True)
class Factorization:
    """Canonical prime factorization: ((p1, a1), ...) ascending; empty for 1."""

    entries: tuple[tuple[int, int], ...]
    value: int

    def __post_init__(self) -> None:
        prev = 1
        prod = 1
        for p, a in self.entries:
            if p <= prev:
                raise DomainError("primes must be distinct and strictly increasing")
            if a < 1:
                raise DomainError("exponents must be >= 1")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            prod *= p**a
            prev = p
        if prod != self.value:
            raise DomainError(
                f"entries multiply to {prod}, not the stated value {self.value}"
            )

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(map(_second, self.entries))


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


def factorize(n: int) -> Factorization:
    """Canonical factorization of n >= 1; factorize(1) has no entries."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    value = n
    entries: list[tuple[int, int]] = []
    for p, pp in _TRIAL_PAIRS:
        if pp > n:
            # n has no prime factor below p, so n > 1 is prime: no test needed.
            if n > 1:
                entries.append((n, 1))
            return Factorization(tuple(entries), value)
        if n % p == 0:
            n //= p
            a = 1
            while n % p == 0:
                n //= p
                a += 1
            entries.append((p, a))
    # Every prime Pollard-Brent finds is above the trial primes.
    acc: dict[int, int] = {}
    _factor_into(n, acc)
    entries += sorted(acc.items())
    return Factorization(tuple(entries), value)


def coprime_product(fm: Factorization, fn: Factorization) -> Factorization:
    """The factorization of m * n for coprime m, n: their entries merged.

    Validated like any Factorization, so a prime that m and n share raises
    DomainError.
    """
    return Factorization(tuple(sorted(fm.entries + fn.entries)), fm.value * fn.value)


def big_omega(f: Factorization) -> int:
    """Number of prime factors counted with multiplicity."""
    return sum(map(_second, f.entries))


def small_omega(f: Factorization) -> int:
    """Number of distinct prime factors."""
    return len(f.entries)


def divisor_count(exponents: Sequence[int]) -> int:
    """tau: the number of divisors, a product of (a_i + 1) over the exponents."""
    out = 1
    for a in exponents:
        out *= a + 1
    return out


def divisor_sum(f: Factorization) -> int:
    """Sum of all positive divisors, exact."""
    out = 1
    for p, a in f.entries:
        out *= (p ** (a + 1) - 1) // (p - 1)
    return out


def _require_enumerable(subject, count: int, kind: str) -> None:
    if count > MAX_DIVISORS:
        raise RangeError(f"{subject} has {count} {kind}, above the cap {MAX_DIVISORS}")


def unordered_divisors(f: Factorization) -> list[int]:
    """All divisors in product order, 1 first.  Refuses lists longer than
    MAX_DIVISORS."""
    _require_enumerable(f.value, divisor_count(f.exponents), "divisors")
    out = [1]
    for p, a in f.entries:
        powers = [p**k for k in range(a + 1)]
        out = [d * q for d in out for q in powers]
    return out


@lru_cache(maxsize=1 << 10)
def _exponent_divisors(k: int) -> tuple[int, ...]:
    if k < 1:
        raise DomainError(f"need a positive integer, got {k}")
    lo, hi = [], []
    for d in range(1, math.isqrt(k) + 1):
        if k % d == 0:
            lo.append(d)
            if d != k // d:
                hi.append(k // d)
    return tuple(lo + hi[::-1])


def small_divisors(k: int) -> list[int]:
    """Divisors of a small positive integer (used on exponents), ascending."""
    return list(_exponent_divisors(k))


def tau_e(exponents: Sequence[int]) -> int:
    """Number of exponential divisors, a product of tau(a_i); 1 for no exponents."""
    out = 1
    for a in exponents:
        out *= len(_exponent_divisors(a))
    return out


def _exponent_choices(subject, exponents: Sequence[int]) -> list[tuple[int, ...]]:
    """The divisors of each exponent.  Refuses more than MAX_DIVISORS e-divisors."""
    choices = [_exponent_divisors(a) for a in exponents]
    _require_enumerable(subject, math.prod(map(len, choices)), "e-divisors")
    return choices


def exponential_divisor_vectors(exponents: Sequence[int]) -> list[tuple[int, ...]]:
    """Every exponent vector (b_1, ..., b_k) with b_i | a_i, in product order.

    The exponents are those of an integer or the ramification indices of an
    ideal pO_K alike; there are always tau_e(exponents) vectors.
    """
    return list(_cartesian(*_exponent_choices(f"exponents {tuple(exponents)}", exponents)))


def exponential_divisors(f: Factorization) -> list[int]:
    """All e-divisors of n > 1 (same prime support, each beta_i | alpha_i).

    Ascending; the count always equals tau_e(f.exponents).
    """
    if f.value == 1:
        raise DomainError("exponential divisors are defined only for n > 1")
    values = [1]
    for p, bs in zip(f.primes, _exponent_choices(f.value, f.exponents)):
        values = [v * p**b for v in values for b in bs]
    values.sort()
    return values


@dataclass(frozen=True)
class ExponentStats:
    """Exponent statistics of every n in [lo, hi), one array entry per n.

    exponents[k] holds the exponent of the (k+1)-th smallest prime factor
    of each n, or 0 where n has fewer prime factors.
    """

    lo: int
    exponents: np.ndarray  # (width, hi - lo) int8
    big_omega: np.ndarray
    small_omega: np.ndarray
    alog_sum: np.ndarray  # sum of a log a, added in ascending prime order
    min_exp: np.ndarray  # 0 for n = 1
    max_exp: np.ndarray
    squares: np.ndarray  # number of primes with exponent exactly 2

    @property
    def n(self) -> np.ndarray:
        import numpy as np
        return np.arange(self.lo, self.lo + len(self.big_omega), dtype=np.int64)


def exponent_stats(lo: int, hi: int) -> ExponentStats:
    """Sieve the exponents of every n in [lo, hi) over the primes <= sqrt(hi - 1).

    Each such prime p, in ascending order, visits its multiples, and the
    multiples of each higher power of p raise their exponent by one.  Where
    the prime powers found do not multiply to n, the rest is a single prime
    above the square root, with exponent 1.
    """
    import numpy as np
    if not 1 <= lo <= hi:
        raise DomainError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    _require_sieve_limit(hi - lo)
    size = hi - lo
    top = hi - 1
    # omega(n) <= width for n <= top: the first width + 1 primes multiply past top.
    width, primorial = 1, 2
    for p in _SMALL_PRIMES[1:]:
        primorial *= p
        if primorial > top:
            break
        width += 1
    exps = np.zeros((width, size), dtype=np.int8)
    slots = exps.reshape(-1)
    omega = np.zeros(size, dtype=np.int8)
    found = np.ones(size, dtype=np.int64)
    for p in primes_up_to(math.isqrt(top)):
        first = -lo % p
        if first >= size:
            continue
        at = slice(first, size, p)
        a = np.ones(len(range(first, size, p)), dtype=np.int8)
        q = p * p
        while q <= top and -lo % q < size:
            a[(-lo % q - first) // p :: q // p] += 1
            q *= p
        slots[np.arange(first, size, p) + omega[at] * np.intp(size)] = a
        omega[at] += 1
        found[at] *= p ** a.astype(np.int64)
    large = np.nonzero(found != np.arange(lo, hi, dtype=np.int64))[0]
    slots[large + omega[large] * np.intp(size)] = 1
    omega[large] += 1
    # a log a for every exponent a of an int64 (a <= 63); 0 stands for no prime.
    alog_table = np.array([0.0] + [k * math.log(k) for k in range(1, 64)])
    alog = np.zeros(size)
    for row in exps:
        alog += alog_table[row]
    # Less one, as uint8, an absent prime's 0 becomes 255 and never wins the
    # minimum; for n = 1 it wraps back to 0.
    min_exp = ((exps.view(np.uint8) - np.uint8(1)).min(axis=0) + np.uint8(1)).view(np.int8)
    return ExponentStats(
        lo=lo,
        exponents=exps,
        big_omega=exps.sum(axis=0, dtype=np.int8),
        small_omega=omega,
        alog_sum=alog,
        min_exp=min_exp,
        max_exp=exps.max(axis=0),
        squares=(exps == 2).sum(axis=0, dtype=np.int8),
    )

