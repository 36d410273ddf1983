"""Seeded inputs for the benchmark workloads.

Standard library only.  The benchmark seed stays here: the program under
test only ever receives the integers and argument lists built below.  Pass
``k`` of a run draws from its own stream, so a longer run sees fresh inputs
while the same (seed, k) always gives the same inputs.
"""

from __future__ import annotations

import math
import random

# The range suites at their acceptance bounds: (name, laws function, bounds,
# toy bounds for warm-up).  No seed: these inputs are fixed.
SWEEP_SUITES = (
    ("bounds", "sweep_entropy_bounds", (10**6,), (10**3,)),
    ("corollary-int", "sweep_corollary_int", (10**5,), (10**3,)),
    ("edivisors", "sweep_edivisor_counts", (10**5,), (10**3,)),
    ("products", "scan_product_inequality", (400, 400), (20, 20)),
    ("splitting", "sweep_splitting", (10**4,), (100,)),
    ("ideal-edivisors", "sweep_ideal_edivisor_counts", (), (20,)),
    ("corollary-ideal", "sweep_corollary_ideal", (), (3,)),
)

# Sizes of the default random suites (laws.random_eq_identity,
# random_hbar_additivity, check_appended_identity, random_prop41).
DRAWS_PER_MIX = 10**4
EQ_BOUND = 10**6
HBAR_BOUND = 10**3
APPENDED_N_MAX = 10**5
PROP41_N_MAX = 10**4

# One cli pass: 50% entropy, 25% compare, 15% ideal, 10% edivisors.
CLI_MIX = (("entropy", 500), ("compare", 250), ("ideal", 150), ("edivisors", 100))

# The acceptance field matrix, written as the CLI's field specs.
CLI_FIELDS = (
    tuple(f"quad:{d}" for d in (-1, 2, -2, 3, -3, 5, -5, 13))
    + tuple(f"cyclo:{l}" for l in (3, 5, 7, 11, 13))
    + tuple(f"cubic:{m}" for m in (2, 3, 5, 7))
)

COLD_STARTS = 35

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


_PRIMES_300 = primes_upto(300)
_PRIMES_100 = primes_upto(100)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases; exact below 3.1e23."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _coprime_pair(rng: random.Random, bound: int) -> tuple[int, int]:
    while True:
        m = rng.randint(2, bound)
        n = rng.randint(2, bound)
        if math.gcd(m, n) == 1:
            return m, n


def _prime_not_dividing(rng: random.Random, primes: list[int], n: int) -> int:
    p = rng.choice(primes)
    while n % p == 0:
        p = rng.choice(primes)
    return p


def draws_pass(seed: int, index: int, count: int = DRAWS_PER_MIX) -> dict:
    """Inputs of one draws pass: four mixes of ``count`` draws each."""
    rng = pass_rng("draws", seed, index)
    eq = [_coprime_pair(rng, EQ_BOUND) for _ in range(count)]
    hbar = [_coprime_pair(rng, HBAR_BOUND) for _ in range(count)]
    appended = []
    for _ in range(count):
        n = rng.randint(2, APPENDED_N_MAX)
        p = _prime_not_dividing(rng, _PRIMES_300, n)
        appended.append((n, p, rng.randint(1, 12)))
    prop41 = []
    for _ in range(count):
        n = rng.randint(2, PROP41_N_MAX)
        p = _prime_not_dividing(rng, _PRIMES_100, n)
        beta = rng.randint(1, 8)
        prop41.append((n, p, beta + rng.randint(0, 8), beta))
    return {"eq": eq, "hbar": hbar, "appended": appended, "prop41": prop41}


def _cli_argv(rng: random.Random, kind: str) -> list[str]:
    if kind == "entropy":
        return ["--json", "entropy", str(_log_uniform(rng, 1e6, 1e24))]
    if kind == "compare":
        while True:
            m = _log_uniform(rng, 2, 1e9)
            n = _log_uniform(rng, 2, 1e9)
            if m >= 2 and n >= 2 and math.gcd(m, n) == 1:
                return ["--json", "compare", str(m), str(n)]
    if kind == "ideal":
        p = _log_uniform(rng, 2, 1e12)
        while not _is_prime(p):
            p += 1
        return ["--json", "ideal", rng.choice(CLI_FIELDS), str(p)]
    if kind == "edivisors":
        return ["--json", "edivisors", str(max(2, _log_uniform(rng, 2, 1e12)))]
    raise ValueError(f"unknown cli query kind {kind!r}")


def cli_pass(seed: int, index: int, scale: int = 1) -> list[list[str]]:
    """Argument lists of one cli pass: CLI_MIX (divided by scale), shuffled."""
    rng = pass_rng("cli", seed, index)
    kinds = [kind for kind, count in CLI_MIX for _ in range(count // scale)]
    rng.shuffle(kinds)
    return [_cli_argv(rng, kind) for kind in kinds]


def cold_start_argvs(seed: int, count: int = COLD_STARTS) -> list[list[str]]:
    rng = pass_rng("cold", seed, 0)
    return [_cli_argv(rng, "entropy") for _ in range(count)]


def pass_inputs(workload: str, seed: int, index: int, toy: bool = False):
    """Inputs of pass ``index``; toy size for warm-up and the benchmark's tests."""
    if workload == "sweep":
        return tuple((name, fn, small if toy else full) for name, fn, full, small in SWEEP_SUITES)
    if workload == "draws":
        return draws_pass(seed, index, 50 if toy else DRAWS_PER_MIX)
    if workload == "cli":
        return cli_pass(seed, index, 50 if toy else 1)
    raise ValueError(f"unknown workload {workload!r}")


def factorize_sizes(seed: int, per_size: int = 101) -> dict[str, list[int]]:
    """Inputs of the factorize-by-size microbenchmark: n in [10^k, 10^(k+1))."""
    rng = pass_rng("factorize", seed, 0)
    return {
        f"1e{k}": [rng.randrange(10**k, 10 ** (k + 1)) for _ in range(per_size)]
        for k in (6, 12, 18, 24)
    }
