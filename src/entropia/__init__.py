"""Entropies of integers and of prime-splitting ideals.

Modules:
  arith    - exact factorization and the arithmetic functions on it
  entropy  - the exponent entropy H, divisor entropy Hbar, limits, threshold
  numfield - prime splitting in three monogenic field families, ideal entropy
  laws     - checkers and scanners for the product/trichotomy inequalities
  cli      - command-line interface (entropia entry point)

laws and numfield load on first use: the entropy and edivisors queries
need neither, and without cached bytecode compiling them is a large share
of a cold start.
"""

from . import arith, entropy
from .arith import Factorization, factorize
from .entropy import entropy_H, entropy_Hbar

__version__ = "0.1.0"

__all__ = [
    "arith",
    "entropy",
    "laws",
    "numfield",
    "Factorization",
    "factorize",
    "entropy_H",
    "entropy_Hbar",
    "SplittingPattern",
    "ideal_entropy",
    "split_prime",
]

def __getattr__(name: str):
    """Load laws or numfield on first use (PEP 562); the import binds it on
    the package.  `from . import` here would call this hook again."""
    if name in ("laws", "numfield"):
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in ("SplittingPattern", "ideal_entropy", "split_prime"):
        return getattr(__getattr__("numfield"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
