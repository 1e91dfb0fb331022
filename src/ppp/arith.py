"""Exact integer primitives: prime sieve, primorials, lcm prefixes, binomials."""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

# Sieve limits must fit in a signed 64-bit word; larger requests are an
# explicit error, never a silent truncation.
SIEVE_LIMIT_CAP = 2**63 - 1


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, in increasing order."""

    limit: int
    primes: tuple[int, ...]


def primes_up_to(n: int) -> PrimeTable:
    """Sieve of Eratosthenes returning every prime <= n."""
    if n < 0:
        raise ValueError("limit must be a natural number")
    if n > SIEVE_LIMIT_CAP:
        raise ValueError(f"sieve limit {n} exceeds the 64-bit cap {SIEVE_LIMIT_CAP}")
    if n < 2:
        return PrimeTable(n, ())
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return PrimeTable(n, tuple(itertools.compress(range(n + 1), sieve)))


def is_prime(n: int) -> bool:
    """Trial-division primality test (desk-scale inputs only)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Incremental prefix caches shared by the certifiers: one (primorials, lcms)
# pair of tuples, replaced as a whole under the lock so that a reader never
# sees a half-written extension.
_TABLES: tuple[tuple[int, ...], tuple[int, ...]] = ((1,), (1,))
_TABLES_LOCK = threading.Lock()


def _tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shared (primorials, lcms) prefixes, each covering 0..n at least."""
    global _TABLES
    if n < 0:
        raise ValueError("n must be a natural number")
    tables = _TABLES
    if n < len(tables[0]):
        return tables
    with _TABLES_LOCK:
        prims, lcms = _TABLES
        if n >= len(prims):
            pset = set(primes_up_to(n).primes)
            p, d = prims[-1], lcms[-1]
            new_prims, new_lcms = [], []
            for k in range(len(prims), n + 1):
                if k in pset:
                    p *= k
                d = math.lcm(d, k)
                new_prims.append(p)
                new_lcms.append(d)
            _TABLES = (prims + tuple(new_prims), lcms + tuple(new_lcms))
        return _TABLES


def primorial(n: int) -> int:
    """Product of all primes <= n, with the empty product equal to 1."""
    return _tables(n)[0][n]


def lcm_to(n: int) -> int:
    """lcm{1, ..., n}, with lcm of the empty range equal to 1."""
    return _tables(n)[1][n]


def primorial_table(n: int) -> tuple[int, ...]:
    """The prefix (primorial(0), ..., primorial(n))."""
    return _tables(n)[0][: n + 1]


def lcm_table(n: int) -> tuple[int, ...]:
    """The prefix (lcm_to(0), ..., lcm_to(n))."""
    return _tables(n)[1][: n + 1]


def binomial(n: int, k: int) -> int:
    """C(n, k) for naturals, 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be natural numbers")
    if k > n:
        return 0
    return math.comb(n, k)


def binomial_row(n: int) -> list[int]:
    """Row [C(n,0), ..., C(n,n)] built by the Pascal recurrence.

    Kept distinct from :func:`binomial` so the two routes can cross-check
    each other.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    row = [1]
    for k in range(1, n + 1):
        row.append(row[-1] * (n - k + 1) // k)
    return row


def lucas_binomial_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via the base-p digit product.

    Requires p prime; the digit reduction is false for composite moduli.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be natural numbers")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    result = 1
    while k > 0 or n > 0:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        result = result * (math.comb(nd, kd) % p) % p
        n //= p
        k //= p
    return result
