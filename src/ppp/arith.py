"""Exact integer primitives: prime sieve, primorials, lcm prefixes, binomials."""
from __future__ import annotations

import itertools
import math
from typing import Iterator

from ._record import Record

# Sieve limits must fit in a signed 64-bit word; larger requests are an
# explicit error, never a silent truncation.
SIEVE_LIMIT_CAP = 2**63 - 1

# Odd numbers per window of ``prime_segments``.
_SEGMENT = 1 << 17


class PrimeTable(Record):
    """All primes up to ``limit``, in increasing order."""

    limit: int
    primes: tuple[int, ...]


def primes_up_to(n: int) -> PrimeTable:
    """Every prime <= n, collected from ``prime_segments``."""
    return PrimeTable(n, tuple(itertools.chain.from_iterable(prime_segments(n))))


def prime_segments(n: int) -> Iterator[tuple[int, ...]]:
    """Every prime <= n in increasing order, as non-empty tuples.

    A segmented sieve of Eratosthenes over the odd numbers, ``_SEGMENT`` of
    them per window: it holds the primes up to sqrt(n) and one window, never
    all primes <= n.  The base primes come from ``primes_up_to(isqrt(n))``;
    below 9 there are no odd ones, and the guard ends the recursion.
    """
    if n < 0:
        raise ValueError("limit must be a natural number")
    if n > SIEVE_LIMIT_CAP:
        raise ValueError(f"sieve limit {n} exceeds the 64-bit cap {SIEVE_LIMIT_CAP}")
    odd_base = primes_up_to(math.isqrt(n)).primes[1:] if n >= 9 else ()
    for lo in range(1, n + 1, 2 * _SEGMENT):  # the window holds the odd lo <= m < hi
        hi = min(lo + 2 * _SEGMENT, n + 1)
        window = bytearray([1]) * len(range(lo, hi, 2))
        for p in odd_base:
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p)
            first += p * (first % 2 == 0)  # the first odd multiple
            window[(first - lo) // 2 :: p] = bytes(len(range(first, hi, 2 * p)))
        primes = tuple(itertools.compress(range(lo, hi, 2), window))
        if lo == 1:
            primes = (2,) + primes[1:] if n >= 2 else ()  # 1 is not prime, 2 is
        if primes:
            yield primes


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


def _natural(n: int) -> int:
    if n < 0:
        raise ValueError("n must be a natural number")
    return n


def primorial(n: int) -> int:
    """Product of all primes <= n, with the empty product equal to 1."""
    return math.prod(primes_up_to(_natural(n)).primes)


def lcm_to(n: int) -> int:
    """lcm{1, ..., n}, with lcm of the empty range equal to 1."""
    return math.lcm(*range(1, _natural(n) + 1))


def primorial_table(n: int) -> tuple[int, ...]:
    """The prefix (primorial(0), ..., primorial(n)): a running product."""
    pset = set(primes_up_to(_natural(n)).primes)
    return tuple(itertools.accumulate(
        range(1, n + 1), lambda acc, k: acc * k if k in pset else acc, initial=1))


def lcm_table(n: int) -> tuple[int, ...]:
    """The prefix (lcm_to(0), ..., lcm_to(n)): a running lcm."""
    return tuple(itertools.accumulate(range(1, _natural(n) + 1), math.lcm, initial=1))


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
