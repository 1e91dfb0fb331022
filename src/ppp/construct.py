"""Recursive construction of genuine primary pseudo-polynomials.

Given a target growth function phi with phi(0) = 1, builds (A_n) with
phi(n) <= A_n <= phi(n) + 2*primorial(n) whose transform terms B_n are all
nonzero multiples of primorial(n).

The recursion keeps one anti-diagonal of the difference table of A, so the
whole run costs O(N^2) big-integer additions.  Apart from reading phi(n),
each step is integer-only: a few products and one floor division.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .arith import is_prime, primorial, primorial_table
from .transforms import IntSequence

GrowthFn = Callable[[int], Fraction]


def _in_order(step: Callable[[Fraction, int], Fraction],
              direct: Callable[[int], Fraction]) -> GrowthFn:
    """A growth function with phi(0) = 1 that keeps its latest (n, phi(n)).

    A call at the next n costs one ``step(phi(n-1), n)``; any other order
    gets ``direct(n)``.  The pair is read and replaced whole, so concurrent
    callers each compute from a consistent one; a race can only replace one
    kept pair by another, never return a wrong value.
    """
    last = (0, Fraction(1))

    def phi(n: int) -> Fraction:
        nonlocal last
        k, value = last
        if k != n:
            value = step(value, n) if k + 1 == n else direct(n)
            last = (n, value)
        return value
    return phi


def phi_primorial() -> GrowthFn:
    """Preset phi(n) = primorial(n); in order of n, one product at a prime."""
    return _in_order(lambda value, n: value * n if is_prime(n) else value,
                     lambda n: Fraction(primorial(n)))


def phi_geometric(delta: Fraction) -> GrowthFn:
    """Preset phi(n) = delta^n for an exact rational ratio delta.

    Useful ratios sit strictly between e and 2*sqrt(e); nothing is enforced
    here, any positive rational is accepted.  In order of n, each call costs
    one product; any other order gets delta**n.
    """
    delta = _exact_rational(delta)
    if delta <= 0:
        raise ValueError("geometric ratio must be positive")
    return _in_order(lambda power, n: power * delta, lambda n: delta**n)


def phi_table(values) -> GrowthFn:
    """Preset backed by explicit values; index beyond the table is an error."""
    vals = [_exact_rational(v) for v in values]
    def phi(n: int) -> Fraction:
        if n >= len(vals):
            raise ValueError(f"growth table has no value at index {n}")
        return vals[n]
    return phi


def _exact_rational(q) -> Fraction:
    if isinstance(q, float):
        raise TypeError("growth values must be exact rationals, not floats")
    return Fraction(q)


def ceil_div_rational(q: Fraction, m: int) -> int:
    """Exact ceiling of q/m for a rational q and a positive integer m.

    One floor division of integers, -((-num) // (den*m)); no gcd is taken.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError("divisor must be an int")
    if m <= 0:
        raise ValueError("divisor must be positive")
    q = _exact_rational(q)
    return -(-q.numerator // (q.denominator * m))


@dataclass(frozen=True)
class ConstructStep:
    """One step of the recursion, kept for auditability.

    c = sum_{k<n} C(n,k) B_k, with euclidean division c = u*P + v
    (0 <= v < P); then B_n = w*P and A_n = B_n + c.
    """

    n: int
    c: int
    u: int
    v: int
    w: int
    b: int
    a: int


@dataclass(frozen=True)
class ConstructTrace:
    steps: tuple[ConstructStep, ...]


def construct_genuine(
    phi: GrowthFn, n_max: int
) -> tuple[IntSequence, IntSequence, ConstructTrace]:
    """Run the recursion up to index n_max; returns (A, B, trace).

    At each step the multiplier w is the ceiling correction
    ceil((phi(n)-v)/P) - u when that is nonzero, else 1, which pins A_n into
    [phi(n), phi(n)+2P].  phi values must be exact rationals; the ceiling
    is -((v*den - num) // (den*P)) for phi(n) = num/den, with no gcd.

    Before step n, diag[j] = Delta^j A_{n-1-j} for j < n.  Telescoping
    A_n = A_{n-1} + Delta A_{n-1} = ... gives c = sum(diag), and appending
    B_n = Delta^n A_0 then replacing each entry, from the end, by the
    running sum carried in a local turns diag into the next anti-diagonal,
    with diag[0] = A_n.  The update is in place: a rebuilt copy raises the
    peak memory of a long run.
    """
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    phi0 = _exact_rational(phi(0))
    if phi0 != 1:
        raise ValueError(f"growth function must satisfy phi(0) = 1, got {phi0}")
    prim = primorial_table(n_max)
    bs: list[int] = []
    steps: list[ConstructStep] = []
    a_terms: list[int] = []
    diag: list[int] = []
    for n in range(n_max + 1):
        c = sum(diag)
        p = prim[n]
        u, v = divmod(c, p)
        q = _exact_rational(phi(n))
        den = q.denominator
        t = -((v * den - q.numerator) // (den * p))
        w = t - u if t != u else 1
        b = w * p
        diag.append(b)
        a = b
        for j in range(n - 1, -1, -1):
            a += diag[j]
            diag[j] = a
        bs.append(b)
        a_terms.append(a)
        steps.append(ConstructStep(n, c, u, v, w, b, a))
    return (
        IntSequence(tuple(a_terms)),
        IntSequence(tuple(bs)),
        ConstructTrace(tuple(steps)),
    )
