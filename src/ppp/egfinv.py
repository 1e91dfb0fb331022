"""Exponential-generating-function reciprocal construction.

From a primary pseudo-polynomial prefix a with a_0 = 1: b is its binomial
transform, c the coefficient sequence of 1/sum(b_n x^n / n!), and u the
inverse transform of c.  The resulting u is again a primary pseudo-polynomial,
with every prime p <= n dividing c_n.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from math import comb, factorial, perm
from operator import add, sub

from .transforms import IntSequence, binomial_transform, inverse_binomial_transform


@dataclass(frozen=True)
class EgfTriple:
    b: IntSequence
    c: IntSequence
    u: IntSequence

    def to_json_dict(self) -> dict:
        return {
            "b": [str(t) for t in self.b.terms],
            "c": [str(t) for t in self.c.terms],
            "u": [str(t) for t in self.u.terms],
        }


# Width of a target block and of a tile; a power of two keeps every middle
# product even down to the base case.
_BLOCK = 32


def _middle_product(a: list[int], b: list[int]) -> list[int]:
    """[sum_x a[x] * b[y + m - 1 - x] for y < m], where m = len(a), len(b) = 2m - 1.

    These are the middle m coefficients of the polynomial product a * b.
    Each level of the transposed Karatsuba scheme (Hanrot, Quercia and
    Zimmermann, "The Middle Product Algorithm I") makes three half-size
    middle products instead of four.
    """
    m = len(a)
    if m == 2:
        a0, a1 = a
        b0, b1, b2 = b
        p = (a0 + a1) * b1
        return [p + a1 * (b0 - b1), p + a0 * (b2 - b1)]
    if m == 1:
        return [a[0] * b[0]]
    if m % 2:  # set the last a term and the last output apart
        last = a[-1]
        head = _middle_product(a[:-1], b[1:-1])
        return ([t + last * bt for t, bt in zip(head, b)]
                + [sum(a[x] * b[2 * m - 2 - x] for x in range(m))])
    h = m // 2
    a0, a1 = a[:h], a[h:]
    b0, b1, b2 = b[:m - 1], b[h:m + h - 1], b[m:]
    p = _middle_product(list(map(add, a0, a1)), b1)
    q = _middle_product(a1, list(map(sub, b0, b1)))
    r = _middle_product(a0, list(map(sub, b2, b1)))
    return list(map(add, p, q)) + list(map(add, p, r))


def _scaled(terms: list[int], lo: int, width: int, f: int = 1) -> list[int]:
    """[terms[i] * f * top!/i! for lo <= i <= top], where top = lo + width - 1."""
    out = []
    for i in range(lo + width - 1, lo - 1, -1):
        out.append(terms[i] * f)
        f *= i
    out.reverse()
    return out


def egf_reciprocal(b: IntSequence) -> IntSequence:
    """c with c_0 = 1 and sum_k C(n,k) b_k c_{n-k} = 0 for 1 <= n <= N.

    The convolution recursion c_n = -sum_{j<n} C(n,j) c_j b_{n-j} stays in
    the integers because b_0 = 1; any other leading term is refused.

    The targets run in blocks [n0, n0 + S), S = ``_BLOCK``.  Every earlier
    block [j0, j0 + S) is one tile.  Its sources j = j0 + x meet the targets
    n = n0 + y at k = n - j = kmin + i, i = y - x + S - 1, where
    kmin = n0 - j0 - S + 1 >= 1 and the largest k is K = n0 - j0 + S - 1.
    With J = j0 + S - 1 and M = J + K = n0 + 2S - 2, which is the same for
    every tile of the block, the integers

        alpha_x = c_j C(M,J) J!/j! = c_j M!/(K! j!),   beta_i = b_k K!/k!

    have alpha_x beta_i = (M!/n!) C(n,j) c_j b_k.  So the middle product T
    of alpha and beta has T_y = (M!/n!) sum_x C(n,j) c_j b_k, an integer
    multiple of M!/n!.  The tiles' T_y add up, and one division by M!/n!
    gives the part of c_n from all j < n0; it is exact by this identity, so
    a remainder is an internal error.  The sources j >= n0 in the target's
    own block follow term by term.  A tile costs 3^5 = 243 products where
    the plain recursion makes S^2 = 1024.
    """
    if b.offset != 0:
        raise ValueError("reciprocal requires offset 0")
    if b[0] != 1:
        raise ValueError(f"reciprocal requires b_0 = 1, got {b[0]}")
    size, s = len(b), _BLOCK
    bs = list(b.terms) + [0] * s  # tiles of the last block read up to b_{n0+S-1}
    cs = [1]
    for n0 in range(0, size, s):
        stop, M = min(n0 + s, size), n0 + 2 * s - 2
        acc = [0] * s
        for j0 in range(0, n0, s):
            J, kmin = j0 + s - 1, n0 - j0 - s + 1
            alpha = _scaled(cs, j0, s, comb(M, J))
            tile = _middle_product(alpha, _scaled(bs, kmin, 2 * s - 1))
            acc = list(map(add, acc, tile))
        for n in range(max(n0, 1), stop):
            total, r = divmod(acc[n - n0], perm(M, M - n))
            if r:
                raise AssertionError(f"internal: the tiles of c_{n} leave a remainder")
            binom = 1
            for k in range(1, n - n0 + 1):
                binom = binom * (n - k + 1) // k
                total += binom * bs[k] * cs[n - k]
            cs.append(-total)
    return IntSequence(tuple(cs))


def egf_triple(a: IntSequence) -> EgfTriple:
    """Full pipeline a -> (b, c, u); requires a_0 = 1."""
    if a.offset != 0:
        raise ValueError("construction requires offset 0")
    if a[0] != 1:
        raise ValueError(
            f"construction requires a_0 = 1, got {a[0]}; rescaling is refused "
            "because it changes the divisibility structure"
        )
    b = binomial_transform(a)
    c = egf_reciprocal(b)
    u = inverse_binomial_transform(c)
    return EgfTriple(b, c, u)


def u_over_factorial(u: IntSequence, precision: int = 30) -> list[Decimal]:
    """The ratios u_n / n! as decimals with ``precision`` significant digits.

    Each ratio is the exact rational rounded once.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1 digit")
    out = []
    with localcontext() as ctx:
        ctx.prec = precision
        for i, t in enumerate(u.terms):
            n = u.offset + i
            out.append(Decimal(t) / Decimal(factorial(n)))
    return out
