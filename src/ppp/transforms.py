"""Binomial transform, its inverse, and truncated generating-series identities."""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record


_BASE10 = re.compile(r"[+-]?[0-9]+")


def json_int(value) -> int:
    """An exact integer read from JSON: an int (not a bool) or a base-10 string.

    Anything else raises ValueError rather than being truncated (2.9) or
    coerced (true).
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _BASE10.fullmatch(value):
        return int(value)
    raise ValueError(f"not an exact integer: {value!r}")


def integer(text: str) -> int:
    """One integer line or option: stripped, the unicode minus read as '-',
    then an optional sign and ASCII digits (``json_int``)."""
    return json_int(text.strip().replace("−", "-"))


def rational(text: str) -> Fraction:
    """One rational option or table line: INT or INT/INT, each part read by
    ``integer``.  No exponent or decimal point: ``1e100000000`` would ask
    for a hundred-million-digit integer."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(integer(num), integer(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational NUM or NUM/DEN: {text!r}") from exc


def _require_int(name: str, value) -> None:
    """The json_int rule for a value in hand: an int, not a bool; nothing is truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")


class IntSequence(Record):
    """A finite prefix of an integer sequence.

    ``terms[i]`` is the value at index ``offset + i``.  All the transform
    formulas assume offset 0; sequences with other offsets must be re-indexed
    explicitly first.
    """

    terms: tuple[int, ...]
    offset: int = 0

    def __post_init__(self):
        _require_int("offset", self.offset)
        if self.offset < 0:
            raise ValueError("offset must be a natural number")
        if not self.terms:
            raise ValueError("sequence prefix must be non-empty")
        for t in self.terms:
            if not isinstance(t, int) or isinstance(t, bool):
                raise TypeError(f"sequence terms must be integers, got {type(t).__name__}")

    @staticmethod
    def of(values: Iterable[int], offset: int = 0) -> "IntSequence":
        return IntSequence(tuple(values), offset)

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, i: int) -> int:
        return self.terms[i]

    @property
    def last_index(self) -> int:
        return self.offset + len(self.terms) - 1


class RationalSeries(Record):
    """Truncated power series with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _require_offset_zero(s: IntSequence, what: str) -> None:
    if s.offset != 0:
        raise ValueError(f"{what} requires offset 0 (got {s.offset}); re-index first")


# Rows of the difference triangle that one left-to-right pass over the
# row applies; each term is read and written once per band.  The kernel
# _forward_band keeps a band in one local per row, p0 .. p31, so a new
# value means rewriting it.
_BAND = 32


def binomial_transform(a: IntSequence) -> IntSequence:
    """b_n = sum_k (-1)^(n-k) C(n,k) a_k, i.e. the n-th forward difference at 0.

    Computed with the difference triangle in place: O(N^2) additions and no
    multiplications, in memory of one row plus ``_BAND`` terms (see
    :func:`_forward_in_place`).
    """
    _require_offset_zero(a, "binomial_transform")
    t = list(a.terms)
    _forward_in_place(t)
    return IntSequence(tuple(t))


def _forward_in_place(t: list) -> None:
    """Replace the terms of ``t`` by their binomial transform.

    The loop only subtracts, so the terms may be ints or exact decimal
    integers alike.  Row r of the triangle is ``t[j] -= t[j-1]`` for
    j >= r, from the right; one pass over ``t`` applies a band of ``_BAND``
    rows.  Each term runs down the band in a local, and ``prev[k]`` holds
    the column before it after the band's first k rows.
    """
    n = len(t)
    for low in range(0, n - 1, _BAND):
        # column j < low + _BAND takes only its first j - low rows of the
        # band (a short last band's last column takes all of them), which
        # leave it final; that value enters the band as prev[j - low]
        prev = [t[low]]
        for j in range(low + 1, min(low + _BAND, n)):
            cur = t[j]
            for k in range(j - low):
                prev[k], cur = cur, cur - prev[k]
            prev.append(cur)
            t[j] = cur
        if low + _BAND < n:
            _forward_band(t, prev, low + _BAND)


def _forward_band(t: list, prev: list, start: int) -> None:
    """Apply a full band of rows to the columns of ``t`` from ``start`` on.

    ``prev[k]``, column ``start - 1`` after the band's first k rows, runs in
    the local ``pk``, and each term in ``c``: row k is ``pk, c = c, c - pk``.
    """
    (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15,
     p16, p17, p18, p19, p20, p21, p22, p23, p24, p25, p26, p27, p28, p29,
     p30, p31) = prev
    prev.clear()  # each value of the band is held once, in its local
    for j in range(start, len(t)):
        c = t[j]
        p0, c = c, c - p0
        p1, c = c, c - p1
        p2, c = c, c - p2
        p3, c = c, c - p3
        p4, c = c, c - p4
        p5, c = c, c - p5
        p6, c = c, c - p6
        p7, c = c, c - p7
        p8, c = c, c - p8
        p9, c = c, c - p9
        p10, c = c, c - p10
        p11, c = c, c - p11
        p12, c = c, c - p12
        p13, c = c, c - p13
        p14, c = c, c - p14
        p15, c = c, c - p15
        p16, c = c, c - p16
        p17, c = c, c - p17
        p18, c = c, c - p18
        p19, c = c, c - p19
        p20, c = c, c - p20
        p21, c = c, c - p21
        p22, c = c, c - p22
        p23, c = c, c - p23
        p24, c = c, c - p24
        p25, c = c, c - p25
        p26, c = c, c - p26
        p27, c = c, c - p27
        p28, c = c, c - p28
        p29, c = c, c - p29
        p30, c = c, c - p30
        p31, c = c, c - p31
        t[j] = c


def inverse_binomial_transform(b: IntSequence) -> IntSequence:
    """a_n = sum_k C(n,k) b_k, the inverse of :func:`binomial_transform`.

    O(N^2) additions in memory of one row plus ``_BAND`` terms (see
    :func:`_inverse_in_place`).
    """
    _require_offset_zero(b, "inverse_binomial_transform")
    t = list(b.terms)
    _inverse_in_place(t)
    return IntSequence(tuple(t))


def _inverse_in_place(t: list) -> None:
    """Replace the terms of ``t`` by their inverse binomial transform.

    Binomial inversion: ``sum_k C(n,k) b_k`` is ``(-1)^n`` times the
    forward transform of ``(-1)^k b_k``, so the forward kernel runs between
    two sign flips of the odd-indexed terms.  Each flip rewrites one term
    at a time, so no second half-row is held; unary minus (not
    ``copy_negate``) keeps an exact decimal zero unsigned.
    """
    for i in range(1, len(t), 2):
        t[i] = -t[i]
    _forward_in_place(t)
    for i in range(1, len(t), 2):
        t[i] = -t[i]


def ogf_of(s: IntSequence) -> RationalSeries:
    """Ordinary generating function of the prefix, truncated at its length.

    A nonzero offset contributes leading zero coefficients.
    """
    zeros = (Fraction(0),) * s.offset
    return RationalSeries(zeros + tuple(Fraction(t) for t in s.terms))


def _mul_trunc(u: Sequence[int], v: Sequence[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ui in enumerate(u[: order + 1]):
        if ui == 0:
            continue
        for j, vj in enumerate(v[: order + 1 - i]):
            out[i + j] += ui * vj
    return out


def _compose_trunc(f: Sequence[int], t: Sequence[int], order: int) -> list[int]:
    # Horner composition f(t(x)) mod x^(order+1); valid because t(0) = 0.
    if t[0] != 0:
        raise ValueError("composition requires a series with zero constant term")
    out = [0] * (order + 1)
    for c in reversed(list(f[: order + 1])):
        out = _mul_trunc(out, t, order)
        out[0] += c
    return out


def substitute_check(a: IntSequence, b: IntSequence, order: int) -> bool:
    """Check both generating-series substitution identities through x^order.

    f_b(x) = 1/(1+x) * f_a(x/(1+x)) and f_a(x) = 1/(1-x) * f_b(x/(1-x)),
    expanded by exact truncated composition.  True only if both hold.
    """
    if order < 0:
        raise ValueError("order must be a natural number")
    if len(a) <= order or len(b) <= order:
        raise ValueError(
            f"prefixes too short for order {order}: lengths {len(a)}, {len(b)}"
        )
    fa = [0] * a.offset + list(a.terms)
    fb = [0] * b.offset + list(b.terms)

    # x/(1+x) = x - x^2 + x^3 - ...,   1/(1+x) = 1 - x + x^2 - ...
    t_plus = [0] + [(-1) ** k for k in range(order)]
    inv_plus = [(-1) ** k for k in range(order + 1)]
    lhs1 = fb[: order + 1]
    rhs1 = _mul_trunc(inv_plus, _compose_trunc(fa, t_plus, order), order)

    # x/(1-x) = x + x^2 + ...,   1/(1-x) = 1 + x + x^2 + ...
    t_minus = [0] + [1] * order
    inv_minus = [1] * (order + 1)
    lhs2 = fa[: order + 1]
    rhs2 = _mul_trunc(inv_minus, _compose_trunc(fb, t_minus, order), order)

    return lhs1 == rhs1 and lhs2 == rhs2
