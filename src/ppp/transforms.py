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
# row applies; each term is read and written once per band
_BAND = 32


def binomial_transform(a: IntSequence) -> IntSequence:
    """b_n = sum_k (-1)^(n-k) C(n,k) a_k, i.e. the n-th forward difference at 0.

    Computed with the difference triangle in place: O(N^2) additions and no
    multiplications, in memory of one row plus ``_BAND`` terms.  Row r of
    the triangle is ``t[j] -= t[j-1]`` for j >= r, from the right; one pass
    over ``t`` applies a band of ``_BAND`` rows.  Each term runs down the
    band in a local, and ``prev[k]`` holds the column before it after the
    band's first k rows.
    """
    _require_offset_zero(a, "binomial_transform")
    t = list(a.terms)
    n = len(t)
    for low in range(0, n - 1, _BAND):
        rows = min(_BAND, n - 1 - low)  # rows low+1 .. low+rows
        # column j < low + rows takes only its first j - low rows, which
        # leave it final; that value enters the band as prev[j - low]
        prev = [t[low]]
        for j in range(low + 1, low + rows):
            cur = t[j]
            for k in range(j - low):
                prev[k], cur = cur, cur - prev[k]
            prev.append(cur)
            t[j] = cur
        ks = range(rows)
        for j in range(low + rows, n):
            cur = t[j]
            for k in ks:
                prev[k], cur = cur, cur - prev[k]
            t[j] = cur
    return IntSequence(tuple(t))


def inverse_binomial_transform(b: IntSequence) -> IntSequence:
    """a_n = sum_k C(n,k) b_k, the inverse of :func:`binomial_transform`.

    Undoes the rows of :func:`binomial_transform` in place, last row first
    and each with ``t[j] += t[j-1]`` from the left: O(N^2) additions in
    memory of one row plus ``_BAND`` terms (see :func:`_inverse_in_place`).
    """
    _require_offset_zero(b, "inverse_binomial_transform")
    t = list(b.terms)
    _inverse_in_place(t)
    return IntSequence(tuple(t))


def _inverse_in_place(t: list) -> None:
    """Replace the terms of ``t`` by their inverse binomial transform.

    The loop uses only additions, so the terms may be ints or exact decimal
    integers alike.  One pass over ``t`` undoes a band of ``_BAND`` rows
    from the top, and ``prev[k]`` holds the column before it with the
    band's first k rows still applied.
    """
    n = len(t)
    for low in reversed(range(0, n - 1, _BAND)):
        rows = min(_BAND, n - 1 - low)  # rows low+rows .. low+1
        # column j < low + rows has only the band's first j - low rows
        # applied and skips the others; its value enters as prev[j - low]
        prev = [t[low]]
        for j in range(low + 1, low + rows):
            cur = t[j]
            prev.append(cur)
            for k in range(j - low - 1, -1, -1):
                cur += prev[k]
                prev[k] = cur
            t[j] = cur
        ks = range(rows - 1, -1, -1)
        for j in range(low + rows, n):
            cur = t[j]
            for k in ks:
                cur += prev[k]
                prev[k] = cur
            t[j] = cur


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
