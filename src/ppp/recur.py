"""Guess, verify and apply linear recurrences with polynomial coefficients."""
from __future__ import annotations

import math
from fractions import Fraction

from . import certify
from ._record import Record
from .transforms import IntSequence, _require_int, _require_offset_zero, decimal_text, json_int

# Largest prime below 2^30; used only to skip hopeless (order, degree) cells.
# Below 2^30 every residue is a single CPython digit, so the filter's products
# and reductions stay on the interpreter's fast small-integer paths.
# Sound: a zero nullspace modulo any prime proves the rational nullspace is
# zero, so the filter can never discard a genuine candidate.
_FILTER_PRIME = 1073741789


class LeadingZeroError(ArithmeticError):
    """Extension hit an index where the leading polynomial vanishes."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"leading polynomial vanishes at n={n}")


class NonIntegralError(ArithmeticError):
    """Extension left the integers: the exact division had a remainder."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"extension at n={n} is not an integer")


def _poly_eval(coeffs: tuple[int, ...], n: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * n + c
    return v


def _trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class PolyRecurrence(Record):
    """sum_j polys[j](n) * a_{n+j} = 0, with integer-coefficient polynomials.

    Canonical form: content 1 and a positive leading coefficient on the
    highest-index nonzero polynomial.  Construct via :meth:`normalized`.
    """

    polys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("a recurrence needs at least one polynomial")
        if all(all(c == 0 for c in p) for p in self.polys):
            raise ValueError("polynomials must not all be zero")

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    @staticmethod
    def normalized(polys) -> "PolyRecurrence":
        ps = [_trim(p) for p in polys]
        while len(ps) > 1 and ps[-1] == (0,):
            ps.pop()
        content = math.gcd(*(c for p in ps for c in p))
        if content == 0:
            raise ValueError("polynomials must not all be zero")
        ps = [tuple(c // content for c in p) for p in ps]
        lead = ps[-1][-1]
        if lead < 0:
            ps = [tuple(-c for c in p) for p in ps]
        return PolyRecurrence(tuple(ps))

    def degree_vector(self) -> tuple[int, ...]:
        return tuple(-1 if p == (0,) else len(p) - 1 for p in self.polys)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "polys": [[decimal_text(c) for c in p] for p in self.polys],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PolyRecurrence":
        polys = d["polys"]
        if not isinstance(polys, list) or not all(isinstance(p, list) for p in polys):
            raise ValueError("polys must be a list of coefficient lists")
        r = PolyRecurrence(tuple(tuple(json_int(c) for c in p) for p in polys))
        if r.order != json_int(d["order"]):
            raise ValueError("order field disagrees with the polynomial list")
        return r


class GuessBudget(Record):
    """Search limits; the margin is the tail reserved for verification."""

    s_max: int
    d_max: int
    verify_margin: int = 10

    def __post_init__(self):
        for name in self._fields:
            _require_int(name, getattr(self, name))

    def required_length(self) -> int:
        return (self.s_max + 1) * (self.d_max + 1) + self.s_max + self.verify_margin

    def check(self, prefix_len: int) -> None:
        if self.s_max < 0 or self.d_max < 0 or self.verify_margin < 0:
            raise ValueError("budget fields must be natural numbers")
        need = self.required_length()
        if need > prefix_len:
            raise ValueError(
                f"budget infeasible: needs prefix length >= {need}, got {prefix_len}"
            )


def verify_recurrence(a: IntSequence, rec: PolyRecurrence) -> certify.CertReport:
    """Check the recurrence identity exactly at every prefix index.

    Counterexamples carry modulus 0 and the residual; ``certify.make_report`` caps them.
    """
    _require_offset_zero(a, "verify_recurrence")
    s = rec.order
    if len(a) <= s:
        raise ValueError(f"prefix length {len(a)} must exceed the order {s}")
    top = len(a) - 1
    residuals = (sum(_poly_eval(rec.polys[j], n) * a[n + j] for j in range(s + 1))
                 for n in range(top - s + 1))
    failures = (certify.Counterexample(n, 0, r) for n, r in enumerate(residuals) if r)
    return certify.make_report("recurrence", top, failures)


def apply_recurrence(rec: PolyRecurrence, initial: IntSequence, n_max: int) -> IntSequence:
    """Extend the initial terms to index n_max by solving for the top term."""
    return IntSequence(tuple(_extended(rec, initial, n_max, int)))


def _extended(rec: PolyRecurrence, initial: IntSequence, n_max: int, number) -> list:
    """The terms of index 0..n_max: ``initial``'s, each passed through
    ``number``, then the extension by ``rec``.

    The step uses only sums, products and an exact division, so ``number``
    may be ``int`` or ``decimal.Decimal`` under a context that rounds
    nothing.  Decimal division keeps the sign of a zero quotient; ``+q``
    turns the ``-0`` of 0 over a negative lead into 0 and leaves an int
    as it is.
    """
    _require_offset_zero(initial, "apply_recurrence")
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    s = rec.order
    if len(initial) < s:
        raise ValueError(f"need at least {s} initial terms, got {len(initial)}")
    terms = [number(t) for t in initial.terms[: n_max + 1]]
    for m in range(len(terms), n_max + 1):
        n = m - s
        lead = _poly_eval(rec.polys[s], n)
        if lead == 0:
            raise LeadingZeroError(n)
        rhs = -sum(_poly_eval(rec.polys[j], n) * terms[n + j] for j in range(s))
        q, r = divmod(rhs, lead)
        if r != 0:
            raise NonIntegralError(n)
        terms.append(+q)
    return terms


def _cells(s_max: int, d_max: int):
    # Ascending order+degree total, ties broken by smaller order.
    return sorted(((s, d) for s in range(s_max + 1) for d in range(d_max + 1)),
                  key=lambda sd: (sd[0] + sd[1], sd[0]))


def _filter_rows(residues: list[int], s: int, d: int, nrows: int) -> list[list[int]]:
    """Order ``s`` filter matrix mod p, degree-major: column ``i*(s+1) + j``
    holds ``n^i * a_{n+j}``, so cell ``(s, d')`` is its first ``(s+1)(d'+1)``
    columns for every ``d' <= d``."""
    p = _FILTER_PRIME
    rows = []
    for n in range(nrows):
        powers = [pow(n, i, p) for i in range(d + 1)]
        window = residues[n : n + s + 1]
        rows.append([pw * r % p for pw in powers for r in window])
    return rows


def _independent_prefix(rows: list[list[int]], ncols: int) -> int:
    """Index of the first column that depends on the columns before it mod p,
    or ``ncols`` when all are independent.  Consumes ``rows``.

    The first ``k`` columns have full rank mod p exactly when ``k`` is at most
    the returned index.  Rows shrink from the left as columns are eliminated.
    """
    p = _FILTER_PRIME
    for col in range(ncols):
        pivot = next((r for r, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            return col
        prow = rows.pop(pivot)
        inv = pow(prow[0], -1, p)
        prow = prow[1:]
        rows = [
            [(x - f * y) % p for x, y in zip(row[1:], prow)]
            if (f := row[0] * inv % p) else row[1:]
            for row in rows
        ]
    return ncols


def _rational_nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Nullspace basis via exact Gauss-Jordan elimination over the rationals.

    Each basis vector has a 1 in its own free column, so none is zero.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


def _candidate(vec: list[Fraction], s: int, d: int) -> PolyRecurrence:
    """The order ``s``, degree ``d`` recurrence of a nullspace vector, in canonical form."""
    den = math.lcm(*(f.denominator for f in vec))
    ints = [int(f * den) for f in vec]
    return PolyRecurrence.normalized(ints[j * (d + 1) : (j + 1) * (d + 1)] for j in range(s + 1))


def guess_recurrence(a: IntSequence, budget: GuessBudget) -> PolyRecurrence | None:
    """Search for a recurrence holding on the whole prefix.

    Cells (order, degree) are visited in ascending total, ties by smaller
    order.  A cell's homogeneous system uses every index except a reserved
    tail; a candidate is returned only if it also verifies on that tail (and,
    re-checked, on the full prefix).  Returns None when no cell succeeds: a
    budget-relative outcome, not a proof that no recurrence exists.

    One elimination mod ``_FILTER_PRIME`` per order finds the cells whose
    columns are independent; those have no nonzero solution and are skipped.
    """
    _require_offset_zero(a, "guess_recurrence")
    budget.check(len(a))
    length = len(a)
    residues = [t % _FILTER_PRIME for t in a.terms]
    lead: dict[int, int] = {}  # order -> first dependent filter column
    for s, d in _cells(budget.s_max, budget.d_max):
        ncols = (s + 1) * (d + 1)
        solve_top = length - s - budget.verify_margin  # rows: n in [0, solve_top)
        if s not in lead:
            filt = _filter_rows(residues, s, budget.d_max, solve_top)
            lead[s] = _independent_prefix(filt, (s + 1) * (budget.d_max + 1))
        if ncols <= lead[s]:
            continue  # zero nullspace mod p, hence over the rationals
        rows = [[a[n + j] * n**i for j in range(s + 1) for i in range(d + 1)]
                for n in range(solve_top)]
        basis = _rational_nullspace(rows, ncols)
        for cand in sorted((_candidate(vec, s, d) for vec in basis),
                           key=lambda r: (r.degree_vector(), r.polys)):
            if verify_recurrence(a, cand).certified:
                return cand
    return None
