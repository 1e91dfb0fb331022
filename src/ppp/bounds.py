"""Effective constants for the polynomial-recurrence height bound.

Pipeline: given a growth bound |a_n| <= c * delta^n with 1 < delta < e, select
working parameters (ell, d, rho, epsilon, omega), bound the infinite product
Phi(D, x) = prod_j (1 + x j^D delta^j / primorial(j-1)), and search for a
height H at which the majorized product inequality holds while it fails at
H-1.  The inequality is not monotone in h, so H need not be the smallest such
height.  Every real quantity is carried as a two-sided enclosure;
inequalities are only reported when they hold at the adverse rounding
direction.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable

from . import real, transforms
from ._record import Record
from .arith import SIEVE_LIMIT_CAP, _odd_windows, prime_segments


class DomainError(ValueError):
    """Input outside the admissible parameter domain."""


class PrecisionExhausted(ArithmeticError):
    """A comparison stayed undecidable up to the context's precision ceiling."""


class SearchExceeded(ArithmeticError):
    """The height search passed the configured cap without succeeding."""


class CapExceeded(ArithmeticError):
    """The proof of J(epsilon) needs a tail point beyond the J limit."""


# ---------------------------------------------------------------------------
# Interval plumbing


# The precision every proof starts at, and the default working precision.
_PROOF_BITS = 256


def _escalate(ctx: "PrecisionCtx", fn: Callable[[real.Context], object], start: int = 0):
    """Run ``fn`` on interval contexts of doubling precision, from
    ``start`` clamped to [min(ctx.bits, _PROOF_BITS), ctx.max_bits] up to
    ``ctx.max_bits``, until it returns a value, not None.

    ``ppp.real``'s comparisons already have that form: ``x < y`` is True
    when it holds for every pair of enclosed points, False when it fails for
    every pair, and None otherwise.  A division by an enclosure of 0 is
    undecided too: more precision may separate the divisor from 0.  Every
    proof returns an exact bool or int, so the start changes only the cost.
    """
    bits = min(max(start, min(ctx.bits, _PROOF_BITS)), ctx.max_bits)
    while True:
        try:
            value = fn(real.Context(bits))
        except ZeroDivisionError:
            value = None
        if value is not None:
            return value
        if bits >= ctx.max_bits:
            raise PrecisionExhausted(
                f"comparison undecided at {bits} bits; raise the precision ceiling"
            )
        bits = min(2 * bits, ctx.max_bits)


def _first_true(holds: Callable[[int], bool], start: int, cap: int,
                settled: Callable[[int, int], int | None] | None = None) -> int | None:
    """Where ``holds`` turns true in [start, cap]: doubling from ``start``
    (the last step clipped to ``cap``), then bisection; None when it fails
    at ``cap``.

    Bisection keeps ``holds`` false at lo and true at hi, so the answer is
    the least such n only when ``holds`` is monotone; otherwise all it
    certifies is a false n-1 (or n = start).  ``settled(lo, hi)`` may end
    the bisection early with the n it would end at, known without ``holds``.
    """
    lo = hi = start
    while not holds(hi):
        if hi >= cap:
            return None
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        if settled is not None and (n := settled(lo, hi)) is not None:
            return n
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _decide_floor(ctx: "PrecisionCtx", make: Callable) -> int:
    """Exact floor of the real number enclosed by ``make(ivc)``."""
    def attempt(ivc):
        flo, fhi = make(ivc).floors()
        return flo if flo == fhi else None
    return _escalate(ctx, attempt)


def _ceil(x) -> int | None:
    """ceil(x): exact for a Fraction; for an enclosure, None unless both
    endpoints have the same ceiling."""
    if isinstance(x, Fraction):
        return math.ceil(x)
    flo, fhi = (-x).floors()
    return -flo if flo == fhi else None


class Enclosure(Record):
    """Two-sided rational enclosure of a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("enclosure endpoints out of order")

    @staticmethod
    def from_iv(x) -> "Enclosure":
        return Enclosure(*x.endpoints())

    @staticmethod
    def point(q: Fraction) -> "Enclosure":
        q = Fraction(q)
        return Enclosure(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    # Decimals are rounded at 10 guard digits, at an explicit precision, as
    # mpmath's nstr rounds them under workdps(digits + 10).
    def decimal(self, digits: int = 30) -> str:
        prec = real.dps_to_prec(digits + 10)
        total = real.nearest(real.nearest(self.lo, prec) + real.nearest(self.hi, prec), prec)
        return real.to_str(total / 2, digits)

    def width_decimal(self) -> str:
        if self.width == 0:
            return "0"
        return real.to_str(real.nearest(self.width, real.dps_to_prec(3 + 10)), 3)

    def to_json_dict(self) -> dict:
        return {"value": self.decimal(), "width": self.width_decimal()}


# ---------------------------------------------------------------------------
# Inputs


def _ratio(q: Fraction) -> str:  # str(q) at any size
    num, den = map(transforms.decimal_text, (q.numerator, q.denominator))
    return num if den == "1" else f"{num}/{den}"


class Delta(Record):
    """The geometric growth base: an exact rational, or exp of one.

    The exp form exists so bases like e^(1/2) have an exact logarithm; the
    parameter algebra is then exact rational arithmetic instead of enclosures.
    """

    kind: str  # "rational" | "exp"
    value: Fraction

    @staticmethod
    def rational(q) -> "Delta":
        q = Fraction(q)
        if q <= 1:
            raise DomainError(f"delta must exceed 1, got {_ratio(q)}")
        return Delta("rational", q)

    @staticmethod
    def exp(q) -> "Delta":
        q = Fraction(q)
        if not (0 < q < 1):
            raise DomainError(f"exp-form delta needs exponent in (0, 1), got {_ratio(q)}")
        return Delta("exp", q)

    @staticmethod
    def coerce(v) -> "Delta":
        if isinstance(v, Delta):
            return v
        if isinstance(v, float):
            raise TypeError("delta must be exact: use a Fraction or Delta.exp")
        return Delta.rational(Fraction(v))

    @staticmethod
    def parse(text: str) -> "Delta":
        """``e^Q`` or ``Q``, with Q read by ``transforms.rational``: INT or INT/INT."""
        text = text.strip()
        if text.startswith("e^"):
            return Delta.exp(transforms.rational(text[2:]))
        return Delta.rational(transforms.rational(text))

    def label(self) -> str:
        return f"e^{_ratio(self.value)}" if self.kind == "exp" else _ratio(self.value)

    @property
    def ell_fraction(self) -> Fraction | None:
        """log(delta) when it is exactly rational, else None."""
        return self.value if self.kind == "exp" else None

    def iv(self, ivc):
        if self.kind == "exp":
            return ivc.exp(ivc.num(self.value))
        return ivc.num(self.value)

    def iv_ell(self, ivc):
        if self.kind == "exp":
            return ivc.num(self.value)
        return ivc.log(ivc.num(self.value))


class PrecisionCtx(Record):
    """Working precision and the search/scan limits.

    ``bits`` is the precision of the printed values: rho, epsilon and the
    enclosures.  Every decision of the J scan and the height search is a
    proof, which starts at min(bits, _PROOF_BITS) and retries with doubled
    precision up to ``max_bits`` before PrecisionExhausted (``_escalate``).
    """

    bits: int = _PROOF_BITS
    max_bits: int = 1 << 15
    j_cap: int = 4 * 10**6
    h_cap_log2: int = 16384

    def __post_init__(self):
        for name in self._fields:
            transforms._require_int(name, getattr(self, name))
        if self.bits < 64:
            raise ValueError("working precision below 64 bits is not supported")
        if self.max_bits < self.bits:
            raise ValueError(f"working precision {self.bits} bits exceeds the "
                             f"precision ceiling max_bits = {self.max_bits}")
        for name in ("j_cap", "h_cap_log2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def _check_delta_domain(delta: Delta, ctx: PrecisionCtx) -> None:
    # exp form has 0 < ell < 1 by construction; rational form needs delta < e.
    if delta.kind == "rational":
        if not _escalate(ctx, lambda ivc: delta.iv(ivc) < ivc.e):
            raise DomainError(f"delta must lie strictly below e, got {delta.label()}")


def _log_e_minus(ivc, epsilon: Fraction):
    """log(e - epsilon)."""
    return ivc.log(ivc.e - ivc.num(epsilon))


def _lam(ivc, delta: Delta, epsilon: Fraction):
    """lam = log(1/omega) = log(e - epsilon) - log(delta)."""
    return _log_e_minus(ivc, epsilon) - delta.iv_ell(ivc)


def _j0(ivc, delta: Delta, epsilon: Fraction, D: int):
    """j0 = 2D / log(1/omega)."""
    return 2 * D / _lam(ivc, delta, epsilon)


def _floor_j0(ctx: PrecisionCtx, delta: Delta, epsilon: Fraction, D: int) -> int:
    return _decide_floor(ctx, lambda ivc: _j0(ivc, delta, epsilon, D))


def _in_ell(ctx: PrecisionCtx, delta: Delta, formula: Callable, decide: Callable, *qs):
    """``decide(formula(ell, *qs))`` for ell = log(delta) and rationals ``qs``.

    The one rule for every formula in ell: exact Fraction arithmetic when ell
    is rational, else enclosures at escalating precision until ``decide``
    gives a verdict (the formulas are then never exactly on a boundary).
    """
    ell = delta.ell_fraction
    if ell is not None:
        return decide(formula(ell, *qs))
    return _escalate(
        ctx, lambda ivc: decide(formula(delta.iv_ell(ivc), *(ivc.num(q) for q in qs)))
    )


# ---------------------------------------------------------------------------
# Degree bound


def degree_bound_formula(delta, ctx: PrecisionCtx | None = None) -> int:
    """max(0, ceil((5*log(delta) - 1) / (1 - log(delta))))."""
    ctx = ctx or PrecisionCtx()
    delta = Delta.coerce(delta)
    _check_delta_domain(delta, ctx)
    return max(0, _in_ell(ctx, delta, lambda l: (5 * l - 1) / (1 - l), _ceil))


# ---------------------------------------------------------------------------
# J(epsilon): primorial growth threshold


class ChebyshevBound(Record):
    """theta(x) > x (1 - a / log(x)^k) for every real x >= start."""

    a: Fraction
    k: int
    start: int
    citation: str

    def closes(self, ctx: PrecisionCtx, log_base: Callable, x: int) -> bool:
        """x (1 - a / log(x)^k) >= (x+1) log_base, decided by enclosures.

        The margin m(x) = x (1 - log_base - a / log(x)^k) - log_base rises
        wherever it is >= 0 (then 1 - log_base - a / log(x)^k > 0 and grows
        with x, and the derivative is that plus a k / log(x)^(k+1)).  So it
        closes at every x' >= x as soon as it closes at x >= start.
        """
        def attempt(ivc):
            lx = ivc.log(ivc.num(x))
            lower = x * (1 - ivc.num(self.a) / lx**self.k)
            return lower >= (x + 1) * log_base(ivc)
        return _escalate(ctx, attempt)


# The tail theorems, each quoted with its source.
ROSSER_SCHOENFELD = ChebyshevBound(
    Fraction(1, 2), 1, 563,
    "Rosser & Schoenfeld 1962 (Illinois J. Math. 6), Theorem 4: "
    "theta(x) > x(1 - 1/(2 log x)) for x >= 563",
)
DUSART = ChebyshevBound(
    Fraction(1, 5), 2, 3_594_641,
    "Dusart 2010 (arXiv:1002.0442): |theta(x) - x| < 0.2 x/log^2 x for x >= 3594641",
)


class JScan(Record):
    """J(epsilon) and the tail theorem that ends its scan at x0."""

    J: int
    tail: ChebyshevBound
    x0: int


def _tail_point(ctx: PrecisionCtx, log_base: Callable) -> tuple[ChebyshevBound, int | None]:
    """The tail theorem to use and its least closing x0 >= its start.

    Rosser-Schoenfeld when it closes by Dusart's start, else Dusart, which
    is the stronger bound from there on.  x0 is None when it would exceed
    the 64-bit sieve limit.
    """
    tail = ROSSER_SCHOENFELD if ROSSER_SCHOENFELD.closes(ctx, log_base, DUSART.start) else DUSART
    return tail, _first_true(lambda x: tail.closes(ctx, log_base, x), tail.start, SIEVE_LIMIT_CAP)


def scan_J(epsilon, ctx: PrecisionCtx | None = None) -> JScan:
    """J(epsilon), the largest j with primorial(j-1) < (e - epsilon)^j, with
    the proof that no larger j qualifies.

    Write L = log(e - epsilon) and theta(x) = log primorial(x).  j qualifies
    when theta(j-1) < j L.  The tail theorem closes at x0 (``_tail_point``):
    theta(x) >= (x+1) L for every x >= x0, so no j > x0 qualifies.  The scan
    (``_scan_to``) covers j <= x0, and raises CapExceeded when x0 exceeds
    ``ctx.j_cap``, a resource limit.

    Only the ends of prime gaps are candidates: for j-1 in a gap [p, q),
    theta(j-1) stays theta(p) while j L grows, so a qualifying j in the gap
    makes its end j = q (or j = x0 in the last gap) qualify too.
    """
    ctx = ctx or PrecisionCtx()
    epsilon = Fraction(epsilon)
    _check_epsilon_domain(ctx, epsilon)
    log_base = lambda ivc: _log_e_minus(ivc, epsilon)
    tail, x0 = _tail_point(ctx, log_base)
    if x0 is None or x0 > ctx.j_cap:
        needed = f"x0 = {x0}" if x0 is not None else "x0 > 2^63 - 1"
        raise CapExceeded(
            f"the J(epsilon) tail proof needs {needed}, beyond the J limit {ctx.j_cap} "
            f"({tail.citation})"
        )
    return JScan(_scan_to(ctx, log_base, x0), tail, x0)


def compute_J(epsilon, ctx: PrecisionCtx | None = None) -> int:
    """J(epsilon), proved by ``scan_J``; CapExceeded past ``ctx.j_cap``."""
    return scan_J(epsilon, ctx).J


# Odd numbers per run of ``_last_open`` at least; runs widen with the margin.
_RUN_FLOOR = 64
# Primes per block of ``_largest_open``, each one exact product and one log.
_BLOCK = 256
# The scan's cheap tests compare integers scaled by 2^_FIX; log(q) 2^_FIX
# exceeds ``_log_floor(q)`` by less than _LOG_GAP.
_FIX, _LOG_GAP = 64, 1 << (64 - 9)


def _scan_to(ctx: PrecisionCtx, log_base: Callable, x0: int) -> int:
    """The largest candidate j <= x0 with theta(j-1) < j L (see ``scan_J``):
    ``_largest_open`` up to top, the last candidate ``_last_open`` cannot
    reject.  None past top qualifies only because top is the last candidate
    not rejected, not merely one of them.
    """
    top = _escalate(ctx, lambda ivc: _last_open(_fixed(log_base(ivc))[1], x0))
    return _escalate(ctx, lambda ivc: _largest_open(ivc, log_base(ivc), top))


def _fixed(x) -> tuple[int, int]:
    """The enclosure ``x`` as integers scaled by 2^_FIX, rounded outward."""
    lo, hi = x.endpoints()
    return (lo.numerator << _FIX) // lo.denominator, -((-hi.numerator << _FIX) // hi.denominator)


def _log_floor(q: int) -> int:
    """An integer at most log(q) 2^_FIX, for an int q >= 1.

    q = 2^k (1 + x) with 0 <= x < 1, and log(1 + x) = 2 atanh(z) for
    z = x / (2 + x) <= 1/3 is at least 2z + 2z^3/3, short of it by
    2 sum_(n>=2) z^(2n+1) / (2n+1) <= (2/5) z^5 (9/8) < 2^-9.08.  The floors
    and the lower end of log 2 (``real``) cost under 2^8 units more.
    """
    k = q.bit_length() - 1
    s = q - (1 << k)
    z = (s << _FIX) // ((2 << k) + s)
    return k * real._constant("ln2", _FIX) + 2 * z + (2 * z**3 >> 2 * _FIX) // 3


def _largest_open(ivc, L, top: int) -> int | None:
    """The largest candidate j <= top, a prime or top, with theta(j-1) < j L
    for the enclosure ``L``; None when an enclosure leaves one undecided.

    theta is enclosed at the ends of blocks of ``_BLOCK`` primes, and of
    top alone, each end the one before plus the log of the block's exact
    product.  In a block ps[0] < ... < ps[n-1] from start to end, each log
    lies in [a, b], a = ``_log_floor(ps[0])`` and b = ``_log_floor(ps[n-1])
    + _LOG_GAP``, so theta(ps[i] - 1) lies in [start + i a, start + i b] and
    in [end - (n-i) b, end - (n-i) a].  From the last candidate down, these
    fixed-point tests qualify j = ps[i] when j L exceeds both upper ends and
    reject it when j L is at most a lower end (at most start: also every
    candidate below it).  One they leave open splits the block: start plus
    the log of the product below j encloses theta(j - 1), which decides j
    and ends the block below it.  Only the blocks from the last one whose
    last candidate qualifies are searched, from the top.
    """
    l_lo, l_hi = _fixed(L)

    def within(ps, start, end):  # as _largest_open, over the block ps; 0 for none
        (s_lo, s_hi), (e_lo, e_hi), n = _fixed(start), _fixed(end), len(ps)
        a, b = _log_floor(ps[0]), _log_floor(ps[-1]) + _LOG_GAP
        for i in range(n - 1, -1, -1):
            j = ps[i]
            if j * l_hi <= s_lo:
                return 0
            if j * l_lo > min(s_hi + i * b, e_hi - (n - i) * a):
                return j
            if j * l_hi > max(s_lo + i * a, e_lo - (n - i) * b):
                break
        else:
            return 0
        mid = start + ivc.log(ivc.num(math.prod(ps[:i])))  # theta(j - 1)
        holds = mid < j * L
        if holds is not False:
            return holds and j
        return within(ps[:i], start, mid) if i else 0

    theta, blocks = ivc.num(0), []
    for segment in itertools.chain(prime_segments(top - 1), [(top,)]):
        for i in range(0, len(segment), _BLOCK):
            ps = segment[i:i + _BLOCK]
            end = theta + ivc.log(ivc.num(math.prod(ps)))
            if (ps[-1] * L > end) is True:
                blocks.clear()
            blocks.append((ps, theta, end))
            theta = end
    for block in reversed(blocks):
        found = within(*block)
        if found != 0:
            return found
    return 0


def _last_open(step: int, x0: int) -> int:
    """The last candidate j <= x0, a prime or x0, that a count of primes
    cannot reject, given step >= L 2^_FIX.

    Over the sieve windows of the odd numbers below x0, theta_lo stays at
    most theta(a-1) 2^_FIX, a the first odd number of the current run
    [a, b].  Each candidate j in the run has theta(j-1) >= theta_lo and
    j <= b, so theta_lo > b step rejects the whole run.  Past the run, its
    c primes add c ``_log_floor`` of the first of them.  The prime 2, left
    out of theta_lo, is a candidate that is never rejected.
    """
    theta_lo, last = 0, 2
    for lo, window in _odd_windows(x0 - 1):
        i = 0
        while i < len(window):
            # odd numbers that take up half the margin at the run's start in
            # j step, so that theta_lo still rejects the run; at least the floor
            k = max(_RUN_FLOOR, (theta_lo - (lo + 2 * i) * step) // (4 * step))
            end = min(i + k, len(window))
            if theta_lo <= (lo + 2 * (end - 1)) * step:
                top = window.rfind(1, i, end)
                if top >= 0:
                    last = lo + 2 * top
            first = window.find(1, i, end)
            if first >= 0:
                theta_lo += window.count(1, first, end) * _log_floor(lo + 2 * first)
            i = end
    return last if theta_lo > x0 * step else x0


def _check_epsilon_domain(ctx: PrecisionCtx, epsilon: Fraction) -> None:
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    # epsilon < e - 1 so that e - epsilon > 1 and the comparison makes sense
    if not _escalate(ctx, lambda ivc: ivc.num(epsilon) < ivc.e - 1):
        raise DomainError(f"epsilon must be below e - 1, got {_ratio(epsilon)}")


# ---------------------------------------------------------------------------
# Parameter selection


class Parameters(Record):
    """Verified working parameters for the height search."""

    c: Fraction
    delta: Delta
    ell: Enclosure
    formula_d: int           # max(1, ceil(4*ell/(1-ell))) before any bump
    d: int                   # working value, bumped when degenerate
    discriminant: Enclosure  # d(1-ell)(d(1-ell) - 4*ell)
    rho_interval: tuple[Enclosure, Enclosure]  # clipped admissible interval
    rho: Fraction            # dyadic, strictly inside the interval
    epsilon: Fraction        # dyadic, found by halving
    omega: Enclosure         # delta / (e - epsilon), < 1
    log_inv_omega: Enclosure
    floor_j0: int            # floor(2d / log(1/omega))

    @property
    def d_bumped(self) -> bool:
        return self.d != self.formula_d


def _rho2_holds_strictly(delta: Delta, d: int, rho: Fraction, ctx: PrecisionCtx) -> bool:
    """ell^2 rho^2 + (2 ell - d(1-ell)) rho + 1 < 0, decided safely."""
    try:
        return _in_ell(
            ctx, delta,
            lambda l, r: l * l * r * r + (2 * l - d * (1 - l)) * r + 1,
            lambda q: q < 0,
            rho,
        )
    except PrecisionExhausted:
        # Treated as degenerate: the bump that follows only strengthens margins.
        return False


def _gamma(ivc, delta: Delta, d: int, rho: Fraction, epsilon: Fraction):
    """gamma = d*rho - (1 + rho*ell)^2 / log(1/omega), the strict margin."""
    r = ivc.num(rho)
    return d * r - (1 + r * delta.iv_ell(ivc)) ** 2 / _lam(ivc, delta, epsilon)


def _rho1_holds(delta: Delta, d: int, rho: Fraction, epsilon: Fraction,
                ctx: PrecisionCtx) -> bool:
    """gamma > 0 (``_gamma``) at adverse rounding."""
    return _escalate(ctx, lambda ivc: _gamma(ivc, delta, d, rho, epsilon) > 0)


def choose_parameters(c, delta, ctx: PrecisionCtx | None = None) -> Parameters:
    """Select (d, rho, epsilon) with verified strict margins.

    d starts at max(1, ceil(4*ell/(1-ell))).  When the admissible rho
    interval has no interior (vanishing discriminant), no epsilon can give a
    strict margin, so d is incremented until the interval midpoint verifies
    strictly; epsilon then follows by halving from (e - delta)/2.
    """
    ctx = ctx or PrecisionCtx()
    delta = Delta.coerce(delta)
    c = Fraction(c)
    if c <= 0:
        raise DomainError("c must be positive")
    _check_delta_domain(delta, ctx)

    formula_d = max(1, _in_ell(ctx, delta, lambda l: 4 * l / (1 - l), _ceil))

    ivc = real.Context(ctx.bits)
    l = delta.iv_ell(ivc)
    d = formula_d
    for _ in range(64):
        disc = d * (1 - l) * (d * (1 - l) - 4 * l)
        # The true discriminant is >= 0; clip rounding noise at zero.
        root = ivc.sqrt(_iv_nonneg(ivc, disc))
        lo_iv = (d * (1 - l) - 2 * l - root) / (2 * l * l)
        # rho: the interval midpoint, rounded to a dyadic at the working precision
        rho = ((lo_iv + 1 / l) / 2).mid()
        if (
            rho > 0
            and _in_ell(ctx, delta, lambda l, r: r * l, lambda v: v <= 1, rho)
            and _rho2_holds_strictly(delta, d, rho, ctx)
        ):
            break
        d += 1
    else:
        raise PrecisionExhausted("no admissible rho found after 64 bumps")

    # epsilon: halve from (e - delta)/2 until the strict inequality verifies
    epsilon, _ = ((ivc.e - delta.iv(ivc)) / 2).endpoints()
    if epsilon <= 0:
        raise PrecisionExhausted(f"e - delta not separated from 0 at {ctx.bits} bits")
    for _ in range(200):
        if _rho1_holds(delta, d, rho, epsilon, ctx):
            break
        epsilon /= 2
    else:
        raise PrecisionExhausted("epsilon halving did not reach a strict margin")

    omega_iv = delta.iv(ivc) / (ivc.e - ivc.num(epsilon))
    ell_fr = delta.ell_fraction

    return Parameters(
        c=c,
        delta=delta,
        ell=Enclosure.point(ell_fr) if ell_fr is not None else Enclosure.from_iv(l),
        formula_d=formula_d,
        d=d,
        discriminant=Enclosure.from_iv(disc),
        rho_interval=(Enclosure.from_iv(lo_iv), Enclosure.from_iv(1 / l)),
        rho=rho,
        epsilon=epsilon,
        omega=Enclosure.from_iv(omega_iv),
        log_inv_omega=Enclosure.from_iv(_lam(ivc, delta, epsilon)),
        floor_j0=_floor_j0(ctx, delta, epsilon, d),
    )


def _iv_nonneg(ivc, x):
    """Clip an enclosure at zero; valid for quantities known to be >= 0."""
    sign = x >= 0
    if sign is True:
        return x
    if sign is False:
        raise PrecisionExhausted("nonnegative quantity enclosed strictly below zero")
    return real.hull(ivc.num(0), x)


def _iv_max0(ivc, x):
    """max(0, x) over an enclosure."""
    return ivc.num(0) if (x <= 0) is True else _iv_nonneg(ivc, x)


# ---------------------------------------------------------------------------
# Majorized product bound


# Once the lower end of log x exceeds this, log(1+x) is log x + log(1 + 1/x).
_LOG1P_SWITCH = 40


class _Majorant:
    """The closed-form majorant of Phi(D, x) in log form, at one precision.

    log_phi(log x) = log_k + (J+F) log(1+x) + F (log 2 + D log j0)
    + (log y)^2 / lam, with lam = log(1/omega), j0 = 2D/lam (``_j0``),
    F = floor(j0), y = x j0^D and log_k = log c0 + J log 2 + D log J!
    + J^2 log(delta), c0 = exp(4 zeta(2) / lam).  J! is enclosed as a
    product of exact blocks of 256 factors, rounded outward at each step.
    """

    def __init__(self, ivc, delta: Delta, epsilon: Fraction, D: int, J: int, F: int):
        self.ivc, self.J, self.F = ivc, J, F
        self.ell = delta.iv_ell(ivc)
        self.lam = _lam(ivc, delta, epsilon)
        self.log2 = ivc.log(ivc.num(2))
        self.d_log_j0 = D * ivc.log(_j0(ivc, delta, epsilon, D))
        self.j_fact = ivc.num(1)
        for lo in range(1, J + 1, 256):
            self.j_fact *= math.prod(range(lo, min(lo + 256, J + 1)))
        self.log_jfact = ivc.log(self.j_fact)
        log_c0 = 4 * (ivc.pi**2 / 6) / self.lam
        self.log_k = log_c0 + J * self.log2 + D * self.log_jfact + (J * J) * self.ell

    def log_phi(self, logx, logy=None):
        """log_phi at u = log x; ``logy`` replaces u + D log j0 in the last
        term (see ``_height_lower_bound``)."""
        ivc = self.ivc
        if logy is None:
            logy = logx + self.d_log_j0
        # log(1+x) two ways, both enclosing; pick by the endpoint scale
        if (logx > _LOG1P_SWITCH) is True:
            log1px = logx + ivc.log(1 + ivc.exp(-logx))
        else:
            log1px = ivc.log(1 + ivc.exp(logx))
        return (
            self.log_k
            + (self.J + self.F) * log1px
            + self.F * (self.log2 + self.d_log_j0)
            + logy**2 / self.lam
        )

    def slope(self, logx):
        """d log_phi / d log x = (J+F) / (1 + e^-u) + 2 (u + D log j0) / lam, u = log x."""
        ivc = self.ivc
        return (self.J + self.F) / (1 + ivc.exp(-logx)) + 2 * (logx + self.d_log_j0) / self.lam


def phi_upper_bound(D: int, x, delta, epsilon, ctx: PrecisionCtx | None = None) -> Enclosure:
    """Upper enclosure of the closed-form majorant of the infinite product
    prod_{j>=1} (1 + x j^D delta^j / primorial(j-1)).

    Shape: 2^J (1+x)^J J!^D delta^(J^2) (2(1+x) j0^D)^floor(j0) c0
    exp(log(x j0^D)^2 / log(1/omega)) with j0 = 2D/log(1/omega) and
    c0 = exp(4 zeta(2) / log(1/omega)); evaluated as exp of its log form.
    """
    ctx = ctx or PrecisionCtx()
    delta = Delta.coerce(delta)
    _check_delta_domain(delta, ctx)
    if D < 1:
        raise DomainError("D must be at least 1")
    if isinstance(x, float):
        raise TypeError("x must be exact: int or Fraction")
    x = Fraction(x)
    if x <= 0:
        raise DomainError("x must be positive")
    epsilon = Fraction(epsilon)
    _check_epsilon_domain(ctx, epsilon)
    if not _escalate(ctx, lambda ivc: ivc.num(epsilon) < ivc.e - delta.iv(ivc)):
        raise DomainError("epsilon must satisfy delta < e - epsilon")

    J = compute_J(epsilon, ctx)
    floor_j0 = _floor_j0(ctx, delta, epsilon, D)

    # The dilogarithm step in the tail estimate requires y = x*j0^D >= 1.
    if not _escalate(ctx, lambda ivc: 1 <= ivc.num(x) * _j0(ivc, delta, epsilon, D) ** D):
        raise DomainError(
            "bound requires x * j0^D >= 1 (the tail estimate is only valid there)"
        )

    ivc = real.Context(ctx.bits)
    majorant = _Majorant(ivc, delta, epsilon, D, J, floor_j0)
    return Enclosure.from_iv(ivc.exp(majorant.log_phi(ivc.log(ivc.num(x)))))


# ---------------------------------------------------------------------------
# Height search


class _HeightEngine:
    """Log-domain evaluation of the defining inequality LHS(h) <= h^(r d).

    Works entirely with logarithms so no astronomically long integers are
    materialized; every comparison escalates precision until decidable.
    """

    def __init__(self, params: Parameters, ctx: PrecisionCtx):
        self.params = params
        self.ctx = ctx
        self.j_scan = scan_J(params.epsilon, ctx)
        self.J = self.j_scan.J
        self._packs: dict[int, _Majorant] = {}  # precision -> pack
        self._thresholds: dict[int, int] = {}  # k -> T_k = ceil(exp(k/rho))
        self.pack = pk = _escalate(ctx, self._pack)  # its first attempt: the proof precision
        # the constants of ``_cell_floats``, K = log_k + F (log 2 + d log j0)
        # folded into one
        K = pk.log_k + params.floor_j0 * (pk.log2 + pk.d_log_j0)
        self._floats = (*(float(x.mid()) for x in (K, pk.lam, pk.ell, pk.d_log_j0, pk.log_2cd)),
                        float(params.rho))

    def _pack(self, ivc) -> _Majorant:
        """The majorant of Phi(d, x) in the context ``ivc``, plus log(2cd) and rho."""
        pk = self._packs.get(ivc.prec)
        if pk is None:
            p = self.params
            pk = _Majorant(ivc, p.delta, p.epsilon, p.d, self.J, p.floor_j0)
            pk.log_2cd = ivc.log(ivc.num(2 * p.c * p.d))
            pk.rho = ivc.num(p.rho)
            self._packs[ivc.prec] = pk
        return pk

    def threshold(self, k: int) -> int:
        """T_k = ceil(exp(k/rho)), the least integer h with r(h) > k.

        For k >= 1, exp(k/rho) is irrational (Lindemann), so an integer h
        satisfies rho*log(h) > k exactly when h >= T_k.  The proof starts 64
        bits above T_k's bit length k/(rho log 2) + 1, read in floats: a
        wrong estimate costs only more attempts.
        """
        t = self._thresholds.get(k)
        if t is None:
            q = Fraction(k) / self.params.rho
            start = int(float(q) / math.log(2)) + 65
            t = _escalate(self.ctx, lambda ivc: _ceil(ivc.exp(ivc.num(q))), start)
            self._thresholds[k] = t
        return t

    def r_of(self, h: int) -> int:
        """r(h) = floor(rho*log(h)) + 1.

        The proof-precision enclosure of rho*log(h) brackets the floor; each
        integer k it leaves open is settled exactly by h >= T_k.
        """
        pk = self.pack
        flo, fhi = (pk.rho * pk.ivc.log(pk.ivc.num(h))).floors()
        return flo + 1 + sum(h >= self.threshold(k) for k in range(flo + 1, fhi + 1))

    @staticmethod
    def _log_x(pk: _Majorant, r, L):
        """u = log x = log(2cd) + log r + L + (r-1) ell for enclosures ``r``
        of a real r >= 1 and ``L`` of log h.  u is increasing in r and L."""
        return pk.log_2cd + pk.ivc.log(r) + L + (r - 1) * pk.ell

    def log_lhs(self, ivc, r: int, logh):
        """log LHS(h) in the context ``ivc``, given ``logh`` = log h in it."""
        pk = self._pack(ivc)
        return pk.log_phi(self._log_x(pk, ivc.num(r), logh))

    def falls(self, r: int, h: int) -> bool:
        """True when the proof precision shows f_r'(log h) <= 0, r = r(h).

        f_r(L) = r d L - log_phi(u) with du/dL = 1, so f_r' = -Phi_L
        (``partials``).
        """
        pk = self.pack
        r_iv, L = pk.ivc.num(r), pk.ivc.log(pk.ivc.num(h))
        phi_L, _ = self.partials(r_iv, L, self._log_x(pk, r_iv, L))
        return (phi_L >= 0) is True

    def partials(self, r, L, u):
        """(Phi_L, Phi_r) for Phi(r, L) = log_phi(u(r, L)) - r d L, enclosed
        over the enclosures ``r`` and ``L``, given an enclosure ``u`` of
        u(r, L) over them.

        u_L = 1 and u_r = 1/r + ell, so Phi_L = phi'(u) - r d and Phi_r =
        phi'(u) (1/r + ell) - d L, with phi' = ``_Majorant.slope``.
        """
        pk, d = self.pack, self.params.d
        slope = pk.slope(u)
        return slope - d * r, slope * (1 / r + pk.ell) - d * L

    def cell_false(self, la: Fraction, lb: Fraction) -> bool:
        """True when the predicate provably fails at every h with la <= log h <= lb.

        A mean-value (centred) form in strip coordinates (Moore, Interval
        Analysis, 1966).  Write L = log h, r = rho L + t, Phi(r, L) =
        log_phi(u(r, L)) - r d L and psi(L, t) = Phi(rho L + t, L): the
        predicate fails where psi > 0.

        Soundness.  Every height of the cell has r(h) = floor(rho L) + 1 >= 1,
        so its (L, t) lies in S = {L in [la, lb], t in (0, 1], rho L + t >= 1}.
        S is convex and contains the centre (m, t_c), m = (la + lb)/2 and
        t_c = max(1/2, 1 - rho m): t_c <= 1 since rho m >= 0, and
        rho m + t_c >= 1.  S lies in the box B = {L in [la, lb],
        r in [max(1, rho la), rho lb + 1]}, so by the mean value theorem on
        the segment from the centre, psi on S is at least

            low = psi(m, t_c) + psi_L(B) ([la, lb] - m) + psi_t(B) ([0, 1] - t_c),

        with psi_L = Phi_L + rho Phi_r and psi_t = Phi_r (``partials``); as
        t_c >= 1/2, |t - t_c| <= t_c on S.  u rises in r and L, so its
        corners at (r, L) = (max(1, rho la), la) and (rho lb + 1, lb) enclose
        it on B.

        Why it is tight.  Along the strip the two sides rise together, so
        psi_L is small; a corner bound (the majorant at the lower-left corner
        against r d L at the upper-right) pays the whole rise of r d L,
        about 2 d rho L per unit of L, across the cell.

        Every True is proved: ``_cell_low`` encloses low at the proof
        precision.  A False needs no proof, as it only narrows the prefix's
        next cell: where low's float value over its scale (``_cell_estimate``)
        lies below -``_CELL_BAND``, the cell fails with no enclosure.
        """
        guess = self._cell_estimate(la, lb)
        if guess is not None and guess < -_CELL_BAND:
            return False
        return (self._cell_low(la, lb) > 0) is True

    def _cell_low(self, la: Fraction, lb: Fraction):
        """An enclosure of ``cell_false``'s bound low on [la, lb], at the
        proof precision."""
        p, pk = self.params, self.pack
        ivc, d = pk.ivc, p.d
        m = (la + lb) / 2
        t_c = max(Fraction(1, 2), 1 - p.rho * m)
        r_c, L_c = ivc.num(p.rho * m + t_c), ivc.num(m)
        psi_c = pk.log_phi(self._log_x(pk, r_c, L_c)) - d * r_c * L_c
        r_lo, r_hi = ivc.num(max(1, p.rho * la)), ivc.num(p.rho * lb + 1)
        L_lo, L_hi = ivc.num(la), ivc.num(lb)
        u = real.hull(self._log_x(pk, r_lo, L_lo), self._log_x(pk, r_hi, L_hi))
        phi_L, phi_r = self.partials(real.hull(r_lo, r_hi), real.hull(L_lo, L_hi), u)
        psi_L = phi_L + pk.rho * phi_r
        return psi_c - abs(psi_L) * ivc.num((lb - la) / 2) - abs(phi_r) * ivc.num(t_c)

    def _cell_estimate(self, la: Fraction, lb: Fraction) -> float | None:
        """low / scale from ``_cell_floats``; None where ``_cell_floats`` is."""
        parts = self._cell_floats(la, lb)
        return None if parts is None else parts[0] / parts[1]

    def _cell_floats(self, la: Fraction, lb: Fraction) -> tuple[float, float] | None:
        """``cell_false``'s bound low on [la, lb] in floats, and its scale
        T0 + T1, the two sides at the centre; None when a float operation
        fails.  A heuristic that proves nothing: it retraces ``_cell_low``
        with the same centre and corners and the partials as (lo, hi)
        pairs, so in exact arithmetic it is low, since the slope rises with u
        and a product's range lies at its corners.
        """
        K, lam, ell, g, c2, rho = self._floats
        d, jf = self.params.d, self.J + self.params.floor_j0
        try:
            a, b, hw = float(la), float(lb), float(lb - la) / 2
            m = (a + b) / 2
            t_c = max(0.5, 1 - rho * m)
            r_c, r_lo, r_hi = rho * m + t_c, max(1.0, rho * a), rho * b + 1
            u_c = c2 + math.log(r_c) + m + (r_c - 1) * ell
            u_lo = c2 + math.log(r_lo) + a + (r_lo - 1) * ell
            u_hi = c2 + math.log(r_hi) + b + (r_hi - 1) * ell
            y_c, y_lo, y_hi = u_c + g, u_lo + g, u_hi + g
            # log(1 + e^u) = max(u, 0) + log1p(e^-|u|)
            T0 = K + jf * (max(u_c, 0) + math.log1p(math.exp(-abs(u_c)))) + y_c * y_c / lam
            # the slope rises with u; Phi_L = slope - d r, Phi_r = slope (1/r + ell) - d L
            s_lo = jf / (1 + math.exp(-u_lo)) + 2 * y_lo / lam
            s_hi = jf / (1 + math.exp(-u_hi)) + 2 * y_hi / lam
            w_lo, w_hi = 1 / r_hi + ell, 1 / r_lo + ell
            corners = (s_lo * w_lo, s_lo * w_hi, s_hi * w_lo, s_hi * w_hi)
            phi_r_lo, phi_r_hi = min(corners) - d * b, max(corners) - d * a
            psi_L = max(abs(s_lo - d * r_hi + rho * phi_r_lo),
                        abs(s_hi - d * r_lo + rho * phi_r_hi))  # |psi_L|, psi_L = Phi_L + rho Phi_r
            T1, T3 = d * r_c * m, max(abs(phi_r_lo), abs(phi_r_hi)) * t_c
            return T0 - T1 - psi_L * hw - T3, T0 + T1
        except (OverflowError, ValueError):
            return None

    def floor_exp(self, L: Fraction) -> int:
        """An integer h with h <= exp(L): the floor of the lower end of exp(L)
        at the proof precision."""
        ivc = self.pack.ivc
        return ivc.exp(ivc.num(L)).floors()[0]

    def predicate(self, h: int) -> bool:
        r = self.r_of(h)
        rd = r * self.params.d
        def attempt(ivc):
            logh = ivc.log(ivc.num(h))
            return self.log_lhs(ivc, r, logh) <= rd * logh
        return _escalate(self.ctx, attempt)


# The first and the smallest cell width the false prefix tries, as powers
# of two in log h: 2^8, which failed cells narrow (to 2^6 on e^2/7, 2^-2 on
# e^1/40), and 2^-12.
_CELL_START, _CELL_FLOOR = 8, -12
# ``_HeightEngine.cell_false`` encloses every cell whose float estimate lies
# above -_CELL_BAND, a margin for the values too near 0 to reject unproved.
_CELL_BAND = 2.0**-36


def _false_prefix(engine: _HeightEngine) -> int:
    """F: the predicate fails at every h <= F.  F is the floor of the lower
    end of an enclosure of exp(L), L the last proved cell's end (F = 1
    before the first); the heights in (F, exp(L)] fail too.

    Proved by cells of log h (``_HeightEngine.cell_false``) from h = 1,
    where r d log 1 = 0 lies below log LHS(1), every term of which is
    positive: log c0 = 4 zeta(2)/lam > 0 and j0 = 2d/lam > 2.  On a cell
    [la, lb] the heights have (log h, r(h) - rho log h) in a convex set on
    which a mean-value form, centred in that set near the strip
    r = rho log h + 1/2, keeps the majorant's log above r d log h.  The
    first cell tries the width 2^_CELL_START, and each cell after a proved
    one twice its width.  A failure halves the width below the one tried.
    The prefix ends at a failure at the floor width, or once F reaches
    2^h_cap_log2.
    """
    cap = 1 << engine.ctx.h_cap_log2
    la, false_to = Fraction(0), 1
    width = _CELL_START  # log2 of the next cell's width in log h
    while false_to < cap:
        lb = la + Fraction(2) ** width
        if engine.cell_false(la, lb):
            la, false_to = lb, engine.floor_exp(lb)
            width += 1
        elif width > _CELL_FLOOR:
            width -= 1
        else:
            break
    return false_to


class _Verdicts:
    """Exact predicate values for one height search, from proved facts when
    they apply and from ``_HeightEngine.predicate`` otherwise.

    * False prefix.  Every h <= ``false_to`` fails (``_false_prefix``,
      proved before the first question).  This is the first ``past_to``
      fact below, and a run start T_{r-1} <= ``false_to`` fails without an
      evaluation.
    * Query order.  The doubling rises until its first true height;
      bisection moves lo up on a false answer and hi down on a true one.  So
      every later question lies above each height found false and below
      each height found true.  Once the two facts below meet inside the
      bracket, they answer every later question (``settled``).
    * Runs of one r.  For fixed r, f_r(L) = r d L - log_phi(u) with
      u = log(2cd) + log r + L + (r-1) ell is concave in L = log h, because
      log(1 + e^u) and (u + d log j0)^2 are convex.  So on [T_{r-1}, T_r - 1]
      the predicate holds on one run of consecutive heights.  The first
      question in a run decides T_{r-1}, evaluated only past ``false_to``,
      and ``_starts`` keeps the verdict.
    * Two heights.  Every later question at or below ``past_to`` fails, and
      every later question at or above ``true_from`` holds.  A true answer
      at h where T_{r-1} holds makes [T_{r-1}, h] true, and later questions
      lie below h: true_from = T_{r-1}.  A false answer at h where T_{r-1}
      holds, or where f_r provably falls (``_HeightEngine.falls``), makes
      [h, T_r - 1] false, and later questions lie above h: past_to = T_r - 1.
      So does a T_{r-1} that fails where f_r falls.  A true T_{r-1} alone
      says nothing about the heights after it.
    """

    def __init__(self, engine: _HeightEngine):
        self.engine = engine
        self.false_to = self.past_to = _false_prefix(engine)  # later questions <= past_to fail
        self.true_from = math.inf  # every later question >= true_from holds
        self._starts: dict[int, bool] = {}  # r -> the predicate at T_{r-1}

    def __call__(self, h: int) -> bool:
        if h <= self.past_to:
            return False
        if h >= self.true_from:
            return True
        engine = self.engine
        r = engine.r_of(h)
        start = engine.threshold(r - 1) if r > 1 else 1
        start_holds = self._starts.get(r)
        if start_holds is None:
            start_holds = start > self.false_to and engine.predicate(start)
            self._starts[r] = start_holds
            if not start_holds and engine.falls(r, start):
                self.past_to = engine.threshold(r) - 1  # the whole run fails
                return False
        if h == start:
            return start_holds  # a true_from = h would never be used
        holds = engine.predicate(h)
        if holds and start_holds:
            self.true_from = start
        elif not holds and (start_holds or engine.falls(r, h)):
            self.past_to = engine.threshold(r) - 1
        return holds

    def settled(self, lo: int, hi: int) -> int | None:
        """``true_from`` when lo <= past_to and past_to + 1 = true_from <= hi:
        the facts then answer every question in (lo, hi), false up to
        past_to and true from true_from, so bisection ends at true_from."""
        met = lo <= self.past_to and self.past_to + 1 == self.true_from <= hi
        return self.true_from if met else None


def _search_height(verdicts: _Verdicts) -> int:
    """The height found by ``_first_true`` on [2^k, 2^h_cap_log2]: doubling
    over powers of two, then bisecting until the facts meet.  2^k is the
    last power of two the false prefix covers, at least 2 (h = 1 fails) and
    at most the cap, so doubling from 2 would find every power below it
    false and reach the same pair.  The search ends with the predicate false
    at h-1: the only minimality it certifies.
    """
    cap = verdicts.engine.ctx.h_cap_log2
    start = 1 << min(max(1, verdicts.false_to.bit_length() - 1), cap)
    h = _first_true(verdicts, start, 1 << cap, verdicts.settled)
    if h is None:
        raise SearchExceeded(
            f"no power of two h = 2^k with k <= {cap} satisfies "
            f"the inequality (doubling stopped at h = 2^{cap}); "
            "the minimal height can be astronomically large for some growth "
            "bases (raise PrecisionCtx.h_cap_log2 and max_bits to continue)"
        )
    return h


def compute_H(c, delta, params: Parameters | None = None,
              ctx: PrecisionCtx | None = None) -> int:
    """Height h >= 2 found by ``_search_height``: the majorized inequality
    holds at h and fails at h-1."""
    ctx = ctx or PrecisionCtx()
    if params is None:
        params = choose_parameters(c, delta, ctx)
    return _search_height(_Verdicts(_HeightEngine(params, ctx)))


def _height_lower_bound(engine: _HeightEngine) -> Enclosure:
    """exp((sqrt(d^2 + 4 d rho log A) - d) / (2 d rho)), below every height
    where the predicate holds, enclosed at the working precision.

    u = log x rises with h from u1 = log(2cd) (r(1) = 1).  Over u >= u1,
    (J+F) log(1 + e^u) rises, the terms free of u stay, and (u + d log j0)^2
    >= max(0, u1 + d log j0)^2, as the square falls while u + d log j0 < 0.
    So log LHS(h) >= log A, log_phi(u1) with that square, for every h >= 1.
    A true h has log A <= r d L <= (rho L + 1) d L with L = log h, so L is
    at least the positive root of d rho L^2 + d L - log A.
    """
    pk = engine._pack(real.Context(engine.ctx.bits))
    ivc, rho, d, u1 = pk.ivc, pk.rho, engine.params.d, pk.log_2cd
    la = _iv_nonneg(ivc, pk.log_phi(u1, _iv_max0(ivc, u1 + pk.d_log_j0)))
    val = ivc.exp((ivc.sqrt(d * d + 4 * d * rho * la) - d) / (2 * d * rho))
    return Enclosure.from_iv(val)


def _height_upper_diagnostic(engine: _HeightEngine, gamma) -> tuple[Enclosure, Enclosure, Enclosure] | None:
    """Closed-form bound H <= 1 + exp((alpha + sqrt(alpha^2+4*beta*gamma)) / (2*gamma)).

    Derivation (valid for 1 <= h <= 2^h_cap_log2, the search domain).  Write
    L = log h, lam = log(1/omega), F = floor(j0), and split

        log LHS(h) = K + (J+F) log(1+x) + F (log 2 + d log j0) + (log y)^2/lam

    with K = log c0 + J log 2 + d log J! + J^2 log(delta), x = 2*c*r*d*h*
    delta^(r-1), y = x*j0^d, r = floor(rho*L) + 1.  On the search domain
    r - 1 <= rho*L and log r <= t := log(rho*Lcap + 1), so

        log x  <= log(2cd) + t + (1 + rho*ell) L
        log(1+x) <= log 2 + max(0, log(2cd) + t) + (1 + rho*ell) L
        c3 := log(2cd) + d log j0  <=  log y  <=  c2 + (1 + rho*ell) L,
               c2 := log(2cd) + t + d log j0
        (log y)^2 <= c3^2 + (c2 + (1+rho*ell) L)^2.

    Subtracting the quadratic main term (1+rho*ell)^2 L^2 / lam leaves the
    residual S(h) <= beta + alpha L with

        alpha = (J+F)(1+rho*ell) + 2 (1+rho*ell) c2 / lam
        beta  = K + F (log 2 + d log j0)
                + (J+F)(log 2 + max(0, log(2cd) + t))
                + (c3^2 + c2^2) / lam.

    If Y is minimal with S(h) <= gamma L^2 (gamma = d*rho - (1+rho*ell)^2/lam
    > 0 by the strict margin), the defining inequality holds at Y because
    r > rho L; so H <= Y, and minimality of Y at Y-1 gives
    gamma log(Y-1)^2 < alpha log(Y-1) + beta, i.e. log(Y-1) is below the
    largest root of gamma X^2 - alpha X - beta.  Conservative directions:
    upper alpha and beta, lower gamma (the enclosure ``gamma`` passed in).
    Enclosed at the working precision.
    """
    pk = engine._pack(real.Context(engine.ctx.bits))
    ivc, rho, lam, J, F = pk.ivc, pk.rho, pk.lam, pk.J, pk.F
    if (gamma > 0) is not True:
        return None  # strict margin not visible at this precision
    one_plus = 1 + rho * pk.ell
    t = ivc.log(rho * (engine.ctx.h_cap_log2 * pk.log2) + 1)
    c2 = pk.log_2cd + t + pk.d_log_j0
    c3 = pk.log_2cd + pk.d_log_j0
    alpha = (J + F) * one_plus + 2 * one_plus * c2 / lam
    log1px_const = pk.log2 + _iv_max0(ivc, pk.log_2cd + t)
    beta = (
        pk.log_k
        + F * (pk.log2 + pk.d_log_j0)
        + (J + F) * log1px_const
        + (c3**2 + c2**2) / lam
    )
    # conservative endpoint picks
    a_hi = alpha.upper()
    b_hi = _iv_nonneg(ivc, beta.upper())
    g_lo = gamma.lower()
    root = (a_hi + ivc.sqrt(a_hi**2 + 4 * b_hi * g_lo)) / (2 * g_lo)
    bound = 1 + ivc.exp(root)
    return Enclosure.from_iv(alpha), Enclosure.from_iv(beta), Enclosure.from_iv(bound)


# ---------------------------------------------------------------------------
# Full report


class EffectiveBounds(Record):
    """Everything the pipeline established for one (c, delta) input."""

    params: Parameters
    ctx: PrecisionCtx
    j_scan: JScan
    gamma: Enclosure
    H: int
    H_lower: Enclosure
    deg_bound_formula: int
    order_bound: int
    diag_alpha: Enclosure | None
    diag_beta: Enclosure | None
    diag_H_upper: Enclosure | None

    @property
    def J(self) -> int:
        return self.j_scan.J

    def to_json_dict(self) -> dict:
        def enc(e: Enclosure | None):
            return e.to_json_dict() if e is not None else "unavailable"

        def exact(q: Fraction):
            return {**Enclosure.point(q).to_json_dict(), "exact": _ratio(q)}

        p, h = self.params, self.H
        note = ""
        if p.d_bumped:
            note = (
                f"d bumped from formula value {p.formula_d} to {p.d}: the "
                "admissible rho interval was degenerate, no strict margin existed"
            )
        return {
            "input": {
                "c": _ratio(p.c),
                "delta": p.delta.label(),
                "precision_bits": str(self.ctx.bits),
            },
            "ell": enc(p.ell),
            "epsilon": exact(p.epsilon),
            "omega": enc(p.omega),
            "log_inv_omega": enc(p.log_inv_omega),
            "J": str(self.J),
            "j_scan": {
                "cap": str(self.ctx.j_cap),
                "tail": {"theorem": self.j_scan.tail.citation, "x0": str(self.j_scan.x0)},
            },
            "d": str(p.d),
            "d_from_formula": str(p.formula_d),
            "degeneracy_note": note,
            "discriminant": enc(p.discriminant),
            "rho": exact(p.rho),
            "rho_interval": [enc(p.rho_interval[0]), enc(p.rho_interval[1])],
            "gamma": enc(self.gamma),
            "H": transforms.decimal_text(h),
            "H_predicate_false_at": transforms.decimal_text(h - 1),
            "H_lower": enc(self.H_lower),
            "degree_bound_formula": str(self.deg_bound_formula),
            "degree_bound_construction": str(p.d - 1),
            "order_bound": str(self.order_bound),
            "diagnostic_alpha": enc(self.diag_alpha),
            "diagnostic_beta": enc(self.diag_beta),
            "diagnostic_H_upper": enc(self.diag_H_upper),
        }


def bounds_report(c, delta, ctx: PrecisionCtx | None = None) -> EffectiveBounds:
    """Run the whole pipeline and re-assert every claimed inequality."""
    ctx = ctx or PrecisionCtx()
    delta = Delta.coerce(delta)
    params = choose_parameters(Fraction(c), delta, ctx)
    engine = _HeightEngine(params, ctx)
    h = _search_height(_Verdicts(engine))

    # invariants, re-checked at adverse rounding
    if not _rho2_holds_strictly(delta, params.d, params.rho, ctx):
        raise AssertionError("internal: rho lost its strict margin")
    if not _rho1_holds(delta, params.d, params.rho, params.epsilon, ctx):
        raise AssertionError("internal: epsilon lost its strict margin")
    if engine.predicate(h - 1):
        raise AssertionError("internal: the predicate holds at H-1, so H is not minimal")

    h_lower = _height_lower_bound(engine)
    if Fraction(h) < h_lower.lo:
        raise AssertionError("internal: height fell below its certified lower bound")

    order_bound = _decide_floor(ctx, lambda ivc: ivc.log(ivc.num(h)) / delta.iv_ell(ivc))

    gamma = _gamma(real.Context(ctx.bits), delta, params.d, params.rho, params.epsilon)
    diag = _height_upper_diagnostic(engine, gamma)
    if diag is not None:
        d_alpha, d_beta, d_upper = diag
        if Fraction(h) > d_upper.hi:
            raise AssertionError("internal: height exceeds its diagnostic upper bound")
    else:
        d_alpha = d_beta = d_upper = None

    return EffectiveBounds(
        params=params,
        ctx=ctx,
        j_scan=engine.j_scan,
        gamma=Enclosure.from_iv(gamma),
        H=h,
        H_lower=h_lower,
        deg_bound_formula=degree_bound_formula(delta, ctx),
        order_bound=order_bound,
        diag_alpha=d_alpha,
        diag_beta=d_beta,
        diag_H_upper=d_upper,
    )
