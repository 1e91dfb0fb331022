"""Effective constants for the polynomial-recurrence height bound.

Pipeline: given a growth bound |a_n| <= c * delta^n with 1 < delta < e, select
working parameters (ell, d, rho, epsilon, omega), bound the infinite product
Phi(D, x) = prod_j (1 + x j^D delta^j / primorial(j-1)), and search for the
minimal height H at which the majorized product inequality holds.  Every real
quantity is carried as a two-sided enclosure; inequalities are only reported
when they hold at the adverse rounding direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import mpmath.libmp as libmp
from mpmath import ctx_iv

from .arith import primes_up_to


class DomainError(ValueError):
    """Input outside the admissible parameter domain."""


class PrecisionExhausted(ArithmeticError):
    """A comparison stayed undecidable up to the context's precision ceiling."""


class SearchExceeded(ArithmeticError):
    """The height search passed the configured cap without succeeding."""


class CapExceeded(ArithmeticError):
    """Primorial-growth violations persist too close to the scan cap."""


# ---------------------------------------------------------------------------
# Interval plumbing


_IV_CONTEXTS: dict[int, ctx_iv.MPIntervalContext] = {}


def _ivc(bits: int) -> ctx_iv.MPIntervalContext:
    ctx = _IV_CONTEXTS.get(bits)
    if ctx is None:
        ctx = ctx_iv.MPIntervalContext()
        ctx.prec = bits
        _IV_CONTEXTS[bits] = ctx
    return ctx


def _iv_int(ivc, n: int):
    # Conversion of arbitrary ints rounds each endpoint outward.
    return ivc.mpf(n)


def _iv_frac(ivc, q: Fraction):
    if q.denominator == 1:
        return _iv_int(ivc, q.numerator)
    return _iv_int(ivc, q.numerator) / _iv_int(ivc, q.denominator)


def _tuple_to_fraction(t) -> Fraction:
    sign, man, exp, bc = t
    if man == 0 and exp != 0:
        raise ValueError("non-finite interval endpoint")
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


def _endpoints(x) -> tuple:
    return x._mpi_


def _le(x, y) -> bool | None:
    """Tri-state: True if surely x <= y, False if surely x > y, else None."""
    xa, xb = _endpoints(x)
    ya, yb = _endpoints(y)
    if libmp.mpf_le(xb, ya):
        return True
    if libmp.mpf_gt(xa, yb):
        return False
    return None


def _lt(x, y) -> bool | None:
    xa, xb = _endpoints(x)
    ya, yb = _endpoints(y)
    if libmp.mpf_lt(xb, ya):
        return True
    if libmp.mpf_ge(xa, yb):
        return False
    return None


def _escalate(ctx: "PrecisionCtx", fn: Callable[[int], object]):
    """Run ``fn`` at increasing precision until it returns a value, not None."""
    bits = ctx.bits
    while True:
        value = fn(bits)
        if value is not None:
            return value
        if bits >= ctx.max_bits:
            raise PrecisionExhausted(
                f"comparison undecided at {bits} bits; raise the precision ceiling"
            )
        bits = min(2 * bits, ctx.max_bits)


def _floors(x) -> tuple[int, int]:
    """Floors of the two endpoints of an enclosure."""
    lo, hi = _endpoints(x)
    return libmp.to_int(lo, "f"), libmp.to_int(hi, "f")


def _decide_floor(ctx: "PrecisionCtx", make: Callable) -> int:
    """Exact floor of the real number enclosed by ``make(ivc)``."""
    def attempt(bits: int):
        flo, fhi = _floors(make(_ivc(bits)))
        return flo if flo == fhi else None
    return _escalate(ctx, attempt)


def _decide_ceil(ctx: "PrecisionCtx", make: Callable) -> int:
    return -_decide_floor(ctx, lambda ivc: -make(ivc))


def _mpf_of(q: Fraction) -> mpmath.mpf:
    """``mpf(numerator) / denominator`` at the working precision, without its cost.

    A large endpoint is a multi-million-bit integer ending in a long run of
    zero bits, and mpmath's pure-Python backend strips such runs 8 bits at a
    time.  Scaling by a power of two commutes with binary rounding, so taking
    the powers of two out first gives the same mpf.
    """
    num, den = q.numerator, q.denominator
    tz = (num & -num).bit_length() - 1 if num else 0
    dz = (den & -den).bit_length() - 1
    return mpmath.mpf((num >> tz, tz - dz)) / (den >> dz)


@dataclass(frozen=True)
class Enclosure:
    """Two-sided rational enclosure of a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("enclosure endpoints out of order")

    @staticmethod
    def from_iv(x) -> "Enclosure":
        lo, hi = _endpoints(x)
        return Enclosure(_tuple_to_fraction(lo), _tuple_to_fraction(hi))

    @staticmethod
    def point(q: Fraction) -> "Enclosure":
        q = Fraction(q)
        return Enclosure(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def decimal(self, digits: int = 30) -> str:
        with mpmath.workdps(digits + 10):
            return mpmath.nstr((_mpf_of(self.lo) + _mpf_of(self.hi)) / 2, digits)

    def width_decimal(self, digits: int = 3) -> str:
        if self.width == 0:
            return "0"
        with mpmath.workdps(digits + 10):
            return mpmath.nstr(_mpf_of(self.width), digits)

    def to_json_dict(self, digits: int = 30) -> dict:
        return {"value": self.decimal(digits), "width": self.width_decimal()}


# ---------------------------------------------------------------------------
# Inputs


@dataclass(frozen=True)
class Delta:
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
            raise DomainError(f"delta must exceed 1, got {q}")
        return Delta("rational", q)

    @staticmethod
    def exp(q) -> "Delta":
        q = Fraction(q)
        if not (0 < q < 1):
            raise DomainError(f"exp-form delta needs exponent in (0, 1), got {q}")
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
        text = text.strip()
        if text.startswith("e^"):
            return Delta.exp(Fraction(text[2:]))
        return Delta.rational(Fraction(text))

    def label(self) -> str:
        return f"e^{self.value}" if self.kind == "exp" else str(self.value)

    @property
    def ell_fraction(self) -> Fraction | None:
        """log(delta) when it is exactly rational, else None."""
        return self.value if self.kind == "exp" else None

    def iv(self, ivc):
        if self.kind == "exp":
            return ivc.exp(_iv_frac(ivc, self.value))
        return _iv_frac(ivc, self.value)

    def iv_ell(self, ivc):
        if self.kind == "exp":
            return _iv_frac(ivc, self.value)
        return ivc.log(_iv_frac(ivc, self.value))


@dataclass(frozen=True)
class PrecisionCtx:
    """Working precision and the search/scan limits.

    ``bits`` is the starting precision; undecidable comparisons retry with
    doubled precision up to ``max_bits`` before PrecisionExhausted.
    """

    bits: int = 256
    max_bits: int = 1 << 15
    j_cap: int = 10**6
    h_cap_log2: int = 16384

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("working precision below 64 bits is not supported")
        if self.max_bits < self.bits:
            raise ValueError("max_bits must be at least bits")
        if self.h_cap_log2 < 1:
            raise ValueError("h_cap_log2 must be at least 1")


def _check_delta_domain(delta: Delta, ctx: PrecisionCtx) -> None:
    # exp form has 0 < ell < 1 by construction; rational form needs delta < e.
    if delta.kind == "rational":
        below_e = _escalate(
            ctx, lambda bits: _lt(delta.iv(_ivc(bits)), _ivc(bits).e)
        )
        if not below_e:
            raise DomainError(f"delta must lie strictly below e, got {delta.label()}")


def _log_e_minus(ivc, epsilon: Fraction):
    """log(e - epsilon)."""
    return ivc.log(ivc.e - _iv_frac(ivc, epsilon))


def _lam(ivc, delta: Delta, epsilon: Fraction):
    """lam = log(1/omega) = log(e - epsilon) - log(delta)."""
    return _log_e_minus(ivc, epsilon) - delta.iv_ell(ivc)


# ---------------------------------------------------------------------------
# Degree bound


def degree_bound_formula(delta, ctx: PrecisionCtx | None = None) -> int:
    """max(0, ceil((5*log(delta) - 1) / (1 - log(delta)))).

    Exact when log(delta) is rational; otherwise decided by enclosure
    refinement (the expression is never an exact integer then).
    """
    ctx = ctx or PrecisionCtx()
    delta = Delta.coerce(delta)
    _check_delta_domain(delta, ctx)
    ell = delta.ell_fraction
    if ell is not None:
        value = (5 * ell - 1) / (1 - ell)
        return max(0, math.ceil(value))
    def expr(ivc):
        l = delta.iv_ell(ivc)
        return (5 * l - 1) / (1 - l)
    return max(0, _decide_ceil(ctx, expr))


# ---------------------------------------------------------------------------
# J(epsilon): primorial growth threshold


_J_CACHE: dict[tuple[Fraction, int], int] = {}


def compute_J(epsilon, ctx: PrecisionCtx | None = None, cap: int | None = None) -> int:
    """Largest j <= cap with primorial(j-1) < (e - epsilon)^j; 0 if none.

    The scan certifies each comparison (float fast path with a generous
    borderline band re-checked by enclosures), but the claim that no
    violation exists beyond the cap rests on the prime-counting heuristic:
    the top 10% of the scanned range must be violation-free, else CapExceeded.
    """
    ctx = ctx or PrecisionCtx()
    epsilon = Fraction(epsilon)
    cap = cap if cap is not None else ctx.j_cap
    if cap < 10:
        raise ValueError("scan cap too small to be meaningful")
    key = (epsilon, cap)
    if key in _J_CACHE:
        return _J_CACHE[key]

    _check_epsilon_domain(ctx, epsilon)
    # float bounds for log(e - epsilon), padded outward
    lo_t, hi_t = _endpoints(_log_e_minus(_ivc(ctx.bits), epsilon))
    le_lo = math.nextafter(float(_tuple_to_fraction(lo_t)), -math.inf)
    le_hi = math.nextafter(float(_tuple_to_fraction(hi_t)), math.inf)

    primes = primes_up_to(cap).primes
    prime_set = set(primes)

    def certified_violation(j: int) -> bool:
        # exact re-check: theta(j-1) < j * log(e - epsilon)
        def attempt(bits: int):
            c = _ivc(bits)
            theta = c.mpf(0)
            for p in primes:
                if p > j - 1:
                    break
                theta += c.log(c.mpf(p))
            return _lt(theta, j * _log_e_minus(c, epsilon))
        return _escalate(ctx, attempt)

    theta = 0.0
    largest = 0
    # Accumulated float error over <= pi(cap) additions stays far below the
    # 1e-9 relative borderline band used here.
    for j in range(1, cap + 1):
        if j - 1 in prime_set:
            theta += math.log(j - 1)
        slack = 1e-9 * (theta + j + 1)
        if theta - slack > j * le_hi:
            continue  # surely satisfied
        if theta + slack < j * le_lo:
            largest = j  # surely violated
            continue
        if certified_violation(j):
            largest = j
    if largest > (9 * cap) // 10:
        raise CapExceeded(
            f"violations persist at j={largest} near the cap {cap}; "
            "raise the cap to trust this epsilon"
        )
    _J_CACHE[key] = largest
    return largest


def _check_epsilon_domain(ctx: PrecisionCtx, epsilon: Fraction) -> None:
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    # epsilon < e - 1 so that e - epsilon > 1 and the comparison makes sense
    ok = _escalate(
        ctx,
        lambda bits: _lt(_iv_frac(_ivc(bits), epsilon), _ivc(bits).e - 1),
    )
    if not ok:
        raise DomainError(f"epsilon must be below e - 1, got {epsilon}")


# ---------------------------------------------------------------------------
# Parameter selection


@dataclass(frozen=True)
class Parameters:
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
    ell = delta.ell_fraction
    if ell is not None:
        q = ell * ell * rho * rho + (2 * ell - d * (1 - ell)) * rho + 1
        return q < 0
    def attempt(bits: int):
        ivc = _ivc(bits)
        l = delta.iv_ell(ivc)
        r = _iv_frac(ivc, rho)
        q = l * l * r * r + (2 * l - d * (1 - l)) * r + 1
        return _lt(q, ivc.mpf(0))
    try:
        return _escalate(ctx, attempt)
    except PrecisionExhausted:
        # Treated as degenerate: the bump that follows only strengthens margins.
        return False


def _rho_at_most_inv_ell(delta: Delta, rho: Fraction, ctx: PrecisionCtx) -> bool:
    ell = delta.ell_fraction
    if ell is not None:
        return rho * ell <= 1
    return _escalate(
        ctx,
        lambda bits: _le(
            _iv_frac(_ivc(bits), rho) * delta.iv_ell(_ivc(bits)), _ivc(bits).mpf(1)
        ),
    )


def _rho1_holds(delta: Delta, d: int, rho: Fraction, epsilon: Fraction,
                ctx: PrecisionCtx) -> bool:
    """(1 + rho*ell)^2 / log(1/omega) < d*rho at adverse rounding."""
    def attempt(bits: int):
        ivc = _ivc(bits)
        r = _iv_frac(ivc, rho)
        lhs = (1 + r * delta.iv_ell(ivc)) ** 2 / _lam(ivc, delta, epsilon)
        return _lt(lhs, d * r)
    return _escalate(ctx, attempt)


def _dyadic_from_iv_mid(x, bits: int) -> Fraction:
    lo, hi = _endpoints(x)
    mid = libmp.mpf_shift(libmp.mpf_add(lo, hi, bits, "n"), -1)
    return _tuple_to_fraction(mid)


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

    ell_fr = delta.ell_fraction
    if ell_fr is not None:
        formula_d = max(1, math.ceil(4 * ell_fr / (1 - ell_fr)))
    else:
        formula_d = max(
            1, _decide_ceil(ctx, lambda ivc: 4 * delta.iv_ell(ivc) / (1 - delta.iv_ell(ivc)))
        )

    ivc = _ivc(ctx.bits)
    l = delta.iv_ell(ivc)
    d = formula_d
    for _ in range(64):
        disc = d * (1 - l) * (d * (1 - l) - 4 * l)
        # The true discriminant is >= 0; clip rounding noise at zero.
        root = ivc.sqrt(_iv_nonneg(ivc, disc))
        lo_iv = (d * (1 - l) - 2 * l - root) / (2 * l * l)
        rho = _dyadic_from_iv_mid((lo_iv + 1 / l) / 2, ctx.bits)
        if (
            rho > 0
            and _rho_at_most_inv_ell(delta, rho, ctx)
            and _rho2_holds_strictly(delta, d, rho, ctx)
        ):
            break
        d += 1
    else:
        raise PrecisionExhausted("no admissible rho found after 64 bumps")

    # epsilon: halve from (e - delta)/2 until the strict inequality verifies
    def eps_start(bits: int) -> Fraction | None:
        ivc = _ivc(bits)
        lo, _ = _endpoints((ivc.e - delta.iv(ivc)) / 2)
        eps = _tuple_to_fraction(lo)
        return eps if eps > 0 else None

    epsilon = _escalate(ctx, eps_start)
    for _ in range(200):
        if _rho1_holds(delta, d, rho, epsilon, ctx):
            break
        epsilon /= 2
    else:
        raise PrecisionExhausted("epsilon halving did not reach a strict margin")

    omega_iv = delta.iv(ivc) / (ivc.e - _iv_frac(ivc, epsilon))
    floor_j0 = _decide_floor(ctx, lambda ivc: 2 * d / _lam(ivc, delta, epsilon))

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
        floor_j0=floor_j0,
    )


def _iv_from_tuples(ivc, lo_t, hi_t):
    return ivc.mpf([mpmath.mp.make_mpf(lo_t), mpmath.mp.make_mpf(hi_t)])


def _iv_nonneg(ivc, x):
    """Clip an enclosure at zero; valid for quantities known to be >= 0."""
    lo, hi = _endpoints(x)
    if libmp.mpf_ge(lo, libmp.fzero):
        return x
    if libmp.mpf_lt(hi, libmp.fzero):
        raise PrecisionExhausted("nonnegative quantity enclosed strictly below zero")
    return _iv_from_tuples(ivc, libmp.fzero, hi)


# ---------------------------------------------------------------------------
# Majorized product bound


# Once the lower end of log x exceeds this, log(1+x) is log x + log(1 + 1/x).
_LOG1P_SWITCH = libmp.from_int(40)


class _Majorant:
    """The closed-form majorant of Phi(D, x) in log form, at one precision.

    log_phi(log x) = log_k + (J+F) log(1+x) + F (log 2 + D log j0)
    + (log y)^2 / lam, with lam = log(1/omega), j0 = 2D/lam, F = floor(j0),
    y = x j0^D and log_k = log c0 + J log 2 + D log J! + J^2 log(delta),
    c0 = exp(4 zeta(2) / lam).
    """

    def __init__(self, ivc, delta: Delta, epsilon: Fraction, D: int, J: int, F: int):
        self.ivc, self.J, self.F = ivc, J, F
        self.ell = delta.iv_ell(ivc)
        self.lam = _lam(ivc, delta, epsilon)
        self.log2 = ivc.log(ivc.mpf(2))
        self.d_log_j0 = D * ivc.log(2 * D / self.lam)
        log_jfact = ivc.log(_iv_int(ivc, math.factorial(J))) if J > 0 else ivc.mpf(0)
        log_c0 = 4 * (ivc.pi**2 / 6) / self.lam
        self.log_k = log_c0 + J * self.log2 + D * log_jfact + (J * J) * self.ell

    def log_phi(self, logx):
        ivc = self.ivc
        logy = logx + self.d_log_j0
        # log(1+x) two ways, both enclosing; pick by the endpoint scale
        if libmp.mpf_gt(_endpoints(logx)[0], _LOG1P_SWITCH):
            log1px = logx + ivc.log(1 + ivc.exp(-logx))
        else:
            log1px = ivc.log(1 + ivc.exp(logx))
        return (
            self.log_k
            + (self.J + self.F) * log1px
            + self.F * (self.log2 + self.d_log_j0)
            + logy**2 / self.lam
        )


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
    below = _escalate(
        ctx,
        lambda bits: _lt(
            _iv_frac(_ivc(bits), epsilon), _ivc(bits).e - delta.iv(_ivc(bits))
        ),
    )
    if not below:
        raise DomainError("epsilon must satisfy delta < e - epsilon")

    J = compute_J(epsilon, ctx)
    floor_j0 = _decide_floor(ctx, lambda ivc: 2 * D / _lam(ivc, delta, epsilon))

    # The dilogarithm step in the tail estimate requires y = x*j0^D >= 1.
    y_ok = _escalate(
        ctx,
        lambda bits: _le(
            _ivc(bits).mpf(1),
            _iv_frac(_ivc(bits), x) * (2 * D / _lam(_ivc(bits), delta, epsilon)) ** D,
        ),
    )
    if not y_ok:
        raise DomainError(
            "bound requires x * j0^D >= 1 (the tail estimate is only valid there)"
        )

    ivc = _ivc(ctx.bits)
    majorant = _Majorant(ivc, delta, epsilon, D, J, floor_j0)
    return Enclosure.from_iv(ivc.exp(majorant.log_phi(ivc.log(_iv_frac(ivc, x)))))


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
        self.J = compute_J(params.epsilon, ctx)
        self._packs: dict[int, _Majorant] = {}
        self._pred_cache: dict[int, bool] = {}
        self._thresholds: dict[int, int] = {}  # k -> T_k = ceil(exp(k/rho))

    def _pack(self, bits: int) -> _Majorant:
        """The majorant of Phi(d, x) at ``bits``, plus log(2cd) and rho."""
        pk = self._packs.get(bits)
        if pk is None:
            p = self.params
            ivc = _ivc(bits)
            pk = _Majorant(ivc, p.delta, p.epsilon, p.d, self.J, p.floor_j0)
            pk.log_2cd = ivc.log(_iv_frac(ivc, 2 * p.c * p.d))
            pk.rho = _iv_frac(ivc, p.rho)
            self._packs[bits] = pk
        return pk

    def threshold(self, k: int) -> int:
        """T_k = ceil(exp(k/rho)), the least integer h with r(h) > k.

        For k >= 1, exp(k/rho) is irrational (Lindemann), so an integer h
        satisfies rho*log(h) > k exactly when h >= T_k.
        """
        t = self._thresholds.get(k)
        if t is None:
            q = Fraction(k) / self.params.rho
            t = _decide_ceil(self.ctx, lambda ivc: ivc.exp(_iv_frac(ivc, q)))
            self._thresholds[k] = t
        return t

    def _log_h(self, bits: int, h: int):
        ivc = _ivc(bits)
        return ivc.log(_iv_int(ivc, h)) if h > 1 else ivc.mpf(0)

    def r_of(self, h: int, logh=None) -> int:
        """r(h) = floor(rho*log(h)) + 1; ``logh`` is log h at ctx.bits if known."""
        if h == 1:
            return 1
        bits = self.ctx.bits
        if logh is None:
            logh = self._log_h(bits, h)
        flo, fhi = _floors(self._pack(bits).rho * logh)
        if flo == fhi:
            return flo + 1
        if fhi == flo + 1:
            # The enclosure straddles k = fhi: one exact integer comparison
            # against the cached threshold settles every h near this jump.
            return (fhi if h >= self.threshold(fhi) else flo) + 1
        return _decide_floor(
            self.ctx, lambda ivc: self._pack(ivc.prec).rho * self._log_h(ivc.prec, h)
        ) + 1

    def log_lhs(self, bits: int, r: int, logh):
        """log LHS(h) at ``bits``, given ``logh`` = log h at the same precision."""
        pk = self._pack(bits)
        ivc = pk.ivc
        logr = ivc.log(_iv_int(ivc, r)) if r > 1 else ivc.mpf(0)
        return pk.log_phi(pk.log_2cd + logr + logh + (r - 1) * pk.ell)

    def predicate(self, h: int) -> bool:
        hit = self._pred_cache.get(h)
        if hit is not None:
            return hit
        # log h at the working precision serves r_of and the first attempt;
        # only escalated attempts recompute it.
        logh0 = self._log_h(self.ctx.bits, h)
        r = self.r_of(h, logh0)
        rd = r * self.params.d
        def attempt(bits: int):
            logh = logh0 if bits == self.ctx.bits else self._log_h(bits, h)
            return _le(self.log_lhs(bits, r, logh), rd * logh)
        verdict = _escalate(self.ctx, attempt)
        self._pred_cache[h] = verdict
        return verdict

    def log_first_value(self) -> "Enclosure":
        """Enclosure of log(LHS at h=1), the seed of the lower bound."""
        ivc = _ivc(self.ctx.bits)
        val = self.log_lhs(self.ctx.bits, 1, ivc.mpf(0))
        return Enclosure.from_iv(_iv_nonneg(ivc, val))


@dataclass(frozen=True)
class HeightSearch:
    h: int
    predicate_false_at: int | None  # h-1 when h >= 2; None when h == 1
    scan_note: str


def _search_height(engine: _HeightEngine) -> HeightSearch:
    ctx = engine.ctx
    if engine.predicate(1):
        return HeightSearch(1, None, "predicate already holds at h=1")
    h = 2
    k = 1
    while not engine.predicate(h):
        if k >= ctx.h_cap_log2:
            raise SearchExceeded(
                f"no power of two h = 2^k with k <= {ctx.h_cap_log2} satisfies "
                f"the inequality (doubling stopped at h = 2^{ctx.h_cap_log2}); "
                "the minimal height can be astronomically large for some growth "
                "bases (raise PrecisionCtx.h_cap_log2 and max_bits to continue)"
            )
        h <<= 1
        k += 1
    lo, hi = h >> 1, h  # predicate false at lo, true at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if engine.predicate(mid):
            hi = mid
        else:
            lo = mid
    candidate = hi
    # The predicate can be non-monotone where r jumps, so scan downward from
    # the candidate until a definite failure: minimality is then certified on
    # the contiguous window ending at that failure.
    scanned = candidate
    while scanned > 1 and engine.predicate(scanned - 1):
        scanned -= 1
    note = (
        f"binary-search candidate {candidate}; downward scan verified failure "
        f"at {scanned - 1}" if scanned > 1 else
        f"binary-search candidate {candidate}; downward scan reached h=1"
    )
    return HeightSearch(scanned, scanned - 1 if scanned > 1 else None, note)


def compute_H(c, delta, params: Parameters | None = None,
              ctx: PrecisionCtx | None = None) -> int:
    """Minimal integer height h >= 1 at which the majorized inequality holds."""
    ctx = ctx or PrecisionCtx()
    if params is None:
        params = choose_parameters(c, delta, ctx)
    engine = _HeightEngine(params, ctx)
    return _search_height(engine).h


def _iv_from_enclosure(ivc, enc: Enclosure):
    lo = _iv_frac(ivc, enc.lo)
    hi = _iv_frac(ivc, enc.hi)
    return _iv_from_tuples(ivc, _endpoints(lo)[0], _endpoints(hi)[1])


def _height_lower_bound(engine: _HeightEngine) -> Enclosure:
    """exp((sqrt(d^2 + 4 d rho log A) - d) / (d rho)) with A = LHS at h=1."""
    pk = engine._pack(engine.ctx.bits)
    ivc, rho, d = pk.ivc, pk.rho, engine.params.d
    la = _iv_from_enclosure(ivc, engine.log_first_value())
    val = ivc.exp((ivc.sqrt(d * d + 4 * d * rho * la) - d) / (d * rho))
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
    """
    pk = engine._pack(engine.ctx.bits)
    ivc, rho, lam, J, F = pk.ivc, pk.rho, pk.lam, pk.J, pk.F
    glo, _ = _endpoints(gamma)
    if not libmp.mpf_gt(glo, libmp.fzero):
        return None  # strict margin not visible at this precision
    one_plus = 1 + rho * pk.ell
    t = ivc.log(rho * (engine.ctx.h_cap_log2 * pk.log2) + 1)
    c2 = pk.log_2cd + t + pk.d_log_j0
    c3 = pk.log_2cd + pk.d_log_j0
    alpha = (J + F) * one_plus + 2 * one_plus * c2 / lam
    log1px_const = pk.log2 + _iv_nonneg(ivc, pk.log_2cd + t)
    beta = (
        pk.log_k
        + F * (pk.log2 + pk.d_log_j0)
        + (J + F) * log1px_const
        + (c3**2 + c2**2) / lam
    )
    # conservative endpoint picks
    a_hi = _iv_from_tuples(ivc, _endpoints(alpha)[1], _endpoints(alpha)[1])
    b_hi = _iv_from_tuples(ivc, _endpoints(beta)[1], _endpoints(beta)[1])
    b_hi = _iv_nonneg(ivc, b_hi)
    g_lo = _iv_from_tuples(ivc, glo, glo)
    root = (a_hi + ivc.sqrt(a_hi**2 + 4 * b_hi * g_lo)) / (2 * g_lo)
    bound = 1 + ivc.exp(root)
    return Enclosure.from_iv(alpha), Enclosure.from_iv(beta), Enclosure.from_iv(bound)


# ---------------------------------------------------------------------------
# Full report


@dataclass(frozen=True)
class EffectiveBounds:
    """Everything the pipeline established for one (c, delta) input."""

    c: Fraction
    delta: Delta
    ell: Enclosure
    epsilon: Fraction
    omega: Enclosure
    log_inv_omega: Enclosure
    J: int
    j_cap: int
    pnt_heuristic: bool
    formula_d: int
    d: int
    degeneracy_note: str | None
    discriminant: Enclosure
    rho: Fraction
    rho_interval: tuple[Enclosure, Enclosure]
    gamma: Enclosure
    H: int
    predicate_false_at: int | None
    h_scan_note: str
    H_lower: Enclosure
    deg_bound_formula: int
    deg_bound_construction: int
    order_bound: int
    diag_alpha: Enclosure | None
    diag_beta: Enclosure | None
    diag_H_upper: Enclosure | None
    precision_bits: int

    def to_json_dict(self) -> dict:
        def enc(e: Enclosure | None):
            return e.to_json_dict() if e is not None else "unavailable"

        def exact(q: Fraction):
            d = Enclosure.point(q).to_json_dict()
            d["exact"] = str(q)
            return d

        return {
            "input": {
                "c": str(self.c),
                "delta": self.delta.label(),
                "precision_bits": str(self.precision_bits),
            },
            "ell": enc(self.ell),
            "epsilon": exact(self.epsilon),
            "omega": enc(self.omega),
            "log_inv_omega": enc(self.log_inv_omega),
            "J": str(self.J),
            "j_scan": {
                "cap": str(self.j_cap),
                "pnt_heuristic": self.pnt_heuristic,
            },
            "d": str(self.d),
            "d_from_formula": str(self.formula_d),
            "degeneracy_note": self.degeneracy_note or "",
            "discriminant": enc(self.discriminant),
            "rho": exact(self.rho),
            "rho_interval": [enc(self.rho_interval[0]), enc(self.rho_interval[1])],
            "gamma": enc(self.gamma),
            "H": str(self.H),
            "H_predicate_false_at": "" if self.predicate_false_at is None
                                    else str(self.predicate_false_at),
            "H_scan": self.h_scan_note,
            "H_lower": enc(self.H_lower),
            "degree_bound_formula": str(self.deg_bound_formula),
            "degree_bound_construction": str(self.deg_bound_construction),
            "order_bound": str(self.order_bound),
            "diagnostic_alpha": enc(self.diag_alpha),
            "diagnostic_beta": enc(self.diag_beta),
            "diagnostic_H_upper": enc(self.diag_H_upper),
        }


def bounds_report(c, delta, ctx: PrecisionCtx | None = None) -> EffectiveBounds:
    """Run the whole pipeline and re-assert every claimed inequality."""
    ctx = ctx or PrecisionCtx()
    delta = Delta.coerce(delta)
    c = Fraction(c)
    params = choose_parameters(c, delta, ctx)
    engine = _HeightEngine(params, ctx)
    search = _search_height(engine)
    h = search.h

    # invariants, re-checked at adverse rounding
    if not _rho2_holds_strictly(delta, params.d, params.rho, ctx):
        raise PrecisionExhausted("internal: rho lost its strict margin")
    if not _rho1_holds(delta, params.d, params.rho, params.epsilon, ctx):
        raise PrecisionExhausted("internal: epsilon lost its strict margin")
    if h >= 2 and engine.predicate(h - 1):
        raise AssertionError("internal: height is not minimal on the scan window")

    h_lower = _height_lower_bound(engine)
    if Fraction(h) < h_lower.lo:
        raise AssertionError("internal: height fell below its certified lower bound")

    if h == 1:
        order_bound = 0
    else:
        order_bound = _decide_floor(
            ctx,
            lambda ivc: ivc.log(_iv_int(ivc, h)) / delta.iv_ell(ivc),
        )

    deg_formula = degree_bound_formula(delta, ctx)
    note = None
    if params.d_bumped:
        note = (
            f"d bumped from formula value {params.formula_d} to {params.d}: the "
            "admissible rho interval was degenerate, no strict margin existed"
        )
    pk = engine._pack(ctx.bits)
    gamma = params.d * pk.rho - (1 + pk.rho * pk.ell) ** 2 / pk.lam
    diag = _height_upper_diagnostic(engine, gamma)
    if diag is not None:
        d_alpha, d_beta, d_upper = diag
        if Fraction(h) > d_upper.hi:
            raise AssertionError("internal: height exceeds its diagnostic upper bound")
    else:
        d_alpha = d_beta = d_upper = None

    return EffectiveBounds(
        c=c,
        delta=delta,
        ell=params.ell,
        epsilon=params.epsilon,
        omega=params.omega,
        log_inv_omega=params.log_inv_omega,
        J=engine.J,
        j_cap=ctx.j_cap,
        pnt_heuristic=True,
        formula_d=params.formula_d,
        d=params.d,
        degeneracy_note=note,
        discriminant=params.discriminant,
        rho=params.rho,
        rho_interval=params.rho_interval,
        gamma=Enclosure.from_iv(gamma),
        H=h,
        predicate_false_at=search.predicate_false_at,
        h_scan_note=search.scan_note,
        H_lower=h_lower,
        deg_bound_formula=deg_formula,
        deg_bound_construction=params.d - 1,
        order_bound=order_bound,
        diag_alpha=d_alpha,
        diag_beta=d_beta,
        diag_H_upper=d_upper,
        precision_bits=ctx.bits,
    )
