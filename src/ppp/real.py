"""Dyadic interval arithmetic, rounded outward, for the effective bounds.

An ``Interval`` at precision ``p`` holds two endpoints m * 2^e whose integer
mantissas m have at most ``p`` significant bits, the model of
``mpmath.iv``.  Every operation returns an interval that contains the exact
result for every pair of enclosed points:

* ``+ - * /``, ``abs``, integer powers, ``sqrt`` and the conversion of ints
  and Fractions compute each endpoint exactly (or with a sticky bit) and
  round it once, down for the lower and up for the upper end: each endpoint
  is the correctly rounded one.  (A power longer than 16 p bits is rounded
  at every step of binary powering instead, outward.)
* ``log``, ``exp``, ``e`` and ``pi`` sum a series in fixed point at about
  ``p + _GUARD`` bits, with every truncation bounded as stated in the
  docstring of the kernel that sums it, and round the enclosure outward.
  The guard bits make the rounded endpoint the correctly rounded one but
  for inputs within 2^-_GUARD ulp of a rounding boundary; they carry no
  part of the proof.

Comparisons are tri-state: ``x < y`` is True when it holds for every pair
of enclosed points, False when it fails for every pair, None otherwise.

Nothing here reads or writes global state but the caches of contexts and
constants, whose entries do not depend on the thread that fills them.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Bits beyond the target precision at which the series are summed.
_GUARD = 32
# Fixed-point bits below the series' target accuracy: a series stops once
# its terms fall below 2^_SLACK ulps, and the rounding errors of its sum
# (a few ulps per term) stay far below the remainder it states.
_SLACK = 16


# ---------------------------------------------------------------------------
# Dyadic endpoints: (m, e) stands for m * 2^e


def _down(m: int, e: int, p: int) -> tuple[int, int]:
    """m 2^e rounded toward -inf to ``p`` significant bits."""
    n = m.bit_length() - p
    if n > 0:
        return m >> n, e + n
    return m, e


def _up(m: int, e: int, p: int) -> tuple[int, int]:
    """m 2^e rounded toward +inf to ``p`` significant bits."""
    n = m.bit_length() - p
    if n > 0:
        return -(-m >> n), e + n
    return m, e


def _nearest(m: int, e: int, p: int) -> tuple[int, int]:
    """m 2^e rounded to nearest, ties to even, at ``p`` significant bits."""
    n = m.bit_length() - p
    if n <= 0:
        return m, e
    a = abs(m)
    t = a >> (n - 1)
    if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)):
        a = (t >> 1) + 1
    else:
        a = t >> 1
    return (a if m > 0 else -a), e + n


def _sum(m1: int, e1: int, m2: int, e2: int, p: int) -> tuple[int, int]:
    """m1 2^e1 + m2 2^e2, exact or with the smaller term replaced by a
    same-signed sticky term, so that rounding it to ``p`` bits in any
    direction gives the rounding of the exact sum.

    With x the term of larger magnitude (|x| < 2^t), let T = min(e_x,
    t - p - 4).  If |y| < 2^T, then x + y and x +- 2^(T-1) lie strictly
    inside the same gap between multiples of 2^T next to x, and the p-bit
    grid near x + y is coarser than 2^(T+2); so no grid point or midpoint
    lies between them.
    """
    if not m1:
        return m2, e2
    if not m2:
        return m1, e1
    t1, t2 = e1 + m1.bit_length(), e2 + m2.bit_length()
    if t1 < t2:
        m1, e1, t1, m2, e2, t2 = m2, e2, t2, m1, e1, t1
    floor = min(e1, t1 - p - 4)
    if t2 <= floor:
        m2, e2 = (1 if m2 > 0 else -1), floor - 1
    if e1 > e2:
        return (m1 << (e1 - e2)) + m2, e2
    return m1 + (m2 << (e2 - e1)), e1


def _quot(m1: int, e1: int, m2: int, e2: int, p: int) -> tuple[int, int]:
    """m1 2^e1 / (m2 2^e2) with at least p + 1 bits and a sticky last bit:
    an inexact quotient q + f, 0 < f < 1, becomes q + 1/2, which rounds
    like it at ``p`` bits in every direction."""
    s = max(0, p + 2 + m2.bit_length() - m1.bit_length())
    q, r = divmod(m1 << s, m2)
    if r:
        return (q << 1) | 1, e1 - e2 - s - 1
    return q, e1 - e2 - s


def _root(m: int, e: int, p: int) -> tuple[int, int]:
    """sqrt(m 2^e) for m >= 0, with at least p + 1 bits and a sticky bit."""
    if not m:
        return 0, 0
    s = max(0, 2 * p + 4 - m.bit_length())
    s += (e - s) & 1
    big = m << s
    r = math.isqrt(big)
    if r * r != big:
        return (r << 1) | 1, (e - s) // 2 - 1
    return r, (e - s) // 2


def _cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    """The sign of m1 2^e1 - m2 2^e2."""
    s1, s2 = (m1 > 0) - (m1 < 0), (m2 > 0) - (m2 < 0)
    if s1 != s2:
        return 1 if s1 > s2 else -1
    if not s1:
        return 0
    t1, t2 = e1 + m1.bit_length(), e2 + m2.bit_length()
    if t1 != t2:
        return s1 if t1 > t2 else -s1
    if e1 > e2:
        m1 <<= e1 - e2
    else:
        m2 <<= e2 - e1
    return (m1 > m2) - (m1 < m2)


def _cmp_q(m: int, e: int, q) -> int:
    """The sign of m 2^e - q for an int or Fraction q."""
    if isinstance(q, int):
        if e >= 0:
            a = m << e
            return (a > q) - (a < q)
        b = q << -e
        return (m > b) - (m < b)
    num, den = q.numerator, q.denominator
    if e >= 0:
        a, b = (m << e) * den, num
    else:
        a, b = m * den, num << -e
    return (a > b) - (a < b)


def _diff(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """m1 2^e1 - m2 2^e2, exactly."""
    e = min(e1, e2)
    return (m1 << (e1 - e)) - (m2 << (e2 - e)), e


def _fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _floor_int(m: int, e: int) -> int:
    return m << e if e >= 0 else m >> -e


def _fixed(m: int, e: int, f: int) -> int:
    """floor(m 2^e 2^f)."""
    return m << (e + f) if e + f >= 0 else m >> -(e + f)


# ---------------------------------------------------------------------------
# Intervals


class Interval:
    """[lm 2^le, hm 2^he] at precision ``p``; see the module docstring.

    Operations take the precision of the interval on their left, or of the
    interval operand when the other one is an int or a Fraction.
    """

    __slots__ = ("p", "lm", "le", "hm", "he")

    def __init__(self, p: int, lm: int, le: int, hm: int, he: int):
        self.p, self.lm, self.le, self.hm, self.he = p, lm, le, hm, he

    # -- reading ------------------------------------------------------------

    def endpoints(self) -> tuple[Fraction, Fraction]:
        """The two endpoints, exactly."""
        return _fraction(self.lm, self.le), _fraction(self.hm, self.he)

    def floors(self) -> tuple[int, int]:
        """The floors of the two endpoints."""
        return _floor_int(self.lm, self.le), _floor_int(self.hm, self.he)

    def mid(self) -> Fraction:
        """(lo + hi) / 2 with the sum rounded to nearest at ``p`` bits."""
        m, e = _nearest(*_sum(self.lm, self.le, self.hm, self.he, self.p), self.p)
        return _fraction(m, e - 1)

    def lower(self) -> "Interval":
        """The point interval at the lower endpoint."""
        return Interval(self.p, self.lm, self.le, self.lm, self.le)

    def upper(self) -> "Interval":
        """The point interval at the upper endpoint."""
        return Interval(self.p, self.hm, self.he, self.hm, self.he)

    def __repr__(self) -> str:
        lo, hi = self.endpoints()
        return f"Interval({self.p}, [{float(lo)!r}, {float(hi)!r}])"

    # -- arithmetic ---------------------------------------------------------

    def _other(self, y) -> "Interval":
        if isinstance(y, Interval):
            return y
        if isinstance(y, (int, Fraction)):
            return _convert(self.p, y)
        return NotImplemented

    def __add__(self, y):
        y = self._other(y)
        if y is NotImplemented:
            return y
        p = self.p
        return Interval(p, *_down(*_sum(self.lm, self.le, y.lm, y.le, p), p),
                        *_up(*_sum(self.hm, self.he, y.hm, y.he, p), p))

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        return Interval(p, *_down(-self.hm, self.he, p), *_up(-self.lm, self.le, p))

    def __sub__(self, y):
        y = self._other(y)
        if y is NotImplemented:
            return y
        p = self.p
        return Interval(p, *_down(*_sum(self.lm, self.le, -y.hm, y.he, p), p),
                        *_up(*_sum(self.hm, self.he, -y.lm, y.le, p), p))

    def __rsub__(self, y):
        y = self._other(y)
        if y is NotImplemented:
            return y
        return y - self

    def __mul__(self, y):
        y = self._other(y)
        if y is NotImplemented:
            return y
        p = self.p
        a, b, c, d = self.lm, self.hm, y.lm, y.hm
        if a >= 0 and c >= 0:
            return Interval(p, *_down(a * c, self.le + y.le, p), *_up(b * d, self.he + y.he, p))
        # every extreme is one of the four endpoint products, all exact
        prods = [(a * c, self.le + y.le), (a * d, self.le + y.he),
                 (b * c, self.he + y.le), (b * d, self.he + y.he)]
        lo = hi = prods[0]
        for q in prods[1:]:
            if _cmp(*q, *lo) < 0:
                lo = q
            if _cmp(*q, *hi) > 0:
                hi = q
        return Interval(p, *_down(*lo, p), *_up(*hi, p))

    __rmul__ = __mul__

    def __truediv__(self, y):
        y = self._other(y)
        if y is NotImplemented:
            return y
        return _divide(self.p, self, y)

    def __rtruediv__(self, y):
        y = self._other(y)
        if y is NotImplemented:
            return y
        return _divide(self.p, y, self)

    def __abs__(self):
        p = self.p
        if self.lm >= 0:
            return Interval(p, *_down(self.lm, self.le, p), *_up(self.hm, self.he, p))
        if self.hm <= 0:
            return -self
        top = self.hm, self.he
        if _cmp(-self.lm, self.le, *top) > 0:
            top = -self.lm, self.le
        return Interval(p, 0, 0, *_up(*top, p))

    def __pow__(self, n):
        """x^n for an int n >= 0; even powers of an interval around 0
        start at 0."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        p = self.p
        if n == 0:
            return Interval(p, 1, 0, 1, 0)
        if n == 1:
            return self
        lm, le, hm, he = self.lm, self.le, self.hm, self.he
        if n & 1 or lm >= 0:
            lo, hi = (lm, le), (hm, he)
        elif hm <= 0:
            lo, hi = (hm, he), (lm, le)
        else:
            top = (hm, he) if _cmp(hm, he, -lm, le) >= 0 else (-lm, le)
            return Interval(p, 0, 0, *_power(*top, n, p, True))
        return Interval(p, *_power(*lo, n, p, False), *_power(*hi, n, p, True))

    # -- tri-state comparisons ----------------------------------------------

    def _order(self, y, strict: bool):
        """self < y (strict) or self <= y: True, False or None."""
        if isinstance(y, Interval):
            top, bottom = _cmp(self.hm, self.he, y.lm, y.le), _cmp(self.lm, self.le, y.hm, y.he)
        elif isinstance(y, (int, Fraction)):
            top, bottom = _cmp_q(self.hm, self.he, y), _cmp_q(self.lm, self.le, y)
        else:
            return NotImplemented
        if top < 0 or (top == 0 and not strict):
            return True
        if bottom > 0 or (bottom == 0 and strict):
            return False
        return None

    def _reverse(self, y, strict: bool):
        """y < self (strict) or y <= self."""
        if isinstance(y, Interval):
            return y._order(self, strict)
        if not isinstance(y, (int, Fraction)):
            return NotImplemented
        top, bottom = _cmp_q(self.lm, self.le, y), _cmp_q(self.hm, self.he, y)
        if top > 0 or (top == 0 and not strict):
            return True
        if bottom < 0 or (bottom == 0 and strict):
            return False
        return None

    def __lt__(self, y):
        return self._order(y, True)

    def __le__(self, y):
        return self._order(y, False)

    def __gt__(self, y):
        return self._reverse(y, True)

    def __ge__(self, y):
        return self._reverse(y, False)


def hull(lo: Interval, hi: Interval) -> Interval:
    """The interval from the lower end of ``lo`` to the upper end of ``hi``."""
    return Interval(lo.p, lo.lm, lo.le, hi.hm, hi.he)


def _convert(p: int, q) -> Interval:
    if isinstance(q, int) or q.denominator == 1:
        n = int(q)
        return Interval(p, *_down(n, 0, p), *_up(n, 0, p))
    num, den = q.numerator, q.denominator
    m, e = _quot(num, 0, den, 0, p)
    return Interval(p, *_down(m, e, p), *_up(m, e, p))


def _divide(p: int, x: Interval, y: Interval) -> Interval:
    a, b = (x.lm, x.le), (x.hm, x.he)
    c, d = (y.lm, y.le), (y.hm, y.he)
    if c[0] <= 0 <= d[0]:
        raise ZeroDivisionError("interval division by an interval that contains 0")
    if d[0] < 0:  # make the divisor positive
        a, b, c, d = (-b[0], b[1]), (-a[0], a[1]), (-d[0], d[1]), (-c[0], c[1])
    if a[0] >= 0:
        lo, hi = (a, d), (b, c)
    elif b[0] <= 0:
        lo, hi = (a, c), (b, d)
    else:
        lo, hi = (a, c), (b, c)
    return Interval(p, *_down(*_quot(*lo[0], *lo[1], p), p), *_up(*_quot(*hi[0], *hi[1], p), p))


def _power(m: int, e: int, n: int, p: int, up: bool) -> tuple[int, int]:
    """(m 2^e)^n rounded toward +inf (``up``) or -inf, n >= 2.

    Exact and rounded once while the power stays short; past that, binary
    powering rounds every step in the same direction, which for a positive
    base keeps the bound on its side.
    """
    rnd = _up if up else _down
    if m.bit_length() * n <= 16 * p + 64 or m < 0:
        return rnd(m ** n, e * n, p)
    rm, re, bm, be = 1, 0, m, e
    while True:
        if n & 1:
            rm, re = rnd(rm * bm, re + be, p)
        n >>= 1
        if not n:
            return rm, re
        bm, be = rnd(bm * bm, 2 * be, p)


# ---------------------------------------------------------------------------
# Series kernels, in fixed point: an integer X at scale f stands for X 2^-f


def _exp_series(r: int, f: int) -> tuple[int, int]:
    """(s, err) with s <= exp(r 2^-f) 2^f <= s + err, for 0 <= r <= 2^(f-1).

    Terms t_k = r^k / k! are summed while they exceed 2^_SLACK ulps.  Each
    computed term T_k = floor(floor(T_(k-1) r' 2^-f) / k) uses r truncated
    to the bits T_(k-1) can see (r - r' < 2^-8 ulp / T_(k-1)), so it falls
    short of t_k 2^f by e_k <= e_(k-1) r/k + 1/k + 1 + 2^-8 < 4 ulps
    (r <= 1/2), and the k terms summed fall short by less than 4k.  The
    remainder after t_(k-1) is at most t_(k-1) r / (k - r) <=
    (T_(k-1) + 4) / (2k - 1).
    """
    term = s = 1 << f
    stop = 1 << _SLACK
    k = 1
    while term >= stop:
        c = f - term.bit_length() - 8
        term = (term * (r >> c) >> (f - c) if c > 0 else term * r >> f) // k
        s += term
        k += 1
    return s, 4 * k + (term + 4) // (2 * k - 1) + 1


def _atanh_series(z: int, f: int) -> tuple[int, int]:
    """(s, err) with s <= atanh(z 2^-f) 2^f <= s + err, for 0 <= z <= 2^f / 3.

    With w = floor(z^2 2^-f) and P_j = floor(P_(j-1) w' 2^-f), P_0 = z, w'
    w truncated to the bits P_(j-1) can see (as in ``_exp_series``), each
    P_j falls short of z^(2j+1) 2^f by less than 2 ulps (z <= 1/3), and each
    term floor(P_j / (2j+1)) by less than 2 more; the j terms summed fall
    short by less than 3j.  The remainder after the term of P_(j-1) is at
    most z^(2j+1) / ((2j+1)(1 - z^2)) <= (P_(j-1) + 2) / (8 (2j+1)).
    """
    w = z * z >> f
    power = s = z
    stop = 1 << _SLACK
    j = 1
    while power >= stop:
        c = f - power.bit_length() - 8
        power = power * (w >> c) >> (f - c) if c > 0 else power * w >> f
        s += power // (2 * j + 1)
        j += 1
    return s, 3 * j + (power + 2) // (8 * (2 * j + 1)) + 1


def _exp_fixed(m: int, e: int, wp: int) -> tuple[int, int, int]:
    """(lo, hi, sh) with lo 2^sh <= exp(m 2^e) <= hi 2^sh, of relative
    width below about 2^-wp.

    x = n log 2 + r with 0 <= r < log 2 + 2^-f, exp(r) = exp(r / 2^s)^(2^s):
    the series gives a lower bound L at the floor of r / 2^s, the mean value
    theorem (exp(r + t) <= exp(r) (1 + 2t) for 0 <= t <= 1) an upper bound
    H at its ceiling.  s floored squarings of L >= 2^f leave it short of
    L^(2^s) by a factor 1 - d, d <= 2^s 2^-f, while H^(2^s) exceeds
    L^(2^s) by (1 + delta)^(2^s) <= 1 + 2^(s+1) delta, delta = (H - L)/L
    (2^s delta <= 1): the upper bound adds 2^(s+3) (H - L + 2) 2^-f of the
    squared L.
    """
    if m.bit_length() + e > 40:
        raise OverflowError("exp argument beyond 2^40")
    s = (math.isqrt(wp) >> 1) + 1
    f = wp + s + _SLACK + 2
    x = _fixed(m, e, f)  # x 2^f in [x, x + 1]
    g = max(0, m.bit_length() + e + 3)  # |n| < 2^g
    ln2 = _constant("ln2", f + g)  # log 2 * 2^(f+g) in [ln2, ln2 + 2]
    n = (x << g) // ln2
    while True:
        a = n * ln2  # n log 2 * 2^(f+g) lies between a and a + 2n
        lo_w = (x << g) - max(a, a + 2 * n)
        if lo_w >= 0:
            break
        n -= 1
    hi_w = ((x + 1) << g) - min(a, a + 2 * n)
    r_lo, r_hi = (lo_w >> g) >> s, -(-hi_w >> g) // (1 << s) + 1
    lo, err = _exp_series(r_lo, f)
    spread = err + ((lo + err) * 2 * (r_hi - r_lo) >> f) + 1  # H - L
    for _ in range(s):
        lo = lo * lo >> f
    return lo, lo + (lo * (spread + 2) >> (f - s - 3)) + 1, n - f


def _log_fixed(m: int, e: int, wp: int) -> tuple[int, int, int]:
    """(lo, hi, sh) with lo 2^sh <= log(m 2^e) <= hi 2^sh for m > 0, with an
    error below about 2^-wp |log(m 2^e)|.

    x = y 2^k with 3/4 <= y < 3/2, log x = k log 2 + 2^(q+1) atanh(z),
    z = (v - 1)/(v + 1) for v = y^(1/2^q) after q floored square roots.
    Each root halves the error it inherits and adds one ulp, so v falls
    short by less than 3 ulps; z is bracketed between its values at v and
    v + 3, and atanh over that bracket by the series at its lower end plus
    the bracket's width times max atanh' <= 9/8.
    """
    t = m.bit_length() - 1
    if t and m >= 3 << (t - 1):
        t += 1
    k = e + t
    d = m - (1 << t)  # y - 1 = d 2^-t
    if not d:
        if not k:
            return 0, 0, 0
        lz = 0
        q = 0
    else:
        lz = t - abs(d).bit_length()  # |y - 1| >= 2^-(lz+1)
        q = max(0, (math.isqrt(wp) >> 1) - lz)
    f = wp + q + _SLACK + (lz + 2 if k == 0 else 3)
    one = 1 << f
    lo = hi = 0
    if d:
        v = _fixed(m, -t, f)
        for _ in range(q):
            v = math.isqrt(v << f)
        z_lo = ((v - one) << f) // (v + one)
        z_hi = -(-((v + 3 - one) << f) // (v + 3 + one))
        s0, err = _atanh_series(abs(z_lo), f)
        spread = (z_hi - z_lo) * 9 // 8 + 1
        lo, hi = (s0, s0 + err + spread) if z_lo >= 0 else (-s0 - err, -s0 + spread)
        lo, hi = lo << (q + 1), hi << (q + 1)
    if k:
        g = abs(k).bit_length() + 1
        a = k * _constant("ln2", f + g)  # k log 2 * 2^(f+g) between a and a + 2k
        lo += min(a, a + 2 * k) >> g
        hi += -(-max(a, a + 2 * k) >> g)
    return lo, hi, -f


# ---------------------------------------------------------------------------
# Constants by binary splitting


def _split(n1: int, n2: int, q, b) -> tuple[int, int, int]:
    """(Q, B, T) with sum_{n1 <= n < n2} 1 / (b(n) q(n1) ... q(n)) = T / (B Q),
    Q = q(n1) ... q(n2-1) and B = b(n1) ... b(n2-1)."""
    if n2 - n1 == 1:
        return q(n1), b(n1), 1
    mid = (n1 + n2) // 2
    ql, bl, tl = _split(n1, mid, q, b)
    qr, br, tr = _split(mid, n2, q, b)
    return ql * qr, bl * br, br * qr * tl + bl * tr


def _terms(f: int, x: int) -> int:
    """N with (2N+1) log2(x) >= f + 2."""
    return int((f + 2) / (2 * math.log2(x))) + 2


def _atanh_inv(x: int, f: int) -> int:
    """v with v <= atanh(1/x) 2^f <= v + 2, for x >= 3.

    atanh(1/x) = sum_n 1 / ((2n+1) x^(2n+1)); after N terms the remainder
    is below x^-(2N+1) / (1 - x^-2) <= 2^-(f+1).  v is the floor of the
    partial sum.
    """
    qq, bb, tt = _split(0, _terms(f, x), lambda n: x * x if n else x, lambda n: 2 * n + 1)
    return (tt << f) // (bb * qq)


def _atan_inv(x: int, f: int) -> tuple[int, int]:
    """(lo, hi) with lo <= atan(1/x) 2^f <= hi, x >= 2.

    The alternating series sum_n (-1)^n / ((2n+1) x^(2n+1)) errs by less
    than its first omitted term, below 2^-(f+1) for the N chosen.
    """
    qq, bb, tt = _split(0, _terms(f, x), lambda n: -x * x if n else x, lambda n: 2 * n + 1)
    v = (tt << f) // (bb * qq)
    return v - 1, v + 2


def _e(f: int) -> int:
    """v with v <= e 2^f <= v + 2: the floor of sum_{n < N} 1/n!, which
    falls short of e by at most 2/N! <= 2^-(f+1)."""
    terms = 2
    log_fact = 0.0
    while log_fact < f + 2:
        log_fact += math.log2(terms)
        terms += 1
    qq, _, tt = _split(0, terms, lambda n: n or 1, lambda n: 1)
    return (tt << f) // qq


def _ln2(f: int) -> int:
    """v with v <= log(2) 2^f <= v + 2, as 2 atanh(1/3)."""
    return _atanh_inv(3, f + 2) >> 1


def _pi(f: int) -> int:
    """v with v <= pi 2^f <= v + 2, by Machin's 16 atan(1/5) - 4 atan(1/239):
    the bracket at f + 8 bits is 16 * 3 + 4 * 3 < 2^8 wide."""
    a_lo, _ = _atan_inv(5, f + 8)
    _, b_hi = _atan_inv(239, f + 8)
    return (16 * a_lo - 4 * b_hi) >> 8


_CONSTANT_FUNCS = {"ln2": _ln2, "e": _e, "pi": _pi}
# name -> (scale f, value v) with v <= c 2^f <= v + 2
_CONSTANTS: dict[str, tuple[int, int]] = {}


def _constant(name: str, f: int) -> int:
    """v with v <= c 2^f <= v + 2 for the named constant c.

    A cached value at a larger scale f0 serves by a floor shift: it adds
    at most 1 to a bracket of 2^-(f0-f) * 2 <= 1.
    """
    cached = _CONSTANTS.get(name)
    if cached is None or cached[0] < f:
        f0 = f + (f >> 3) + 64  # room for the next few requests
        cached = _CONSTANTS[name] = (f0, _CONSTANT_FUNCS[name](f0))
    f0, v = cached
    return v >> (f0 - f)


# ---------------------------------------------------------------------------
# Contexts


class Context:
    """Conversions, elementary functions and constants at one precision."""

    __slots__ = ("prec", "_e", "_pi")

    def __init__(self, prec: int):
        if prec < 2:
            raise ValueError("precision must be at least 2 bits")
        self.prec = prec
        self._e = self._pi = None

    def num(self, q) -> Interval:
        """The enclosure of an int or Fraction, each end correctly rounded."""
        return _convert(self.prec, q)

    def _constant_interval(self, name: str) -> Interval:
        p = self.prec
        f = p + _GUARD
        v = _constant(name, f)
        return Interval(p, *_down(v, -f, p), *_up(v + 2, -f, p))

    @property
    def e(self) -> Interval:
        if self._e is None:
            self._e = self._constant_interval("e")
        return self._e

    @property
    def pi(self) -> Interval:
        if self._pi is None:
            self._pi = self._constant_interval("pi")
        return self._pi

    def sqrt(self, x: Interval) -> Interval:
        """sqrt over an interval with lower end >= 0, each end correctly
        rounded (``math.isqrt`` with a sticky bit)."""
        if x.lm < 0:
            raise ValueError("sqrt of an interval that reaches below 0")
        p = self.prec
        return Interval(p, *_down(*_root(x.lm, x.le, p), p), *_up(*_root(x.hm, x.he, p), p))

    def log(self, x: Interval) -> Interval:
        """log over an interval with lower end > 0 (``_log_fixed``).

        The lower end comes from the series at the lower endpoint a; the
        upper end from log b <= log a + (b - a)/a when that bound exceeds
        log b by less than an ulp of the series (u^2/2 for u = (b-a)/a),
        else from a second series at b.
        """
        if x.lm <= 0:
            raise ValueError("log of an interval that reaches 0 or below")
        p = self.prec
        wp = p + _GUARD
        lo, hi, sh = _log_fixed(x.lm, x.le, wp)
        if _cmp(x.lm, x.le, x.hm, x.he):
            dm, de = _diff(x.hm, x.he, x.lm, x.le)
            # u 2^-sh = (b - a) / a at scale -sh, rounded up
            u_m, u_e = _quot(dm, de - sh, x.lm, x.le, wp)
            u = -(-u_m >> -u_e) if u_e < 0 else u_m << u_e
            if 2 * u.bit_length() <= -sh:
                hi += u + 1
            else:
                _, hi, sh2 = _log_fixed(x.hm, x.he, wp)
                return Interval(p, *_down(lo, sh, p), *_up(hi, sh2, p))
        return Interval(p, *_down(lo, sh, p), *_up(hi, sh, p))

    def exp(self, x: Interval) -> Interval:
        """exp over an interval (``_exp_fixed``).

        The lower end comes from the series at the lower endpoint a; the
        upper end from exp b <= exp a (1 + t + t^2), t = b - a <= 1, when
        t^2 is below an ulp of the series, else from a second series at b.
        """
        p = self.prec
        wp = p + _GUARD
        lo, hi, sh = _exp_fixed(x.lm, x.le, wp)
        sh2 = sh
        if _cmp(x.lm, x.le, x.hm, x.he):
            tm, te = _diff(x.hm, x.he, x.lm, x.le)  # t = b - a > 0
            if te < 0 and 2 * (-te - tm.bit_length()) >= hi.bit_length():
                # hi (1 + t + t^2) = hi (2^(-2te) + tm 2^(-te) + tm^2) 2^(2te)
                v = hi * ((1 << -2 * te) + (tm << -te) + tm * tm)
                hi = -(-v >> (-2 * te))
            else:
                _, hi, sh2 = _exp_fixed(x.hm, x.he, wp)
        lower, upper = _down(lo, sh, p), _up(hi, sh2, p)
        # exp >= 1 on [0, inf) and <= 1 on (-inf, 0]: exact where the
        # series' error straddles 1, at arguments below 2^-wp
        if x.lm >= 0 and _cmp(*lower, 1, 0) < 0:
            lower = (1, 0)
        if x.hm <= 0 and _cmp(*upper, 1, 0) > 0:
            upper = (1, 0)
        return Interval(p, *lower, *upper)


_CONTEXTS: dict[int, Context] = {}


def context(prec: int) -> Context:
    """The (cached) context at ``prec`` bits."""
    ctx = _CONTEXTS.get(prec)
    if ctx is None:
        ctx = _CONTEXTS[prec] = Context(prec)
    return ctx


# ---------------------------------------------------------------------------
# Decimal output, digit for digit as mpmath's ``to_str``


def dps_to_prec(digits: int) -> int:
    """Bits that hold ``digits`` decimals, by mpmath's rule."""
    return max(1, int(round((int(digits) + 1) * 3.3219280948873626)))


def nearest(q: Fraction, prec: int) -> Fraction:
    """numerator / denominator at ``prec`` bits, as mpmath rounds
    ``mpf(numerator) / denominator``: the odd part of the numerator to
    nearest, then the quotient by the odd part of the denominator to
    nearest (ties to even both times); powers of two are exact."""
    num, den = q.numerator, q.denominator
    if not num:
        return Fraction(0)
    tz = (num & -num).bit_length() - 1
    dz = (den & -den).bit_length() - 1
    m, e = _nearest(num >> tz, tz - dz, prec)
    den >>= dz
    if den != 1:
        m, e = _nearest(*_quot(m, e, den, 0, prec), prec)
    return _fraction(m, e)


_LOG2_10 = math.log(10, 2)


def _digits(q: Fraction, n: int) -> tuple[str, int]:
    """mpmath's ``to_digits_exp`` of a positive dyadic q with n digits:
    a digit string, truncated, and the decimal exponent of its first digit.

    Past 2^3500 mpmath scales by a power of ten in rounded arithmetic; this
    takes the digits exactly there instead, by enclosures that are widened
    until the truncated digits are certain.
    """
    m, den = q.numerator, q.denominator
    e = -(den.bit_length() - 1)
    bitprec = int(n * _LOG2_10) + 10
    top = e + m.bit_length()
    if abs(top) <= 3500:
        fixprec = max(bitprec - top, 0)
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        sd = _fixed(m, e, fixprec) * 10**fixdps >> fixprec
        digits = str(sd)
        return digits, len(digits) - fixdps - 1
    prec = 2 * bitprec
    exp10 = int(top * 0.30102999566398120) - n  # first guess: q / 10^exp10 has n digits
    while True:
        ctx = context(prec)
        ten = ctx.num(10)
        scaled = ctx.num(q) / ten**exp10 if exp10 >= 0 else ctx.num(q) * ten**-exp10
        lo, hi = scaled.floors()
        size = len(str(hi))
        if size != n:
            exp10 += size - n
        elif lo == hi:
            return str(lo), exp10 + n - 1
        else:  # a digit boundary lies inside the enclosure
            prec *= 2


def to_str(q: Fraction, dps: int) -> str:
    """A dyadic q as mpmath's ``to_str(q, dps)`` prints it."""
    if not q:
        return "0.0"
    sign = "-" if q < 0 else ""
    digits, exponent = _digits(abs(q), dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
            if split > dps:
                digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"
