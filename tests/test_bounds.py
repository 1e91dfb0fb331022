import bisect
import contextlib
import functools
import hashlib
import itertools
import json
import math
import queue
import random
import sys
import time
import types
from fractions import Fraction

import mpmath
import pytest

from conftest import in_threads
from ppp import bounds, cli, real
from ppp.arith import is_prime, prime_segments, primes_up_to, primorial_table
from ppp.bounds import (
    DUSART,
    ROSSER_SCHOENFELD,
    _HeightEngine,
    _Verdicts,
    _decide_floor,
    _first_true,
    _search_height,
    CapExceeded,
    Delta,
    DomainError,
    Enclosure,
    PrecisionCtx,
    PrecisionExhausted,
    SearchExceeded,
    bounds_report,
    choose_parameters,
    compute_H,
    compute_J,
    degree_bound_formula,
    phi_upper_bound,
    scan_J,
)

CTX = PrecisionCtx()


def fraction_of(x) -> Fraction:
    """An mpf as a Fraction, exactly."""
    man, exp = x.man_exp  # of |x|
    return Fraction(man) * Fraction(2) ** exp * (-1 if x < 0 else 1)


def mpf_exact(q: Fraction):
    """A dyadic endpoint as an mpf, without rounding."""
    with mpmath.workprec(max(53, q.numerator.bit_length())):
        return mpmath.mpf(q.numerator) / q.denominator


def capped(j_cap):
    """CTX with the J limit ``j_cap``."""
    return CTX.replace(j_cap=j_cap)


def json_sha256(rep):
    """SHA-256 of the report exactly as ``ppp bounds`` prints it."""
    text = cli._canonical_json(rep.to_json_dict()) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# --- degree bound ----------------------------------------------------------

def test_degree_bound_exact_log_cases():
    assert degree_bound_formula(Delta.exp(Fraction(1, 2)), CTX) == 3
    assert degree_bound_formula(Delta.exp(Fraction(3, 4)), CTX) == 11
    assert degree_bound_formula(Delta.exp(Fraction(1, 5)), CTX) == 0
    assert degree_bound_formula(Delta.exp(Fraction(1, 6)), CTX) == 0


def test_degree_bound_rational_cases():
    assert degree_bound_formula(Fraction(11, 10), CTX) == 0
    # oracle: direct high-precision evaluation
    for num, den in ((2, 1), (5, 2), (12, 5)):
        ell = mpmath.log(mpmath.mpf(num) / den)
        expected = max(0, int(mpmath.ceil((5 * ell - 1) / (1 - ell))))
        assert degree_bound_formula(Fraction(num, den), CTX) == expected


def test_degree_bound_domain():
    with pytest.raises(DomainError):
        degree_bound_formula(Fraction(1, 2), CTX)
    with pytest.raises(DomainError):
        degree_bound_formula(Fraction(3, 1), CTX)
    with pytest.raises(DomainError):
        Delta.exp(Fraction(3, 2))


# --- J scan ----------------------------------------------------------------

def test_j_small_for_large_epsilon():
    assert compute_J(Fraction(3, 2), capped(5000)) <= 9


def brute_force_J(eps, cap):
    """Largest j <= cap with log primorial(j-1) < j log(e - eps), every j tested."""
    prim = primorial_table(cap)
    with mpmath.workdps(60):
        base = mpmath.e - mpmath.mpf(eps.numerator) / eps.denominator
        violations = [
            k for k in range(1, cap + 1) if mpmath.log(prim[k - 1]) < k * mpmath.log(base)
        ]
    return max(violations)


# Past x0 the brute force checks the tail proof.  At cap = x0 it checks the
# last candidate j = x0, where x0 is composite (1/5) or prime (21/100).
@pytest.mark.parametrize("eps, cap, x0", [
    (Fraction(1, 2), 2999, 563), (Fraction(1, 2), 3000, 563), (Fraction(1, 5), 3001, 771),
    (Fraction(1, 5), 771, 771), (Fraction(21, 100), 571, 571),
], ids=["half-2999", "half-3000", "fifth-3001", "fifth-x0-771", "21/100-x0-571"])
def test_j_matches_brute_force(eps, cap, x0):
    scan = scan_J(eps, capped(cap))
    assert scan.x0 == x0 and scan.J == brute_force_J(eps, cap)


def test_j_stability_under_doubled_cap():
    # The limit gates the proof and never shortens the scan: scans at
    # cap = x0 and at 2 x0 agree, and cap = x0 - 1 is refused.
    eps = Fraction(1, 5)
    at_x0 = scan_J(eps, capped(771))
    assert scan_J(eps, capped(2 * 771)) == at_x0 and at_x0.x0 == 771
    with pytest.raises(CapExceeded, match="needs x0 = 771, beyond the J limit 770 "):
        compute_J(eps, capped(770))


def test_scan_takes_x0_as_its_last_candidate():
    # No tail point met here qualifies itself, so the scan is run to points
    # below one: the prime J(1/5) = 569 and its neighbours.
    eps = Fraction(1, 5)
    log_base = lambda ivc: bounds._log_e_minus(ivc, eps)
    for x0 in (568, 569, 570, 571):
        assert bounds._scan_to(CTX, log_base, x0) == brute_force_J(eps, x0), x0


# log(e - eps) sits 2^-300 theta(p-1) / p off theta(p-1) / p, below it for
# 347 (so p fails) and above it for 313 (so p qualifies).  No 256-bit
# enclosure separates the two sides, so the scan escalates to 512 bits.
@pytest.mark.parametrize("p, x0, skew, J", [(347, 547, 1, 229), (313, 317, -1, 313)])
def test_j_escalates_a_candidate_2_300_off_its_threshold(p, x0, skew, J, monkeypatch):
    with mpmath.workdps(130):
        theta = mpmath.fsum(mpmath.log(q) for q in primes_up_to(p - 1).primes)
        ell = theta * (1 - skew * mpmath.mpf(2) ** -300) / p
        eps = Fraction(mpmath.nstr(mpmath.e - mpmath.exp(ell), 120))
    precisions = []
    largest_open = bounds._largest_open
    monkeypatch.setattr(bounds, "_largest_open",
                        lambda ivc, L, top: precisions.append(ivc.prec) or largest_open(ivc, L, top))
    log_base = lambda ivc: bounds._log_e_minus(ivc, eps)
    assert bounds._scan_to(CTX, log_base, x0) == J
    assert precisions == [256, 512]


def test_j_scan_proves_at_256_bits_at_any_working_precision(monkeypatch):
    # J and x0 are exact, so at 32768 bits the scan, the tail point
    # included, takes every log at 256 bits, and finds what it finds there.
    eps = choose_parameters(1, Delta.exp(Fraction(1, 2)), CTX).epsilon
    precisions, log = [], real.Context.log
    monkeypatch.setattr(real.Context, "log", lambda self, x: precisions.append(self.prec) or log(self, x))
    assert scan_J(eps, PrecisionCtx(32768)) == scan_J(eps, CTX)
    assert precisions and max(precisions) == 256


@pytest.mark.parametrize("delta", [Delta.exp(Fraction(1, 2)), Delta.exp(Fraction(2, 7))])
def test_height_search_takes_its_logs_at_the_proof_precision(delta, monkeypatch):
    # Every verdict of the search is exact, so at 4096 bits its pack, r_of,
    # falls, the cells and floor_exp all take their logs at 256 bits.  Only
    # the exp of a threshold may escalate past it.
    ctx = PrecisionCtx(4096)
    params = choose_parameters(1, delta, ctx)
    precisions, log = [], real.Context.log
    monkeypatch.setattr(real.Context, "log", lambda self, x: precisions.append(self.prec) or log(self, x))
    _search_height(_Verdicts(_HeightEngine(params, ctx)))
    assert precisions and max(precisions) == 256


def test_j_scan_clears_the_blocks_past_a_qualifying_block_end():
    # e^9/10's margin stays small up to about 1.16M: block ends that
    # qualify drop every block below them from the search (blocks.clear()
    # in _largest_open), the only pinned input that reaches it.
    scan = scan_J(choose_parameters(1, Delta.parse("e^9/10"), CTX).epsilon, CTX)
    assert (scan.J, scan.x0, scan.tail) == (1092019, 3594641, DUSART)


def test_j_monotone_in_epsilon():
    js = [compute_J(Fraction(num, 10), capped(50_000)) for num in (2, 4, 8, 15)]
    assert js == sorted(js, reverse=True)


def tail_margin(bound, eps, x):
    """x (1 - a / log(x)^k) - (x+1) log(e - eps), at 60 digits."""
    with mpmath.workdps(60):
        a = mpmath.mpf(bound.a.numerator) / bound.a.denominator
        base = mpmath.e - mpmath.mpf(eps.numerator) / eps.denominator
        return x * (1 - a / mpmath.log(x) ** bound.k) - (x + 1) * mpmath.log(base)


@pytest.mark.parametrize("cap", [2000, 1999])
def test_j_cap_exceeded_for_tiny_epsilon(cap):
    # For eps = 1/10 Rosser-Schoenfeld closes near 6*10^5: a smaller limit
    # raises and names the least closing point.
    eps = Fraction(1, 10)
    with pytest.raises(CapExceeded, match=rf"needs x0 = (\d+), beyond the J limit {cap} ") as err:
        compute_J(eps, capped(cap))
    x0 = int(err.value.args[0].split("x0 = ")[1].split(",")[0])
    rs = ROSSER_SCHOENFELD
    assert tail_margin(rs, eps, x0) >= 0 > tail_margin(rs, eps, x0 - 1)
    assert scan_J(eps, capped(x0)).x0 == x0
    # For eps = 1/10^6 the tail closes near e^737, past any sieve.
    with pytest.raises(CapExceeded, match=rf"needs x0 > 2\^63 - 1, beyond the J limit {cap} "):
        compute_J(Fraction(1, 10**6), capped(cap))


def theta_at_gap_ends(lo, hi):
    """(q, theta(q-1)) for each prime q in (lo, hi], theta summed in floats
    over ``prime_segments`` as the scan sums it."""
    theta, out = 0.0, []
    for primes in prime_segments(hi):
        for q in primes:
            if q > lo:
                out.append((q, theta))
            theta += math.log(q)
    return out


@pytest.mark.parametrize("bound, lo, hi", [
    (ROSSER_SCHOENFELD, 563, 10**5), (DUSART, 3_594_641, 3_700_000),
], ids=["rosser-schoenfeld", "dusart"])
def test_tail_bound_holds_at_every_gap_end(bound, lo, hi):
    # theta is constant on each gap [p, q) and x (1 - a/log^k x) rises, so
    # the bound is tightest just below q.  lo is prime: the gaps from lo on
    # cover [lo, hi].
    ends = theta_at_gap_ends(lo, hi)
    assert is_prime(lo) and len(ends) > 1000
    for q, theta in ends:
        assert theta * (1 - 1e-9) > q * (1 - float(bound.a) / math.log(q) ** bound.k), q


class CallerMath(types.SimpleNamespace):
    """The math module, recording the function that calls log, exp or log1p."""

    def __init__(self):
        super().__init__(callers=set())

    def __getattr__(self, name):
        f = getattr(math, name)
        if name not in ("log", "exp", "log1p"):
            return f
        self.callers.add(sys._getframe(1).f_code.co_name)
        return f


def test_libm_only_chooses_work(monkeypatch):
    # math.log, exp and log1p set the float estimate that picks cell widths
    # and the start precision of each threshold, and nothing else: over
    # every golden report, no other function of ppp.bounds calls them.
    recorder = CallerMath()
    monkeypatch.setattr(bounds, "math", recorder)
    for text in GOLDEN_DELTAS:
        with contextlib.suppress(SearchExceeded):  # 3/2
            bounds_report(1, Delta.parse(text), CTX)
    assert recorder.callers == {"_cell_floats", "threshold"}


REFERENCE_CAP = 10**6  # not a prime: the last gap ends at the cap


@pytest.fixture(scope="module")
def reference_J():
    primes = primes_up_to(REFERENCE_CAP).primes
    thetas = tuple(itertools.accumulate(map(math.log, primes), initial=0.0))
    return functools.partial(reference_scan, primes, thetas)


def reference_scan(primes, thetas, eps):
    """Largest j <= 10^6 with theta(j-1) < j log(e - eps): every gap end from
    the top, in floats outside a 1e-6 band and at 40 digits inside it."""
    with mpmath.workdps(40):
        log_base = mpmath.log(mpmath.e - mpmath.mpf(eps.numerator) / eps.denominator)
    lf = float(log_base)
    ends = primes + (REFERENCE_CAP,)
    for k in range(len(ends) - 1, -1, -1):
        j, theta = ends[k], thetas[k]
        if abs(theta - j * lf) > 1e-6 * (theta + j):
            if theta < j * lf:
                return j
            continue
        with mpmath.workdps(40):
            if mpmath.fsum(mpmath.log(p) for p in primes[:k]) < j * log_base:
                return j
    return 0


GOLDEN_DELTAS = ["e^1/2", "11/10", "3/2", "e^2/7", "5/4", "13/10", "e^1/4", "e^1/3",
                 "e^7/20", "e^3/10", "e^9/20"]


def test_j_equals_reference_scan_on_golden_epsilons(reference_J):
    for text in GOLDEN_DELTAS:
        eps = choose_parameters(1, Delta.parse(text), CTX).epsilon
        assert compute_J(eps, CTX) == reference_J(eps), text


def test_j_equals_reference_scan_on_a_grid(reference_J):
    grid = [Fraction(k, 20) for k in range(2, 34)]  # 0.1 .. 1.65, below e - 1
    for eps in grid:
        scan = scan_J(eps, CTX)
        assert scan.x0 <= REFERENCE_CAP
        assert scan.J == reference_J(eps), eps


def j_scan_inputs():
    """(name, epsilon): the golden epsilons, e^3/5 (x0 = 144798) and the k/20 grid."""
    named = [(text, choose_parameters(1, Delta.parse(text), CTX).epsilon)
             for text in GOLDEN_DELTAS + ["e^3/5"]]
    return named + [(str(eps), eps) for eps in (Fraction(k, 20) for k in range(2, 34))]


def test_j_exact_splits_agree_with_the_fixed_point_tests(monkeypatch):
    # Log bounds 0 and 2^200 reduce the fixed-point tests to the block ends,
    # so each candidate those leave open is decided by the log of the exact
    # product below it.
    ivc = real.Context(CTX.bits)
    for name, eps in j_scan_inputs():
        scan = scan_J(eps, CTX)
        L = bounds._log_e_minus(ivc, eps)
        top = bounds._last_open(bounds._fixed(L)[1], scan.x0)
        with monkeypatch.context() as m:
            m.setattr(bounds, "_log_floor", lambda q: 0)
            m.setattr(bounds, "_LOG_GAP", 1 << 200)
            assert bounds._largest_open(ivc, L, top) == scan.J, name


def test_j_count_pass_agrees_with_the_full_scan(monkeypatch):
    # A count pass that rejects nothing gives Y = x0, so the exact scan
    # decides every candidate up to x0 itself.
    scans = [(name, eps, scan_J(eps, CTX)) for name, eps in j_scan_inputs()]
    monkeypatch.setattr(bounds, "_last_open", lambda le_hi, x0: x0)
    for name, eps, scan in scans:
        log_base = lambda ivc: bounds._log_e_minus(ivc, eps)
        assert bounds._scan_to(CTX, log_base, scan.x0) == scan.J, name


@pytest.mark.parametrize("floor", [1, 2])
def test_j_count_pass_agrees_with_runs_of_one_or_two(monkeypatch, floor):
    # Where the margin is small the runs shrink to the floor, so run ends
    # fall next to the close candidates, J among them.
    for name, eps in j_scan_inputs():
        want = scan_J(eps, CTX)
        with monkeypatch.context() as m:
            m.setattr(bounds, "_RUN_FLOOR", floor)
            assert scan_J(eps, CTX) == want, name


def test_count_pass_adds_logs_rounded_down():
    # The count pass adds _log_floor(q) per prime: at most log(q) 2^64 and
    # less than _LOG_GAP below it.  Checked at 120 bits on small q, around
    # powers of two (x near 1 in q = 2^k (1 + x) is where the series falls
    # furthest short), at x = 1/2 and on random q up to 2^63.
    rng = random.Random(26)
    qs = list(range(1, 600))
    for k in range(1, 64):
        qs += [(1 << k) - 1, 1 << k, (1 << k) + 1, (3 << k) - 1, 3 << k]
    qs += [rng.randrange(1, 2 ** rng.randrange(2, 64)) for _ in range(3000)]
    with mpmath.workprec(120):
        for q in qs:
            gap = mpmath.log(q) * 2**bounds._FIX - bounds._log_floor(q)
            assert 0 <= gap < bounds._LOG_GAP, q


def test_j_scan_for_three_halves_logs_few_primes(monkeypatch):
    # The count pass rejects the candidates of 3/2 past about 15k by runs;
    # below that, 256 primes share one enclosure log, and the fixed-point
    # tests leave few candidates to a log of their own.  One log per prime
    # up to x0 would be 256k.
    calls = 0
    log = real.Context.log

    def counted(ivc, x):
        nonlocal calls
        calls += 1
        return log(ivc, x)

    eps = choose_parameters(1, Fraction(3, 2), CTX).epsilon
    monkeypatch.setattr(real.Context, "log", counted)
    scan = scan_J(eps, CTX)
    assert (scan.J, scan.x0, scan.tail) == (3527, 3_594_641, DUSART)
    assert calls <= 20, calls


def test_j_scan_calls_no_math_log(monkeypatch):
    # J is proved from enclosures alone: no math.log and no float decides it.
    def refused(x):
        raise AssertionError("math.log called")

    monkeypatch.setattr(bounds, "math", types.SimpleNamespace(**{**vars(math), "log": refused}))
    for text, J, x0 in (("3/2", 3527, 3_594_641), ("e^1/2", 1427, 20395), ("11/10", 17, 563)):
        scan = scan_J(choose_parameters(1, Delta.parse(text), CTX).epsilon, CTX)
        assert (scan.J, scan.x0) == (J, x0), text


# --- parameter selection ----------------------------------------------------

def test_parameters_half_log_case():
    p = choose_parameters(1, Delta.exp(Fraction(1, 2)), CTX)
    assert p.formula_d == 4 and p.d == 5 and p.d_bumped
    # rho interval [3 - sqrt(5), 2], midpoint (5 - sqrt(5))/2
    assert abs(p.rho_interval[0].midpoint() - Fraction(7639320, 10**7)) < Fraction(1, 10**4)
    assert p.rho_interval[1].midpoint() == 2
    assert abs(p.rho - (Fraction(5) - Fraction(22360679, 10**7)) / 2) < Fraction(1, 10**4)
    # the rho constraint holds exactly: l^2 r^2 + (2l - d(1-l)) r + 1 <= 0
    q = Fraction(1, 4) * p.rho**2 + (1 - Fraction(5, 2)) * p.rho + 1
    assert q < 0
    assert p.rho * Fraction(1, 2) <= 1


def test_parameters_rational_case():
    p = choose_parameters(1, Fraction(11, 10), CTX)
    assert p.formula_d == 1 and p.d == 1 and not p.d_bumped
    assert abs(p.rho - Fraction(5959, 1000)) < Fraction(2, 100)
    assert 0 < float(p.epsilon) < float(mpmath.e) - 1.1
    assert p.omega.hi < 1
    assert abs(p.discriminant.midpoint() - Fraction(4736, 10**4)) < Fraction(1, 10**3)
    lo, hi = p.rho_interval
    assert abs(lo.midpoint() - Fraction(14263, 10**4)) < Fraction(1, 10**2)
    assert abs(hi.midpoint() - Fraction(104921, 10**4)) < Fraction(1, 10**2)
    assert lo.hi < p.rho < hi.lo


def test_parameters_bump_whenever_formula_d_is_degenerate():
    # 4*ell/(1-ell) an exact integer makes the discriminant vanish
    p = choose_parameters(1, Delta.exp(Fraction(3, 4)), CTX)
    assert p.formula_d == 12 and p.d == 13 and p.d_bumped
    ell = Fraction(3, 4)
    q = ell**2 * p.rho**2 + (2 * ell - p.d * (1 - ell)) * p.rho + 1
    assert q < 0 and p.rho * ell <= 1


def test_parameters_strict_margin_via_oracle():
    # independently re-check (1 + rho*ell)^2 / log(1/omega) < d*rho
    for delta in (Delta.exp(Fraction(1, 2)), Delta.coerce(Fraction(11, 10)),
                  Delta.coerce(Fraction(2, 1))):
        p = choose_parameters(1, delta, CTX)
        with mpmath.workdps(60):
            ell = (mpmath.log(mpmath.mpf(delta.value.numerator) / delta.value.denominator)
                   if delta.kind == "rational"
                   else mpmath.mpf(delta.value.numerator) / delta.value.denominator)
            eps = mpmath.mpf(p.epsilon.numerator) / p.epsilon.denominator
            rho = mpmath.mpf(p.rho.numerator) / p.rho.denominator
            lam = mpmath.log(mpmath.e - eps) - ell
            assert (1 + rho * ell) ** 2 / lam < p.d * rho


def test_parameters_follow_the_working_precision():
    # rho and epsilon are printed exactly, so they are read off enclosures
    # at the working precision, not at the precision their checks start at:
    # at 1000 bits they are 998-bit and 1002-bit dyadics.  The pin is of
    # their values from a 1000-bit start.
    p = choose_parameters(1, Delta.exp(Fraction(2, 7)), PrecisionCtx(1000))
    assert (p.rho.denominator.bit_length(), p.epsilon.denominator.bit_length()) == (998, 1002)
    digest = hashlib.sha256(f"{p.epsilon} {p.rho}".encode()).hexdigest()
    assert digest == "da6e3b639f0758526b95badc54d95df2461900a089b0609d669902d5df7a91b2"


def test_domain_errors():
    with pytest.raises(DomainError):
        choose_parameters(0, Fraction(11, 10), CTX)
    with pytest.raises(DomainError):
        choose_parameters(1, Fraction(7, 2), CTX)


# --- product majorant -------------------------------------------------------

def truncated_product(d_exp, x, delta, terms=200):
    prim = primorial_table(terms + 1)
    prod = Fraction(1)
    for j in range(1, terms + 1):
        prod *= 1 + Fraction(x) * j**d_exp * Fraction(delta) ** j / prim[j - 1]
    return prod


def phi_closed_form(d_exp, x, delta, eps, J):
    """The linear closed form of the majorant, in plain mpmath."""
    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    x, delta = mp(Fraction(x)), mp(Fraction(delta))
    lam = mpmath.log(mpmath.e - mp(Fraction(eps))) - mpmath.log(delta)
    j0 = 2 * d_exp / lam
    c0 = mpmath.exp(4 * mpmath.zeta(2) / lam)
    return (
        c0 * 2**J * (1 + x) ** J * mpmath.factorial(J) ** d_exp * delta ** (J * J)
        * (2 * (1 + x) * j0**d_exp) ** int(mpmath.floor(j0))
        * mpmath.exp(mpmath.log(x * j0**d_exp) ** 2 / lam)
    )


def test_phi_bound_at_least_one_and_dominates():
    rng = random.Random(7)
    for _ in range(20):
        d_exp = rng.randint(1, 3)
        x = Fraction(rng.randint(1, 40), rng.randint(1, 7))
        delta = Fraction(rng.randint(11, 25), 10)
        eps_budget = Fraction(271, 100) - delta  # leaves room below e
        eps = max(Fraction(1, 10), eps_budget * rng.randint(1, 3) / 4)
        enc = phi_upper_bound(d_exp, x, delta, eps, CTX)
        assert enc.lo >= 1
        assert enc.hi >= truncated_product(d_exp, x, delta)
        with mpmath.workdps(100):
            man, exp = phi_closed_form(d_exp, x, delta, eps, compute_J(eps, CTX)).man_exp
        # Compared as exact rationals: mpf() of a multi-million-bit integer is slow.
        oracle = Fraction(man) * Fraction(2) ** exp
        assert abs(enc.midpoint() - oracle) <= oracle / 10**40


# Strings printed by the plain ``mpf(numerator) / denominator`` route.
@pytest.mark.parametrize("enc, value, value12, width", [
    (Enclosure(Fraction(314159, 10**5), Fraction(314160, 10**5)),
     "3.141595", "3.141595", "1.0e-5"),
    (Enclosure(Fraction(-22, 7), Fraction(-3)),
     "-3.07142857142857142857142857143", "-3.07142857143", "0.143"),
    (Enclosure.point(Fraction(1, 3)),
     "0.333333333333333333333333333333", "0.333333333333", "0"),
    (Enclosure(Fraction(5, 2**70), Fraction(7, 2**70)),
     "5.08219768352580203440993500408e-21", "5.08219768353e-21", "1.69e-21"),
    (Enclosure(Fraction(3 * 2**4000), Fraction(3 * 2**4000 + 2**3990)),
     "3.95525593463532487799726698515e+1204", "3.95525593464e+1204", "1.29e+1201"),
])
def test_enclosure_decimal_strings(enc, value, value12, width):
    assert (enc.decimal(), enc.decimal(12), enc.width_decimal()) == (value, value12, width)


def workdps_decimals(enc, digits):
    """``decimal`` and ``width_decimal`` by mpmath's global context, as they
    once were: ``nstr`` of ``mpf(numerator) / denominator`` under ``workdps``."""
    def mpf(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(digits + 10):
        value = mpmath.nstr((mpf(enc.lo) + mpf(enc.hi)) / 2, digits)
    if enc.width == 0:
        return value, "0"
    with mpmath.workdps(3 + 10):
        return value, mpmath.nstr(mpf(enc.width), 3)


def test_enclosure_decimals_match_the_workdps_route():
    rng = random.Random(20261018)

    def rational():
        num = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 300))
        return Fraction(num, rng.randint(1, 2**rng.randint(1, 200)) << rng.randint(0, 90))

    for _ in range(3000):
        lo = rational()
        hi = lo + rng.choice((0, rational(), Fraction(1, 2**rng.randint(1, 400))))
        enc = Enclosure(*sorted((lo, hi)))
        digits = rng.choice((3, 12, 30, 30, 50))
        assert (enc.decimal(digits), enc.width_decimal()) == workdps_decimals(enc, digits), enc


def test_enclosure_decimals_match_the_workdps_route_far_from_one():
    # Past 2^3500 mpmath's to_str scales by a power of ten in rounded
    # arithmetic, and ppp.real takes exact digits instead.
    rng = random.Random(20261019)

    def rational():
        num = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 300))
        scale = Fraction(2) ** (rng.choice((-1, 1)) * rng.randint(3000, 8000))
        return Fraction(num, rng.randint(1, 2**rng.randint(1, 200))) * scale

    for _ in range(1000):
        lo = rational()
        hi = lo + rng.choice((0, abs(rational()), abs(lo) / 2**rng.randint(1, 400)))
        enc = Enclosure(lo, hi)
        digits = rng.choice((3, 12, 30, 30, 50))
        assert (enc.decimal(digits), enc.width_decimal()) == workdps_decimals(enc, digits), enc


def test_reports_render_alike_in_threads():
    # Rendering reads no process-wide precision: under tight thread switching
    # every render equals the single-threaded one, and mpmath's global
    # precision is left as it was.
    reports = [bounds_report(1, Delta.parse(t), CTX) for t in ("11/10", "e^1/4", "5/4")]
    want = [rep.to_json_dict() for rep in reports]

    def render(out):
        for _ in range(30):
            out.extend(rep.to_json_dict() for rep in reports)

    assert all(out == want * 30 for out in in_threads(render))


def test_reports_compute_alike_in_threads():
    # The cache real._CONSTANTS fills without a lock; each key maps to a
    # value that does not depend on the filling thread, so a race may repeat
    # work but must not change a report.
    texts = ["11/10", "e^1/4", "5/4", "13/10"]
    want = {t: bounds_report(1, Delta.parse(t), CTX).to_json_dict() for t in texts}
    tasks = queue.SimpleQueue()
    for t in texts * 4:
        tasks.put(t)

    def compute(out):
        while True:
            try:
                t = tasks.get_nowait()
            except queue.Empty:
                return
            out.append((t, bounds_report(1, Delta.parse(t), CTX).to_json_dict()))

    real._CONSTANTS.clear()
    done = [item for out in in_threads(compute) for item in out]
    assert len(done) == 16
    for t, rep in done:
        assert rep == want[t], t


def test_enclosure_decimal_of_a_multi_million_bit_endpoint():
    enc = phi_upper_bound(1, Fraction(3, 5), Fraction(12, 5), Fraction(1, 10), CTX)
    assert enc.hi.numerator.bit_length() > 5 * 10**6
    start = time.perf_counter()
    text = (enc.decimal(), enc.width_decimal())
    assert time.perf_counter() - start < 1.0  # the plain route took 220 s
    assert text == ("1.23886948712289288003486801007e+1517045", "3.14e+1516975")


def test_phi_bound_monotone_in_x():
    values = [
        phi_upper_bound(2, Fraction(x), Fraction(3, 2), Fraction(1, 2), CTX).hi
        for x in (1, 2, 5, 9)
    ]
    assert values == sorted(values)


def test_phi_bound_domain_errors():
    with pytest.raises(DomainError):
        phi_upper_bound(0, Fraction(1), Fraction(3, 2), Fraction(1, 2), CTX)
    # y = x*j0^D < 1 for minuscule x
    with pytest.raises(DomainError):
        phi_upper_bound(1, Fraction(1, 10**9), Fraction(3, 2), Fraction(1, 2), CTX)
    with pytest.raises(DomainError):
        phi_upper_bound(1, Fraction(1), Fraction(3, 2), Fraction(2), CTX)  # eps too big


# --- height search -----------------------------------------------------------

def test_height_for_mild_delta():
    rep = bounds_report(1, Fraction(11, 10), CTX)
    assert rep.H == 247688789395926825625299  # pinned regression value
    printed = rep.to_json_dict()
    assert printed["H_predicate_false_at"] == str(rep.H - 1)
    assert Fraction(rep.H) >= rep.H_lower.hi
    assert rep.deg_bound_formula == 0
    assert printed["degree_bound_construction"] == "0"
    assert rep.order_bound == math.floor(
        mpmath.log(rep.H) / mpmath.log(mpmath.mpf(11) / 10)
    )
    assert rep.diag_H_upper is not None and Fraction(rep.H) <= rep.diag_H_upper.lo


def test_r_threshold_matches_floor_route():
    # The 5/4 search crosses the r jump at k = 679; the 11/10 search none.
    params = choose_parameters(1, Fraction(5, 4), CTX)
    engine = _HeightEngine(params, CTX)
    _search_height(_Verdicts(engine))
    assert 679 in engine._thresholds
    k, t = 679, engine._thresholds[679]
    ivc = real.Context(2 * t.bit_length())
    jump = ivc.exp(ivc.num(Fraction(k) / params.rho))
    assert (ivc.num(t - 1) < jump) is True
    assert (jump < ivc.num(t)) is True
    for h, r in ((1, 1), (2, 2), (t - 1, k), (t, k + 1), (t + 1, k + 1)):
        floor_route = _decide_floor(
            CTX, lambda c: c.num(params.rho) * c.log(c.num(h))
        ) + 1
        assert engine.r_of(h) == floor_route == r


def test_height_pinned_for_e_two_sevenths():
    rep = bounds_report(1, Delta.exp(Fraction(2, 7)), CTX)
    assert rep.H.bit_length() == 3845
    assert hashlib.sha256(str(rep.H).encode()).hexdigest() == (
        "26e3c7bbacfb7bc7f4cc9373478401ce0988bb7fc845ee918b9a0c7dbcbdf25e"
    )
    assert json_sha256(rep) == (
        "33861136352bc1fd382f0618f439e662a685bc612283fed66db8874854bb6c59"
    )


def test_report_json_pinned_for_five_quarters():
    rep = bounds_report(1, Fraction(5, 4), CTX)
    assert json_sha256(rep) == (
        "1dc27bbb898b16f148776cdc178e9437d6065513fa3096f9541a1c5190586ec1"
    )


def test_compute_h_shortcut_matches_report():
    assert compute_H(1, Fraction(11, 10), ctx=CTX) == 247688789395926825625299


def test_search_cap_raises():
    tiny_cap = PrecisionCtx(h_cap_log2=16)
    with pytest.raises(SearchExceeded):
        compute_H(1, Fraction(11, 10), ctx=tiny_cap)


def test_height_cap_below_one_rejected():
    # At h_cap_log2 = 0 the doubling would still test h = 2 = 2^1, and a
    # height found there lies outside the diagnostic's domain h <= 2^cap.
    for cap in (0, -3):
        with pytest.raises(ValueError):
            PrecisionCtx(h_cap_log2=cap)
    assert PrecisionCtx(h_cap_log2=1).h_cap_log2 == 1


def test_j_cap_below_one_rejected():
    # A J limit below 1 is a bad argument, not a resource limit: scan_J
    # would report it as CapExceeded, "beyond the J limit -5".
    for cap in (0, -5):
        with pytest.raises(ValueError, match="j_cap must be at least 1"):
            PrecisionCtx(j_cap=cap)
    assert PrecisionCtx(j_cap=1).j_cap == 1


class RecordingVerdicts(_Verdicts):
    """``_Verdicts`` that records every ``(h, verdict)`` it answers."""

    def __init__(self, engine):
        self.used = []
        super().__init__(engine)

    def __call__(self, h):
        verdict = super().__call__(h)
        self.used.append((h, verdict))
        return verdict


class RecordedSearch:
    """One ``_search_height`` run that records every exact predicate call,
    every cell (in log h) checked and every one proved false, and every
    ``(h, verdict)`` used."""

    def __init__(self, delta, ctx=CTX):
        self.engine = _HeightEngine(choose_parameters(1, delta, ctx), ctx)
        self.predicate, cell_false = self.engine.predicate, self.engine.cell_false
        self.evaluated, self.checked, self.cells = [], [], []
        self.engine.predicate = lambda h: self.evaluated.append(h) or self.predicate(h)

        def record_cell(la, lb):
            false = cell_false(la, lb)
            self.checked.append((la, lb, false))
            if false:
                self.cells.append((la, lb))
            return false

        self.engine.cell_false = record_cell
        self.verdicts = RecordingVerdicts(self.engine)

    @property
    def used(self):
        return self.verdicts.used

    @property
    def cell_checks(self):
        return len(self.checked)

    def run(self):
        return _search_height(self.verdicts)


def test_search_cap_message_names_only_powers_of_two():
    tiny_cap = PrecisionCtx(h_cap_log2=16)
    search = RecordedSearch(Fraction(11, 10), tiny_cap)
    with pytest.raises(SearchExceeded) as err:
        search.run()
    # The questions run from the last power of two in the false prefix.
    first = search.used[0][0]
    assert search.used == [(2**k, False) for k in range(first.bit_length() - 1, 17)]
    assert first // 2 <= search.verdicts.false_to
    assert not any(search.predicate(2**k) for k in range(1, 17))
    assert str(err.value).startswith(
        "no power of two h = 2^k with k <= 16 satisfies the inequality"
    )
    assert "2^16" in str(err.value)


@pytest.mark.parametrize("delta", [Fraction(11, 10), Fraction(5, 4)])
def test_search_evaluates_each_height_once(delta):
    search = RecordedSearch(delta)
    h = search.run()
    assert len(search.evaluated) == len(set(search.evaluated))
    assert h - 1 <= search.verdicts.past_to  # h - 1 fails by a proved fact
    assert not search.predicate(h - 1) and search.predicate(h)


@pytest.mark.parametrize("delta", [Fraction(11, 10), Fraction(5, 4)])
def test_every_verdict_the_search_used_is_exact(delta):
    search = RecordedSearch(delta)
    search.run()
    verdicts = search.verdicts
    assert {verdict for _, verdict in search.used} == {False, True}
    for h, verdict in search.used:
        assert search.predicate(h) is verdict, h
    # the two facts the search ended on, at their ends
    assert not search.predicate(verdicts.past_to) and search.predicate(verdicts.true_from)


@pytest.mark.parametrize("delta", [Fraction(11, 10), Fraction(13, 10)])
def test_heights_in_excluded_cells_fail(delta):
    # Every proved cell, from log h = 0 to past false_to: its first and last
    # height and three drawn between them fail.  A second ``_Verdicts``
    # repeats exactly the search's cell checks, failed ones included, and
    # asked each cell's last height answers False with no further cell
    # check and no predicate.  Up to false_to the prefix answers.  On 13/10,
    # where false_to, read off an enclosure of exp(lb), falls short of the
    # last cell's last height, that height's run starts in the prefix and
    # f_r falls there, so the whole run fails unevaluated.
    search = RecordedSearch(delta)
    search.run()
    cells, false_to = search.cells, search.verdicts.false_to
    assert cells[0][0] == 0 and all(a[1] == b[0] for a, b in zip(cells, cells[1:]))
    rng = random.Random(11)
    checked, lasts = 0, []
    with mpmath.workprec(false_to.bit_length() + 64):
        for la, lb in cells:
            # cell ends are dyadic, so these mpf are exact
            la_mp, lb_mp = (mpmath.mpf(q.numerator) / q.denominator for q in (la, lb))
            first, last = int(mpmath.ceil(mpmath.exp(la_mp))), int(mpmath.floor(mpmath.exp(lb_mp)))
            assert first == 1 or mpmath.log(first - 1) < la_mp <= mpmath.log(first)
            assert mpmath.log(last) <= lb_mp < mpmath.log(last + 1)
            lasts.append(last)
            if first > last:
                continue  # no integer height in this cell
            for h in {first, last, *(rng.randint(first, last) for _ in range(3))}:
                assert search.predicate(h) is False, h
                checked += 1
    assert false_to <= last and checked > 2 * len(cells)
    search_checks, evaluated = list(search.checked), len(search.evaluated)
    search.checked.clear()
    verdicts = _Verdicts(search.engine)
    assert search.checked == search_checks
    for last in lasts:
        assert verdicts(last) is False, last
    assert search.checked == search_checks
    assert len(search.evaluated) == evaluated


class FakeEngine:
    """The part of ``_HeightEngine`` that ``_Verdicts`` uses, over small heights.

    ``starts`` are the thresholds T_1 < T_2 < ... (T_0 = 1), so run r is
    [T_{r-1}, T_r - 1].  ``true[r]`` is the run's interval of true heights
    (empty when its ends cross), ``falls_from[r]`` the first height where the
    slope test succeeds: at or past the run's peak, as for a concave f_r.
    """

    def __init__(self, starts, true, falls_from, h_cap_log2=16):
        self.ctx = PrecisionCtx(h_cap_log2=h_cap_log2)
        self.T = [1, *starts]
        self.true, self.falls_from = true, falls_from
        self.evaluated = []

    @classmethod
    def random(cls, seed):
        rng = random.Random(seed)
        empty = rng.choice([0.1, 0.5, 0.9])  # share of runs with no true height
        T = [1]
        while T[-1] <= 2**17:
            T.append(T[-1] + rng.choice([1, 2, rng.randint(1, 64), rng.randint(1, T[-1])]))
        true, falls_from = {}, {}
        for r in range(1, len(T)):
            lo, hi = T[r - 1], T[r] - 1
            a = hi + 1 if rng.random() < empty else rng.choice([lo, rng.randint(lo, hi)])
            a = max(a, 2)  # h = 1 fails
            b = rng.randint(a - 1, hi) if a <= hi else a - 1
            peak = rng.randint(a, b) if a <= b else rng.randint(lo - 2, hi + 2)
            true[r] = (a, b)
            falls_from[r] = peak + rng.choice([0, 1, rng.randint(0, hi - lo + 1)])
        return cls(T[1:], true, falls_from, rng.choice([16, rng.randint(1, 16)]))

    def r_of(self, h):
        return bisect.bisect_right(self.T, h)

    def threshold(self, k):
        return self.T[k]

    def holds(self, h):
        a, b = self.true[self.r_of(h)]
        return a <= h <= b

    def predicate(self, h):
        self.evaluated.append(h)
        return self.holds(h)

    def falls(self, r, h):
        assert r == self.r_of(h)
        return h >= self.falls_from[r]

    def cell_false(self, la, lb):
        # Widened by one height on each side, so float rounding stays safe.
        h_lo = max(1, math.floor(math.exp(la)) - 1)
        h_hi = math.ceil(math.exp(lb)) + 1
        return not any(a <= min(b, h_hi) and max(a, h_lo) <= b for a, b in self.true.values())

    def floor_exp(self, L):
        return max(1, math.floor(math.exp(L) * (1 - 1e-12)))


def small_engine(true, falls_from=201):
    """The run [100, 200] with r = 2; the predicate holds on [50, 60] in the
    run below it (so no cell passes 49) and nowhere above it."""
    return FakeEngine([100, 201], {1: (50, 60), 2: true, 3: (202, 201)},
                      {1: 55, 2: falls_from, 3: 201})


def test_run_facts_place_false_heights_around_the_true_run():
    verdicts = _Verdicts(small_engine((100, 150)))
    assert verdicts(150) is True  # T_{r-1} = 100 holds, so [100, 150] holds
    assert (verdicts.true_from, verdicts.past_to) == (100, verdicts.false_to)
    assert verdicts.engine.evaluated == [100, 150]
    verdicts = _Verdicts(small_engine((100, 150)))
    assert verdicts(180) is False  # ... and the true heights end below 180
    assert (verdicts.true_from, verdicts.past_to) == (math.inf, 200)
    # Where T_{r-1} fails, neither answer proves anything about other heights.
    verdicts = _Verdicts(small_engine((120, 150)))
    assert verdicts(150) is True and verdicts(130) is True
    assert (verdicts.true_from, verdicts.past_to) == (math.inf, verdicts.false_to)
    verdicts = _Verdicts(small_engine((120, 150)))
    assert verdicts(180) is False
    assert (verdicts.true_from, verdicts.past_to) == (math.inf, verdicts.false_to)


def test_false_height_placed_by_the_slope_sign():
    # Where f_r falls, every larger height of the run fails too; where it
    # rises (or the test is undecided), a false height records nothing.
    for falls_from in (160, 181):
        verdicts = _Verdicts(small_engine((120, 150), falls_from))
        assert verdicts(180) is False
        assert verdicts.past_to == (200 if falls_from <= 180 else verdicts.false_to)
    # A T_{r-1} that fails where f_r falls decides the whole run unevaluated.
    verdicts = _Verdicts(small_engine((2, 1), falls_from=100))
    assert verdicts(180) is False and verdicts.past_to == 200
    assert verdicts.engine.evaluated == [100]


def test_verdicts_match_plain_search_on_random_runs():
    # A reference for the verdict layer: on 300 random arrangements of runs
    # and true intervals, the search answered from facts, from the false
    # prefix's last power of two on, finds the height that plain doubling
    # from 2 and bisection on the predicate finds, every verdict it used is
    # exact, and it evaluates each height at most once and none in the
    # false prefix.
    outcomes = set()
    for seed in range(300):
        engine = FakeEngine.random(seed)
        expected = _first_true(engine.holds, 2, 1 << engine.ctx.h_cap_log2)
        verdicts = RecordingVerdicts(engine)
        try:
            found = _search_height(verdicts)
        except SearchExceeded:
            found = None
        assert found == expected, seed
        assert all(engine.holds(h) is verdict for h, verdict in verdicts.used), seed
        assert all(h > verdicts.false_to for h in engine.evaluated), seed
        assert len(engine.evaluated) == len(set(engine.evaluated)), seed
        outcomes.add(expected is None)
    assert outcomes == {False, True}


def test_majorant_encloses_log_j_factorial():
    # J! is enclosed block by block of 256 factors, never computed exactly
    # (for e^9/10 the exact J! takes seconds): that enclosure contains J!,
    # and its log contains the log of the exact J! enclosed 64 bits finer,
    # at every precision, at the block ends and at J = 0.
    rng = random.Random(30)
    js = [0, 1, 2, 255, 256, 257, 599, 3527, *(rng.randint(3, 10**4) for _ in range(12))]
    delta = Delta.rational(Fraction(11, 10))
    for bits in (64, 65, 128, 256, 1024, 4096):
        ivc, fine = real.Context(bits), real.Context(bits + 64)
        for J in js:
            pk = bounds._Majorant(ivc, delta, Fraction(1, 10), 1, J, 0)
            lo, hi = pk.j_fact.endpoints()
            assert lo <= math.factorial(J) <= hi, (bits, J)
            lo, hi = pk.log_jfact.endpoints()
            exact_lo, exact_hi = fine.log(fine.num(math.factorial(J))).endpoints()
            assert lo <= exact_lo and exact_hi <= hi, (bits, J)


def test_falls_stays_false_where_the_slope_is_undecided():
    # At 64 bits the sign of f_r' stays open on a band of heights around the
    # top of f_r.  The first height where falls turns True lies past that
    # band, so a 256-bit evaluation, the proof precision, proves the fall
    # there too.
    params = choose_parameters(1, Fraction(11, 10), CTX)
    low = _HeightEngine(params, PrecisionCtx(bits=64))
    high = _HeightEngine(params, CTX)
    r = high.r_of(247688789395926825625299)  # r(H)
    lo, hi = 1, 2
    while not low.falls(r, hi):
        lo, hi = hi, hi * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if low.falls(r, mid):
            hi = mid
        else:
            lo = mid
    assert high.falls(r, hi)


@pytest.mark.parametrize("delta", [Fraction(11, 10), Delta.exp(Fraction(2, 7))])
def test_slope_sign_matches_a_difference_quotient(delta):
    engine = _HeightEngine(choose_parameters(1, delta, CTX), CTX)
    h_found = _search_height(_Verdicts(engine))
    ivc, d, step = real.Context(CTX.bits), engine.params.d, Fraction(1, 2**20)

    def direct(r, h):  # f_r'(log h) = r d - slope(u) <= 0, written out
        u = engine._log_x(engine.pack, ivc.num(r), ivc.log(ivc.num(h)))
        return (r * d - engine.pack.slope(u) <= 0) is True

    seen = set()
    for k in range(2, 3 * h_found.bit_length(), max(1, h_found.bit_length() // 40)):
        h = 2**k
        r = engine.r_of(h)
        falls = engine.falls(r, h)
        logh = ivc.log(ivc.num(h))

        def f(shift):  # f_r(log h + shift) for this fixed r
            L = logh + ivc.num(shift)
            return r * d * L - engine.log_lhs(ivc, r, L)

        assert falls == direct(r, h), k
        rise = f(-step) < f(step)
        if rise is not None:
            assert not (falls and rise), k
            seen.add(falls)
    assert True in seen
    # Where f_r turns to fall, r = r(H): bisected in log h to 2^-10, the
    # two heights lie closer than a slope off by d (one step of r) would.
    r, lo, hi = engine.r_of(h_found), 1, 2
    while not engine.falls(r, hi):
        lo, hi = hi, hi * hi
    while hi - lo > max(1, lo >> 10):
        mid = max(math.isqrt(lo * hi), lo + 1)
        lo, hi = (lo, mid) if engine.falls(r, mid) else (mid, hi)
    assert [engine.falls(r, lo), engine.falls(r, hi)] == [False, True]
    assert [direct(r, lo), direct(r, hi)] == [False, True]


@pytest.mark.parametrize("delta", [
    Fraction(11, 10), Fraction(5, 4), Fraction(13, 10), Delta.exp(Fraction(2, 7)),
])
def test_questions_lie_between_earlier_answers(delta):
    # The query order that lets a run keep only two facts (see _Verdicts).
    search = RecordedSearch(delta)
    search.run()
    lo, hi = 0, math.inf
    for h, verdict in search.used:
        assert lo < h < hi, h
        if verdict:
            hi = h
        else:
            lo = h
    # The only heights evaluated out of that order are run starts T_{r-1}.
    starts = {search.engine.threshold(r - 1) for r in search.verdicts._starts if r > 1}
    assert set(search.evaluated) <= {h for h, _ in search.used} | starts


def two_part_log_x(pk, R, L):
    """u = log x by the former route: log(2cd) + log r, then log h, then
    (r-1) ell, with the first part cached per integer r."""
    head, r_ell = pk.log_2cd + pk.ivc.log(R), (R - 1) * pk.ell
    return head + L + r_ell


@pytest.mark.parametrize("bits", [64, 256, 4096])
def test_log_x_matches_the_two_part_route(bits):
    engine = _HeightEngine(choose_parameters(1, Fraction(11, 10), CTX), CTX)
    pk = engine._pack(real.Context(bits))
    for r in range(1, 601):
        R, L = pk.ivc.num(r), pk.ivc.num(Fraction(11 * r, 10))
        assert engine._log_x(pk, R, L).endpoints() == two_part_log_x(pk, R, L).endpoints(), r


@pytest.mark.parametrize("delta", [Fraction(11, 10), Fraction(13, 10), Delta.exp(Fraction(2, 7))])
def test_cell_partials_match_the_derivatives_of_log_lhs(delta):
    # Phi(r, L) = log LHS - r d L through the engine's own majorant and
    # log x terms at a real r, differentiated numerically at 200 bits,
    # against the enclosures of Phi_L and Phi_r that cell_false uses.
    engine = _HeightEngine(choose_parameters(1, delta, CTX), CTX)
    d, rho, fine, log_x = engine.params.d, engine.params.rho, real.Context(512), engine._log_x

    def Phi(L, r):
        pk, R, Lv = engine._pack(fine), fine.num(fraction_of(r)), fine.num(fraction_of(L))
        lo, _ = (pk.log_phi(log_x(pk, R, Lv)) - d * R * Lv).endpoints()
        return mpf_exact(lo)

    ivc, pk = engine.pack.ivc, engine.pack
    rng = random.Random(15)
    for _ in range(12):
        L = Fraction(rng.randint(1, 2**12 * 3000), 2**12)
        r = max(1, rho * L + Fraction(rng.randint(0, 2**10), 2**10))
        R, Lv = ivc.num(r), ivc.num(L)
        enclosed = engine.partials(R, Lv, log_x(pk, R, Lv))
        with mpmath.workprec(200):
            point = (mpmath.mpf(L.numerator) / L.denominator, mpmath.mpf(r.numerator) / r.denominator)
            numeric = (mpmath.diff(lambda x: Phi(x, point[1]), point[0]),
                       mpmath.diff(lambda y: Phi(point[0], y), point[1]))
            for value, enc in zip(numeric, enclosed):
                lo, hi = (mpf_exact(e) for e in enc.endpoints())
                slack = mpmath.mpf(10) ** -40 * (1 + abs(value))
                assert lo - slack <= value <= hi + slack, (L, r, value, enc)


def encloses(outer, inner) -> bool:
    """The interval ``outer`` contains the interval ``inner``."""
    lo, hi = outer.endpoints()
    inner_lo, inner_hi = inner.endpoints()
    return lo <= inner_lo and inner_hi <= hi


@pytest.mark.parametrize("delta", [Fraction(11, 10), Delta.exp(Fraction(2, 7))])
def test_cell_box_holds_the_heights_past_an_r_jump(delta, monkeypatch):
    # A cell [la, lb] that ends 2^-20 past log T_k: its last heights have
    # r(h) = k + 1, about rho lb + 1, the top of the box B over which
    # cell_false bounds the partials.  (r(h), log h) and u(r(h), log h) of
    # the cell's first height, of T_k and of its last height must lie in the
    # enclosures that cell_false hands to partials.  (log h itself can sit
    # closer to la than the working precision resolves.)  The band is
    # infinite, so every cell reaches the enclosure tier, which calls partials.
    monkeypatch.setattr(bounds, "_CELL_BAND", math.inf)
    engine = _HeightEngine(choose_parameters(1, delta, CTX), CTX)
    pk, ivc = engine.pack, engine.pack.ivc
    boxes = []
    partials = engine.partials
    engine.partials = lambda r, L, u: boxes.append((r, L, u)) or partials(r, L, u)
    for k in (20, 60, 700):
        t = engine.threshold(k)
        with mpmath.workprec(t.bit_length() + 64):
            lb = Fraction(int(mpmath.ceil(mpmath.log(t) * 2**20)) + 1, 2**20)
            for width in (Fraction(1, 2**12), Fraction(1, 4), Fraction(4)):
                la = max(Fraction(0), lb - width)
                boxes.clear()
                engine.cell_false(la, lb)
                (r, L, u), = boxes
                la_mp, lb_mp = (mpmath.mpf(q.numerator) / q.denominator for q in (la, lb))
                first = int(mpmath.ceil(mpmath.exp(la_mp)))
                last = int(mpmath.floor(mpmath.exp(lb_mp)))
                assert engine.r_of(last) == engine.r_of(t) == k + 1
                for h in (first, t, last):
                    assert la_mp <= mpmath.log(h) <= lb_mp
                    logh, rh = ivc.log(ivc.num(h)), engine.r_of(h)
                    assert encloses(r, ivc.num(rh)), (k, width, h, rh)
                    assert encloses(u, engine._log_x(pk, ivc.num(rh), logh)), (k, width, h)


@pytest.mark.parametrize("delta", [Fraction(13, 10), Fraction(5, 4)])
def test_no_cell_around_a_true_height_is_excluded(delta):
    engine = _HeightEngine(choose_parameters(1, delta, CTX), CTX)
    h = _search_height(_Verdicts(engine))
    true_heights = [h, h + 1, engine.threshold(engine.r_of(h) - 2)]
    with mpmath.workprec(h.bit_length() + 64):
        for t in true_heights:
            if not engine.predicate(t):
                continue
            log_t = mpmath.log(t)
            for k in range(-12, 11):
                width = Fraction(2) ** k
                for part in range(4):  # t sits at 0, 1/4, 1/2, 3/4 of the cell
                    start = log_t - mpmath.mpf(width.numerator) / width.denominator * part / 4
                    la = max(0, Fraction(int(mpmath.floor(start * 2**16)), 2**16))
                    assert engine.cell_false(la, la + width) is False, (t, k, part)


@pytest.mark.parametrize("delta, rho", [
    (Fraction(11, 10), Fraction(3, 4)),  # rho < 1, as e^9/10 and 12/5 choose
    (Delta.exp(Fraction(1, 2)), None),   # the chosen rho, about 1.38
], ids=["11/10-rho-3/4", "e^1/2"])
def test_first_cells_of_the_prefix_are_proved(delta, rho):
    # Each cell [0, 2^-k] has its centre below the strip's lower edge
    # rho L + t >= 1 (2 rho m < 1); the test must still prove it, or the
    # prefix could not grow past h = 1 after its first cell fails.
    params = choose_parameters(1, delta, CTX)
    if rho is not None:
        params = params.replace(rho=rho)
    engine = _HeightEngine(params, CTX)
    for k in range(13):
        width = Fraction(1, 2**k)
        assert engine.cell_false(Fraction(0), width) is True, k


def test_prefix_evaluates_each_cells_float_bound_once():
    # Each cell_false call evaluates its cell's float bound once, and the
    # prefix asks no cell twice: e^2/7's 67 calls take 67 float evaluations,
    # none repeated, and its 23 proved cells the only 23 enclosures.
    engine = _HeightEngine(choose_parameters(1, Delta.exp(Fraction(2, 7)), CTX), CTX)
    floats, cell_false, cell_low = engine._cell_floats, engine.cell_false, engine._cell_low
    evaluated, checked, lows = [], [], []
    engine._cell_floats = lambda la, lb: evaluated.append((la, lb)) or floats(la, lb)
    engine.cell_false = lambda la, lb: checked.append(la) or cell_false(la, lb)
    engine._cell_low = lambda la, lb: lows.append((la, lb)) or cell_low(la, lb)
    bounds._false_prefix(engine)
    assert (len(evaluated), len(checked), len(lows)) == (67, 67, 23)
    assert len(set(evaluated)) == len(evaluated)


def recorded_prefix(engine):
    """Run the false prefix of ``engine``; return its proved cells and the
    cells ``_cell_low`` enclosed, in order."""
    cell_false, cell_low, proved, lows = engine.cell_false, engine._cell_low, [], []

    def check(la, lb):
        false = cell_false(la, lb)
        if false:
            proved.append((la, lb))
        return false

    engine.cell_false = check
    engine._cell_low = lambda la, lb: lows.append((la, lb)) or cell_low(la, lb)
    bounds._false_prefix(engine)
    return proved, lows


@pytest.mark.parametrize("text", GOLDEN_DELTAS)
def test_every_proved_cell_is_enclosed(text):
    # Every True from cell_false comes from _cell_low, and on each golden
    # delta the float value rejects every cell that fails, so the
    # enclosures are exactly the proved cells, one each.
    engine = _HeightEngine(choose_parameters(1, Delta.parse(text), CTX), CTX)
    proved, lows = recorded_prefix(engine)
    assert proved and lows == proved


def test_raised_cap_three_halves_prefix_ends_in_the_enclosure_tier():
    # The one pinned input that encloses a cell it does not prove: 3/2 at
    # the raised height cap ends at a cell whose float value, about -7e-12
    # of its scale, lies in the band.  The 256-bit enclosure leaves it
    # unproved, so the prefix stops there, after its 37 proved cells.
    ctx = PrecisionCtx(h_cap_log2=60000, max_bits=2**18)
    engine = _HeightEngine(choose_parameters(1, Fraction(3, 2), ctx), ctx)
    cell_false = engine.cell_false
    proved, lows = recorded_prefix(engine)
    cell = (Fraction(82479917, 2048), Fraction(164959835, 4096))
    assert len(proved) == 37 and lows == proved + [cell]
    assert abs(engine._cell_estimate(*cell)) <= bounds._CELL_BAND
    assert cell_false(*cell) is False


def test_height_search_on_e_two_sevenths_evaluates_few_heights():
    search = RecordedSearch(Delta.exp(Fraction(2, 7)))
    h = search.run()
    assert h.bit_length() == 3845
    assert len(search.evaluated) <= 8  # of the 4 heights the search asks
    assert len(search.used) == 4
    # the bisection ends once the facts meet in its bracket: a plain one
    # would ask 3843 more questions, each answered by them
    assert search.verdicts.past_to + 1 == h == search.verdicts.true_from
    assert (search.cell_checks, len(search.cells)) == (67, 23)  # failed checks included


@pytest.mark.parametrize("k", [6443, 6444, 6445])
def test_threshold_starts_at_the_precision_its_size_needs(k, monkeypatch):
    # e^2/7's three thresholds near H, of 3845 bits: one exp each, at no
    # fewer bits than T_k has, instead of doubling up from 256 bits.
    engine = _HeightEngine(choose_parameters(1, Delta.exp(Fraction(2, 7)), CTX), CTX)
    precisions, exp = [], real.Context.exp
    monkeypatch.setattr(real.Context, "exp", lambda self, x: precisions.append(self.prec) or exp(self, x))
    t = engine.threshold(k)
    assert len(precisions) == 1 and precisions[0] >= t.bit_length()


@pytest.mark.parametrize("text, sha, counts", [
    ("e^3/40", "4b0d27924e5775a90c142158cc05ec96b94cc83f40a1af00aae36b6b7d92bcb5", (39, 22, 21)),
    ("108/100", "caedfbbc6621af1c88d2efbace5e76749b0b8d1516b1821460aad1a41fb53bf0", (42, 26, 21)),
])
def test_run_start_in_the_prefix_is_decided_once(text, sha, counts):
    # Here a run starts at a T_{r-1} inside the false prefix, where f_r
    # rises: the start fails unevaluated and does not decide the run, and
    # the 19 later questions in that run reuse its stored verdict
    # (``_starts``) instead of asking falls at T_{r-1} again.
    search = RecordedSearch(Delta.parse(text))
    engine, fell = search.engine, []
    falls = engine.falls
    engine.falls = lambda r, h: fell.append(h) or falls(r, h)
    h = search.run()
    assert hashlib.sha256(str(h).encode()).hexdigest() == sha
    assert (len(search.used), len(search.evaluated), len(fell)) == counts
    false_to, starts = search.verdicts.false_to, search.verdicts._starts
    runs = {r for r in starts if 1 < r and engine.threshold(r - 1) <= false_to}
    assert len(runs) == 1 and not any(starts[r] for r in runs)
    asked = [h for h, _ in search.used if h > false_to and engine.r_of(h) in runs]
    assert len(asked) == 1 + 19


def boundary_of_estimate(engine):
    """A log h near where the estimate on a floor-width cell turns negative,
    bisected in floats alone."""
    width = Fraction(2) ** bounds._CELL_FLOOR
    lo, hi = Fraction(0), Fraction(2**16)
    while hi - lo > width:
        mid = (lo + hi) / 2
        guess = engine._cell_estimate(mid, mid + width)
        if guess is not None and guess > 0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("text", GOLDEN_DELTAS)
def test_cell_estimate_has_the_sign_of_cell_false(text):
    # Outside the band, the float value has the sign of the bound that
    # _cell_low encloses, so it picks the widths the enclosures would: on
    # cells of every width the prefix tries, from log h = 1/16 to far past
    # the prefix and around its end.
    engine = _HeightEngine(choose_parameters(1, Delta.parse(text), CTX), CTX)
    rng = random.Random(29)
    end = boundary_of_estimate(engine)
    signs = set()
    for k in range(48):
        if k % 2:
            la = Fraction(round(2 ** rng.uniform(-4, 16) * 4096), 4096)
            lb = la + Fraction(2) ** rng.randint(bounds._CELL_FLOOR, 10)
        else:  # starting 2^-12 to 16 below the end
            la = max(0, end - Fraction(round(2 ** rng.uniform(4, 20)), 2**16))
            lb = la + Fraction(2) ** rng.randint(bounds._CELL_FLOOR, 2)
        guess = engine._cell_estimate(la, lb)
        if guess is None or abs(guess) <= bounds._CELL_BAND:
            continue
        assert (guess > 0) is ((engine._cell_low(la, lb) > 0) is True), (la, lb, guess)
        signs.add(guess > 0)
    assert signs == {False, True}


@pytest.mark.parametrize("patched, claim", [
    ("_cell_floats", lambda self, la, lb: (1.0, 1.0)),
    ("_cell_estimate", lambda self, la, lb: 1.0),
], ids=["floats", "estimate"])
def test_a_positive_estimate_proves_no_cell(patched, claim, monkeypatch):
    # A float value that claims a large positive bound on every cell, with
    # the band as it is, proves none: the floor-width cell where e^2/7's
    # prefix ends stays unproved, and the prefix ends at the same height.
    delta = Delta.exp(Fraction(2, 7))
    default = RecordedSearch(delta)
    la, lb, false = default.checked[-1]
    assert false is False and lb - la == Fraction(2) ** bounds._CELL_FLOOR
    monkeypatch.setattr(_HeightEngine, patched, claim)
    engine = _HeightEngine(choose_parameters(1, delta, CTX), CTX)
    assert engine.cell_false(la, lb) is False
    assert bounds._false_prefix(engine) == default.verdicts.false_to


@pytest.mark.parametrize("lie", ["accept", "reject", "random"])
@pytest.mark.parametrize("delta", [Fraction(11, 10), Fraction(5, 4), Fraction(13, 10),
                                   Delta.exp(Fraction(2, 7))])
def test_a_lying_estimate_changes_no_height(delta, lie, monkeypatch):
    # With the band infinite, every cell goes to the enclosure tier and the
    # estimate picks no width, so one that accepts every cell, rejects every
    # cell or answers at random (and with no estimate too) changes nothing.
    # The search still proves the default run's cells and finds its H: its
    # cell checks are the default run's, with at most failed checks between
    # them.  The prefix ends only where cell_false fails at the floor width.
    expected = compute_H(1, delta, ctx=CTX)
    default = RecordedSearch(delta)
    assert default.run() == expected
    rng = random.Random(29)
    answer = {
        "accept": lambda: 1.0,
        "reject": lambda: -1.0,
        "random": lambda: rng.choice([1.0, -1.0, 0.0, None, rng.uniform(-1, 1)]),
    }[lie]
    monkeypatch.setattr(bounds, "_CELL_BAND", math.inf)
    monkeypatch.setattr(_HeightEngine, "_cell_estimate", lambda self, la, lb: answer())
    search = RecordedSearch(delta)
    assert search.run() == expected
    assert search.cells == default.cells
    assert search.verdicts.false_to == default.verdicts.false_to
    rest = search.checked
    for check in default.checked:  # in order, with only failures between
        i = rest.index(check)
        assert not any(false for _, _, false in rest[:i]), check
        rest = rest[i + 1:]
    assert not any(false for _, _, false in rest)
    la, lb, false = search.checked[-1]
    assert false is False and lb - la == Fraction(2) ** bounds._CELL_FLOOR
    assert all(false or lb - la > Fraction(2) ** bounds._CELL_FLOOR
               for la, lb, false in search.checked[:-1])


@pytest.mark.parametrize("delta", [Fraction(13, 10), Delta.exp(Fraction(2, 7))])
def test_height_is_not_the_smallest_true_height(delta):
    # The inequality is not monotone: it already holds at T_{r(H)-2} < H.
    engine = _HeightEngine(choose_parameters(1, delta, CTX), CTX)
    h = _search_height(_Verdicts(engine))
    earlier = engine.threshold(engine.r_of(h) - 2)
    assert earlier < h and engine.predicate(earlier)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 10), Fraction(1, 10**6)])
def test_no_height_below_the_lower_bound_holds(c):
    # Brute force over every height below H_lower.  At c = 1/10^6 the
    # square term of log LHS(1) sits below its minimum over h (u(1) + d log
    # j0 < 0), so LHS(1) is no lower bound; H = 57 lies far below the
    # e^15 that LHS(1) and a divisor d rho gave.
    engine = _HeightEngine(choose_parameters(c, Fraction(11, 10), CTX), CTX)
    lower = bounds._height_lower_bound(engine).lo
    assert lower > 40
    assert not any(engine.predicate(h) for h in range(1, math.ceil(lower)))


def test_small_c_height_is_above_its_lower_bound():
    rep = bounds_report(Fraction(1, 10**6), Fraction(11, 10), CTX)
    assert rep.H == 57 and rep.H_lower.hi < 57


NINE_DELTAS = ["e^1/2", "11/10", "3/2", "e^2/7", "5/4", "13/10", "e^1/4", "e^1/3", "e^7/20"]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 1000)])
def test_height_one_fails(c):
    # log LHS(1) > 0 = r d log 1: every term of log LHS(1) is positive.
    for text in NINE_DELTAS:
        engine = _HeightEngine(choose_parameters(c, Delta.parse(text), CTX), CTX)
        lo, _ = engine.log_lhs(real.Context(CTX.bits), 1, 0).endpoints()
        assert lo > 0, text


# ``ppp bounds --c 1`` stdout SHA-256 for the deltas whose search is not
# monotone near H, e^1/2 (the largest H of the nine), and e^3/10 and e^9/20
# (11086 and 10029 bits, the largest H decided at the default limits).
REPORT_SHA256 = {
    "13/10": "e0041db96519b52dea155d68353ae4b1b6513324160bb1c82cbd50b456871bef",
    "e^1/4": "a834ce0501b1c4ee7edce2bf86ec89c73a22ed3337ba2c5e5d61e9f4d8000c62",
    "e^1/3": "165924f35df3dc33ad3baff01033e998047c2659970432360394c1d1d226b69d",
    "e^7/20": "1ab0a89753c5098e04ed7c6117527127686b964dfa3c97050ffd11617eb02904",
    "e^1/2": "71669181b1e747f8ef93deb18b1828a97a9570229b5658c1fcff17d9e10789a8",
    "e^3/10": "67d02391cca084746c0316b9cc7ed976dc421f2fbd6c12e43bf127ace1c19ea1",
    "e^9/20": "7db619d2db39eeb250bee26a3a633452d47618c272ca56fb9285cd77455d4f4c",
}


@pytest.mark.parametrize("text", list(REPORT_SHA256))
def test_report_json_pinned(text):
    assert json_sha256(bounds_report(1, Delta.parse(text), CTX)) == REPORT_SHA256[text]


def test_divisor_near_zero_escalates():
    # 1 - log(delta) is below 2^-90 here: at 64 bits the degree formula
    # divided by an enclosure of 0 and the run ended with exit 2.
    delta = Fraction(27182818284590452353602874713, 10**28)
    assert degree_bound_formula(delta, PrecisionCtx(bits=64)) == degree_bound_formula(delta, CTX)
    with pytest.raises(PrecisionExhausted):
        degree_bound_formula(delta, PrecisionCtx(bits=64, max_bits=64))


def test_precision_ceiling_raises():
    # resolving H against H-1 here needs ~2^-69 resolution: undecidable at a
    # hard 64-bit ceiling
    frozen = PrecisionCtx(bits=64, max_bits=64)
    with pytest.raises(PrecisionExhausted):
        compute_H(1, Fraction(11, 10), ctx=frozen)


def test_height_scales_with_c():
    h1 = compute_H(1, Fraction(11, 10), ctx=CTX)
    h2 = compute_H(1000, Fraction(11, 10), ctx=CTX)
    assert h2 > h1


def test_report_json_shape():
    rep = bounds_report(1, Fraction(11, 10), CTX)
    d = rep.to_json_dict()
    s = json.dumps(d, sort_keys=True, separators=(",", ":"))
    back = json.loads(s)
    assert back["H"] == str(rep.H)
    assert back["J"] == str(rep.J)
    assert back["j_scan"] == {
        "cap": "4000000",
        "tail": {"theorem": ROSSER_SCHOENFELD.citation, "x0": "563"},
    }
    assert back["epsilon"]["exact"] == str(rep.params.epsilon)
    float(back["rho"]["value"])  # renders as a decimal
    assert back["degeneracy_note"] == ""
    assert json_sha256(rep) == (
        "199f12b259b4ec6681cb95e923e3deebbf6d4a32145186bad0e72bae41ef7b20"
    )
