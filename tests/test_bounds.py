import bisect
import hashlib
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from ppp import cli
from ppp.arith import primorial_table
from ppp.bounds import (
    _HeightEngine,
    _Verdicts,
    _decide_floor,
    _iv_frac,
    _iv_int,
    _ivc,
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
)

CTX = PrecisionCtx()


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
    assert compute_J(Fraction(3, 2), CTX, cap=5000) <= 9


def brute_force_J(eps, cap):
    """Largest j <= cap with log primorial(j-1) < j log(e - eps), every j tested."""
    prim = primorial_table(cap)
    with mpmath.workdps(60):
        base = mpmath.e - mpmath.mpf(eps.numerator) / eps.denominator
        violations = [
            k for k in range(1, cap + 1) if mpmath.log(prim[k - 1]) < k * mpmath.log(base)
        ]
    return max(violations)


# 2999 and 3001 are prime: the last candidate is then a prime, not the cap.
@pytest.mark.parametrize("eps, cap", [
    (Fraction(1, 2), 2999), (Fraction(1, 2), 3000), (Fraction(1, 5), 3001),
], ids=["half-2999", "half-3000", "fifth-3001"])
def test_j_matches_brute_force(eps, cap):
    assert compute_J(eps, CTX, cap=cap) == brute_force_J(eps, cap)


def test_j_stability_under_doubled_cap():
    eps = Fraction(1, 5)
    assert compute_J(eps, CTX, cap=100_000) == compute_J(eps, CTX, cap=200_000)


def test_j_monotone_in_epsilon():
    caps = dict(cap=50_000)
    js = [compute_J(Fraction(num, 10), CTX, **caps) for num in (2, 4, 8, 15)]
    assert js == sorted(js, reverse=True)


@pytest.mark.parametrize("cap", [2000, 1999])  # 1999 is prime
def test_j_cap_exceeded_for_tiny_epsilon(cap):
    eps = Fraction(1, 10**6)
    with pytest.raises(CapExceeded, match=f"at j={brute_force_J(eps, cap)} "):
        compute_J(eps, CTX, cap=cap)


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
    _search_height(engine)
    assert 679 in engine._thresholds
    k, t = 679, engine._thresholds[679]
    ivc = _ivc(2 * t.bit_length())
    jump = ivc.exp(_iv_frac(ivc, Fraction(k) / params.rho))
    assert (_iv_int(ivc, t - 1) < jump) is True
    assert (jump < _iv_int(ivc, t)) is True
    for h, r in ((1, 1), (2, 2), (t - 1, k), (t, k + 1), (t + 1, k + 1)):
        floor_route = _decide_floor(
            CTX, lambda c: _iv_frac(c, params.rho) * c.log(_iv_int(c, h))
        ) + 1
        assert engine.r_of(h) == floor_route == r


def test_height_pinned_for_e_two_sevenths():
    rep = bounds_report(1, Delta.exp(Fraction(2, 7)), CTX)
    assert rep.H.bit_length() == 3845
    assert hashlib.sha256(str(rep.H).encode()).hexdigest() == (
        "26e3c7bbacfb7bc7f4cc9373478401ce0988bb7fc845ee918b9a0c7dbcbdf25e"
    )
    assert json_sha256(rep) == (
        "44b73a1b23d81792066bff29eb64bb261c5db0407537fbeaca9c2ae44a65d761"
    )


def test_report_json_pinned_for_five_quarters():
    rep = bounds_report(1, Fraction(5, 4), CTX)
    assert json_sha256(rep) == (
        "47b26d0f67d2be0f3b85520096519b8977ba72e0d7d26b2d1a96932c186a80ef"
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


class RecordedSearch:
    """One ``_search_height`` run that records every exact predicate call,
    the number of cell checks, every cell (in log h) proved false and every
    ``(h, verdict)`` used."""

    def __init__(self, delta, ctx=CTX):
        self.engine = _HeightEngine(choose_parameters(1, delta, ctx), ctx)
        self.predicate, cell_false = self.engine.predicate, self.engine.cell_false
        self.evaluated, self.cells, self.used = [], [], []
        self.cell_checks = 0
        self.engine.predicate = lambda h: self.evaluated.append(h) or self.predicate(h)

        def record_cell(la, lb):
            self.cell_checks += 1
            false = cell_false(la, lb)
            if false:
                self.cells.append((la, lb))
            return false

        self.engine.cell_false = record_cell
        self.verdicts = _Verdicts(self.engine)

    def holds(self, h):
        verdict = self.verdicts(h)
        self.used.append((h, verdict))
        return verdict

    def run(self):
        return _search_height(self.engine, self.holds)


def test_search_cap_message_names_only_powers_of_two():
    tiny_cap = PrecisionCtx(h_cap_log2=16)
    search = RecordedSearch(Fraction(11, 10), tiny_cap)
    with pytest.raises(SearchExceeded) as err:
        search.run()
    assert search.used == [(2**k, False) for k in range(1, 17)]
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
    assert (h - 1, False) in search.used
    assert not search.predicate(h - 1) and search.predicate(h)


@pytest.mark.parametrize("delta", [Fraction(11, 10), Fraction(5, 4)])
def test_every_verdict_the_search_used_is_exact(delta):
    search = RecordedSearch(delta)
    search.run()
    assert len(search.used) > 100
    for h, verdict in search.used:
        assert search.predicate(h) is verdict, h


@pytest.mark.parametrize("delta", [Fraction(11, 10), Fraction(13, 10)])
def test_heights_in_excluded_cells_fail(delta):
    search = RecordedSearch(delta)
    search.run()
    cells = search.cells
    assert len(cells) > 20
    rng = random.Random(11)
    drawn = 0
    with mpmath.workprec(search.verdicts.false_to.bit_length() + 64):
        while drawn < 200:
            la, lb = rng.choice(cells)
            L = la + (lb - la) * Fraction(rng.random())
            h = max(1, int(mpmath.floor(mpmath.exp(mpmath.mpf(L.numerator) / L.denominator))))
            # cell ends are dyadic, so these mpf are exact
            if not mpmath.mpf(la.numerator) / la.denominator <= mpmath.log(h) \
                    <= mpmath.mpf(lb.numerator) / lb.denominator:
                continue  # no integer near this point of the cell
            assert h <= search.verdicts.false_to
            assert search.predicate(h) is False, h
            drawn += 1


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
    assert (verdicts.true_from, verdicts.past_to) == (100, 0)
    assert verdicts.engine.evaluated == [100, 150]
    verdicts = _Verdicts(small_engine((100, 150)))
    assert verdicts(180) is False  # ... and the true heights end below 180
    assert (verdicts.true_from, verdicts.past_to) == (math.inf, 200)
    # Where T_{r-1} fails, neither answer proves anything about other heights.
    verdicts = _Verdicts(small_engine((120, 150)))
    assert verdicts(150) is True and verdicts(130) is True
    assert (verdicts.true_from, verdicts.past_to) == (math.inf, 0)
    verdicts = _Verdicts(small_engine((120, 150)))
    assert verdicts(180) is False
    assert (verdicts.true_from, verdicts.past_to) == (math.inf, 0)


def test_false_height_placed_by_the_slope_sign():
    # Where f_r falls, every larger height of the run fails too; where it
    # rises (or the test is undecided), a false height records nothing.
    for falls_from in (160, 181):
        verdicts = _Verdicts(small_engine((120, 150), falls_from))
        assert verdicts(180) is False
        assert verdicts.past_to == (200 if falls_from <= 180 else 0)
    # A T_{r-1} that fails where f_r falls decides the whole run unevaluated.
    verdicts = _Verdicts(small_engine((2, 1), falls_from=100))
    assert verdicts(180) is False and verdicts.past_to == 200
    assert verdicts.engine.evaluated == [100]


def test_verdicts_match_plain_search_on_random_runs():
    # A reference for the verdict layer: on 300 random arrangements of runs
    # and true intervals, the search answered from facts finds the height
    # that plain doubling and bisection on the predicate finds, and every
    # verdict it used is exact.
    outcomes = set()
    for seed in range(300):
        engine = FakeEngine.random(seed)
        try:
            expected = _search_height(engine, engine.holds)
        except SearchExceeded:
            expected = None
        verdicts, used = _Verdicts(engine), []

        def holds(h):
            used.append((h, verdicts(h)))
            return used[-1][1]

        try:
            found = _search_height(engine, holds)
        except SearchExceeded:
            found = None
        assert found == expected, seed
        assert all(engine.holds(h) is verdict for h, verdict in used), seed
        outcomes.add(expected is None)
    assert outcomes == {False, True}


def test_falls_stays_false_where_the_slope_is_undecided():
    # At 64 bits the sign of f_r' stays open on a band of heights around the
    # top of f_r.  The first height where falls turns True lies past that
    # band, so a 1024-bit evaluation proves the fall there too.
    params = choose_parameters(1, Fraction(11, 10), CTX)
    low = _HeightEngine(params, PrecisionCtx(bits=64))
    high = _HeightEngine(params, PrecisionCtx(bits=1024))
    r = _HeightEngine(params, CTX).r_of(247688789395926825625299)  # r(H)
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
    h_found = _search_height(engine)
    ivc, d, step = _ivc(CTX.bits), engine.params.d, Fraction(1, 2**20)
    seen = set()
    for k in range(2, 3 * h_found.bit_length(), max(1, h_found.bit_length() // 40)):
        h = 2**k
        r = engine.r_of(h)
        falls = engine.falls(r, h)
        logh = engine._log_h(CTX.bits, h)

        def f(shift):  # f_r(log h + shift) for this fixed r
            L = logh + _iv_frac(ivc, shift)
            return r * d * L - engine.log_lhs(CTX.bits, r, L)

        rise = f(-step) < f(step)
        if rise is not None:
            assert not (falls and rise), k
            seen.add(falls)
    assert True in seen


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


@pytest.mark.parametrize("delta", [Fraction(13, 10), Fraction(5, 4)])
def test_no_cell_around_a_true_height_is_excluded(delta):
    engine = _HeightEngine(choose_parameters(1, delta, CTX), CTX)
    h = _search_height(engine)
    true_heights = [h, h + 1, engine.threshold(engine.r_of(h) - 2)]
    with mpmath.workprec(h.bit_length() + 64):
        for t in true_heights:
            if not engine.predicate(t):
                continue
            log_t = mpmath.log(t)
            for k in range(-12, 4):
                width = Fraction(2) ** k
                for part in range(4):  # t sits at 0, 1/4, 1/2, 3/4 of the cell
                    start = log_t - mpmath.mpf(width.numerator) / width.denominator * part / 4
                    la = Fraction(int(mpmath.floor(start * 2**16)), 2**16)
                    assert engine.cell_false(la, la + width) is False, (t, k, part)


def test_height_search_on_e_two_sevenths_evaluates_few_heights():
    search = RecordedSearch(Delta.exp(Fraction(2, 7)))
    h = search.run()
    assert h.bit_length() == 3845
    assert len(search.evaluated) <= 60  # the bisection alone asks 7689 heights
    assert len(search.used) == 7689
    assert search.cell_checks <= 350  # failed checks included


@pytest.mark.parametrize("delta", [Fraction(13, 10), Delta.exp(Fraction(2, 7))])
def test_height_is_not_the_smallest_true_height(delta):
    # The inequality is not monotone: it already holds at T_{r(H)-2} < H.
    engine = _HeightEngine(choose_parameters(1, delta, CTX), CTX)
    h = _search_height(engine)
    earlier = engine.threshold(engine.r_of(h) - 2)
    assert earlier < h and engine.predicate(earlier)


NINE_DELTAS = ["e^1/2", "11/10", "3/2", "e^2/7", "5/4", "13/10", "e^1/4", "e^1/3", "e^7/20"]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 1000)])
def test_height_one_fails(c):
    # log LHS(1) > 0 = r d log 1: every term of log LHS(1) is positive.
    for text in NINE_DELTAS:
        engine = _HeightEngine(choose_parameters(c, Delta.parse(text), CTX), CTX)
        lo, _ = engine.log_lhs(CTX.bits, 1, 0)._mpi_
        assert mpmath.mpf(lo) > 0, text


# ``ppp bounds --c 1`` stdout SHA-256 for the deltas whose search is not
# monotone near H (and e^1/2, the largest H of the nine).
REPORT_SHA256 = {
    "13/10": "cf7def760607fbc21bbcf9ea0d58473b7fc50987ef1348369c6a5852b4fbdb6d",
    "e^1/4": "baa67d072b17a940c045259542dbbdbecfd33dbd65f1f034a8ac6a0b57c12ea6",
    "e^1/3": "fe2249cfce7ceef53d08176e6b9e75a68db0b80322babf29567023c6332b6aab",
    "e^7/20": "8f87224059fc2eb983848d66bd07a797b3fec485669903193273ac58ca605cb5",
    "e^1/2": "636e490e8bfcb79483dcb061bb713f199b338b17fbe353e29069320fe699e4d0",
}


@pytest.mark.parametrize("text", list(REPORT_SHA256))
def test_report_json_pinned(text):
    assert json_sha256(bounds_report(1, Delta.parse(text), CTX)) == REPORT_SHA256[text]


def test_predicate_takes_log_h_once_at_working_precision():
    engine = _HeightEngine(choose_parameters(1, Fraction(11, 10), CTX), CTX)
    h = compute_H(1, Fraction(11, 10), ctx=CTX)
    calls = []
    log_h = engine._log_h
    engine._log_h = lambda bits, x: calls.append(bits) or log_h(bits, x)
    assert engine.predicate(h) is True
    assert calls == [CTX.bits]


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
    assert back["j_scan"]["pnt_heuristic"] is True
    assert back["epsilon"]["exact"] == str(rep.params.epsilon)
    float(back["rho"]["value"])  # renders as a decimal
    assert back["degeneracy_note"] == ""
    assert json_sha256(rep) == (
        "38928243b7e50a155c48fee3f6f19d219300adfb9d8b4bc1dc75f7b00633083f"
    )
