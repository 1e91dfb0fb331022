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
    _decide_floor,
    _iv_frac,
    _iv_int,
    _ivc,
    _lt,
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


def test_j_matches_brute_force():
    eps = Fraction(1, 2)
    cap = 3000
    j = compute_J(eps, CTX, cap=cap)
    prim = primorial_table(cap)
    with mpmath.workdps(60):
        base = mpmath.e - mpmath.mpf(eps.numerator) / eps.denominator
        violations = [
            k for k in range(1, cap + 1) if mpmath.log(prim[k - 1]) < k * mpmath.log(base)
        ]
    assert j == max(violations)


def test_j_stability_under_doubled_cap():
    eps = Fraction(1, 5)
    assert compute_J(eps, CTX, cap=100_000) == compute_J(eps, CTX, cap=200_000)


def test_j_monotone_in_epsilon():
    caps = dict(cap=50_000)
    js = [compute_J(Fraction(num, 10), CTX, **caps) for num in (2, 4, 8, 15)]
    assert js == sorted(js, reverse=True)


def test_j_cap_exceeded_for_tiny_epsilon():
    with pytest.raises(CapExceeded):
        compute_J(Fraction(1, 10**6), CTX, cap=2000)


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
    assert rep.predicate_false_at == rep.H - 1
    assert Fraction(rep.H) >= rep.H_lower.hi
    assert rep.deg_bound_formula == 0
    assert rep.deg_bound_construction == 0
    assert rep.order_bound == math.floor(
        mpmath.log(rep.H) / mpmath.log(mpmath.mpf(11) / 10)
    )
    assert rep.diag_H_upper is not None and Fraction(rep.H) <= rep.diag_H_upper.lo


def test_r_threshold_matches_floor_route():
    # The 5/4 search crosses the r jump at k = 679; the 11/10 search none.
    params = choose_parameters(1, Fraction(5, 4), CTX)
    engine = _HeightEngine(params, CTX)
    _search_height(engine)
    assert set(engine._thresholds) == {679}
    k, t = 679, engine._thresholds[679]
    ivc = _ivc(2 * t.bit_length())
    jump = ivc.exp(_iv_frac(ivc, Fraction(k) / params.rho))
    assert _lt(_iv_int(ivc, t - 1), jump) is True
    assert _lt(jump, _iv_int(ivc, t)) is True
    for h, r in ((t - 1, k), (t, k + 1), (t + 1, k + 1)):
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
        "c0d3b9871a736112c4005f0bc6a3fa55de22fda0f2e0eddef7c2959c0a583124"
    )


def test_report_json_pinned_for_five_quarters():
    rep = bounds_report(1, Fraction(5, 4), CTX)
    assert json_sha256(rep) == (
        "7f339a5a3475fde225759a2321a9b81f321f6c1041075bb42dcc1425395382be"
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


def test_search_cap_message_names_only_powers_of_two():
    tiny_cap = PrecisionCtx(h_cap_log2=16)
    engine = _HeightEngine(choose_parameters(1, Fraction(11, 10), tiny_cap), tiny_cap)
    tested = []
    predicate = engine.predicate
    engine.predicate = lambda h: tested.append(h) or predicate(h)
    with pytest.raises(SearchExceeded) as err:
        _search_height(engine)
    assert tested == [1] + [2**k for k in range(1, 17)]
    assert str(err.value).startswith(
        "no power of two h = 2^k with k <= 16 satisfies the inequality"
    )
    assert "2^16" in str(err.value)


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
    assert back["epsilon"]["exact"] == str(rep.epsilon)
    float(back["rho"]["value"])  # renders as a decimal
    assert back["degeneracy_note"] == ""
    assert json_sha256(rep) == (
        "f0ad26d3fa86ad76fffe99cc9adc53eea8cbacc1092461af4b2fc4acbe586c3a"
    )
