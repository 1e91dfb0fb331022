"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts.  Tolerances are pinned here and nowhere else.
"""
import functools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

from conftest import e_bracket, random_prefix
from ppp.arith import lcm_table, primorial_table, primes_up_to
from ppp.bounds import (
    Delta,
    PrecisionCtx,
    bounds_report,
    degree_bound_formula,
    phi_upper_bound,
)
from ppp.certify import (
    certify_primary_direct,
    certify_primary_hall,
    certify_pseudo_hall,
    growth_exponent,
)
from ppp.construct import construct_genuine, phi_geometric, phi_primorial
from ppp.egfinv import egf_triple
from ppp.recur import GuessBudget, PolyRecurrence, apply_recurrence, guess_recurrence
from ppp.transforms import (
    IntSequence,
    binomial_transform,
    inverse_binomial_transform,
)


def criterion(num, text):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {text}", file=sys.stderr)
                raise
            print(f"ACCEPTANCE {num}: PASS - {text}")
        return run
    return wrap


@criterion(1, "transform roundtrip, 1000 random 128-bit prefixes")
def test_criterion_1_roundtrip():
    rng = random.Random(1)
    for _ in range(1000):
        a = random_prefix(rng, max_len=64, bits=128)
        assert inverse_binomial_transform(binomial_transform(a)).terms == a.terms
        assert binomial_transform(inverse_binomial_transform(a)).terms == a.terms


@criterion(2, "direct and transform certifiers agree; crafted suite behaves")
def test_criterion_2_certifier_equivalence():
    rng = random.Random(2)
    for _ in range(1000):
        a = random_prefix(rng, max_len=48, bits=rng.choice((8, 32, 128)))
        assert certify_primary_direct(a).certified == certify_primary_hall(a).certified

    tri = IntSequence.of([n * (n + 1) // 2 for n in range(12)])
    assert not certify_primary_direct(tri).certified
    assert not certify_primary_hall(tri).certified

    dseq = inverse_binomial_transform(IntSequence.of(primorial_table(12)))
    assert certify_primary_direct(dseq).certified
    assert certify_primary_hall(dseq).certified
    pseudo = certify_pseudo_hall(dseq)
    assert not pseudo.certified
    first = pseudo.counterexamples[0]
    assert (first.n, first.modulus, first.witness) == (4, 12, 6)
    assert lcm_table(4)[4] == 12 and primorial_table(4)[4] == 6

    fact = inverse_binomial_transform(
        IntSequence.of([math.factorial(k) for k in range(12)])
    )
    assert fact[0] == 1 and fact[3] == math.floor(math.factorial(3) * math.e)
    assert certify_pseudo_hall(fact).certified


@criterion(3, "e-sequence: recurrence extension matches both exact oracles; guess recovers it")
def test_criterion_3_e_pipeline():
    e_rec = PolyRecurrence(((2, 1), (-4, -1), (1,)))
    ext = apply_recurrence(e_rec, IntSequence.of([2, 5]), 200)
    e_lo, e_hi = e_bracket(300)
    for n in range(201):
        binom_sum = sum(
            math.comb(n + 1, k) * math.factorial(k) for k in range(n + 2)
        )
        assert ext[n] == binom_sum
        fac = math.factorial(n + 1)
        lo_floor = (fac * e_lo.numerator) // e_lo.denominator
        hi_floor = (fac * e_hi.numerator) // e_hi.denominator
        assert lo_floor == hi_floor, "e bracket too wide to certify the floor"
        assert ext[n] == lo_floor

    guessed = guess_recurrence(
        IntSequence.of(ext.terms[:40]), GuessBudget(4, 4)
    )
    assert guessed == e_rec


@criterion(4, "constructed sequences: sandwich, nonzero witnesses, certifiers, growth")
def test_criterion_4_constructor():
    targets = [
        ("primorial", phi_primorial()),
        ("geometric-2.718282", phi_geometric(Fraction(2718282, 10**6))),
        ("geometric-3", phi_geometric(Fraction(3))),
    ]
    prim = primorial_table(300)
    for name, phi in targets:
        a, b, _ = construct_genuine(phi, 300)
        for n in range(301):
            target = phi(n)
            assert target <= a[n] <= target + 2 * prim[n], (name, n)
            assert b[n] != 0 and b[n] % prim[n] == 0, (name, n)
        assert certify_primary_direct(a).certified, name
        assert certify_primary_hall(a).certified, name

    a, _, _ = construct_genuine(phi_primorial(), 300)
    g = growth_exponent(a)
    assert abs(g.last - 1) <= Decimal("0.1")


@criterion(5, "reciprocal-EGF construction: exact values, 1/e asymptotics, primality")
def test_criterion_5_egf():
    t = egf_triple(IntSequence.of(range(1, 52)))
    for n in range(51):
        assert t.u[n] == sum(
            (-1) ** k * math.comb(n, k) * math.factorial(k) for k in range(n + 1)
        )

    ratio = Fraction(abs(t.u[20]), math.factorial(20))
    e_lo, e_hi = e_bracket(300)
    # |ratio - 1/e| < 1e-15, certified with exact rationals (30+ digit margin)
    assert abs(ratio - 1 / e_hi) < Fraction(1, 10**15)
    assert abs(ratio - 1 / e_lo) < Fraction(1, 10**15)

    rng = random.Random(5)
    prims = primorial_table(200)
    primes = primes_up_to(200).primes
    for _ in range(100):
        b = [1] + [
            prims[k] * rng.choice((1, -1)) * rng.randint(1, 256)
            for k in range(1, 201)
        ]
        a = inverse_binomial_transform(IntSequence.of(b))
        triple = egf_triple(a)
        assert certify_primary_direct(triple.u).certified
        for n in range(201):
            for p in primes:
                if p > n:
                    break
                assert triple.c[n] % p == 0


@criterion(6, "effective-bound pipeline: degree bounds, bump, strict margins, minimal H")
def test_criterion_6_bounds():
    ctx = PrecisionCtx()
    assert degree_bound_formula(Delta.exp(Fraction(1, 2)), ctx) == 3
    assert degree_bound_formula(Fraction(11, 10), ctx) == 0

    rep = bounds_report(1, Delta.exp(Fraction(1, 2)), ctx)
    p, printed = rep.params, rep.to_json_dict()
    assert p.formula_d == 4 and p.d == 5
    assert printed["degeneracy_note"] != ""
    # rho sits strictly inside the verified interval and satisfies the
    # quadratic constraint exactly (ell = 1/2 is exact here)
    ell = Fraction(1, 2)
    q = ell**2 * p.rho**2 + (2 * ell - p.d * (1 - ell)) * p.rho + 1
    assert q < 0 and p.rho * ell <= 1
    assert p.rho_interval[0].hi < p.rho < p.rho_interval[1].lo
    # epsilon came from halving and satisfies the strict margin at adverse
    # rounding (re-asserted inside bounds_report; repeat the halving shape)
    assert p.epsilon > 0
    # the predicate fails at H-1, and H is above the certified lower bound
    assert printed["H_predicate_false_at"] == str(rep.H - 1)
    assert Fraction(rep.H) >= rep.H_lower.hi

    # majorant domination at 20 random parameter points
    rng = random.Random(6)
    prim = primorial_table(201)
    for _ in range(20):
        d_exp = rng.randint(1, 3)
        x = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        delta = Fraction(rng.randint(11, 25), 10)
        eps = Fraction(rng.randint(10, 20), 100)
        enc = phi_upper_bound(d_exp, x, delta, eps, ctx)
        prod = Fraction(1)
        for j in range(1, 201):
            prod *= 1 + x * j**d_exp * delta**j / prim[j - 1]
        assert enc.hi >= prod and enc.lo >= 1


@criterion(7, "negative control: no recurrence found for primorial-type prefixes")
def test_criterion_7_negative_control():
    prims = IntSequence.of(primorial_table(59))
    assert guess_recurrence(prims, GuessBudget(4, 4)) is None
    constructed, _, _ = construct_genuine(phi_primorial(), 59)
    assert guess_recurrence(constructed, GuessBudget(4, 4)) is None


@criterion(8, "growth diagnostics for the two reference sequences")
def test_criterion_8_growth():
    dseq = inverse_binomial_transform(IntSequence.of(primorial_table(400)))
    g = growth_exponent(dseq)
    log_1_plus_e = Decimal(str(math.log(1 + math.e)))
    assert abs(g.last - log_1_plus_e) <= Decimal("0.1")

    prims = IntSequence.of(primorial_table(1000))
    gp = growth_exponent(prims)
    assert abs(gp.last - 1) <= Decimal("0.1")
