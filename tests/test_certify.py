import json
import math
from decimal import Decimal

import pytest

from conftest import direct_transform, in_threads, random_prefix
from ppp import certify
from ppp.arith import primes_up_to, primorial_table
from ppp.certify import (
    COUNTEREXAMPLE_CAP,
    CertReport,
    Counterexample,
    certify_primary_direct,
    certify_primary_hall,
    certify_pseudo_hall,
    detect_polynomial,
    growth_exponent,
    make_report,
)
from ppp.recur import PolyRecurrence, verify_recurrence
from ppp.transforms import IntSequence, inverse_binomial_transform

TRIANGULAR = IntSequence.of([n * (n + 1) // 2 for n in range(6)])


def primorial_inverse(n):
    """a_k = sum C(k,j) primorial(j): certified primary, not pseudo."""
    return inverse_binomial_transform(IntSequence.of(primorial_table(n)))


def factorial_e_like(n):
    """a_0 = 1 and a_k = floor(k! e) for k >= 1; its transform is k!."""
    return inverse_binomial_transform(IntSequence.of([math.factorial(k) for k in range(n + 1)]))


def test_direct_refutes_triangular():
    rep = certify_primary_direct(TRIANGULAR)
    assert rep.verdict == "refuted"
    assert rep.counterexamples[0] == Counterexample(0, 2, 3)


def test_hall_refutes_triangular():
    rep = certify_primary_hall(TRIANGULAR)
    assert not rep.certified
    assert rep.counterexamples[0] == Counterexample(2, 2, 1)


def test_primorial_inverse_is_primary_but_not_pseudo():
    a = primorial_inverse(5)
    assert a.terms == (1, 2, 5, 16, 47, 146)
    assert certify_primary_direct(a).verdict == "certified-up-to-5"
    assert certify_primary_hall(a).certified
    pseudo = certify_pseudo_hall(a)
    assert not pseudo.certified
    assert pseudo.counterexamples[0] == Counterexample(4, 12, 6)


def test_constant_certified_everywhere():
    c = IntSequence.of([7] * 12)
    assert certify_primary_direct(c).certified
    assert certify_primary_hall(c).certified
    assert certify_pseudo_hall(c).certified


def test_factorial_sequence_certified_pseudo():
    a = factorial_e_like(12)
    assert a[0] == 1 and a[4] == 65  # floor(4! e)
    assert certify_pseudo_hall(a).certified
    assert certify_primary_hall(a).certified


def test_direct_and_hall_agree_on_random_prefixes(rng):
    for _ in range(300):
        a = random_prefix(rng, max_len=28, bits=24)
        assert certify_primary_direct(a).certified == certify_primary_hall(a).certified


def test_direct_and_hall_agree_on_near_misses(rng):
    # multiples of the primorial with a single corrupted entry
    prims = primorial_table(16)
    for _ in range(100):
        b = [prims[k] * rng.randint(-3, 3) for k in range(17)]
        if rng.random() < 0.7:
            b[rng.randrange(17)] += rng.randint(1, 5)
        a = inverse_binomial_transform(IntSequence.of(b))
        assert certify_primary_direct(a).certified == certify_primary_hall(a).certified


def test_pseudo_certified_implies_primary_certified(rng):
    # lcm multiples are also primorial multiples
    from ppp.arith import lcm_table

    lcms = lcm_table(14)
    for _ in range(40):
        b = [lcms[k] * rng.randint(-4, 4) for k in range(15)]
        a = inverse_binomial_transform(IntSequence.of(b))
        if certify_pseudo_hall(a).certified:
            assert certify_primary_hall(a).certified


def test_counterexamples_recheck_and_are_sorted(rng):
    for _ in range(60):
        a = random_prefix(rng, max_len=24, bits=16)
        for rep in (certify_primary_direct(a), certify_primary_hall(a),
                    certify_pseudo_hall(a)):
            keys = [(c.n, c.modulus) for c in rep.counterexamples]
            assert keys == sorted(keys)
            assert all(c.recheck() for c in rep.counterexamples)


def test_counterexample_cap():
    bad = IntSequence.of([2**n for n in range(120)])  # fails almost every (n, p)
    rep = certify_primary_direct(bad)
    assert not rep.certified
    assert len(rep.counterexamples) == 100
    assert rep.truncated


def direct_reference(a):
    """Every failing (n, p), sorted and capped: the definition, unoptimised."""
    top = len(a) - 1
    bad = [
        Counterexample(n, p, a[n + p] - a[n])
        for p in primes_up_to(top).primes
        for n in range(top - p + 1)
        if (a[n + p] - a[n]) % p
    ]
    return make_report("primary-direct", top, bad)


def test_direct_matches_brute_force_reference(rng):
    # Lengths 300-700 give p = 2 alone about 150-350 failures and span
    # several prime groups; the short ones stay under the cap.
    cases = [random_prefix(rng, max_len=24, bits=16) for _ in range(20)]
    for length in (300, 451, 700):
        cases.append(IntSequence.of([rng.getrandbits(500) - (1 << 499) for _ in range(length)]))
    cases.append(primorial_inverse(400))
    cases.append(IntSequence.of([2**n for n in range(300)]))
    for a in cases:
        assert certify_primary_direct(a) == direct_reference(a)


def only_two_fails(failures, length=160):
    """a_n = L f(n) with L the product of the odd primes < length: every odd
    prime holds, and p = 2 fails exactly at n = 0 .. failures-1."""
    odd = 1
    for p in primes_up_to(length - 1).primes[1:]:
        odd *= p
    f = [0, 0]
    for n in range(length - 2):
        f.append(f[n] ^ (n < failures))
    return IntSequence.of([odd * v for v in f])


@pytest.mark.parametrize("failures", [COUNTEREXAMPLE_CAP, COUNTEREXAMPLE_CAP + 1])
def test_direct_truncated_at_the_cap_boundary(failures):
    a = only_two_fails(failures)
    rep = certify_primary_direct(a)
    assert rep == direct_reference(a)
    assert [(c.n, c.modulus) for c in rep.counterexamples] == [(n, 2) for n in range(100)]
    assert rep.truncated == (failures > COUNTEREXAMPLE_CAP)


def capped_oracle(subject, top, every, cap):
    """The report on a prefix whose failures are ``every``: all of them
    sorted by (n, modulus), the first ``cap`` kept."""
    every = sorted(every, key=lambda c: (c.n, c.modulus))
    return CertReport(not every, top, tuple(every[:cap]), len(every) > cap, subject)


def every_failure(a, subject):
    """Each failing (n, modulus) of one certifier, by its definition."""
    top = len(a) - 1
    if subject == "primary-direct":
        return [Counterexample(n, p, a[n + p] - a[n])
                for p in primes_up_to(top).primes
                for n in range(top - p + 1) if (a[n + p] - a[n]) % p]
    b = direct_transform(a.terms)
    mods = [math.prod(primes_up_to(n).primes) if subject == "primary-hall"
            else math.lcm(*range(1, n + 1)) for n in range(top + 1)]
    return [Counterexample(n, m, b[n]) for n, m in enumerate(mods) if b[n] % m]


@pytest.mark.parametrize("cap", [3, COUNTEREXAMPLE_CAP])
def test_bounded_certifiers_match_the_oracle(monkeypatch, rng, cap):
    # The certifiers keep only COUNTEREXAMPLE_CAP + 1 failures while they
    # scan; the report must be the one built from every failure.
    monkeypatch.setattr(certify, "COUNTEREXAMPLE_CAP", cap)
    near_miss = list(primorial_inverse(80).terms)
    for n in (7, 30, 31, 64):
        near_miss[n] += 1
    cases = [IntSequence.of(near_miss), TRIANGULAR]
    for failures in (cap, cap + 1):  # primary-hall fails at n = 2 .. failures + 1
        b = [p + (2 <= n <= failures + 1) for n, p in enumerate(primorial_table(120))]
        cases.append(inverse_binomial_transform(IntSequence.of(b)))
    cases += [IntSequence.of([rng.getrandbits(64) for _ in range(length)])
              for length in (2, 9, 40, 250)]
    certifiers = [("primary-direct", certify_primary_direct),
                  ("primary-hall", certify_primary_hall),
                  ("pseudo-hall", certify_pseudo_hall)]
    for a in cases:
        for subject, certifier in certifiers:
            expected = capped_oracle(subject, len(a) - 1, every_failure(a, subject), cap)
            assert certifier(a) == expected, (subject, len(a))
    # verify_recurrence: a_{n+1} - a_n = 0 fails exactly where a steps up
    constant = PolyRecurrence(((-1,), (1,)))
    for failures in (cap, cap + 1):
        steps = set(rng.sample(range(3 * cap), failures))
        a = IntSequence.of([sum(k < n for k in steps) for n in range(3 * cap + 1)])
        every = [Counterexample(n, 0, a[n + 1] - a[n]) for n in range(3 * cap) if n in steps]
        expected = capped_oracle("recurrence", 3 * cap, every, cap)
        assert verify_recurrence(a, constant) == expected, failures


def test_report_json_round_trip():
    rep = certify_primary_hall(TRIANGULAR)
    d = rep.to_json_dict()
    s = json.dumps(d, sort_keys=True)
    back = json.loads(s)
    assert back["verdict"] == "refuted"
    assert back["counterexamples"][0] == {"n": "2", "modulus": "2", "witness": "1"}


def test_verdict_text_carries_prefix_bound():
    rep = certify_primary_direct(IntSequence.of([1] * 9))
    assert rep.verdict == "certified-up-to-8"
    assert "0..8" in rep.describe()


def test_detect_polynomial_triangular():
    a = IntSequence.of([n * (n + 1) // 2 for n in range(10)])
    det = detect_polynomial(a, 5)
    assert det.is_eventually_polynomial
    assert det.m == 2
    assert det.poly == ((1, 1), (2, 1))


def test_detect_polynomial_negative_and_constant():
    assert not detect_polynomial(primorial_inverse(5), 3).is_eventually_polynomial
    det = detect_polynomial(IntSequence.of([4] * 8), 3)
    assert det.is_eventually_polynomial and det.m == 0 and det.poly == ((0, 4),)


def test_detect_polynomial_reproduces_prefix(rng):
    # random polynomial in the binomial basis, degree <= 4
    from math import comb

    coeffs = [rng.randint(-9, 9) for _ in range(5)]
    coeffs[4] = coeffs[4] or 1
    a = IntSequence.of(
        [sum(c * comb(n, k) for k, c in enumerate(coeffs)) for n in range(14)]
    )
    det = detect_polynomial(a, 6)
    assert det.is_eventually_polynomial and det.m == 4
    for n in range(14):
        assert sum(b * math.comb(n, k) for k, b in det.poly) == a[n]


def test_detect_polynomial_tail_bound():
    with pytest.raises(ValueError):
        detect_polynomial(IntSequence.of([1, 2, 3]), 3)


def test_growth_exponent_powers_of_two():
    a = IntSequence.of([2**n for n in range(65)])
    g = growth_exponent(a)
    assert abs(g.last - Decimal(math.log(2))) < Decimal("1e-9")
    assert abs(g.tail_max - Decimal(math.log(2))) < Decimal("1e-9")


def test_growth_exponent_primorials():
    a = IntSequence.of(primorial_table(1000))
    g = growth_exponent(a)
    assert abs(g.last - 1) < Decimal("0.1")


def test_growth_exponent_alike_in_threads():
    # growth_exponent computes in a private mpmath context: under tight
    # thread switching every estimate equals the single-threaded one, and
    # mpmath's global precision is left as it was.
    seqs = [IntSequence.of([3**n for n in range(40)]), IntSequence.of(primorial_table(500))]
    want = [growth_exponent(a) for a in seqs]

    def estimate(out):
        for _ in range(30):
            out.extend(growth_exponent(a) for a in seqs)

    assert all(out == want * 30 for out in in_threads(estimate))


def test_growth_exponent_errors():
    with pytest.raises(ValueError):
        growth_exponent(IntSequence.of([1, 2, 3]))
    with pytest.raises(ValueError):
        growth_exponent(IntSequence.of([0] * 20))


def test_detected_polynomial_agrees_with_divisibility(rng):
    # a polynomial in the binomial basis with primorial-multiple coefficients
    # is both detected and certified; a unit coefficient at index >= 2 breaks
    # certification but not detection
    import math as _math

    prims = primorial_table(6)
    good = [prims[k] * rng.randint(1, 4) for k in range(5)]
    a = IntSequence.of(
        [sum(c * _math.comb(n, k) for k, c in enumerate(good)) for n in range(16)]
    )
    assert detect_polynomial(a, 6).is_eventually_polynomial
    assert certify_primary_hall(a).certified

    bad = list(good)
    bad[3] = 1  # not a multiple of primorial(3) = 6
    b = IntSequence.of(
        [sum(c * _math.comb(n, k) for k, c in enumerate(bad)) for n in range(16)]
    )
    assert detect_polynomial(b, 6).is_eventually_polynomial
    assert not certify_primary_hall(b).certified
    assert not certify_primary_direct(b).certified


def test_growth_exponent_respects_offset():
    a = IntSequence.of([3**n for n in range(10, 40)], offset=10)
    g = growth_exponent(a)
    assert abs(g.last - Decimal(math.log(3))) < Decimal("1e-9")
