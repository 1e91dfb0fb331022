from fractions import Fraction

import pytest

from conftest import direct_inverse, direct_transform, random_prefix
from ppp.arith import primorial_table
from ppp.certify import certify_primary_direct, certify_primary_hall, certify_pseudo_hall
from ppp.egfinv import egf_reciprocal, egf_triple
from ppp.recur import (
    GuessBudget, PolyRecurrence, apply_recurrence, guess_recurrence, verify_recurrence,
)
from ppp.transforms import (
    IntSequence,
    binomial_transform,
    inverse_binomial_transform,
    ogf_of,
    substitute_check,
)


def test_transform_examples():
    assert binomial_transform(IntSequence.of([1, 1, 1, 1])).terms == (1, 0, 0, 0)
    tri = IntSequence.of([0, 1, 3, 6, 10])
    assert binomial_transform(tri).terms == (0, 1, 1, 0, 0)
    assert binomial_transform(IntSequence.of([1, 2, 5, 16, 65])).terms == (1, 1, 2, 6, 24)


def test_inverse_examples():
    assert inverse_binomial_transform(IntSequence.of([1, 0, 0, 0])).terms == (1, 1, 1, 1)
    prim = IntSequence.of(primorial_table(5))
    assert inverse_binomial_transform(prim).terms == (1, 2, 5, 16, 47, 146)


def test_triangle_matches_direct_formula(rng):
    for _ in range(50):
        a = random_prefix(rng, max_len=24, bits=64)
        assert list(binomial_transform(a).terms) == direct_transform(a.terms)
        assert list(inverse_binomial_transform(a).terms) == direct_inverse(a.terms)


def test_roundtrip_both_ways(rng):
    for _ in range(200):
        a = random_prefix(rng, max_len=48)
        assert inverse_binomial_transform(binomial_transform(a)).terms == a.terms
        assert binomial_transform(inverse_binomial_transform(a)).terms == a.terms


def test_linearity(rng):
    for _ in range(25):
        n = rng.randint(2, 20)
        a = IntSequence.of([rng.randint(-999, 999) for _ in range(n)])
        b = IntSequence.of([rng.randint(-999, 999) for _ in range(n)])
        alpha, beta = rng.randint(-9, 9), rng.randint(-9, 9)
        combo = IntSequence.of([alpha * x + beta * y for x, y in zip(a.terms, b.terms)])
        ta, tb = binomial_transform(a), binomial_transform(b)
        assert binomial_transform(combo).terms == tuple(
            alpha * x + beta * y for x, y in zip(ta.terms, tb.terms)
        )


@pytest.mark.parametrize("terms, offset", [
    ([2.9, True, Fraction(7, 2)], 0),
    ([True, 2], 0),
    ([Fraction(4)], 0),
    ([1, 2.0], 0),
    ([1, 2], True),
    ([1, 2], 1.0),
    ([1, 2], Fraction(1)),
])
def test_sequence_refuses_what_json_int_refuses(terms, offset):
    # no truncation (2.9 -> 2) and no coercion (True -> 1), in .of or directly
    with pytest.raises(TypeError):
        IntSequence.of(terms, offset)
    with pytest.raises(TypeError):
        IntSequence(tuple(terms), offset)


def test_offset_rejected():
    shifted = IntSequence.of([1, 2, 3], offset=1)
    with pytest.raises(ValueError):
        binomial_transform(shifted)
    with pytest.raises(ValueError):
        inverse_binomial_transform(shifted)


REC = PolyRecurrence(((-1,), (1,)))  # a_{n+1} = a_n

ENTRY_POINTS = {
    "primary-direct": certify_primary_direct,
    "primary-hall": certify_primary_hall,
    "pseudo-hall": certify_pseudo_hall,
    "egf_reciprocal": egf_reciprocal,
    "egf_triple": egf_triple,
    "verify_recurrence": lambda a: verify_recurrence(a, REC),
    "apply_recurrence": lambda a: apply_recurrence(REC, a, 40),
    "guess_recurrence": lambda a: guess_recurrence(a, GuessBudget(1, 1)),
}


@pytest.mark.parametrize("operation", ENTRY_POINTS)
def test_offset_rejected_by_every_entry_point(operation):
    # each would accept the same terms at offset 0
    with pytest.raises(ValueError, match=rf"^{operation} requires offset 0 \(got 1\)"):
        ENTRY_POINTS[operation](IntSequence.of([1] * 30, offset=1))


def test_ogf_examples():
    s = ogf_of(IntSequence.of([1, 1, 1]))
    assert s.coeffs == (Fraction(1), Fraction(1), Fraction(1))
    assert s.order == 2
    assert ogf_of(IntSequence.of([0, 1, 3])).coeffs == (0, 1, 3)
    assert ogf_of(IntSequence.of([2, 5, 16])).coeffs == (2, 5, 16)
    # nonzero offset pads with zeros
    assert ogf_of(IntSequence.of([7, 8], offset=2)).coeffs == (0, 0, 7, 8)


def test_substitute_check_examples():
    ones = IntSequence.of([1] * 9)
    delta0 = IntSequence.of([1] + [0] * 8)
    assert substitute_check(ones, delta0, 8)
    tri = IntSequence.of([0, 1, 3, 6, 10])
    assert substitute_check(tri, binomial_transform(tri), 4)
    perturbed = IntSequence.of([0, 1, 2, 0, 0])
    assert not substitute_check(tri, perturbed, 4)


def test_substitute_check_is_transform_identity(rng):
    for _ in range(40):
        a = random_prefix(rng, max_len=20, bits=32)
        b = binomial_transform(a)
        order = rng.randrange(len(a))
        assert substitute_check(a, b, order)


def test_substitute_check_short_prefix_error():
    a = IntSequence.of([1, 2])
    with pytest.raises(ValueError):
        substitute_check(a, a, 5)
