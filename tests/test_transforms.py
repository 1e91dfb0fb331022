import decimal
import sys
import tracemalloc
from fractions import Fraction

import pytest

from conftest import direct_inverse, direct_transform, random_prefix
from ppp.arith import primorial_table
from ppp.certify import certify_primary_direct, certify_primary_hall, certify_pseudo_hall
from ppp.cli import _EXACT
from ppp.egfinv import egf_reciprocal, egf_triple
from ppp.recur import (
    GuessBudget, PolyRecurrence, apply_recurrence, guess_recurrence, verify_recurrence,
)
from ppp.transforms import (
    _BAND,
    IntSequence,
    _inverse_in_place,
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


# Length L takes L - 1 rows of the triangle: none, one, a short first
# band, exactly one or two full bands, one row into the next band, and
# many bands with a short last one
BAND_EDGES = [1, 2, _BAND - 1, _BAND, _BAND + 1, _BAND + 2, 2 * _BAND + 1, 3 * _BAND + 2, 200]


def band_edge_terms(rng, length):
    return [rng.getrandbits(rng.randint(1, 2000)) * rng.choice((1, -1))
            for _ in range(length)]


@pytest.mark.parametrize("length", BAND_EDGES)
def test_bands_match_direct_formula(rng, length):
    terms = band_edge_terms(rng, length)
    a = IntSequence.of(terms)
    assert list(binomial_transform(a).terms) == direct_transform(terms)
    assert list(inverse_binomial_transform(a).terms) == direct_inverse(terms)


@pytest.mark.parametrize("length", BAND_EDGES)
def test_inverse_in_place_on_exact_decimals(rng, length):
    # egf-invert runs the inverse on decimal integers, under a context that
    # traps any rounding; they must come out as the int results
    terms = band_edge_terms(rng, length)
    t = [decimal.Decimal(x) for x in terms]
    with decimal.localcontext(_EXACT):
        _inverse_in_place(t)
    assert all(type(x) is decimal.Decimal and str(x) == str(int(x)) for x in t)
    assert [int(x) for x in t] == direct_inverse(terms)


@pytest.mark.parametrize("terms", [
    [1, -1, 1, -1, 1, -1],
    [0] * (_BAND + 2),
    [(-1) ** n for n in range(_BAND + 2)],
], ids=["alternating-6", f"zeros-{_BAND + 2}", f"alternating-{_BAND + 2}"])
def test_inverse_in_place_prints_decimal_zeros_unsigned(terms):
    # the inverse runs the forward kernel between two sign flips of the
    # odd-indexed terms; egf-invert prints its decimals, so a zero among
    # them must come out as "0", never "-0"
    t = [decimal.Decimal(x) for x in terms]
    with decimal.localcontext(_EXACT):
        _inverse_in_place(t)
    assert all(str(x) == str(int(x)) for x in t), [str(x) for x in t]
    assert [int(x) for x in t] == direct_inverse(terms)


@pytest.mark.parametrize("transform", [binomial_transform, inverse_binomial_transform])
def test_transforms_work_in_place(rng, transform):
    # A genuine prefix: B_n = w_n P_n with seeded nonzero 20-bit w_n, and A
    # its inverse transform.  The input's ints exist before tracing starts,
    # so the peak counts the output's ints, the row's list and the band.  A
    # variant that keeps a second row or diagonal of big terms exceeds the
    # bound (a single band over the whole row peaks at about twice it).
    prim = primorial_table(1499)
    b = [prim[0]] + [rng.randrange(1, 1 << 20) * rng.choice((1, -1)) * p for p in prim[1:]]
    a = inverse_binomial_transform(IntSequence.of(b)).terms
    given = IntSequence.of(a if transform is binomial_transform else b)
    tracemalloc.start()
    try:
        out = transform(given)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    in_size = sum(sys.getsizeof(t) for t in given.terms)
    out_size = sum(sys.getsizeof(t) for t in out.terms)
    assert peak < out_size + in_size // 2, (peak, out_size, in_size)


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
