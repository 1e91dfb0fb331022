import io
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import e_bracket
from ppp import cli, egfinv
from ppp.arith import primes_up_to, primorial_table
from ppp.certify import certify_primary_direct
from ppp.egfinv import _BLOCK, _middle_product, egf_reciprocal, egf_triple, u_over_factorial
from ppp.transforms import IntSequence, inverse_binomial_transform


def test_reciprocal_of_one():
    assert egf_reciprocal(IntSequence.of([1, 0, 0, 0])).terms == (1, 0, 0, 0)


def test_reciprocal_of_one_plus_x():
    # EGF 1 + x inverts to the alternating factorials
    c = egf_reciprocal(IntSequence.of([1, 1, 0, 0, 0]))
    assert c.terms == (1, -1, 2, -6, 24)


def test_reciprocal_is_involution(rng):
    for _ in range(40):
        n = rng.randint(1, 24)
        b = IntSequence.of([1] + [rng.randint(-50, 50) for _ in range(n)])
        assert egf_reciprocal(egf_reciprocal(b)).terms == b.terms


def test_reciprocal_requires_unit_constant():
    with pytest.raises(ValueError):
        egf_reciprocal(IntSequence.of([2, 1]))


def test_convolution_identity(rng):
    for _ in range(20):
        n = rng.randint(1, 20)
        b = IntSequence.of([1] + [rng.randint(-9, 9) for _ in range(n)])
        c = egf_reciprocal(b)
        for m in range(1, n + 1):
            assert sum(math.comb(m, k) * b[k] * c[m - k] for k in range(m + 1)) == 0


def plain_reciprocal(b):
    """The convolution recursion c_n = -sum_k C(n,k) b_k c_{n-k}, term by term."""
    c = [1]
    for n in range(1, len(b)):
        c.append(-sum(math.comb(n, k) * b[k] * c[n - k] for k in range(1, n + 1)))
    return tuple(c)


def signed_with_zeros(rng, length):
    return [1] + [rng.choice((0, rng.randint(-2**40, 2**40))) for _ in range(length - 1)]


S = _BLOCK


@pytest.mark.parametrize("length", [1, S - 1, S, S + 1, 2 * S, 3 * S + 5, 300])
def test_reciprocal_matches_the_plain_recursion(rng, length):
    b = signed_with_zeros(rng, length)
    assert egf_reciprocal(IntSequence.of(b)).terms == plain_reciprocal(b)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_reciprocal_matches_the_plain_recursion_at_any_block_width(rng, monkeypatch, width):
    monkeypatch.setattr(egfinv, "_BLOCK", width)
    for length in (1, width, width + 1, 3 * width + 2, 45):
        b = signed_with_zeros(rng, length)
        assert egf_reciprocal(IntSequence.of(b)).terms == plain_reciprocal(b)


@pytest.mark.parametrize("m", range(1, 2 * S + 1))
def test_middle_product_matches_the_double_sum(rng, m):
    a = [rng.randint(-2**70, 2**70) for _ in range(m)]
    b = [rng.randint(-2**70, 2**70) for _ in range(2 * m - 1)]
    want = [sum(a[x] * b[y + m - 1 - x] for x in range(m)) for y in range(m)]
    assert _middle_product(a, b) == want


def test_corrupt_tile_scale_trips_the_exact_division(monkeypatch, capsys):
    # A tile scaled by C(M,J) + 1 breaks the identity that makes the division
    # by M!/n! exact; the CLI reports the internal error with exit 3.
    monkeypatch.setattr(egfinv, "comb", lambda n, k: math.comb(n, k) + 1)
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{k * k + 1}\n" for k in range(S + 2))))
    assert cli.main(["egf-invert"]) == cli.EXIT_INTERNAL
    assert "internal: the tiles of c_" in capsys.readouterr().err


def test_triple_for_constant_sequence():
    t = egf_triple(IntSequence.of([1] * 10))
    assert t.u.terms == tuple([1] * 10)


def test_triple_for_linear_sequence():
    t = egf_triple(IntSequence.of([1, 2, 3, 4, 5]))
    assert t.u.terms == (1, 0, 1, -2, 9)
    # closed form u_n = sum (-1)^k C(n,k) k!
    for n in range(5):
        assert t.u[n] == sum((-1) ** k * math.comb(n, k) * math.factorial(k) for k in range(n + 1))


def test_triple_requires_unit_start():
    with pytest.raises(ValueError):
        egf_triple(IntSequence.of([2, 5, 16]))


def test_prime_divisibility_of_c(rng):
    prims = primorial_table(60)
    b = [1] + [prims[k] * rng.randint(-9, 9) for k in range(1, 61)]
    a = inverse_binomial_transform(IntSequence.of(b))
    t = egf_triple(a)
    primes = primes_up_to(60).primes
    for n in range(61):
        for p in primes:
            if p <= n:
                assert t.c[n] % p == 0


def test_output_is_primary(rng):
    prims = primorial_table(30)
    for _ in range(10):
        b = [1] + [prims[k] * rng.randint(-5, 5) for k in range(1, 31)]
        a = inverse_binomial_transform(IntSequence.of(b))
        t = egf_triple(a)
        assert certify_primary_direct(t.u).certified


def test_constructed_input_is_accepted():
    # the growth constructor emits a_0 = 1, a valid input here
    from ppp.construct import construct_genuine, phi_primorial

    a, _, _ = construct_genuine(phi_primorial(), 40)
    t = egf_triple(a)
    assert certify_primary_direct(t.u).certified


def test_u_over_factorial_examples():
    assert u_over_factorial(IntSequence.of([1, 0, 1]))[2] == Decimal("0.5")
    ones = u_over_factorial(IntSequence.of([1] * 6))
    assert ones[0] == 1 and ones[1] == 1 and ones[2] == Decimal("0.5")
    t = egf_triple(IntSequence.of(range(1, 12)))
    r10 = u_over_factorial(t.u, 20)[10]
    assert r10 > 0  # even index: positive
    assert abs(r10 - Decimal("0.36787944117144232160")) < Decimal("1e-7")


def test_u20_ratio_close_to_inverse_e():
    t = egf_triple(IntSequence.of(range(1, 22)))
    ratio = Fraction(abs(t.u[20]), math.factorial(20))
    lo, hi = e_bracket()
    inv_e_lo, inv_e_hi = 1 / hi, 1 / lo
    assert abs(ratio - inv_e_lo) < Fraction(1, 10**15)
    assert abs(ratio - inv_e_hi) < Fraction(1, 10**15)


def test_json_dict():
    t = egf_triple(IntSequence.of([1, 2, 3]))
    d = t.to_json_dict()
    assert d["b"] == ["1", "1", "0"]
    assert d["c"] == ["1", "-1", "2"]
