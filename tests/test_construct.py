import hashlib
import math
from fractions import Fraction

import pytest

from ppp.arith import primorial_table
from ppp.certify import certify_primary_direct, certify_primary_hall
from ppp.construct import (
    ceil_div_rational,
    construct_genuine,
    phi_geometric,
    phi_primorial,
    phi_table,
)
from ppp.transforms import inverse_binomial_transform


def test_ceil_div_examples():
    assert ceil_div_rational(Fraction(7), 2) == 4
    assert ceil_div_rational(Fraction(-1), 2) == 0
    assert ceil_div_rational(Fraction(3, 2), 1) == 2
    with pytest.raises(ValueError):
        ceil_div_rational(Fraction(1), 0)


def test_ceil_div_rejects_floats():
    with pytest.raises(TypeError):
        ceil_div_rational(1.5, 2)


def test_constant_phi_hand_trace():
    a, b, trace = construct_genuine(lambda n: Fraction(1), 2)
    assert a.terms == (1, 2, 1)
    assert b.terms == (1, 1, -2)
    s1, s2 = trace.steps[1], trace.steps[2]
    assert (s1.c, s1.u, s1.v, s1.w) == (1, 1, 0, 1)
    assert (s2.c, s2.u, s2.v, s2.w) == (3, 1, 1, -1)


def test_first_term_is_always_one():
    for phi in (phi_primorial(), phi_geometric(Fraction(3)), lambda n: Fraction(1)):
        a, b, _ = construct_genuine(phi, 5)
        assert a[0] == 1 and b[0] == 1


@pytest.mark.parametrize(
    "phi",
    [phi_primorial(), phi_geometric(Fraction(2718282, 10**6)), phi_geometric(Fraction(3))],
    ids=["primorial", "geometric-e-ish", "geometric-3"],
)
def test_sandwich_and_witnesses(phi):
    n_max = 60
    a, b, trace = construct_genuine(phi, n_max)
    prim = primorial_table(n_max)
    for n in range(n_max + 1):
        target = phi(n)
        assert target <= a[n] <= target + 2 * prim[n]
        assert b[n] != 0 and b[n] % prim[n] == 0
    assert inverse_binomial_transform(b).terms == a.terms
    assert certify_primary_direct(a).certified
    assert certify_primary_hall(a).certified


def test_trace_consistency():
    _, _, trace = construct_genuine(phi_primorial(), 40)
    prim = primorial_table(40)
    for st in trace.steps:
        assert st.c == st.u * prim[st.n] + st.v
        assert 0 <= st.v < prim[st.n]
        assert st.b == st.w * prim[st.n] and st.w != 0
        assert st.a == st.b + st.c


def _sha(seq) -> str:
    return hashlib.sha256("\n".join(map(str, seq.terms)).encode()).hexdigest()


@pytest.mark.parametrize(
    "phi, a_sha, b_sha",
    [
        (
            phi_primorial(),
            "68b5fe7fcc0ff25d2638fc853f2ace951169585ad0834fb73ae25b3afbdf33f8",
            "da858183b4587d5813dd907417825984b6a58e5e57fd47cf486204a471340158",
        ),
        (
            phi_geometric(Fraction(2718282, 10**6)),
            "6efd75da8ce6f039ce84b07a095630e985c8423626fa2feecccc502849b135f5",
            "8c5f48670c8e180d70947ab128c9f9d6d5d3c30ece29ba266ed47c356a897e95",
        ),
    ],
    ids=["primorial", "geometric-e-ish"],
)
def test_golden_terms_at_1000(phi, a_sha, b_sha):
    # Pinned output: any rewrite of the recursion must reproduce it exactly.
    a, b, _ = construct_genuine(phi, 1000)
    assert (_sha(a), _sha(b)) == (a_sha, b_sha)


@pytest.mark.parametrize(
    "phi",
    [phi_primorial(), phi_geometric(Fraction(2718282, 10**6))],
    ids=["primorial", "geometric-e-ish"],
)
def test_trace_c_is_the_binomial_sum(phi):
    # math.comb, independent of both arith.binomial_row and the diagonal.
    _, b, trace = construct_genuine(phi, 120)
    for st in trace.steps:
        n = st.n
        assert st.c == sum(math.comb(n, k) * b[k] for k in range(n))
        assert st.a == st.c + st.b


def test_determinism():
    r1 = construct_genuine(phi_geometric(Fraction(5, 2)), 50)
    r2 = construct_genuine(phi_geometric(Fraction(5, 2)), 50)
    assert r1[0].terms == r2[0].terms
    assert r1[1].terms == r2[1].terms
    assert r1[2] == r2[2]


def test_phi_zero_must_be_one():
    with pytest.raises(ValueError):
        construct_genuine(lambda n: Fraction(2), 3)
    with pytest.raises(ValueError):
        construct_genuine(phi_table([Fraction(3), Fraction(1)]), 1)


def test_float_phi_rejected():
    with pytest.raises(TypeError):
        construct_genuine(lambda n: 1.0, 3)


def test_phi_table_preset():
    vals = [Fraction(1), Fraction(10), Fraction(100)]
    a, _, _ = construct_genuine(phi_table(vals), 2)
    prim = primorial_table(2)
    for n in range(3):
        assert vals[n] <= a[n] <= vals[n] + 2 * prim[n]
    with pytest.raises(ValueError):
        construct_genuine(phi_table(vals), 5)
