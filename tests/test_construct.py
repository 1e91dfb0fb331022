import hashlib
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from ppp.arith import primorial, primorial_table
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


def test_ceil_div_matches_math_ceil_on_seeded_rationals():
    rng = random.Random(21)
    divisors = [1, 2, 3, 7, 30, 10**6 + 3, primorial(100)]
    for _ in range(400):
        num = rng.getrandbits(rng.randrange(1, 10_000)) * rng.choice((1, -1))
        q = Fraction(num, rng.getrandbits(rng.randrange(1, 200)) or 1)
        m = rng.choice(divisors + [rng.randrange(1, primorial(100))])
        assert ceil_div_rational(q, m) == math.ceil(q / m)
    assert ceil_div_rational(Fraction(-7, 3), 1) == -2
    assert ceil_div_rational(-7, 3) == -2


@pytest.mark.parametrize(
    "m", [2.0, Fraction(2), "2", True, False],
    ids=["float", "fraction", "str", "true", "false"],
)
def test_ceil_div_rejects_a_divisor_that_is_not_an_int(m):
    with pytest.raises(TypeError):
        ceil_div_rational(Fraction(1, 3), m)


@pytest.mark.parametrize("m", [0, -1, -primorial(30)])
def test_ceil_div_rejects_a_divisor_that_is_not_positive(m):
    with pytest.raises(ValueError):
        ceil_div_rational(Fraction(1, 3), m)


def test_growth_presets_reject_floats():
    with pytest.raises(TypeError):
        phi_geometric(2.7)
    with pytest.raises(TypeError):
        phi_table([1, 0.1])
    with pytest.raises(ValueError):
        phi_geometric(Fraction(-1, 2))


def _orders(n_max: int, seed: int) -> dict[str, list[int]]:
    shuffled = list(range(n_max + 1)) * 2
    random.Random(seed).shuffle(shuffled)
    return {
        "ascending": list(range(n_max + 1)),
        "repeated": [n for n in range(n_max + 1) for _ in range(3)],
        "descending": list(range(n_max, -1, -1)),
        "random": shuffled,
    }


DELTA = Fraction(2718282, 10**6)
# (the preset, its values at 0..200)
PRESETS = {
    "geometric": (lambda: phi_geometric(DELTA), [DELTA**n for n in range(201)]),
    "primorial": (phi_primorial, primorial_table(200)),
}


@pytest.mark.parametrize("preset", PRESETS)
def test_geometric_preset_in_any_call_order(preset):
    make, expected = PRESETS[preset]
    for name, order in _orders(200, seed=21).items():
        phi = make()
        for n in order:
            assert phi(n) == expected[n], (name, n)


@pytest.mark.parametrize("preset", PRESETS)
def test_geometric_preset_shared_by_threads(preset):
    make, expected = PRESETS[preset]
    phi = make()
    wrong: list[tuple[int, int]] = []

    def worker(seed: int) -> None:
        for order in _orders(120, seed).values():
            for n in order:
                if phi(n) != expected[n]:
                    wrong.append((seed, n))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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
