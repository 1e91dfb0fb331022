import math
from fractions import Fraction

import pytest

from ppp.recur import (
    _FILTER_PRIME,
    GuessBudget,
    LeadingZeroError,
    NonIntegralError,
    PolyRecurrence,
    _candidate,
    _filter_rows,
    _independent_prefix,
    apply_recurrence,
    guess_recurrence,
    verify_recurrence,
)
from ppp.arith import primorial_table
from ppp.construct import construct_genuine, phi_primorial
from ppp.transforms import IntSequence

# e_{n+2} = (n+4) e_{n+1} - (n+2) e_n, canonically normalized
E_REC = PolyRecurrence(((2, 1), (-4, -1), (1,)))


def e_prefix(n_max):
    return apply_recurrence(E_REC, IntSequence.of([2, 5]), n_max)


def shifted_factorial_sum(n):
    # e_n = sum_{k<=n+1} C(n+1,k) k!
    return sum(math.comb(n + 1, k) * math.factorial(k) for k in range(n + 2))


def test_apply_matches_known_values():
    ext = e_prefix(10)
    assert ext.terms == (2, 5, 16, 65, 326, 1957, 13700, 109601, 986410,
                         9864101, 108505112)


def test_apply_constant_recurrence():
    rec = PolyRecurrence(((-1,), (1,)))  # a_{n+1} = a_n
    assert apply_recurrence(rec, IntSequence.of([7]), 3).terms == (7, 7, 7, 7)


def test_apply_leading_zero():
    # leading polynomial X - 3 vanishes at n = 3
    rec = PolyRecurrence(((1,), (-3, 1)))
    with pytest.raises(LeadingZeroError) as info:
        apply_recurrence(rec, IntSequence.of([6]), 10)
    assert info.value.n == 3


def test_apply_non_integral():
    rec = PolyRecurrence(((-1,), (2,)))  # 2 a_{n+1} = a_n
    with pytest.raises(NonIntegralError) as info:
        apply_recurrence(rec, IntSequence.of([7]), 4)
    assert info.value.n == 0


def test_apply_needs_enough_initial_terms():
    with pytest.raises(ValueError):
        apply_recurrence(E_REC, IntSequence.of([2]), 10)


def test_apply_rejects_a_negative_n_max():
    # terms[: n_max + 1] would slice from the end and drop terms
    with pytest.raises(ValueError, match="^n_max must be a natural number$"):
        apply_recurrence(E_REC, e_prefix(4), -3)


def test_verify_certifies_e_recurrence():
    assert verify_recurrence(e_prefix(40), E_REC).certified


def test_verify_catches_corruption():
    terms = list(e_prefix(40).terms)
    terms[17] += 1
    rep = verify_recurrence(IntSequence.of(terms), E_REC)
    assert not rep.certified
    failing = {c.n for c in rep.counterexamples}
    # index 17 participates in equations n = 15, 16, 17
    assert failing == {15, 16, 17}
    assert all(c.modulus == 0 and c.witness != 0 for c in rep.counterexamples)


def test_verify_constant():
    rec = PolyRecurrence(((-1,), (1,)))
    assert verify_recurrence(IntSequence.of([5] * 8), rec).certified


def test_normalization_canonical_form():
    messy = PolyRecurrence.normalized([(4, 2), (-8, -2), (2, 0, 0)])
    assert messy.polys == ((2, 1), (-4, -1), (1,))
    # idempotent
    assert PolyRecurrence.normalized(messy.polys) == messy
    # sign flip lands on the same form
    flipped = PolyRecurrence.normalized([(-4, -2), (8, 2), (-2,)])
    assert flipped == messy


def test_normalization_rejects_zero():
    with pytest.raises(ValueError):
        PolyRecurrence.normalized([(0, 0), (0,)])


def _integerize(vec):
    # the former two-step route: divide by the gcd, then normalize
    den = math.lcm(*(f.denominator for f in vec)) if vec else 1
    ints = [int(f * den) for f in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return [x // g for x in ints] if g else ints


def _candidate_from_vector(vec, s, d):
    polys = [tuple(vec[j * (d + 1) : (j + 1) * (d + 1)]) for j in range(s + 1)]
    if all(all(c == 0 for c in p) for p in polys):
        return None
    return PolyRecurrence.normalized(polys)


def test_candidate_matches_the_integerize_route(rng):
    seen = set()
    for _ in range(600):
        s, d = rng.randint(0, 3), rng.randint(0, 3)
        width = (s + 1) * (d + 1)
        vec = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) if rng.random() < 0.7
               else Fraction(0) for _ in range(width)]
        if rng.random() < 0.3:  # trailing zero polynomials
            cut = rng.randint(1, width)
            vec[cut:] = [Fraction(0)] * (width - cut)
        if rng.random() < 0.3:  # a common factor
            k = Fraction(rng.choice((-1, 1)) * rng.randint(2, 30), rng.randint(1, 5))
            vec = [k * f for f in vec]
        if not any(vec):
            continue
        expected = _candidate_from_vector(_integerize(vec), s, d)
        assert _candidate(vec, s, d) == expected, (vec, s, d)
        last = next(f for f in reversed(vec) if f)
        seen.add((last < 0, vec[-1] == 0, expected.order < s))
    # negative and positive leading coefficients, with and without trailing
    # zeros and dropped zero polynomials
    assert seen >= {(True, True, True), (False, True, True), (True, False, False),
                    (False, False, False)}


def test_guess_first_order_linear():
    a = IntSequence.of(range(1, 40))  # a_n = n + 1
    rec = guess_recurrence(a, GuessBudget(1, 1))
    assert rec == PolyRecurrence(((-2, -1), (1, 1)))
    assert verify_recurrence(a, rec).certified


def test_guess_recovers_e_recurrence():
    rec = guess_recurrence(e_prefix(39), GuessBudget(4, 4))
    assert rec == E_REC


def test_guess_scaling_invariance():
    a = e_prefix(39)
    doubled = IntSequence.of([2 * t for t in a.terms])
    assert guess_recurrence(doubled, GuessBudget(4, 4)) == guess_recurrence(a, GuessBudget(4, 4))


def test_guess_full_prefix_soundness(rng):
    # random C-finite-style inputs: the guess must verify everywhere
    for _ in range(10):
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        terms = [rng.randint(-9, 9), rng.randint(-9, 9)]
        for _ in range(38):
            terms.append(x * terms[-1] + y * terms[-2])
        rec = guess_recurrence(IntSequence.of(terms), GuessBudget(3, 2))
        if rec is not None:
            assert verify_recurrence(IntSequence.of(terms), rec).certified


def test_guess_negative_control_primorials():
    a = IntSequence.of(primorial_table(59))
    assert guess_recurrence(a, GuessBudget(4, 4)) is None


def test_guess_negative_control_constructed():
    a, _, _ = construct_genuine(phi_primorial(), 59)
    assert guess_recurrence(a, GuessBudget(4, 4)) is None


def apery_numbers(length):
    return [
        sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))
        for n in range(length)
    ]


# (n+1)^3 a_n - (2n+3)(17n^2+51n+39) a_{n+1} + (n+2)^3 a_{n+2} = 0
APERY_REC = PolyRecurrence(((1, 3, 3, 1), (-117, -231, -153, -34), (8, 12, 6, 1)))


def cell_has_full_rank_mod_p(terms, s, d, nrows):
    """Per-cell reference: the cell's own order-major matrix, full rank mod p."""
    p = _FILTER_PRIME
    ncols = (s + 1) * (d + 1)
    mat = [
        [terms[n + j] * n**i % p for j in range(s + 1) for i in range(d + 1)]
        for n in range(nrows)
    ]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col] * inv % p
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank == ncols


def test_independent_prefix_matches_per_cell_rank(rng):
    s_max = d_max = 4
    length = 45
    sequences = {
        "random": [rng.getrandbits(200) - (1 << 199) for _ in range(length)],
        "primorials": primorial_table(length - 1),
        "factorials": [math.factorial(n) for n in range(length)],
        "scaled apery": [12345 * t for t in apery_numbers(length)],
    }
    not_skipped = set()
    for name, terms in sequences.items():
        residues = [t % _FILTER_PRIME for t in terms]
        for s in range(s_max + 1):
            nrows = length - s - 10
            rows = _filter_rows(residues, s, d_max, nrows)
            lead = _independent_prefix(rows, (s + 1) * (d_max + 1))
            for d in range(d_max + 1):
                skip = (s + 1) * (d + 1) <= lead
                assert skip == cell_has_full_rank_mod_p(terms, s, d, nrows), (name, s, d)
                if not skip:
                    not_skipped.add((name, s, d))
    # the known recurrences keep their cells (and every larger one) open
    assert ("factorials", 1, 1) in not_skipped and ("factorials", 1, 0) not in not_skipped
    assert ("scaled apery", 2, 3) in not_skipped and ("scaled apery", 2, 2) not in not_skipped
    assert not any(name in ("random", "primorials") for name, _, _ in not_skipped)


def test_guess_finds_recurrences_below_the_degree_budget():
    factorials = IntSequence.of([math.factorial(n) for n in range(40)])
    assert guess_recurrence(factorials, GuessBudget(3, 3)) == PolyRecurrence(((-1, -1), (1,)))
    apery = IntSequence.of([7 * t for t in apery_numbers(60)])
    assert guess_recurrence(apery, GuessBudget(3, 4)) == APERY_REC


def test_budget_infeasible():
    with pytest.raises(ValueError):
        guess_recurrence(IntSequence.of(range(10)), GuessBudget(4, 4))


def test_roundtrip_guess_apply_matches_oracles():
    rec = guess_recurrence(e_prefix(39), GuessBudget(4, 4))
    ext = apply_recurrence(rec, IntSequence.of([2, 5]), 200)
    for n in range(201):
        assert ext[n] == shifted_factorial_sum(n)


def test_json_round_trip():
    d = E_REC.to_json_dict()
    assert d == {"order": 2, "polys": [["2", "1"], ["-4", "-1"], ["1"]]}
    assert PolyRecurrence.from_json_dict(d) == E_REC
    with pytest.raises(ValueError):
        PolyRecurrence.from_json_dict({"order": 1, "polys": [["1"]]})
