import math
import sys
import threading

import pytest

from ppp import arith
from ppp.arith import (
    SIEVE_LIMIT_CAP,
    binomial,
    binomial_row,
    lcm_table,
    lcm_to,
    lucas_binomial_mod,
    prime_segments,
    primes_up_to,
    primorial,
    primorial_table,
)


def trial_division_primes(n):
    out = []
    for k in range(2, n + 1):
        if all(k % d for d in range(2, int(k**0.5) + 1)):
            out.append(k)
    return out


def reference_sieve(n):
    """A plain sieve of Eratosthenes over 0..n, independent of ``ppp.arith``."""
    flags = [k >= 2 for k in range(n + 1)]
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, n + 1, p))
    return [k for k, prime in enumerate(flags) if prime]


def test_primes_examples():
    assert primes_up_to(1).primes == ()
    assert primes_up_to(10).primes == (2, 3, 5, 7)
    assert primes_up_to(30).primes[-1] == 29


def test_primes_against_trial_division():
    assert list(primes_up_to(2000).primes) == trial_division_primes(2000)


def test_primes_table_invariants():
    t = primes_up_to(500)
    assert list(t.primes) == sorted(set(t.primes))
    assert t.limit == 500


@pytest.mark.parametrize("n", [8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122])
def test_primes_at_the_recursion_edges(n):
    # prime_segments takes base primes from primes_up_to(isqrt(n)) from
    # n = 9 on, and each square of a prime adds one
    assert list(primes_up_to(n).primes) == trial_division_primes(n)


def test_primes_up_to_four_million():
    assert len(primes_up_to(4 * 10**6).primes) == 283146


def test_sieve_cap():
    with pytest.raises(ValueError):
        primes_up_to(SIEVE_LIMIT_CAP + 1)
    for n in (-1, SIEVE_LIMIT_CAP + 1):
        with pytest.raises(ValueError):
            list(prime_segments(n))


@pytest.mark.parametrize("size", [1, 2, 3, 64, 1 << 17])
def test_prime_segments_match_the_sieve(size, monkeypatch):
    # window edges fall on primes, squares of primes and the limit itself
    monkeypatch.setattr(arith, "_SEGMENT", size)
    for n in (*range(12), 25, 49, 121, 5000, 8 * size + 1):
        segments = list(prime_segments(n))
        assert all(segments)
        assert [p for s in segments for p in s] == reference_sieve(n)


def test_primorial_examples():
    assert primorial(0) == 1
    assert primorial(1) == 1
    assert primorial(5) == 30
    assert primorial(30) == 6469693230


def test_primorial_is_product_of_primes():
    for n in (0, 1, 7, 50, 97):
        prod = 1
        for p in primes_up_to(n).primes:
            prod *= p
        assert primorial(n) == prod


def test_negative_table_sizes_rejected():
    for fn in (primorial_table, lcm_table, primorial, lcm_to):
        with pytest.raises(ValueError):
            fn(-3)


def test_concurrent_table_extension():
    # Threads building the tables at once must each get exactly the tables
    # one thread would have built.
    n, workers = 3000, 8
    pset = set(primes_up_to(n).primes)
    expected_prims, p = [1], 1
    for k in range(1, n + 1):
        if k in pset:
            p *= k
        expected_prims.append(p)
    expected_prims = tuple(expected_prims)
    expected_lcm = math.lcm(*range(1, n + 1))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            barrier = threading.Barrier(workers)
            results = [None] * workers

            def work(i):
                barrier.wait(timeout=30)
                results[i] = (primorial_table(n), lcm_to(n))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [(expected_prims, expected_lcm)] * workers
    finally:
        sys.setswitchinterval(old_interval)


def test_lcm_examples():
    assert lcm_to(0) == 1
    assert lcm_to(2) == 2
    assert lcm_to(6) == 60


def test_lcm_against_iterated_lcm():
    acc = 1
    for n in range(1, 300):
        acc = math.lcm(acc, n)
        assert lcm_to(n) == acc


def test_primorial_divides_lcm_up_to_1000():
    prims = primorial_table(1000)
    lcms = lcm_table(1000)
    for n in range(1001):
        assert lcms[n] % prims[n] == 0
    # and the reverse fails for every n >= 4
    for n in range(4, 1001):
        assert prims[n] % lcms[n] != 0


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(12, 0) == 1
    assert binomial(7, 9) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_row_matches_single_queries():
    for n in range(0, 40):
        assert binomial_row(n) == [binomial(n, k) for k in range(n + 1)]


def test_lucas_matches_binomial_exhaustively():
    for p in (2, 3, 5, 7, 11):
        for n in range(201):
            row = binomial_row(n)
            for k in range(201):
                expected = row[k] % p if k <= n else 0
                assert lucas_binomial_mod(n, k, p) == expected


def test_lucas_examples():
    assert lucas_binomial_mod(7, 2, 3) == 0  # C(7,2)=21
    for p in (2, 3, 5, 7):
        for k in range(1, p):
            assert lucas_binomial_mod(p, k, p) == 0
        assert lucas_binomial_mod(p, p, p) == 1
    assert lucas_binomial_mod(9, 9, 3) == 1


def test_lucas_rejects_composite_modulus():
    with pytest.raises(ValueError):
        lucas_binomial_mod(10, 4, 6)


def test_primorial_log_growth_band():
    # Chebyshev-range sanity: log(primorial(n))/n stays in [0.8, 1.2]
    primes = primes_up_to(10_000).primes
    log_p = 0.0
    it = iter(primes)
    nxt = next(it)
    for n in range(2, 10_001):
        if nxt is not None and n == nxt:
            log_p += math.log(n)
            nxt = next(it, None)
        if n >= 100:
            assert 0.8 <= log_p / n <= 1.2, n
