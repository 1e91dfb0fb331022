import random
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest

from ppp.transforms import IntSequence


def direct_transform(terms):
    """Per-term alternating binomial sum; the independent oracle."""
    return [
        sum((-1) ** (n - k) * comb(n, k) * terms[k] for k in range(n + 1))
        for n in range(len(terms))
    ]


def direct_inverse(terms):
    return [
        sum(comb(n, k) * terms[k] for k in range(n + 1))
        for n in range(len(terms))
    ]


def random_prefix(rng: random.Random, max_len=64, bits=128) -> IntSequence:
    length = rng.randint(2, max_len)
    terms = [rng.getrandbits(bits) * rng.choice((1, -1)) for _ in range(length)]
    return IntSequence.of(terms)


def in_threads(work, count=8):
    """Run ``work(out)`` in ``count`` threads under a 1 us switch interval
    and return each thread's list ``out``.

    mpmath's global precision is set to 53 bits around the run and must
    still be 53 after it: code that changes it shows, whatever an earlier
    test left there.
    """
    results = [[] for _ in range(count)]
    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    switch = sys.getswitchinterval()
    with mpmath.workprec(53):
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert mpmath.mp.prec == 53
    assert not any(t.is_alive() for t in threads)
    return results


def e_bracket(k=300):
    """Exact rationals lo < e < hi with gap 2/(k+1)!."""
    partial = sum(Fraction(1, factorial(i)) for i in range(k + 1))
    return partial, partial + Fraction(2, factorial(k + 1))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
