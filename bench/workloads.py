"""Seeded workloads for the ppp benchmark: the jobs to run and how to check them.

A job is one ``python -m ppp.cli`` command with its standard input.  Each
checker gets ``(exit_code, stdout, stderr)`` and raises :class:`Failed` when
the command did not complete as expected, or :class:`Wrong` when it printed a
wrong answer.  Inputs and expected values are computed here from first
principles (own sieve, own difference table), never by calling ``ppp``.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

class Failed(Exception):
    """The command exited with an unexpected code; counted in failed_ops."""


class Wrong(Failed):
    """The command printed a wrong answer; also makes the run incorrect."""


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[int, str, str], None]
    stdin: str = ""
    # files written to the run's scratch directory; "{tmp}" in argv names it
    files: dict[str, str] = field(default_factory=dict)
    # (c, delta) of a bounds job, so the traced replay can time its stages
    bounds: tuple[str, str] | None = None


@contextmanager
def no_digit_limit():
    """Lift the int/str conversion limit in this process only, to parse outputs."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# Reference arithmetic, independent of the program under test


def primorials(n: int) -> list[int]:
    """[P_0, ..., P_n] with P_k the product of the primes <= k."""
    sieve = bytearray([1]) * (n + 1)
    out, p = [], 1
    for k in range(n + 1):
        if k >= 2 and sieve[k]:
            p *= k
            sieve[k * k :: k] = bytearray(len(range(k * k, n + 1, k)))
        out.append(p)
    return out


def forward_differences(a: list[int]) -> list[int]:
    """b_n = sum (-1)^(n-k) C(n,k) a_k."""
    t, out = list(a), []
    while t:
        out.append(t[0])
        t = [y - x for x, y in zip(t, t[1:])]
    return out


def partial_sums(b: list[int]) -> list[int]:
    """a_n = sum C(n,k) b_k, the inverse of :func:`forward_differences`."""
    t = list(b)
    n = len(t)
    for i in range(n - 1, 0, -1):
        for j in range(i, n):
            t[j] += t[j - 1]
    return t


def genuine(rng: random.Random, length: int) -> tuple[list[int], list[int]]:
    """A genuine primary pseudo-polynomial prefix A and its transform B.

    B_n = w_n P_n with seeded nonzero 20-bit w_n and w_0 = 1, so a_0 = 1 and
    no transform term vanishes.
    """
    prim = primorials(length - 1)
    b = [prim[0]]
    for n in range(1, length):
        w = rng.randrange(1, 1 << 20) * rng.choice((1, -1))
        b.append(w * prim[n])
    return partial_sums(b), b


def apery(length: int) -> list[int]:
    return [
        sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))
        for n in range(length)
    ]


# (n+1)^3 a_n - (2n+3)(17n^2+51n+39) a_{n+1} + (n+2)^3 a_{n+2} = 0
APERY_RECURRENCE = {
    "order": 2,
    "polys": [["1", "3", "3", "1"], ["-117", "-231", "-153", "-34"], ["8", "12", "6", "1"]],
}
# (n+2) a_n - (n+4) a_{n+1} + a_{n+2} = 0, solved by a_n = sum C(n+1,k) k!
E_RECURRENCE = {"order": 2, "polys": [["2", "1"], ["-4", "-1"], ["1"]]}


def lines(values) -> str:
    with no_digit_limit():
        return "".join(f"{v}\n" for v in values)


def parse_ints(text: str) -> list[int]:
    with no_digit_limit():
        return [int(t) for t in text.split()]


# ---------------------------------------------------------------------------
# Checkers


def expect_exit(rc: int, err: str, *codes: int) -> None:
    if rc not in codes:
        tail = err.strip().splitlines()[-1:] or [""]
        raise Failed(f"exit {rc}, expected {codes}: {tail[0][:200]}")


def check_sequence(expected: list[int]):
    def check(rc, out, err):
        expect_exit(rc, err, 0)
        if parse_ints(out) != expected:
            raise Wrong("sequence differs from the expected one")
    return check


def check_construct(phi_num: int, phi_den: int | None, n: int):
    """phi(n) <= A_n <= phi(n) + 2 P_n, and P_n | B_n != 0.

    ``phi_den`` None means phi = primorial; otherwise phi(n) = (num/den)^n.
    """
    def check(rc, out, err):
        expect_exit(rc, err, 0)
        a = parse_ints(out)
        if len(a) != n + 1:
            raise Wrong(f"{len(a)} terms, expected {n + 1}")
        prim = primorials(n)
        num = den = 1
        for k, (ak, pk) in enumerate(zip(a, prim)):
            if phi_den is None:
                num, den = pk, 1
            elif k:
                num, den = num * phi_num, den * phi_den
            if not num <= ak * den <= num + 2 * pk * den:
                raise Wrong(f"A_{k} outside [phi, phi + 2P]")
        for k, (bk, pk) in enumerate(zip(forward_differences(a), prim)):
            if bk == 0 or bk % pk:
                raise Wrong(f"B_{k} is not a nonzero multiple of P_{k}")
    return check


def check_egf(b_expected: list[int]):
    def check(rc, out, err):
        expect_exit(rc, err, 0)
        with no_digit_limit():
            triple = {k: [int(t) for t in v] for k, v in json.loads(out).items()}
        if triple["b"] != b_expected:
            raise Wrong("b is not the transform of the input")
        c = triple["c"]
        if triple["u"] != partial_sums(c):
            raise Wrong("u is not the inverse transform of c")
        for n, (cn, pn) in enumerate(zip(c, primorials(len(c) - 1))):
            if cn % pn:
                raise Wrong(f"some prime p <= {n} does not divide c_{n}")
    return check


def check_apply(expected: list[int]):
    """Every complete line printed must be right, also before a failure."""
    def check(rc, out, err):
        done = out.split("\n")[:-1]
        if parse_ints("\n".join(done)) != expected[: len(done)]:
            raise Wrong("printed terms differ from sum C(n+1,k) k!")
        expect_exit(rc, err, 0)
        if len(done) != len(expected):
            raise Wrong(f"{len(done)} terms, expected {len(expected)}")
    return check


def check_certified(n: int):
    def check(rc, out, err):
        expect_exit(rc, err, 0)
        got = [line.split(" (")[0] for line in out.splitlines()]
        want = [f"primary-direct: certified-up-to-{n}", f"primary-hall: certified-up-to-{n}"]
        if got != want:
            raise Wrong(f"verdicts {got}")
    return check


def check_random_refuted(a: list[int]):
    """Both certifiers refute, hit the counterexample cap, with genuine witnesses."""
    prim = primorials(len(a) - 1)
    b = forward_differences(a)

    def check(rc, out, err):
        expect_exit(rc, err, 1)
        with no_digit_limit():
            reports = json.loads(out)
        if [r["subject"] for r in reports] != ["primary-direct", "primary-hall"]:
            raise Wrong("unexpected report list")
        for r in reports:
            if r["verdict"] != "refuted" or not r["truncated"] or len(r["counterexamples"]) != 100:
                raise Wrong(f"{r['subject']}: expected a truncated refutation")
            for cx in r["counterexamples"]:
                n, m, w = (int(cx[k]) for k in ("n", "modulus", "witness"))
                want = a[n + m] - a[n] if r["subject"] == "primary-direct" else b[n]
                if w != want or (r["subject"] == "primary-hall" and m != prim[n]) or w % m == 0:
                    raise Wrong(f"{r['subject']}: bad counterexample at n={n}")
    return check


def check_pseudo_refuted(rc, out, err):
    expect_exit(rc, err, 1)
    if not out.startswith("pseudo-hall: refuted with ") or \
            "counterexample(s): (n=4, modulus=12, witness=6)" not in out:
        raise Wrong(f"unexpected verdict: {out[:120]!r}")


def check_not_found(rc, out, err):
    expect_exit(rc, err, 1)
    if json.loads(out) != {"found": False}:
        raise Wrong(f"expected no recurrence, got {out[:120]!r}")


def check_apery_guess(length: int):
    def check(rc, out, err):
        expect_exit(rc, err, 0)
        got = json.loads(out)
        want = {"found": True, "recurrence": APERY_RECURRENCE, "verified_up_to": length - 1}
        if got != want:
            raise Wrong(f"unexpected recurrence {out[:200]!r}")
    return check


def check_verified(n: int):
    def check(rc, out, err):
        expect_exit(rc, err, 0)
        if not out.startswith(f"recurrence: certified-up-to-{n} "):
            raise Wrong(f"unexpected verdict {out[:120]!r}")
    return check


def check_bounds(delta: str):
    """Compare the fields that define the result, not the whole report.

    The scan notes, heuristic flags and exit codes may rightly change.
    """
    expected = Path(__file__).with_name("expected_bounds.json").read_text(encoding="utf-8")
    want = json.loads(expected)[delta]

    def check(rc, out, err):
        if "undecided" in want:
            if rc in (0, 1) or want["undecided"] not in err:
                raise Wrong(f"expected undecided ({want['undecided']}), got exit {rc}")
            return
        expect_exit(rc, err, 0)
        with no_digit_limit():
            r = json.loads(out)
            got = {
                "H_sha256": hashlib.sha256(r["H"].encode()).hexdigest(),
                "J": r["J"], "d": r["d"], "rho": r["rho"]["exact"],
                "epsilon": r["epsilon"]["exact"], "order_bound": r["order_bound"],
            }
        bad = [k for k in got if got[k] != want[k]]
        if bad:
            raise Wrong(f"bounds {delta}: {', '.join(bad)} changed")
    return check


# ---------------------------------------------------------------------------
# Workloads


def seq_build(seed: int) -> list[Job]:
    """The incremental recursions: construct, egf-invert, apply."""
    rng = random.Random(f"seq-build:{seed}")
    num = rng.randint(2718282, 3297442)  # num/10^6 lies in (e, 2 sqrt(e))
    egf_a, egf_b = genuine(rng, 1001)
    e_terms, e = [], 1  # e_m = m e_{m-1} + 1 = sum_k C(m,k) k!, and a_n = e_{n+1}
    for m in range(1, 2002):
        e = m * e + 1
        e_terms.append(e)
    return [
        Job("construct primorial", ["construct", "--phi", "primorial", "--n", "2000"],
            check_construct(0, None, 2000)),
        Job("construct geometric", ["construct", "--phi", f"geometric:{num}/1000000", "--n", "1500"],
            check_construct(num, 10**6, 1500)),
        Job("egf-invert", ["egf-invert"], check_egf(egf_b), stdin=lines(egf_a)),
        Job("apply", ["apply", "--recurrence", "{tmp}/e.json", "--n", "2000"],
            check_apply(e_terms), stdin="2\n5\n", files={"e.json": json.dumps(E_RECURRENCE)}),
    ]


def seq_analyse(seed: int) -> list[Job]:
    """The batch use of the same integer layers: certify, transforms, guess."""
    rng = random.Random(f"seq-analyse:{seed}")
    a, b = genuine(rng, 4000)
    noise = [rng.getrandbits(256) for _ in range(1500)]
    scale = rng.randrange(1, 10**6)
    apery_terms = [scale * t for t in apery(300)]
    prim = primorials(400)
    return [
        Job("certify genuine", ["certify", "--mode", "both"], check_certified(3999), stdin=lines(a)),
        Job("certify random", ["certify", "--mode", "both", "--json"],
            check_random_refuted(noise), stdin=lines(noise)),
        Job("certify pseudo", ["certify", "--mode", "pseudo-hall"], check_pseudo_refuted,
            stdin=lines(partial_sums(prim))),
        Job("transform", ["transform"], check_sequence(b), stdin=lines(a)),
        Job("inverse-transform", ["inverse-transform"], check_sequence(a), stdin=lines(b)),
        Job("guess primorials", ["guess", "--smax", "8", "--dmax", "8"], check_not_found,
            stdin=lines(prim[:110])),
        Job("guess apery", ["guess", "--smax", "3", "--dmax", "3"], check_apery_guess(60),
            stdin=lines(apery_terms[:60])),
        Job("verify apery", ["verify", "--recurrence", "{tmp}/apery.json"], check_verified(299),
            stdin=lines(apery_terms), files={"apery.json": json.dumps(APERY_RECURRENCE)}),
    ]


def bounds_jobs(deltas) -> list[Job]:
    return [
        Job(f"bounds {d}", ["bounds", "--c", "1", "--delta", d], check_bounds(d), bounds=("1", d))
        for d in deltas
    ]


# The bounds inputs are fixed, not seeded: run time swings by orders of
# magnitude with delta (e^3/10 takes 348 s, e^1/3 1.1 s), so a seeded delta
# would make the run length a lottery.
def bounds_escalate(seed: int) -> list[Job]:
    """Height search whose r(h) floors escalate to 4096 bits (H has 3845 bits)."""
    return bounds_jobs(["e^2/7"])


def bounds_sweep(seed: int) -> list[Job]:
    """Seven deltas that each pay the J scan; 3/2 is undecided (SearchExceeded)."""
    return bounds_jobs(["11/10", "5/4", "13/10", "e^1/4", "e^1/3", "e^7/20", "3/2"])


WORKLOADS = {
    "seq-build": seq_build,
    "seq-analyse": seq_analyse,
    "bounds-escalate": bounds_escalate,
    "bounds-sweep": bounds_sweep,
}
