"""Prefix certification of the primary/pseudo-polynomial congruence properties.

All verdicts are relative to the inspected prefix: "certified-up-to-N" never
claims anything about indices beyond N.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable

from .arith import lcm_table, primes_up_to, primorial_table
from .transforms import IntSequence, _require_offset_zero, binomial_transform

COUNTEREXAMPLE_CAP = 100
# Bit budget of one prime group's product in certify_primary_direct.
_GROUP_BITS = 256


def _divides(m: int, w: int) -> bool:
    # Convention: 0 divides only 0.  Used by recurrence reports where the
    # "modulus" slot carries 0 and the witness is a residual.
    if m == 0:
        return w == 0
    return w % m == 0


@dataclass(frozen=True)
class Counterexample:
    n: int
    modulus: int
    witness: int

    def recheck(self) -> bool:
        """A genuine counterexample has a witness the modulus does not divide."""
        return not _divides(self.modulus, self.witness)


@dataclass(frozen=True)
class CertReport:
    certified: bool
    n: int  # top index of the inspected prefix
    counterexamples: tuple[Counterexample, ...] = ()
    truncated: bool = False
    subject: str = ""

    def __post_init__(self):
        if self.certified == bool(self.counterexamples):
            raise ValueError("verdict must be refuted iff counterexamples exist")

    @property
    def verdict(self) -> str:
        return f"certified-up-to-{self.n}" if self.certified else "refuted"

    def describe(self) -> str:
        head = f"{self.subject}: {self.verdict}"
        if self.certified:
            return head + f" (property checked on indices 0..{self.n} only)"
        shown = ", ".join(
            f"(n={c.n}, modulus={c.modulus}, witness={c.witness})"
            for c in self.counterexamples[:5]
        )
        more = " ..." if len(self.counterexamples) > 5 else ""
        trunc = " [counterexample list truncated]" if self.truncated else ""
        return head + f" with {len(self.counterexamples)} counterexample(s): {shown}{more}{trunc}"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "N": str(self.n),
            "subject": self.subject,
            "truncated": self.truncated,
            "counterexamples": [
                {"n": str(c.n), "modulus": str(c.modulus), "witness": str(c.witness)}
                for c in self.counterexamples
            ],
        }


def _sort_key(c: Counterexample) -> tuple[int, int]:
    return c.n, c.modulus


def make_report(subject: str, n: int, failures: Iterable[Counterexample]) -> CertReport:
    """The report on ``failures``, in any order: it keeps the first
    ``COUNTEREXAMPLE_CAP`` in ``(n, modulus)`` order, and one more sets
    ``truncated``.  No more than ``COUNTEREXAMPLE_CAP + 1`` are held at once."""
    bad = heapq.nsmallest(COUNTEREXAMPLE_CAP + 1, failures, key=_sort_key)
    truncated = len(bad) > COUNTEREXAMPLE_CAP
    return CertReport(
        certified=not bad,
        n=n,
        counterexamples=tuple(bad[:COUNTEREXAMPLE_CAP]),
        truncated=truncated,
        subject=subject,
    )


def _prime_groups(primes: tuple[int, ...]):
    """Consecutive runs of ``primes`` whose product fits in ``_GROUP_BITS`` bits."""
    group, product = [], 1
    for p in primes:
        if group and (product * p).bit_length() > _GROUP_BITS:
            yield product, group
            group, product = [], 1
        group.append(p)
        product *= p
    if group:
        yield product, group


def certify_primary_direct(a: IntSequence) -> CertReport:
    """Check a_{n+p} == a_n (mod p) for every prime p and every n with n+p <= N.

    Each term is reduced once per prime group (a product of at most
    ``_GROUP_BITS`` bits) and each prime's residues are taken from that small
    remainder.  At most ``COUNTEREXAMPLE_CAP + 1`` counterexamples are kept:
    after each failing prime only the smallest in ``(n, modulus)`` order stay.
    An entry dropped there has ``COUNTEREXAMPLE_CAP + 1`` smaller ones ahead
    of it, so it is not among those reported, and the one beyond the cap
    keeps ``truncated`` exact.  The same bound cuts each prime's scan short:
    it stops after ``COUNTEREXAMPLE_CAP + 1`` failures, and once that many
    are kept, before the largest ``n`` among them.
    """
    _require_offset_zero(a, "primary-direct")
    top = len(a) - 1
    terms = a.terms
    bad: list[Counterexample] = []
    for product, group in _prime_groups(primes_up_to(top).primes):
        small = [t % product for t in terms]
        for p in group:
            residues = [t % p for t in small]
            if residues[p:] == residues[: top - p + 1]:
                continue
            end = top - p + 1
            if len(bad) > COUNTEREXAMPLE_CAP:
                end = min(end, bad[-1].n)  # from there on (n, p) sorts after all kept
            found = 0
            for n in range(end):
                if residues[n + p] != residues[n]:
                    bad.append(Counterexample(n, p, terms[n + p] - terms[n]))
                    found += 1
                    if found > COUNTEREXAMPLE_CAP:
                        break
            bad.sort(key=_sort_key)
            del bad[COUNTEREXAMPLE_CAP + 1 :]
    return make_report("primary-direct", top, bad)


def _certify_hall(a: IntSequence, table_fn, subject: str) -> CertReport:
    """Check that ``table_fn(N)[n]`` divides each binomial-transform term."""
    _require_offset_zero(a, subject)
    top = len(a) - 1
    b = binomial_transform(a)
    mods = table_fn(top)
    failures = (Counterexample(n, mods[n], b[n]) for n in range(top + 1) if b[n] % mods[n] != 0)
    return make_report(subject, top, failures)


def certify_primary_hall(a: IntSequence) -> CertReport:
    """Check that the primorial divides each binomial-transform term."""
    return _certify_hall(a, primorial_table, "primary-hall")


def certify_pseudo_hall(a: IntSequence) -> CertReport:
    """Check that lcm{1..n} divides each binomial-transform term."""
    return _certify_hall(a, lcm_table, "pseudo-hall")


@dataclass(frozen=True)
class PolyDetect:
    """Outcome of the eventually-polynomial test on a prefix."""

    is_eventually_polynomial: bool
    m: int = 0  # last nonzero transform index when detected
    poly: tuple[tuple[int, int], ...] = ()  # (k, b_k) pairs: Q(X) = sum b_k*C(X,k)


def detect_polynomial(a: IntSequence, tail: int) -> PolyDetect:
    """Report polynomial structure iff the last ``tail`` transform terms vanish.

    When detected, returns the interpolating polynomial in the binomial-
    coefficient basis; it reproduces every prefix value.
    """
    if tail < 0:
        raise ValueError("tail must be a natural number")
    if tail >= len(a):
        raise ValueError(f"tail {tail} must be smaller than the prefix length {len(a)}")
    b = binomial_transform(a)
    window = b.terms[len(b) - tail :]
    if any(window):
        return PolyDetect(False)
    nonzero = [k for k, v in enumerate(b.terms) if v != 0]
    m = nonzero[-1] if nonzero else 0
    poly = tuple((k, b[k]) for k in nonzero)
    return PolyDetect(True, m, poly)


@dataclass(frozen=True)
class GrowthEstimate:
    """Empirical exponential-growth diagnostics, as 30-digit decimals."""

    last: Decimal
    tail_max: Decimal


def growth_exponent(a: IntSequence) -> GrowthEstimate:
    """log|a_N| / N at the last index, and the max over the last quarter.

    Purely diagnostic; no thresholds are applied here.
    """
    from . import real  # the only real arithmetic outside ppp.bounds

    if len(a) < 8:
        raise ValueError("growth estimate needs a prefix of length >= 8")
    if not any(a.terms):
        raise ValueError("growth estimate undefined for the all-zero prefix")
    top = a.last_index
    ctx = real.Context(real.dps_to_prec(40))

    def ratio(n: int):
        return (ctx.log(ctx.num(abs(a[n - a.offset]))) / n).mid()

    window = [
        n
        for n in range(max(a.offset + (3 * (top - a.offset)) // 4, a.offset + 1), top + 1)
        if a[n - a.offset] != 0
    ]
    if a[top - a.offset] == 0 or not window:
        raise ValueError("last-quarter window contains no usable nonzero terms")
    last = ratio(top)
    tail_max = max(ratio(n) for n in window)
    return GrowthEstimate(Decimal(real.to_str(last, 30)), Decimal(real.to_str(tail_max, 30)))
