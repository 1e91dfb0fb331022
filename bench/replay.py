"""Replay one benchmark job in-process, optionally with spans around ppp's layers.

    python3 bench/replay.py SPEC.json RESULT_PREFIX

SPEC names the checkout's ``src`` directory, the CLI arguments, the standard
input file, whether to trace, and for a ``bounds`` job its ``(c, delta)``.
The job runs through ``ppp.cli.main`` exactly as the command would; a bounds
job first calls ``choose_parameters``, ``compute_J`` and ``compute_H`` so the
stages can be timed with public calls only.  An untraced replay makes the
same calls, so the two walls differ only by the tracing cost.

Tracing replaces each listed public function, in every ``ppp`` module that
holds it, by a wrapper that records a span (name, start, end, parent) and a
few counts.  Nothing under ``src`` is edited.  Output: RESULT_PREFIX.json
(exit code, wall, spans, counts), RESULT_PREFIX.out and RESULT_PREFIX.err.
"""
from __future__ import annotations

import io
import json
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction


def _count_binomial_row(counts, args, result):
    counts["arith.binomial_row_calls"] += 1


def _count_transform(counts, args, result):
    counts["transforms.calls"] += 1
    counts["transforms.terms"] += len(args[0])


def _count_certify(counts, args, result):
    counts["certify.counterexamples"] += len(result.counterexamples)


def _count_construct(counts, args, result):
    counts["construct.steps"] += len(result[2].steps)


def _count_J(counts, args, result):
    counts["bounds.J"] += result


def _count_H(counts, args, result):
    counts["bounds.H_bits"] += result.bit_length()


# (span name, module, public function, counter)
LAYERS = [
    ("arith.primes_up_to", "arith", "primes_up_to", None),
    ("arith.primorial_table", "arith", "primorial_table", None),
    ("arith.binomial_row", "arith", "binomial_row", _count_binomial_row),
    ("transforms.binomial_transform", "transforms", "binomial_transform", _count_transform),
    ("transforms.inverse_binomial_transform", "transforms", "inverse_binomial_transform",
     _count_transform),
    ("certify.primary_direct", "certify", "certify_primary_direct", _count_certify),
    ("certify.primary_hall", "certify", "certify_primary_hall", _count_certify),
    ("certify.pseudo_hall", "certify", "certify_pseudo_hall", _count_certify),
    ("construct.construct_genuine", "construct", "construct_genuine", _count_construct),
    ("egfinv.egf_reciprocal", "egfinv", "egf_reciprocal", None),
    ("egfinv.egf_triple", "egfinv", "egf_triple", None),
    ("recur.guess_recurrence", "recur", "guess_recurrence", None),
    ("recur.verify_recurrence", "recur", "verify_recurrence", None),
    ("recur.apply_recurrence", "recur", "apply_recurrence", None),
    ("bounds.report", "bounds", "bounds_report", None),
    ("cli.io", "cli", "parse_sequence", None),
    ("cli.io", "cli", "emit_sequence", None),
]


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return traced

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "ppp" or name.startswith("ppp."))]
        for name, modname, fname, counter in LAYERS:
            orig = getattr(sys.modules[f"ppp.{modname}"], fname)
            wrapper = self.wrap(name, orig, counter)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)


def replay(spec: dict) -> tuple[dict, str, str]:
    sys.path.insert(0, spec["src"])
    import ppp.cli as cli
    from ppp import bounds

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    def call(name, fn, *args, counter=None):
        return (tracer.wrap(name, fn, counter) if tracer else fn)(*args)

    with open(spec["stdin"], encoding="utf-8") as f:
        text = f.read()
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        if spec.get("bounds"):
            ctx = bounds.PrecisionCtx()
            c, delta = Fraction(spec["bounds"][0]), bounds.Delta.parse(spec["bounds"][1])
            params = call("bounds.parameters", bounds.choose_parameters, c, delta, ctx)
            call("bounds.j_scan", bounds.compute_J, params.epsilon, ctx, counter=_count_J)
            try:
                call("bounds.height_search", bounds.compute_H, c, delta, params, ctx,
                     counter=_count_H)
            except ArithmeticError:
                pass  # undecided within the search cap; the CLI call reports it
        rc = call("cli.main", cli.main, spec["argv"])
    wall = time.perf_counter() - t0
    result = {"rc": rc, "wall": wall,
              "spans": tracer.spans if tracer else [],
              "counts": dict(tracer.counts) if tracer else {}}
    return result, out.getvalue(), err.getvalue()


def main() -> int:
    spec_path, prefix = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    result, out, err = replay(spec)
    for suffix, text in ((".out", out), (".err", err)):
        with open(prefix + suffix, "w", encoding="utf-8") as f:
            f.write(text)
    with open(prefix + ".json", "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
