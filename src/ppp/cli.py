"""Command-line front end.

Exit codes: 0 success / certified, 1 refuted, 2 usage or input error, or a
broken pipe on stdout (with nothing on stderr), 3 internal error (a bug
trap): the two primary certifiers disagree, a re-check of a bound that
``bounds`` claims fails, or the exact decimal arithmetic of ``apply`` or
``egf-invert`` would round, 4 undecided within resource limits: ``bounds``
hit its height cap, its precision ceiling or its J scan cap, and the
message names the limit; or any subcommand ran out of memory.
"""
from __future__ import annotations

import argparse
import decimal
import itertools
import json
import sys

from .arith import lcm_table, primorial_table
from .certify import CertReport, _hall_report, certify_primary_direct
from .construct import _construct, construct_genuine, phi_geometric, phi_primorial, phi_table
from .egfinv import _require_unit_start, egf_reciprocal
from .recur import (
    GuessBudget,
    PolyRecurrence,
    _extended,
    guess_recurrence,
    verify_recurrence,
)
from .transforms import (
    IntSequence,
    _forward_in_place,
    _inverse_in_place,
    _require_offset_zero,
    binomial_transform,
    decimal_text,
    integer,
    json_int,
    rational,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_UNDECIDED = 4


class InputError(Exception):
    pass


# ``apply`` and ``egf-invert`` compute the long terms they print as decimal
# integers: str() of a Decimal takes time linear in its digits, of an int
# quadratic.  Nothing in this context rounds, and a result that would be
# rounded, infinite or invalid raises instead: that is a bug (exit 3).
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero],
)


# ---------------------------------------------------------------------------
# Sequence file format: one base-10 integer per line, '#' comments; or a JSON
# object {"offset": n, "terms": ["...", ...]} whose values are JSON integers
# or base-10 strings.


def parse_sequence(source) -> IntSequence:
    """The sequence in ``source``, a str or a text stream.

    A stream is read one physical line at a time, and each physical line is
    split again by ``str.splitlines``, so the logical lines and their numbers
    are those of the whole text (a str is one chunk).  Only the JSON form,
    whose first non-blank line starts with '{', is read as one document.
    """
    chunks = iter((source,)) if isinstance(source, str) else source
    head = []  # the chunks up to the first non-blank one
    for chunk in chunks:
        head.append(chunk)
        if not chunk.isspace():
            break
    if "".join(head).lstrip().startswith("{"):
        text = "".join(itertools.chain(head, chunks))
        try:
            obj = json.loads(text, parse_int=json_int)
            if not isinstance(obj["terms"], list):
                raise ValueError("terms must be a JSON list")
            terms = [json_int(t) for t in obj["terms"]]
            return IntSequence.of(terms, json_int(obj.get("offset", 0)))
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad JSON sequence: {exc}") from exc
    terms = []
    lines = itertools.chain.from_iterable(c.splitlines() for c in itertools.chain(head, chunks))
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            terms.append(integer(line))
        except ValueError as exc:
            raise InputError(f"line {lineno}: not an integer: {line!r}") from exc
    if not terms:
        raise InputError("empty sequence input")
    return IntSequence.of(terms)


def emit_sequence(seq: IntSequence, out) -> None:
    if seq.offset != 0:
        # the canonical JSON of {"offset": ..., "terms": [str(t), ...]}
        out.write(f'{{"offset":{seq.offset},"terms":')
        _write_json_terms(seq.terms, out)
        out.write("}\n")
        return
    for t in seq.terms:
        out.write(f"{decimal_text(t)}\n")


def _write_json_terms(terms, out) -> None:
    """Write the JSON list of the terms' decimal strings, one term at a time:
    the whole document would hold every digit string at once."""
    out.write("[")
    for j, t in enumerate(terms):
        out.write(f',"{decimal_text(t)}"' if j else f'"{decimal_text(t)}"')
    out.write("]")


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_sieve(args) -> int:
    table = primorial_table(args.n) if args.kind == "primorial" else lcm_table(args.n)
    emit_sequence(IntSequence(table), sys.stdout)
    return EXIT_OK


def cmd_transform(args) -> int:
    # the library transform with the parsed row as its only row: the kernel
    # overwrites the terms in place
    seq = parse_sequence(sys.stdin)
    _require_offset_zero(seq, args.what)
    terms = list(seq.terms)
    del seq
    args.kernel(terms)
    emit_sequence(IntSequence.of(terms), sys.stdout)
    return EXIT_OK


def cmd_reindex(args) -> int:
    seq = parse_sequence(sys.stdin)
    emit_sequence(IntSequence(seq.terms, args.to), sys.stdout)
    return EXIT_OK


def cmd_certify(args) -> int:
    seq = parse_sequence(sys.stdin)
    reports: list[CertReport] = []
    if args.mode in ("primary-direct", "both"):
        reports.append(certify_primary_direct(seq))
    if args.mode != "primary-direct":
        # certify_primary_hall or certify_pseudo_hall, with the parsed row
        # transformed in place as the only row
        subject = "pseudo-hall" if args.mode == "pseudo-hall" else "primary-hall"
        _require_offset_zero(seq, subject)
        terms = list(seq.terms)
        del seq
        _forward_in_place(terms)
        reports.append(_hall_report(terms, subject))
    if args.json:
        print(_canonical_json([r.to_json_dict() for r in reports]))
    else:
        for r in reports:
            print(r.describe())
    if args.mode == "both" and reports[0].certified != reports[1].certified:
        print("internal error: direct and transform certifiers disagree", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if all(r.certified for r in reports) else EXIT_REFUTED


def _parse_phi(preset: str, n: int):
    if preset == "primorial":
        return phi_primorial()
    if preset.startswith("geometric:"):
        return phi_geometric(rational(preset.split(":", 1)[1]))
    if preset.startswith("file:"):
        path = preset.split(":", 1)[1]
        try:
            with open(path, encoding="utf-8") as f:
                lines = [line.strip() for line in f]
            values = [rational(line) for line in lines if line and not line.startswith("#")]
        except OSError as exc:
            raise InputError(f"cannot read growth table: {exc}") from exc
        if len(values) <= n:  # refused before the first term is printed
            raise InputError(f"growth table has no value at index {len(values)}")
        return phi_table(values)
    raise InputError(f"unknown growth preset: {preset!r}")


def cmd_construct(args) -> int:
    phi = _parse_phi(args.phi, args.n)
    if args.trace:  # the trace lines come first, so the run is collected
        a, b, trace = construct_genuine(phi, args.n)
        print("#     n  c  u  v  w  b  a")
        for st in trace.steps:
            print("#", *map(decimal_text, (st.n, st.c, st.u, st.v, st.w, st.b, st.a)))
        emit_sequence(b if args.emit == "b" else a, sys.stdout)
    else:
        for _, a, b, _ in _construct(phi, args.n):
            sys.stdout.write(f"{decimal_text(b if args.emit == 'b' else a)}\n")
    return EXIT_OK


def cmd_egf_invert(args) -> int:
    seq = parse_sequence(sys.stdin)
    _require_unit_start(seq)
    b = binomial_transform(seq)
    del seq  # c reuses its memory
    with decimal.localcontext(_EXACT):
        # egf_triple with u in decimal.  Each c_n is converted once, in
        # place, so that c is never held whole both as ints and as decimals.
        # c is printed before the inverse transform overwrites it with u, so
        # one row is held: a failure there leaves b and c on stdout, without u.
        c = list(egf_reciprocal(b).terms)
        for i, t in enumerate(c):
            c[i] = decimal.Decimal(t)
        # the canonical JSON of EgfTriple.to_json_dict()
        sys.stdout.write('{"b":')
        _write_json_terms(b.terms, sys.stdout)
        sys.stdout.write(',"c":')
        _write_json_terms(c, sys.stdout)
        _inverse_in_place(c)
        sys.stdout.write(',"u":')
        _write_json_terms(c, sys.stdout)
    sys.stdout.write("}\n")
    return EXIT_OK


def _load_recurrence(path: str) -> PolyRecurrence:
    try:
        with open(path, encoding="utf-8") as f:
            return PolyRecurrence.from_json_dict(json.load(f, parse_int=json_int))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot load recurrence: {exc}") from exc


def cmd_guess(args) -> int:
    seq = parse_sequence(sys.stdin)
    budget = GuessBudget(args.smax, args.dmax, args.margin)
    rec = guess_recurrence(seq, budget)
    if rec is None:
        print(_canonical_json({"found": False}))
        return EXIT_REFUTED
    print(_canonical_json({"found": True, "recurrence": rec.to_json_dict(),
                           "verified_up_to": len(seq) - 1}))
    return EXIT_OK


def cmd_verify(args) -> int:
    seq = parse_sequence(sys.stdin)
    rec = _load_recurrence(args.recurrence)
    report = verify_recurrence(seq, rec)
    if args.json:
        print(_canonical_json(report.to_json_dict()))
    else:
        print(report.describe())
    return EXIT_OK if report.certified else EXIT_REFUTED


def cmd_apply(args) -> int:
    seq = parse_sequence(sys.stdin)
    rec = _load_recurrence(args.recurrence)
    with decimal.localcontext(_EXACT):
        terms = _extended(rec, seq, args.n, decimal.Decimal)  # apply_recurrence in decimal
    for t in terms:
        sys.stdout.write(f"{t}\n")
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import bounds  # real arithmetic loads only for this subcommand

    ctx = bounds.PrecisionCtx() if args.precision is None else bounds.PrecisionCtx(args.precision)
    c, delta = rational(args.c), bounds.Delta.parse(args.delta)
    try:
        report = bounds.bounds_report(c, delta, ctx)
    except (bounds.SearchExceeded, bounds.PrecisionExhausted, bounds.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    print(_canonical_json(report.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppp",
        description="Exact toolkit for primary pseudo-polynomial sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="print primorial or lcm prefixes")
    p.add_argument("--kind", choices=["primorial", "lcm"], required=True)
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser("transform", help="binomial transform (stdin -> stdout)")
    p.set_defaults(fn=cmd_transform, kernel=_forward_in_place, what="binomial_transform")

    p = sub.add_parser("inverse-transform", help="inverse binomial transform")
    p.set_defaults(fn=cmd_transform, kernel=_inverse_in_place,
                   what="inverse_binomial_transform")

    p = sub.add_parser("reindex", help="relabel a sequence's starting index")
    p.add_argument("--to", type=integer, default=0)
    p.set_defaults(fn=cmd_reindex)

    p = sub.add_parser("certify", help="congruence/divisibility certification")
    p.add_argument("--mode", required=True,
                   choices=["primary-direct", "primary-hall", "pseudo-hall", "both"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("construct", help="build a genuine sequence above a growth target")
    p.add_argument("--phi", required=True,
                   help="primorial | geometric:NUM/DEN | file:PATH")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--emit", choices=["a", "b"], default="a")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("egf-invert", help="reciprocal-EGF triple (stdin a -> JSON b,c,u)")
    p.set_defaults(fn=cmd_egf_invert)

    p = sub.add_parser("guess", help="guess a polynomial-coefficient recurrence")
    p.add_argument("--smax", type=integer, required=True)
    p.add_argument("--dmax", type=integer, required=True)
    p.add_argument("--margin", type=integer, default=10)
    p.set_defaults(fn=cmd_guess)

    p = sub.add_parser("verify", help="verify a recurrence against a sequence")
    p.add_argument("--recurrence", required=True, help="path to recurrence JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("apply", help="extend a sequence by a recurrence")
    p.add_argument("--recurrence", required=True)
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("bounds", help="effective recurrence-size bounds report")
    p.add_argument("--c", required=True, help="growth constant, NUM/DEN")
    p.add_argument("--delta", required=True, help="growth base, NUM/DEN or e^NUM/DEN")
    p.add_argument("--precision", type=integer, default=None,
                   help="working precision bits (default 256)")
    p.set_defaults(fn=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except decimal.DecimalException as exc:  # an ArithmeticError, but trapped by _EXACT
        print(f"error: internal: decimal arithmetic was not exact ({type(exc).__name__})",
              file=sys.stderr)
        return EXIT_INTERNAL
    except (InputError, ValueError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory: undecided within resource limits", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
