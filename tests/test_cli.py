import decimal
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import pytest

from ppp import bounds, certify, cli
from ppp.arith import primorial_table
from ppp.construct import construct_genuine, phi_primorial
from ppp.egfinv import egf_triple
from ppp.recur import PolyRecurrence, apply_recurrence
from ppp.transforms import _BAND, IntSequence, decimal_text, inverse_binomial_transform

CMD = [sys.executable, "-m", "ppp.cli"]


def run(args, stdin=""):
    return subprocess.run(
        CMD + args, input=stdin, capture_output=True, text=True, timeout=300
    )


@pytest.fixture
def in_process(monkeypatch, capsys):
    """``cli.main(args)`` with ``stdin`` as its input: (exit code, stdout, stderr)."""
    def main(args, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        rc = cli.main(args)
        out = capsys.readouterr()
        return rc, out.out, out.err
    return main


def test_sieve_primorial():
    r = run(["sieve", "--kind", "primorial", "--n", "5"])
    assert r.returncode == 0
    assert r.stdout.split() == ["1", "1", "2", "6", "6", "30"]


def test_sieve_lcm():
    r = run(["sieve", "--kind", "lcm", "--n", "6"])
    assert r.returncode == 0
    assert r.stdout.split()[-1] == "60"
    r0 = run(["sieve", "--kind", "lcm", "--n", "0"])
    assert r0.stdout.split() == ["1"]


def test_sieve_bad_flags():
    assert run(["sieve", "--kind", "bogus", "--n", "3"]).returncode == 2
    assert run(["sieve", "--n", "3"]).returncode == 2


def test_a_closed_stdout_exits_2_silently():
    # As in `ppp sieve --kind primorial --n 3000 | head -c 10`: the reader
    # leaves after 10 bytes of about 1.9 MB, so a later write meets a broken
    # pipe, which exits 2 with nothing on stderr.
    args = ["sieve", "--kind", "primorial", "--n", "3000"]
    with subprocess.Popen(CMD + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b"1\n1\n2\n6\n6\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=300), err) == (2, b"")


def test_sieve_negative_size():
    for kind in ("primorial", "lcm"):
        r = run(["sieve", "--kind", kind, "--n", "-3"])
        assert r.returncode == 2
        assert r.stdout == "" and "natural number" in r.stderr


def test_transform_pipe_identity():
    small = "\n".join(str((-3) ** n + n) for n in range(20)) + "\n"
    # 10^4-digit terms, past CPython's default int/str conversion limit
    huge = "".join(f"{s}{d * 10**4}\n" for s, d in (("", "9"), ("-", "8"), ("", "1"), ("", "7")))
    for seq in (small, huge):
        fwd = run(["transform"], seq)
        assert fwd.returncode == 0
        back = run(["inverse-transform"], fwd.stdout)
        assert back.stdout == seq


def test_transform_comments_and_json_input():
    r = run(["transform"], "# a comment\n1\n1\n1\n")
    assert r.stdout.split() == ["1", "0", "0"]
    r2 = run(["transform"], json.dumps({"offset": 0, "terms": ["1", "1", "1"]}))
    assert r2.stdout.split() == ["1", "0", "0"]


def test_reindex():
    r = run(["reindex", "--to", "0"], json.dumps({"offset": 3, "terms": ["5", "6"]}))
    assert r.returncode == 0
    assert r.stdout.split() == ["5", "6"]


def test_certify_exit_codes():
    tri = "0\n1\n3\n6\n10\n15\n"
    assert run(["certify", "--mode", "primary-direct"], tri).returncode == 1
    ones = "1\n1\n1\n1\n"
    for mode in ("primary-direct", "primary-hall", "pseudo-hall", "both"):
        assert run(["certify", "--mode", mode], ones).returncode == 0


def test_certify_refuses_a_nonzero_offset():
    r = run(["certify", "--mode", "both"], json.dumps({"offset": 1, "terms": ["1", "1", "1"]}))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: primary-direct requires offset 0 (got 1); re-index first\n"


@pytest.mark.parametrize("args, what", [
    (["transform"], "binomial_transform"),
    (["inverse-transform"], "inverse_binomial_transform"),
    (["certify", "--mode", "primary-direct"], "primary-direct"),
    (["certify", "--mode", "primary-hall"], "primary-hall"),
    (["certify", "--mode", "pseudo-hall"], "pseudo-hall"),
])
def test_offset_refusals_keep_their_text(in_process, args, what):
    # each command checks the offset before it touches the terms
    text = json.dumps({"offset": 1, "terms": ["1", "1", "1"]})
    message = f"error: {what} requires offset 0 (got 1); re-index first\n"
    assert in_process(args, text) == (2, "", message)


@pytest.mark.parametrize("flags, expected", [
    ([], "primary-direct: certified-up-to-3 (property checked on indices 0..3 only)\n"
         "primary-hall: refuted with 1 counterexample(s): (n=0, modulus=2, witness=1)\n"),
    (["--json"], '[{"N":"3","counterexamples":[],"subject":"primary-direct","truncated":false,'
                 '"verdict":"certified-up-to-3"},{"N":"3","counterexamples":[{"modulus":"2",'
                 '"n":"0","witness":"1"}],"subject":"primary-hall","truncated":false,'
                 '"verdict":"refuted"}]\n'),
])
def test_certify_both_reports_a_disagreement(in_process, monkeypatch, flags, expected):
    # a primorial table of 2s makes the Hall side refute what the direct side certifies
    monkeypatch.setattr(certify, "primorial_table", lambda n: [2] * (n + 1))
    rc, out, err = in_process(["certify", "--mode", "both", *flags], "1\n1\n1\n1\n")
    assert (rc, out) == (3, expected)
    assert err == "internal error: direct and transform certifiers disagree\n"


def test_certify_primary_vs_pseudo():
    prim = run(["sieve", "--kind", "primorial", "--n", "8"]).stdout
    dseq = run(["inverse-transform"], prim).stdout
    assert run(["certify", "--mode", "both"], dseq).returncode == 0
    assert run(["certify", "--mode", "pseudo-hall"], dseq).returncode == 1


def test_certify_json_is_canonical():
    out = run(["certify", "--mode", "both", "--json"], "1\n1\n1\n").stdout
    parsed = json.loads(out)
    assert out.strip() == json.dumps(parsed, sort_keys=True, separators=(",", ":"))


def test_construct_trace_remains_parseable():
    r = run(["construct", "--phi", "primorial", "--n", "8", "--trace"])
    assert r.returncode == 0
    again = run(["certify", "--mode", "both"], r.stdout)
    assert again.returncode == 0


def test_construct_geometric_and_b_output():
    r = run(["construct", "--phi", "geometric:3/1", "--n", "6", "--emit", "b"])
    assert r.returncode == 0
    bs = [int(x) for x in r.stdout.split()]
    assert bs[0] == 1 and all(b != 0 for b in bs)


def test_construct_bad_phi():
    assert run(["construct", "--phi", "nope", "--n", "3"]).returncode == 2


def test_construct_phi_file_skips_indented_comments(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("# doubling growth\n1\n2\n4\n8\n16\n32\n")
    indented = tmp_path / "indented.txt"
    indented.write_text("1\n2\n  # indented comment\n4\n8\n\t# tab\n16\n32\n")
    a = run(["construct", "--phi", f"file:{plain}", "--n", "5"])
    b = run(["construct", "--phi", f"file:{indented}", "--n", "5"])
    assert a.returncode == b.returncode == 0
    assert b.stdout == a.stdout != ""


def test_construct_refuses_a_short_phi_file_before_printing(tmp_path):
    # the length is checked first: a stream would print A_0 to A_2, then fail
    table = tmp_path / "phi.txt"
    table.write_text("1\n2\n4\n")
    r = run(["construct", "--phi", f"file:{table}", "--n", "5"])
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: growth table has no value at index 3\n"


@pytest.mark.parametrize("text", [
    '{"terms": [1, 2.0000001]}',
    '{"terms": [1, 2.0]}',
    '{"terms": "907"}',
    '{"terms": [true, 1]}',
    '{"terms": ["1_000"]}',
    '{"terms": [" 12"]}',
    '{"offset": 1.9, "terms": ["1"]}',
    '{"offset": true, "terms": ["1"]}',
    '{"offset": "1.0", "terms": ["1"]}',
])
def test_json_sequence_needs_exact_integers(text):
    r = run(["transform"], text)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: bad JSON sequence")


@pytest.mark.parametrize("text", ["1_000\n", "2\n\u0661\u0662\n", "\uff13\n"])
def test_line_sequence_needs_ascii_integers(text):
    # one rule for both formats: an optional sign and ASCII digits
    r = run(["transform"], text)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: line ")


@pytest.mark.parametrize("args, env", [
    (["sieve", "--kind", "primorial", "--n", "1_0"], {}),
    (["sieve", "--kind", "primorial", "--n", "\u0665"], {}),
    (["reindex", "--to", "1_0"], {}),
    (["construct", "--phi", "primorial", "--n", "\uff15"], {}),
    (["guess", "--smax", "2", "--dmax", "2", "--margin", "1_0"], {}),
    (["bounds", "--c", "1", "--delta", "11/10", "--precision", "\uff16\uff14"], {}),
])
def test_integer_options_need_ascii_integers(args, env):
    # the line rule again: an optional sign and ASCII digits
    r = subprocess.run(CMD + args, input="1\n2\n", capture_output=True, text=True,
                       env={**os.environ, **env}, timeout=300)
    assert r.returncode == 2 and r.stdout == ""
    assert "integer" in r.stderr


@pytest.mark.parametrize("text", ["1e100000000", "1_000/3", "\u0661\u0661/\u0661\u0660"])
@pytest.mark.parametrize("place", ["c", "delta", "e^delta", "geometric", "file"])
def test_rationals_need_ascii_integer_over_integer(tmp_path, place, text):
    # INT or INT/INT through the integer rule: an exponent used to build a
    # hundred-million-digit integer, and the run never finished.
    table = tmp_path / "phi.txt"
    table.write_text(f"1\n2\n{text}\n8\n")
    args = {
        "c": ["bounds", "--c", text, "--delta", "11/10"],
        "delta": ["bounds", "--c", "1", "--delta", text],
        "e^delta": ["bounds", "--c", "1", "--delta", f"e^{text}"],
        "geometric": ["construct", "--phi", f"geometric:{text}", "--n", "1"],
        "file": ["construct", "--phi", f"file:{table}", "--n", "5"],
    }[place]
    r = subprocess.run(CMD + args, capture_output=True, text=True, timeout=30)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"error: not a rational NUM or NUM/DEN: {text!r}\n"


def test_out_of_memory_is_undecided(monkeypatch, capsys):
    # exit 1 would read as "refuted"
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(cli, "primorial_table", exhausted)
    assert cli.main(["sieve", "--kind", "primorial", "--n", "10"]) == 4
    assert capsys.readouterr().err == "error: out of memory: undecided within resource limits\n"


STREAM_INPUTS = [
    "1\r\n2\r\n\r\n3\r\n",
    "1\r2\r\r3",
    "1\x0b2\x0c3\x1c4\x855\u20286\n7",
    "# a comment\n\n  7 \n\t# indented\n-8\n\n",
    "\n\n \t\n" + json.dumps({"offset": 1, "terms": ["5", 6]}) + "\n\n",
    "\n\x0c\n" + json.dumps({"terms": [1, 2]}),
    "\x1c{\"terms\": [1]}",
    "\n{\"terms\": [1, 2\n",
    "{\"terms\": [1]}\n{}",
    "1\n2\n\nx3\n4\n",
    "1\r\n\r\nbad\r\n",
    "1\u20282\x85oops\n",
    "5\n{\"terms\": [1]}\n",
    "",
    "\n# only a comment\n",
]


def parse_outcome(source):
    try:
        return cli.parse_sequence(source)
    except cli.InputError as exc:
        return f"InputError: {exc}"


@pytest.mark.parametrize("text", STREAM_INPUTS)
def test_streamed_parse_equals_the_string_parse(text):
    # logical lines, line numbers and JSON messages alike, whatever splits them
    assert parse_outcome(io.StringIO(text)) == parse_outcome(text)


def test_string_parse_lines_and_messages():
    outcomes = {text: parse_outcome(text) for text in STREAM_INPUTS}
    assert outcomes[STREAM_INPUTS[2]].terms == (1, 2, 3, 4, 5, 6, 7)
    assert outcomes[STREAM_INPUTS[4]] == IntSequence((5, 6), 1)
    assert outcomes["1\n2\n\nx3\n4\n"] == "InputError: line 4: not an integer: 'x3'"
    assert outcomes["1\u20282\x85oops\n"] == "InputError: line 3: not an integer: 'oops'"
    assert outcomes[STREAM_INPUTS[5]].startswith("InputError: bad JSON sequence: Expecting value")
    assert outcomes[""] == "InputError: empty sequence input"


def test_streamed_parse_holds_one_line_at_a_time(tmp_path):
    # 2000 terms of 1000 digits: the text is 2 MB and the ints about 0.9 MB.
    # A parser holding the text (or its lines) peaks above their sum.
    rng = random.Random(7)
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"{rng.randrange(10**999, 10**1000)}\n" for _ in range(2000)))
    text_size = path.stat().st_size
    with open(path, encoding="utf-8") as f:
        tracemalloc.start()
        try:
            seq = cli.parse_sequence(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    int_size = sum(sys.getsizeof(t) for t in seq.terms)
    assert len(seq) == 2000
    assert peak < int_size + text_size // 10, (peak, int_size, text_size)


@pytest.fixture(scope="module")
def long_rows():
    """A genuine prefix ``a`` of 1500 terms and its transform ``b``.

    ``b_n = w_n P_n`` with 8192-bit multipliers ``w_n``, so that a row of
    big terms outweighs the per-term scratch that does not grow with them
    (``primary-direct`` keeps a 256-bit residue of each term)."""
    rng = random.Random(1500)
    b = [p * (rng.getrandbits(8192) if n else 1) for n, p in enumerate(primorial_table(1499))]
    a = list(inverse_binomial_transform(IntSequence.of(b)).terms)
    return {"a": "".join(f"{decimal_text(t)}\n" for t in a),
            "b": "".join(f"{decimal_text(t)}\n" for t in b),
            "row": max(sum(sys.getsizeof(t) for t in row) for row in (a, b))}


@pytest.mark.parametrize("args, source, target, code", [
    (["transform"], "a", "b", 0),
    (["inverse-transform"], "b", "a", 0),
    (["certify", "--mode", "primary-hall"], "a", None, 0),
    (["certify", "--mode", "pseudo-hall"], "a", None, 1),
    (["certify", "--mode", "both"], "a", None, 0),
], ids=["transform", "inverse-transform", "primary-hall", "pseudo-hall", "both"])
def test_transform_and_hall_commands_hold_one_row(monkeypatch, tmp_path, long_rows,
                                                   args, source, target, code):
    # The peak above a one-term run's, in rows (the larger of a and b):
    # the parsed row and a transformed copy of it read about 2, the parsed
    # row overwritten in place about 1.
    def peak(text):
        path = tmp_path / "in.txt"
        path.write_text(text, encoding="utf-8")
        with monkeypatch.context() as m, open(path, encoding="utf-8") as f, \
                open(tmp_path / "out.txt", "w", encoding="utf-8") as out:
            m.setattr(sys, "stdin", f)
            m.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                rc = cli.main(args)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return rc, top

    peak("1\n")  # warm up
    _, base = peak("1\n")
    rc, top = peak(long_rows[source])
    assert rc == code
    if target is not None:
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == long_rows[target]
    rows = (top - base) / long_rows["row"]
    assert rows < 1.3, rows


def test_primary_direct_releases_each_group_and_prime_scratch(monkeypatch, tmp_path):
    # A genuine prefix of 1500 terms with 20-bit multipliers: a 256-bit
    # residue per term is then about a third of a row.  With each group's
    # residues built while the last group's were still held, and each
    # prime's residues likewise, the peak read 1.76 rows above a one-term
    # run; with the scratch released before it is rebuilt, 1.48.  The
    # parsed row, one group's residues and one prime's residues remain.
    rng = random.Random(1501)
    b = [p * (rng.getrandbits(20) if n else 1) for n, p in enumerate(primorial_table(1499))]
    a = inverse_binomial_transform(IntSequence.of(b)).terms
    path = tmp_path / "a.txt"
    path.write_text("".join(f"{decimal_text(t)}\n" for t in a), encoding="utf-8")
    row = sum(sys.getsizeof(t) for t in a)

    def peak(source):
        with monkeypatch.context() as m, open(source, encoding="utf-8") as f, \
                open(tmp_path / "out.txt", "w", encoding="utf-8") as out:
            m.setattr(sys, "stdin", f)
            m.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                rc = cli.main(["certify", "--mode", "primary-direct"])
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return rc, top

    one = tmp_path / "one.txt"
    one.write_text("1\n", encoding="utf-8")
    peak(one)  # warm up
    _, base = peak(one)
    rc, top = peak(path)
    assert rc == 0
    assert (tmp_path / "out.txt").read_text(encoding="utf-8").startswith(
        "primary-direct: certified-up-to-1499 ")
    rows = (top - base) / row
    assert rows < 1.6, rows


def test_egf_invert_holds_one_row_of_c(monkeypatch, tmp_path):
    # A genuine prefix of 500 terms with 20-bit multipliers, as in the
    # seq-build benchmark.  The peak above a one-term run's, in rows of c's
    # decimals: 2.20 while a copy of c was inverted into u, 1.64 with c
    # printed and then overwritten by u; the reciprocal's own scratch is the
    # rest.
    rng = random.Random(500)
    b = [p * (rng.getrandbits(20) if n else 1) for n, p in enumerate(primorial_table(499))]
    a = inverse_binomial_transform(IntSequence.of(b)).terms
    triple = egf_triple(IntSequence.of(a))
    row = sum(sys.getsizeof(decimal.Decimal(t)) for t in triple.c.terms)
    path = tmp_path / "a.txt"
    path.write_text("".join(f"{decimal_text(t)}\n" for t in a), encoding="utf-8")

    def peak(source):
        with monkeypatch.context() as m, open(source, encoding="utf-8") as f, \
                open(tmp_path / "out.txt", "w", encoding="utf-8") as out:
            m.setattr(sys, "stdin", f)
            m.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                rc = cli.main(["egf-invert"])
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return rc, top

    one = tmp_path / "one.txt"
    one.write_text("1\n", encoding="utf-8")
    peak(one)  # warm up
    _, base = peak(one)
    rc, top = peak(path)
    assert rc == 0
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == \
        cli._canonical_json(triple.to_json_dict()) + "\n"
    rows = (top - base) / row
    assert rows < 1.95, rows


def test_construct_holds_one_anti_diagonal(monkeypatch, tmp_path):
    # The peak above a one-term run's, in rows of A: 8.4 while A, B, the
    # primorial table and the unread trace were all built before printing,
    # about 2.5 with each A_n printed as its step ends.
    a = construct_genuine(phi_primorial(), 600)[0].terms
    row = sum(sys.getsizeof(t) for t in a)

    def peak(n):
        with monkeypatch.context() as m, \
                open(tmp_path / "out.txt", "w", encoding="utf-8") as out:
            m.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                rc = cli.main(["construct", "--phi", "primorial", "--n", str(n)])
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return rc, top

    peak(0)  # warm up
    _, base = peak(0)
    rc, top = peak(600)
    assert rc == 0
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "".join(f"{t}\n" for t in a)
    rows = (top - base) / row
    assert rows < 3.5, rows


@pytest.mark.parametrize("to", [1, 12345])
@pytest.mark.parametrize("terms", [[5], [0, -7, 3**9000, -(5**7000), 1]],
                         ids=["one-term", "past-digit-limit"])
def test_offset_output_is_the_canonical_json(in_process, to, terms):
    # written term by term, also past the 4300-digit int/str limit
    texts = [decimal_text(t) for t in terms]
    expected = cli._canonical_json({"offset": to, "terms": texts}) + "\n"
    stdin = "".join(f"{t}\n" for t in texts)
    assert in_process(["reindex", "--to", str(to)], stdin) == (0, expected, "")


def test_json_sequence_accepts_integers_and_base10_strings():
    r = run(["reindex", "--to", "0"], '{"offset": "2", "terms": [1, "-20", "+3", 40]}')
    assert r.returncode == 0
    assert r.stdout.split() == ["1", "-20", "3", "40"]


@pytest.mark.parametrize("rec", [
    {"order": 1, "polys": [[-2.9], [1]]},
    {"order": 1, "polys": [["-2"], [1.0]]},
    {"order": True, "polys": [["-2"], ["1"]]},
    {"order": 1, "polys": [["-2"], "1"]},
    {"order": 1, "polys": "21"},
])
def test_recurrence_json_needs_exact_integers(tmp_path, rec):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(rec))
    r = run(["verify", "--recurrence", str(path)], "1\n2\n4\n8\n")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: cannot load recurrence")


def test_egf_invert():
    r = run(["egf-invert"], "1\n2\n3\n4\n5\n")
    d = json.loads(r.stdout)
    assert d["u"] == ["1", "0", "1", "-2", "9"]


def test_egf_invert_streams_canonical_json_past_digit_limit():
    text = "".join(f"{t}\n" for t in (1, 3**4000, -(7**3000), 5**4000))
    r = run(["egf-invert"], text)
    assert r.returncode == 0, r.stderr
    assert max(len(t) for t in json.loads(r.stdout)["c"]) > 4300
    triple = egf_triple(cli.parse_sequence(text))
    assert r.stdout == cli._canonical_json(triple.to_json_dict()) + "\n"


def test_apply_past_digit_limit(tmp_path):
    # a_n = sum C(n+1,k) k!; a_2000 has about 5700 digits
    rec_path = tmp_path / "e.json"
    rec_path.write_text(json.dumps({"order": 2, "polys": [["2", "1"], ["-4", "-1"], ["1"]]}))
    r = run(["apply", "--recurrence", str(rec_path), "--n", "2000"], "2\n5\n")
    assert r.returncode == 0, r.stderr
    a = [2, 5]
    for n in range(1999):
        a.append((n + 4) * a[n + 1] - (n + 2) * a[n])
    assert r.stdout == "".join(f"{decimal_text(t)}\n" for t in a)


def apply_cases():
    """(polys, initial terms, n_max) for ``apply``: orders 1 to 3, signed
    coefficients, zero and negative terms, and leads negative at small n."""
    cases = [
        # a zero quotient over a negative lead, which decimal division signs:
        # zero terms; a_3 = (2 - 2) a_2; lead 2n - 5 < 0 for n < 3
        (((0,), (-1,)), [0], 5),
        (((-2, 1), (-1,)), [5], 8),
        (((0,), (-5, 2)), [7], 6),
        (((3,), (0,), (-5, 2)), [0, 4], 6),
        (((2, 1), (-4, -1), (1,)), [2, 5, 16, 65, 326], 2),  # n_max below the initial terms
    ]
    rng = random.Random(2022)
    leads = [(1,), (-1,), (-5, 2), (3, -1), (2,)]  # 3 - n vanishes at 3; 2 rarely divides
    for _ in range(60):
        order = rng.randint(1, 3)
        polys = [tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
                 for _ in range(order)] + [rng.choice(leads)]
        initial = [rng.choice((0, rng.randint(-10**6, 10**6)))
                   for _ in range(order + rng.randint(0, 3))]
        cases.append((tuple(polys), initial, rng.randint(0, 40)))
    return cases


@pytest.mark.parametrize("polys, initial, n_max", apply_cases())
def test_apply_prints_what_apply_recurrence_returns(in_process, tmp_path, polys, initial, n_max):
    # ppp apply computes in decimal; its output is str() of the library's int
    # terms, or, when the library raises, the error and nothing on stdout
    rec = PolyRecurrence(polys)
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(rec.to_json_dict()))
    try:
        terms = apply_recurrence(rec, IntSequence.of(initial), n_max).terms
        expected = (0, "".join(f"{t}\n" for t in terms), "")
    except (ValueError, ArithmeticError) as exc:
        expected = (2, "", f"error: {exc}\n")
    args = ["apply", "--recurrence", str(path), "--n", str(n_max)]
    assert in_process(args, "".join(f"{t}\n" for t in initial)) == expected


def test_apply_cases_reach_both_outcomes():
    outcomes = []
    for polys, initial, n_max in apply_cases():
        try:
            terms = apply_recurrence(PolyRecurrence(polys), IntSequence.of(initial), n_max)
            outcomes.append(len(terms) > len(initial))
        except ArithmeticError:
            outcomes.append(None)
    assert outcomes.count(True) >= 20 and outcomes.count(None) >= 10


@pytest.mark.parametrize("length", [1, 2, _BAND, _BAND + 1, 2 * _BAND + 1, 151])
def test_egf_invert_prints_egf_triple(in_process, length):
    rng = random.Random(length)
    a = [1] + [rng.randint(-10**30, 10**30) for _ in range(length - 1)]
    expected = cli._canonical_json(egf_triple(IntSequence.of(a)).to_json_dict()) + "\n"
    assert in_process(["egf-invert"], "".join(f"{t}\n" for t in a)) == (0, expected, "")


@pytest.mark.parametrize("text, message", [
    ('{"offset": 1, "terms": [1, 2]}', "egf_triple requires offset 0 (got 1); re-index first"),
    ("2\n1\n", "construction requires a_0 = 1, got 2; rescaling is refused "
                "because it changes the divisibility structure"),
    pytest.param(f"1{'0' * 5000}\n", f"construction requires a_0 = 1, got 1{'0' * 5000}; "
                 "rescaling is refused because it changes the divisibility structure",
                 id="a0-past-digit-limit"),
])
def test_egf_invert_refusals_keep_their_text(in_process, text, message):
    assert in_process(["egf-invert"], text) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("args, stdin", [
    (["apply", "--recurrence", "{rec}", "--n", "30"], "2\n5\n"),
    (["egf-invert"], "1\n123456789\n-987654321\n"),
])
def test_a_trapped_decimal_operation_is_a_bug(in_process, monkeypatch, tmp_path, args, stdin):
    # any DecimalException is an ArithmeticError, which alone would exit 2.
    # apply prints nothing before its last term; egf-invert has printed b
    # and c when the inverse transform that turns c into u traps.
    rec = tmp_path / "e.json"
    rec.write_text(json.dumps({"order": 2, "polys": [["2", "1"], ["-4", "-1"], ["1"]]}))
    monkeypatch.setattr(cli, "_EXACT", decimal.Context(prec=5, traps=[decimal.Inexact]))
    rc, out, err = in_process([a.replace("{rec}", str(rec)) for a in args], stdin)
    printed = _egf_b_and_c(stdin) if args == ["egf-invert"] else ""
    assert (rc, out, err) == (3, printed,
                              "error: internal: decimal arithmetic was not exact (Inexact)\n")


def _egf_b_and_c(text):
    """egf-invert's stdout for ``text`` up to where u would start."""
    triple = egf_triple(cli.parse_sequence(text))
    return cli._canonical_json(triple.to_json_dict()).split(',"u":')[0]


def test_egf_invert_out_of_memory_in_u_leaves_b_and_c(in_process, monkeypatch):
    def exhausted(t):
        raise MemoryError
    monkeypatch.setattr(cli, "_inverse_in_place", exhausted)
    stdin = "1\n123456789\n-987654321\n"
    assert in_process(["egf-invert"], stdin) == (
        4, _egf_b_and_c(stdin), "error: out of memory: undecided within resource limits\n")


def test_main_restores_caller_digit_limit(capsys):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        # primorial(12000) has 5143 digits, past the caller's limit of 5000
        assert cli.main(["sieve", "--kind", "primorial", "--n", "12000"]) == 0
        assert sys.get_int_max_str_digits() == 5000
        assert cli.main(["sieve", "--kind", "primorial", "--n", "-3"]) == 2
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12001 and len(lines[-1]) > 5000


def test_overlapping_calls_leave_the_digit_limit_alone(monkeypatch, capsys):
    # Two calls in threads, made deterministic: a short call enters its
    # command, then a long one, and the short one returns while the long one
    # waits.  A limit lifted and restored per call is back in force when the
    # long call prints.
    start = sys.get_int_max_str_digits()
    table = cli.primorial_table
    entered = {n: threading.Event() for n in (1, 12000)}
    release = {n: threading.Event() for n in (1, 12000)}
    codes = {}

    def held(n):
        entered[n].set()
        release[n].wait(60)
        return table(n)

    def call(n):
        codes[n] = cli.main(["sieve", "--kind", "primorial", "--n", str(n)])

    monkeypatch.setattr(cli, "primorial_table", held)
    threads = {n: threading.Thread(target=call, args=(n,)) for n in (1, 12000)}
    try:
        for n in (1, 12000):
            threads[n].start()
            assert entered[n].wait(60)
            assert sys.get_int_max_str_digits() == start
        release[1].set()
        threads[1].join(60)
        assert codes == {1: 0} and sys.get_int_max_str_digits() == start
    finally:
        for n in (1, 12000):
            release[n].set()
            if threads[n].is_alive():
                threads[n].join(60)
    assert codes == {1: 0, 12000: 0} and sys.get_int_max_str_digits() == start
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["1", "1"] and len(lines) == 2 + 12001 and len(lines[-1]) == 5143


def test_a_report_past_the_digit_limit_renders_as_the_cli_prints_it():
    # At 16384 bits the exact rho and epsilon have numerators of about 4900
    # digits.  The CLI runs in a second process meanwhile; neither lifts the
    # default limit, and the bytes are pinned.
    assert 0 < sys.get_int_max_str_digits() < 4900
    args = ["bounds", "--c", "1", "--delta", "11/10", "--precision", "16384"]
    with subprocess.Popen(CMD + args, stdout=subprocess.PIPE, text=True) as proc:
        report = bounds.bounds_report(1, bounds.Delta.parse("11/10"), bounds.PrecisionCtx(16384))
        text = cli._canonical_json(report.to_json_dict()) + "\n"
        out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0 and out == text
    assert len(json.loads(text)["rho"]["exact"].split("/")[0]) > 4300
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "44c9d5d0f8a3b192c2565ca3acc04c04ecb32dfc7bec40df899f6815aeb5f8a8"


BIG = 7**9000  # 7606 digits, past the default int/str limit


@pytest.mark.parametrize("template", ["{}\n", '{{"terms": ["{}"]}}', '{{"terms": [{}]}}'],
                         ids=["line", "json-string", "json-integer"])
def test_terms_past_the_digit_limit_parse_in_process(template):
    assert cli.parse_sequence(template.format(decimal_text(-BIG))).terms == (-BIG,)


def test_a_delta_past_the_digit_limit_is_refused_with_its_value(in_process):
    text = "1/1" + "0" * 5000
    assert in_process(["bounds", "--c", "1", "--delta", text]) == (
        2, "", f"error: delta must exceed 1, got {text}\n")


def test_recurrence_coefficients_past_the_digit_limit_load(tmp_path):
    # one coefficient a JSON integer, one a base-10 string; their gcd is 1
    path = tmp_path / "rec.json"
    path.write_text(f'{{"order": 1, "polys": [[{decimal_text(BIG)}], ["{decimal_text(BIG + 1)}"]]}}')
    assert cli._load_recurrence(str(path)).polys == ((BIG,), (BIG + 1,))


def test_guess_verify_apply_cycle(tmp_path):
    seed = "2\n5\n"
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps(
        {"order": 2, "polys": [["2", "1"], ["-4", "-1"], ["1"]]}
    ))
    ext = run(["apply", "--recurrence", str(rec_path), "--n", "40"], seed)
    assert ext.returncode == 0
    guessed = run(["guess", "--smax", "4", "--dmax", "4"], ext.stdout)
    assert guessed.returncode == 0
    gd = json.loads(guessed.stdout)
    assert gd["found"] and gd["recurrence"]["polys"] == [["2", "1"], ["-4", "-1"], ["1"]]
    ver = run(["verify", "--recurrence", str(rec_path)], ext.stdout)
    assert ver.returncode == 0
    corrupted = ext.stdout.replace("65", "66", 1)
    assert run(["verify", "--recurrence", str(rec_path)], corrupted).returncode == 1


def test_guess_none_is_exit_one():
    prim = run(["sieve", "--kind", "primorial", "--n", "59"]).stdout
    r = run(["guess", "--smax", "4", "--dmax", "4"], prim)
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"found": False}


def test_apply_leading_zero_reported(tmp_path):
    # a_1..a_3 = 2, 1, 1 exist, but nothing is printed when n = 3 fails
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"order": 1, "polys": [["1"], ["-3", "1"]]}))
    r = run(["apply", "--recurrence", str(path), "--n", "10"], "6\n")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: leading polynomial vanishes at n=3\n"


def test_bounds_cli_and_env_precision():
    # the precision comes from --precision alone; the environment is ignored
    r = run(["bounds", "--c", "1", "--delta", "11/10"])
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["H"] == "247688789395926825625299"
    assert d["input"]["precision_bits"] == "256"
    r2 = subprocess.run(
        CMD + ["bounds", "--c", "1", "--delta", "11/10"],
        capture_output=True, text=True, env={**os.environ, "PPP_PRECISION_BITS": "320"},
        timeout=300,
    )
    assert r2.returncode == 0 and r2.stdout == r.stdout
    assert json.loads(r2.stdout)["input"]["precision_bits"] == "256"


def test_bounds_small_c_exits_zero():
    # it exited 3: H = 57 fell below a "lower bound" of about 3.4e6
    r = run(["bounds", "--c", "1/1000000", "--delta", "11/10"])
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["H"] == "57"


def test_apply_negative_n_is_a_usage_error(tmp_path):
    # it used to print 3 of the 5 initial terms and exit 0
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"order": 2, "polys": [["2", "1"], ["-4", "-1"], ["1"]]}))
    r = run(["apply", "--recurrence", str(path), "--n", "-3"], "2\n5\n16\n65\n326\n")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: n_max must be a natural number\n"


def test_bounds_precision_zero_rejected(capsys):
    for bits, message in (("0", "below 64 bits"),
                          ("40000", "precision 40000 bits exceeds the precision ceiling "
                                    "max_bits = 32768")):
        assert cli.main(["bounds", "--c", "1", "--delta", "11/10", "--precision", bits]) == 2
        out = capsys.readouterr()
        assert out.out == "" and message in out.err, bits


def test_bounds_cli_domain_error():
    assert run(["bounds", "--c", "1", "--delta", "5/1"]).returncode == 2


@pytest.mark.parametrize("exc, code", [
    (bounds.SearchExceeded("no height up to 2^16384 satisfies the inequality"), 4),
    (bounds.PrecisionExhausted("floor undecided at 32768 bits"), 4),
    (bounds.CapExceeded("the J(epsilon) tail proof needs x0 = 4194304, beyond the J limit"), 4),
    (ZeroDivisionError("division by zero"), 2),
    (ArithmeticError("other arithmetic failure"), 2),
    (AssertionError("internal: the predicate holds at H-1, so H is not minimal"), 3),
])
def test_bounds_exit_code_for_undecided(monkeypatch, capsys, exc, code):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(bounds, "bounds_report", fail)
    assert cli.main(["bounds", "--c", "1", "--delta", "3/2"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.parametrize("check", ["_rho2_holds_strictly", "_rho1_holds"])
def test_bounds_lost_margin_is_a_bug_trap(monkeypatch, capsys, check):
    # choose_parameters verifies each margin and bounds_report re-checks it;
    # a re-check that fails is a bug (exit 3), not a resource limit (exit 4).
    holds, verified = getattr(bounds, check), []

    def recheck_fails(*args):
        if verified:
            return False
        ok = holds(*args)
        if ok:
            verified.append(args)
        return ok

    monkeypatch.setattr(bounds, check, recheck_fails)
    assert cli.main(["bounds", "--c", "1", "--delta", "11/10"]) == 3
    assert "lost its strict margin" in capsys.readouterr().err


def test_deterministic_outputs():
    a = run(["construct", "--phi", "geometric:2718282/1000000", "--n", "25"])
    b = run(["construct", "--phi", "geometric:2718282/1000000", "--n", "25"])
    assert a.stdout == b.stdout


# --- import split -----------------------------------------------------------
# Only ``ppp bounds`` loads real arithmetic (ppp.bounds and ppp.real), and
# nothing loads mpmath, or dataclasses and inspect (ppp's records are
# ``_record.Record``s).  Each check runs in a fresh interpreter, since this
# one has imported ppp.bounds already.  It starts with -S and the checkout's
# src as its only path, so no site hook (a sitecustomize or a .pth file)
# loads a module before the script does.

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def fresh(script, *args):
    r = subprocess.run([sys.executable, "-S", "-c", script, *args],
                       env={**os.environ, "PYTHONPATH": SRC},
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    return r.stdout


EVERY_OTHER_SUBCOMMAND = r"""
import io, json, sys
from contextlib import redirect_stdout
from ppp import cli

def main(argv, stdin=""):
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0, (argv, rc)
    return out.getvalue()

rec = sys.argv[1]
with open(rec, "w") as f:
    json.dump({"order": 2, "polys": [["2", "1"], ["-4", "-1"], ["1"]]}, f)
genuine = main(["construct", "--phi", "primorial", "--n", "12"])
main(["sieve", "--kind", "lcm", "--n", "5"])
main(["inverse-transform"], main(["transform"], genuine))
main(["reindex", "--to", "1"], genuine)
main(["certify", "--mode", "both"], genuine)
main(["egf-invert"], genuine)
terms = main(["apply", "--recurrence", rec, "--n", "30"], "2\n5\n")
main(["verify", "--recurrence", rec], terms)
main(["guess", "--smax", "3", "--dmax", "2"], terms)
print(json.dumps(sorted({"dataclasses", "inspect", "mpmath", "ppp.bounds", "ppp.real"} & set(sys.modules))))
"""


def test_other_subcommands_load_neither_mpmath_nor_bounds(tmp_path):
    out = fresh(EVERY_OTHER_SUBCOMMAND, str(tmp_path / "rec.json"))
    assert json.loads(out) == []


ONE_COMMAND = r"""
import io, json, sys
from contextlib import redirect_stdout
from ppp import cli
with redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted({"dataclasses", "inspect", "mpmath", "ppp.bounds", "ppp.real"} & set(sys.modules))]))
import ppp.real  # the module checked for exists
"""


def test_bounds_runs_without_mpmath():
    out = fresh(ONE_COMMAND, "bounds", "--c", "1", "--delta", "11/10")
    assert json.loads(out) == [0, ["ppp.bounds", "ppp.real"]]


def test_sieve_loads_no_real_arithmetic():
    out = fresh(ONE_COMMAND, "sieve", "--kind", "primorial", "--n", "5")
    assert json.loads(out) == [0, []]


REPLAY_MODULES = r"""
import runpy, sys
import ppp.cli
from ppp import bounds
layers = runpy.run_path(sys.argv[1])["LAYERS"]
print(sorted({f"ppp.{mod}" for _, mod, _, _ in layers} - set(sys.modules)))
"""


def test_replay_finds_every_traced_module_loaded():
    # bench/replay.py wraps functions in these modules after the same imports
    replay = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "replay.py")
    assert fresh(REPLAY_MODULES, replay) == "[]\n"


PUBLIC_API = {
    "arith": ["PrimeTable", "binomial", "binomial_row", "lcm_table", "lcm_to",
              "lucas_binomial_mod", "primes_up_to", "primorial", "primorial_table"],
    "bounds": ["CapExceeded", "Delta", "DomainError", "EffectiveBounds", "Enclosure",
               "Parameters", "PrecisionCtx", "PrecisionExhausted", "SearchExceeded",
               "bounds_report", "choose_parameters", "compute_H", "compute_J",
               "degree_bound_formula", "phi_upper_bound"],
    "certify": ["CertReport", "Counterexample", "GrowthEstimate", "PolyDetect",
                "certify_primary_direct", "certify_primary_hall", "certify_pseudo_hall",
                "detect_polynomial", "growth_exponent"],
    "construct": ["ConstructStep", "ConstructTrace", "ceil_div_rational", "construct_genuine",
                  "phi_geometric", "phi_primorial", "phi_table"],
    "egfinv": ["EgfTriple", "egf_reciprocal", "egf_triple", "u_over_factorial"],
    "recur": ["GuessBudget", "LeadingZeroError", "NonIntegralError", "PolyRecurrence",
              "apply_recurrence", "guess_recurrence", "verify_recurrence"],
    "transforms": ["IntSequence", "RationalSeries", "binomial_transform",
                   "inverse_binomial_transform", "ogf_of", "substitute_check"],
}

PUBLIC_API_CHECK = r"""
import importlib, json, sys
import ppp
for home, names in json.loads(sys.argv[1]).items():
    module = importlib.import_module(f"ppp.{home}")
    for name in names:
        scope = {}
        exec(f"from ppp import {name}", scope)
        assert scope[name] is getattr(ppp, name) is getattr(module, name), name
for bad in ("ppp.no_such_name", "ppp.scan_J"):
    try:
        eval(bad)
    except AttributeError:
        continue
    raise AssertionError(bad)
try:
    from ppp import no_such_name
except ImportError:
    print("ok")
"""


def test_public_api_is_unchanged():
    assert fresh(PUBLIC_API_CHECK, json.dumps(PUBLIC_API)) == "ok\n"
    assert fresh("import ppp; print(ppp.bounds.compute_J.__module__)") == "ppp.bounds\n"
