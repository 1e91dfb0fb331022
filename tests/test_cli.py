import json
import os
import subprocess
import sys

import pytest

from ppp import bounds, cli
from ppp.egfinv import egf_triple

CMD = [sys.executable, "-m", "ppp.cli"]


def run(args, stdin=""):
    return subprocess.run(
        CMD + args, input=stdin, capture_output=True, text=True, timeout=300
    )


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
    (["bounds", "--c", "1", "--delta", "11/10"], {"PPP_PRECISION_BITS": "3_20"}),
])
def test_integer_options_need_ascii_integers(args, env):
    # the line rule again: an optional sign and ASCII digits
    r = subprocess.run(CMD + args, input="1\n2\n", capture_output=True, text=True,
                       env={**os.environ, **env}, timeout=300)
    assert r.returncode == 2 and r.stdout == ""
    assert "integer" in r.stderr


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


@pytest.fixture
def no_digit_limit():
    """Lift the int/str conversion limit in this process, to build expectations."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def test_egf_invert():
    r = run(["egf-invert"], "1\n2\n3\n4\n5\n")
    d = json.loads(r.stdout)
    assert d["u"] == ["1", "0", "1", "-2", "9"]


def test_egf_invert_streams_canonical_json_past_digit_limit(no_digit_limit):
    text = "".join(f"{t}\n" for t in (1, 3**4000, -(7**3000), 5**4000))
    r = run(["egf-invert"], text)
    assert r.returncode == 0, r.stderr
    assert max(len(t) for t in json.loads(r.stdout)["c"]) > 4300
    triple = egf_triple(cli.parse_sequence(text))
    assert r.stdout == cli._canonical_json(triple.to_json_dict()) + "\n"


def test_apply_past_digit_limit(tmp_path, no_digit_limit):
    # a_n = sum C(n+1,k) k!; a_2000 has about 5700 digits
    rec_path = tmp_path / "e.json"
    rec_path.write_text(json.dumps({"order": 2, "polys": [["2", "1"], ["-4", "-1"], ["1"]]}))
    r = run(["apply", "--recurrence", str(rec_path), "--n", "2000"], "2\n5\n")
    assert r.returncode == 0, r.stderr
    a = [2, 5]
    for n in range(1999):
        a.append((n + 4) * a[n + 1] - (n + 2) * a[n])
    assert r.stdout == "".join(f"{t}\n" for t in a)


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


def test_apply_leading_zero_reported():
    rec = {"order": 1, "polys": [["1"], ["-3", "1"]]}
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(rec, f)
        path = f.name
    try:
        r = run(["apply", "--recurrence", path, "--n", "10"], "6\n")
        assert r.returncode == 2
        assert "n=3" in r.stderr
    finally:
        os.unlink(path)


def test_bounds_cli_and_env_precision():
    r = run(["bounds", "--c", "1", "--delta", "11/10"])
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["H"] == "247688789395926825625299"
    assert d["input"]["precision_bits"] == "256"
    env = {"PPP_PRECISION_BITS": "320"}
    r2 = subprocess.run(
        CMD + ["bounds", "--c", "1", "--delta", "11/10"],
        capture_output=True, text=True, env={**os.environ, **env}, timeout=300,
    )
    d2 = json.loads(r2.stdout)
    assert d2["input"]["precision_bits"] == "320"
    assert d2["H"] == d["H"]


def test_bounds_precision_zero_rejected(capsys):
    assert cli.main(["bounds", "--c", "1", "--delta", "11/10", "--precision", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "below 64 bits" in out.err


def test_bounds_cli_domain_error():
    assert run(["bounds", "--c", "1", "--delta", "5/1"]).returncode == 2


@pytest.mark.parametrize("exc, code", [
    (bounds.SearchExceeded("no height up to 2^16384 satisfies the inequality"), 4),
    (bounds.PrecisionExhausted("floor undecided at 32768 bits"), 4),
    (bounds.CapExceeded("violations persist at j=999999 near the cap 1000000"), 4),
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
