"""The frozen-record contract of ``ppp._record.Record``, for every record class."""
from decimal import Decimal
from fractions import Fraction

import pytest

import ppp
import ppp.bounds as b
from ppp._record import Record

RECORDS = {
    "PrimeTable", "IntSequence", "RationalSeries",
    "Counterexample", "CertReport", "PolyDetect", "GrowthEstimate",
    "ConstructStep", "ConstructTrace", "EgfTriple", "PolyRecurrence", "GuessBudget",
    "Enclosure", "Delta", "PrecisionCtx", "ChebyshevBound", "JScan", "Parameters",
    "EffectiveBounds",
}


def samples() -> dict:
    """One record of each class, by class name."""
    enc = b.Enclosure(Fraction(1, 3), Fraction(1, 2))
    delta = b.Delta.parse("11/10")
    params = b.Parameters(Fraction(1), delta, enc, 1, 2, enc, (enc, enc), Fraction(3, 4),
                          Fraction(1, 8), enc, enc, 7)
    step = ppp.ConstructStep(1, 2, 3, 4, 5, 6, 7)
    scan = b.JScan(5, b.ROSSER_SCHOENFELD, 563)
    records = [
        ppp.PrimeTable(10, (2, 3, 5, 7)),
        ppp.IntSequence((1, -2, 5), 1),
        ppp.RationalSeries((Fraction(1), Fraction(-1, 2))),
        ppp.Counterexample(3, 6, 7),
        ppp.CertReport(False, 4, (ppp.Counterexample(3, 6, 7),), True, "pseudo-hall"),
        ppp.PolyDetect(True, 2, ((0, 1), (2, 3))),
        ppp.GrowthEstimate(Decimal("0.5"), Decimal("0.75")),
        step,
        ppp.ConstructTrace((step,)),
        ppp.EgfTriple(ppp.IntSequence((1,)), ppp.IntSequence((1, -1)), ppp.IntSequence((1, 0))),
        ppp.PolyRecurrence(((1, 2), (-1,))),
        ppp.GuessBudget(2, 3),
        enc,
        delta,
        b.PrecisionCtx(bits=128),
        b.DUSART,
        scan,
        params,
        b.EffectiveBounds(params, b.PrecisionCtx(), scan, enc, 12, enc, 0, 3, enc, None, None),
    ]
    return {type(r).__name__: r for r in records}


# The repr of each sample as ``@dataclass(frozen=True)`` printed it.
ENC = "Enclosure(lo=Fraction(1, 3), hi=Fraction(1, 2))"
PARAMETERS = (
    "Parameters(c=Fraction(1, 1), delta=Delta(kind='rational', value=Fraction(11, 10)), "
    f"ell={ENC}, formula_d=1, d=2, discriminant={ENC}, rho_interval=({ENC}, {ENC}), "
    f"rho=Fraction(3, 4), epsilon=Fraction(1, 8), omega={ENC}, log_inv_omega={ENC}, "
    "floor_j0=7)"
)
ROSSER_SCHOENFELD = (
    "ChebyshevBound(a=Fraction(1, 2), k=1, start=563, citation='Rosser & Schoenfeld 1962 "
    "(Illinois J. Math. 6), Theorem 4: theta(x) > x(1 - 1/(2 log x)) for x >= 563')"
)
JSCAN = f"JScan(J=5, tail={ROSSER_SCHOENFELD}, x0=563)"
REPRS = {
    "PrimeTable": "PrimeTable(limit=10, primes=(2, 3, 5, 7))",
    "IntSequence": "IntSequence(terms=(1, -2, 5), offset=1)",
    "RationalSeries": "RationalSeries(coeffs=(Fraction(1, 1), Fraction(-1, 2)))",
    "Counterexample": "Counterexample(n=3, modulus=6, witness=7)",
    "CertReport": "CertReport(certified=False, n=4, counterexamples=(Counterexample(n=3, "
                  "modulus=6, witness=7),), truncated=True, subject='pseudo-hall')",
    "PolyDetect": "PolyDetect(is_eventually_polynomial=True, m=2, poly=((0, 1), (2, 3)))",
    "GrowthEstimate": "GrowthEstimate(last=Decimal('0.5'), tail_max=Decimal('0.75'))",
    "ConstructStep": "ConstructStep(n=1, c=2, u=3, v=4, w=5, b=6, a=7)",
    "ConstructTrace": "ConstructTrace(steps=(ConstructStep(n=1, c=2, u=3, v=4, w=5, b=6, "
                      "a=7),))",
    "EgfTriple": "EgfTriple(b=IntSequence(terms=(1,), offset=0), c=IntSequence(terms=(1, -1), "
                 "offset=0), u=IntSequence(terms=(1, 0), offset=0))",
    "PolyRecurrence": "PolyRecurrence(polys=((1, 2), (-1,)))",
    "GuessBudget": "GuessBudget(s_max=2, d_max=3, verify_margin=10)",
    "Enclosure": ENC,
    "Delta": "Delta(kind='rational', value=Fraction(11, 10))",
    "PrecisionCtx": "PrecisionCtx(bits=128, max_bits=32768, j_cap=4000000, h_cap_log2=16384)",
    "ChebyshevBound": "ChebyshevBound(a=Fraction(1, 5), k=2, start=3594641, citation='Dusart "
                      "2010 (arXiv:1002.0442): |theta(x) - x| < 0.2 x/log^2 x for x >= "
                      "3594641')",
    "JScan": JSCAN,
    "Parameters": PARAMETERS,
    "EffectiveBounds": (
        f"EffectiveBounds(params={PARAMETERS}, ctx=PrecisionCtx(bits=256, max_bits=32768, "
        f"j_cap=4000000, h_cap_log2=16384), j_scan={JSCAN}, gamma={ENC}, H=12, "
        f"H_lower={ENC}, deg_bound_formula=0, order_bound=3, diag_alpha={ENC}, "
        "diag_beta=None, diag_H_upper=None)"
    ),
}


def test_the_records_are_the_nineteen_classes():
    assert {cls.__name__ for cls in Record.__subclasses__()} == RECORDS
    assert set(samples()) == RECORDS
    # same field values, different classes
    assert ppp.Counterexample(1, 2, 3) != ppp.GuessBudget(1, 2, 3)


@pytest.mark.parametrize("cls", sorted(Record.__subclasses__(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_record_contract(cls):
    records = samples()
    sample = records[cls.__name__]
    fields = cls._fields
    values = [getattr(sample, f) for f in fields]
    assert type(sample) is cls and fields

    # frozen: no field, and no other name, can be assigned or deleted
    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
        with pytest.raises(AttributeError):
            delattr(sample, name)
    assert [getattr(sample, f) for f in fields] == values

    # equal fields, equal records, equal hashes; never equal across classes
    for twin in (cls(*values), cls(**dict(zip(fields, values))), sample.replace()):
        assert twin is not sample and twin == sample and hash(twin) == hash(sample)
    assert sample != tuple(values)
    assert all(sample != other for other in records.values() if type(other) is not cls)

    # binding as the generated __init__ did
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    without_first = dict(zip(fields[1:], values[1:]))
    if cls is b.PrecisionCtx:  # every field has a default
        assert cls(**without_first) == cls(256, *values[1:])
    else:
        with pytest.raises(TypeError):
            cls(**without_first)
    with pytest.raises(TypeError):
        sample.replace(no_such_field=None)

    assert repr(sample) == REPRS[cls.__name__]


def test_replace_checks_the_copy_again():
    assert b.PrecisionCtx().replace(j_cap=10) == b.PrecisionCtx(j_cap=10)
    with pytest.raises(ValueError, match="below 64 bits"):
        b.PrecisionCtx().replace(bits=8)
    with pytest.raises(ValueError, match="out of order"):
        b.Enclosure(1, 2).replace(lo=3)


@pytest.mark.parametrize("make", [
    lambda: b.PrecisionCtx(bits=256.0),
    lambda: b.PrecisionCtx(max_bits=Fraction(1 << 15)),
    lambda: b.PrecisionCtx(j_cap=True),
    lambda: b.PrecisionCtx(h_cap_log2="16"),
    lambda: ppp.GuessBudget(1.5, 1),
    lambda: ppp.GuessBudget(1, True),
    lambda: ppp.GuessBudget(1, 1, 10.0),
], ids=["bits", "max_bits", "j_cap", "h_cap_log2", "s_max", "d_max", "verify_margin"])
def test_integer_fields_take_integers_only(make):
    # a float once got as far as ``<<`` in bounds_report, or range() in guess_recurrence
    with pytest.raises(TypeError, match="must be an integer"):
        make()


def test_integer_fields_keep_their_range_checks():
    with pytest.raises(ValueError, match="below 64 bits"):
        b.PrecisionCtx(bits=32)
    budget = ppp.GuessBudget(-1, 1)  # a budget is range-checked against a prefix
    with pytest.raises(ValueError, match="natural numbers"):
        budget.check(100)


def test_repr_writes_ints_past_the_digit_limit():
    # repr(int) raises past CPython's default 4300-digit limit
    big, digits = 10**5000, "1" + "0" * 5000
    assert repr(ppp.IntSequence((big,))) == f"IntSequence(terms=({digits},), offset=0)"
    assert repr(ppp.PolyRecurrence(((1, -big), (big + 1,)))) == \
        f"PolyRecurrence(polys=((1, -{digits}), ({digits[:-1]}1,)))"


def test_repr_writes_fractions_past_the_digit_limit():
    # repr(Fraction) converts by str, which raises past the 4300-digit limit;
    # the 16384-bit Parameters of 11/10 hold such Fractions
    big = Fraction(10**5000 + 1, 3)
    digits = "1" + "0" * 4999 + "1"
    assert repr(b.Enclosure(big, big)) == \
        f"Enclosure(lo=Fraction({digits}, 3), hi=Fraction({digits}, 3))"
    assert repr(b.Enclosure(Fraction(-1, 3), Fraction(2))) == \
        "Enclosure(lo=Fraction(-1, 3), hi=Fraction(2, 1))"
    params = b.choose_parameters(1, b.Delta.parse("11/10"), b.PrecisionCtx(16384))
    assert repr(params).startswith("Parameters(c=Fraction(1, 1), delta=Delta(kind='rational', ")
