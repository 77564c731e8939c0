"""The immutable value classes share one base, ``errors.Record``: each is
built positionally or by keyword, is frozen, compares and hashes by its
exact type and field values, and prints as ``Name(field=value, ...)``."""

import copy
import inspect
import pickle

import pytest

from posetoperad.counting import (DVector, ReciprocityReport, count_maps,
                                  order_polynomial)
from posetoperad.dsl import (AntichainLit, ChainLit, HasseLit, LexApply,
                             OrdinalSum, Union, _Tok)
from posetoperad.errors import (ArityMismatch, ModeMismatch,
                                PosetOperadError, Record)
from posetoperad.polynomials import BinomialPoly
from posetoperad.poset import antichain, chain
from posetoperad.series import (ClosedForm, SeriesIdentityReport, SeriesVec,
                                series_identity_check)
from posetoperad.suite import Discrepancy
from posetoperad.zeta import (IdentityRecord, PrecisionContext, ZetaExpr,
                              verify_identity, zeta_number)

from oracles import NestedSumReport

# each record class with the field values of one instance, and the same
# values with one field changed
SAMPLES = [
    (ChainLit, (3,), (4,)),
    (AntichainLit, (2,), (3,)),
    (HasseLit, (("x", "y"), (("x", "y"),)), (("x", "y"), ())),
    (Union, (ChainLit(1), AntichainLit(2)), (ChainLit(1), AntichainLit(3))),
    (OrdinalSum, (ChainLit(1), AntichainLit(2)),
     (ChainLit(2), AntichainLit(2))),
    (LexApply, (ChainLit(2), (ChainLit(1), ChainLit(2))),
     (ChainLit(2), (ChainLit(2), ChainLit(1)))),
    (_Tok, ("ident", "x", 1, 2), ("ident", "x", 1, 3)),
    (DVector, (chain(2), (0, 1)), (antichain(2), (1, 2))),
    (ReciprocityReport, (chain(2), order_polynomial(chain(2)),
                         order_polynomial(chain(2), "weak"), True),
     (chain(2), order_polynomial(chain(2)),
      order_polynomial(chain(2), "weak"), False)),
    (NestedSumReport, (3, 2, 1, 6, 6, 6, True), (3, 2, 1, 6, 6, 7, False)),
    (ClosedForm, ((0, 1), 2, "weak"), ((0, 1), 3, "weak")),
    (SeriesIdentityReport, ("hstar_top", (("poset", "x<y"),), True, "a", "b",
                            ("note",)),
     ("hstar_top", (("poset", "x<y"),), True, "a", "b", ())),
    (PrecisionContext, (40, 1e-20, 500), (40, 1e-20, 501)),
    (IdentityRecord, ("lhs", ZetaExpr({0: 1}), chain(2), BinomialPoly({2: 1}),
                      False, 2, None, None, 0.5, True, ("n",)),
     ("lhs", ZetaExpr({0: 2}), chain(2), BinomialPoly({2: 1}),
      False, 2, None, None, 0.5, True, ("n",))),
    (Discrepancy, ("id", "1", "2", "note", True),
     ("id", "1", "2", "note", False)),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls,values,other", SAMPLES, ids=IDS)
def test_construction_equality_and_hash(cls, values, other):
    assert issubclass(cls, Record)
    fields = cls.__slots__
    assert list(inspect.signature(cls).parameters) == list(fields)
    rec = cls(*values)
    assert tuple(getattr(rec, f) for f in fields) == values
    by_name = cls(**dict(zip(fields, values)))
    assert by_name == rec and hash(by_name) == hash(rec)
    changed = cls(*other)
    assert changed != rec and not changed == rec
    assert rec != values and rec != object()
    assert len({rec, by_name, changed}) == 2


@pytest.mark.parametrize("cls,values,other", SAMPLES, ids=IDS)
def test_fields_are_frozen(cls, values, other):
    rec = cls(*values)
    for f in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
        with pytest.raises(AttributeError):
            delattr(rec, f)
        assert getattr(rec, f) == dict(zip(cls.__slots__, values))[f]
    with pytest.raises(AttributeError):
        rec.no_such_field = 1


@pytest.mark.parametrize("cls,values,other", SAMPLES, ids=IDS)
def test_bad_arguments_raise_type_error(cls, values, other):
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)
    with pytest.raises(TypeError):
        cls(values[0], **{cls.__slots__[0]: values[0]})
    required = [p for p in inspect.signature(cls).parameters.values()
                if p.default is p.empty]
    if required:
        with pytest.raises(TypeError):
            cls(*values[:len(required) - 1])


@pytest.mark.parametrize("cls,values,other", SAMPLES, ids=IDS)
def test_replace_copy_and_pickle(cls, values, other):
    rec = cls(*values)
    changes = {f: b for f, a, b in zip(cls.__slots__, values, other) if a != b}
    assert rec._replace(**changes) == cls(*other)
    assert rec._replace() == rec
    with pytest.raises(TypeError):
        rec._replace(no_such_field=None)
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_equality_needs_the_exact_type():
    a, b = ChainLit(1), AntichainLit(2)
    assert Union(a, b) != OrdinalSum(a, b)
    assert ChainLit(1) != AntichainLit(1)
    assert len({Union(a, b), OrdinalSum(a, b), ChainLit(1),
                AntichainLit(1)}) == 4
    assert hash(Union(a, b)) != hash(OrdinalSum(a, b))
    assert hash(ChainLit(1)) != hash(AntichainLit(1))


def test_repr_is_the_dataclass_format():
    assert repr(ChainLit(3)) == "ChainLit(n=3)"
    assert repr(Union(ChainLit(1), AntichainLit(2))) == \
        "Union(left=ChainLit(n=1), right=AntichainLit(n=2))"
    assert repr(PrecisionContext()) == ("PrecisionContext(working_digits=50, "
                                        "verify_tolerance=1e-12, "
                                        "series_term_cap=4000)")
    assert repr(SeriesIdentityReport("n", (), True, "a", "b")) == (
        "SeriesIdentityReport(name='n', params=(), passed=True, lhs='a', "
        "rhs='b', notes=())")


def test_defaults():
    ctx = PrecisionContext()
    assert (ctx.working_digits, ctx.verify_tolerance,
            ctx.series_term_cap) == (50, 1e-12, 4000)
    assert ctx == PrecisionContext(50, 1e-12, 4000)
    assert hash(ctx) == hash(PrecisionContext(working_digits=50))
    assert PrecisionContext(verify_tolerance=1e-9) == \
        PrecisionContext(50, 1e-9, 4000)
    assert SeriesIdentityReport("n", (), True, "a", "b").notes == ()
    rec = IdentityRecord("lhs", ZetaExpr({0: 1}))
    assert (rec.poset, rec.lhs_poly, rec.alternating, rec.start_index,
            rec.lhs_numeric, rec.rhs_numeric, rec.error_bound, rec.passed,
            rec.notes) == (None, None, True, 1, None, None, None, None, ())


def test_dvector_is_validated():
    with pytest.raises(PosetOperadError):
        DVector(chain(2), (1, 0))
    with pytest.raises(PosetOperadError):
        DVector(chain(2), (0, -1))
    with pytest.raises(PosetOperadError):
        DVector(chain(2), (0, 1))._replace(d=(1, 0))


def _unsummable(**fields):
    return IdentityRecord("lhs", ZetaExpr.make(0), **fields)


# each refusal no other test reaches: (call, exception, message pattern)
REFUSALS = [
    pytest.param(lambda: verify_identity(_unsummable()), ValueError,
                 "no summable polynomial", id="identity-without-poly"),
    pytest.param(lambda: verify_identity(_unsummable(
        lhs_poly=BinomialPoly({0: 1}), start_index=0)),
        ValueError, r"start at k >= 1: zeta\(1\) diverges",
        id="identity-from-zeta-1"),
    pytest.param(lambda: count_maps(chain(2), -1), ValueError,
                 "n must be nonnegative", id="count-below-zero"),
    pytest.param(lambda: DVector(chain(2), (0, 0)), PosetOperadError,
                 "top entry must count linear extensions",
                 id="dvector-top-entry"),
    pytest.param(lambda: order_polynomial(chain(2), "x"), ValueError,
                 "unknown mode 'x'", id="order-polynomial-mode"),
    pytest.param(lambda: BinomialPoly({1: 1}).eval(3, "x"), ValueError,
                 "unknown eval mode 'x'", id="eval-mode"),
    pytest.param(lambda: SeriesVec("x"), ValueError, "unknown mode 'x'",
                 id="series-mode"),
    pytest.param(lambda: ClosedForm((1,), 1, "strict").h_star(),
                 ModeMismatch, r"h\* is read off the weak closed form",
                 id="h-star-strict"),
    pytest.param(lambda: ClosedForm((1, 1), 2, "weak").h_star(), ValueError,
                 "should have no constant term", id="h-star-constant"),
    pytest.param(lambda: series_identity_check(
        "quaternary_reversal", {"chains": (1, 2, 3)}),
        ArityMismatch, "needs four chain lengths", id="reversal-arity"),
    pytest.param(lambda: ZetaExpr.make(1).render("x"), ValueError,
                 "unknown render style 'x'", id="render-style"),
    pytest.param(lambda: zeta_number(chain(2), "x"), ValueError,
                 "unknown variant 'x'", id="zeta-number-variant"),
]


@pytest.mark.parametrize("call,error,message", REFUSALS)
def test_each_refusal_fires(call, error, message):
    with pytest.raises(error, match=message):
        call()
