import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetoperad import cli
from posetoperad.counting import d_vector
from posetoperad.dsl import (AntichainLit, ChainLit, HasseLit, LexApply,
                             OrdinalSum, Union, format_expr, parse_expr,
                             parse_poset, resolve)
from posetoperad.errors import (ArityError, CycleDetected, ExprSyntaxError,
                                UnknownName)
from posetoperad.poset import antichain, chain, max_chain_length
from posetoperad.series import zigzag_poset


def test_parse_literals():
    assert parse_expr("C3") == ChainLit(3)
    assert parse_expr("A4") == AntichainLit(4)
    assert parse_expr("C0") == ChainLit(0)
    assert resolve(parse_expr("C3")) == chain(3)
    assert resolve(parse_expr("A4")) == antichain(4)


def test_parse_hasse_zigzag():
    ast = parse_expr("{x<y, z<y, z<w}")
    assert ast == HasseLit(("x", "y", "z", "w"),
                           (("x", "y"), ("z", "y"), ("z", "w")))
    assert resolve(ast).relation == zigzag_poset().relation
    # '>' sugar normalizes to the flipped pair
    sugar = parse_expr("{x<y>z<w}")
    assert resolve(sugar).index_pairs() == resolve(ast).index_pairs()


def test_parse_star_expression():
    ast = parse_expr("C1 * (C1 | C1 | C1)")
    assert ast == OrdinalSum(ChainLit(1),
                             Union(Union(ChainLit(1), ChainLit(1)),
                                   ChainLit(1)))
    P = resolve(ast)
    assert d_vector(P).d == (0, 1, 6, 6)


def test_parse_precedence_and_associativity():
    assert parse_expr("C1 | C1 * C2") == Union(
        ChainLit(1), OrdinalSum(ChainLit(1), ChainLit(2)))
    assert parse_expr("C1 | C2 | C3") == Union(
        Union(ChainLit(1), ChainLit(2)), ChainLit(3))
    assert parse_expr("C1 * C2 * C3") == OrdinalSum(
        OrdinalSum(ChainLit(1), ChainLit(2)), ChainLit(3))


def test_unicode_union_alias():
    assert parse_expr("C1 ⊔ C2") == parse_expr("C1 | C2")


def test_lex_apply():
    ast = parse_expr("{x<y,z<y,z<w}(C2, C1, C1, C1)")
    assert isinstance(ast, LexApply) and len(ast.args) == 4
    P = resolve(ast)
    assert d_vector(P).d == (0, 0, 3, 11, 9)
    assert max_chain_length(P) == 3


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("{x<}")
    assert e.value.line == 1 and e.value.col == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("C1 |")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(C1")
    with pytest.raises(ExprSyntaxError):
        parse_expr("C1 C2")
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("\n  {a<%b}")
    assert e.value.line == 2


def test_arity_and_name_errors():
    with pytest.raises(ArityError):
        parse_expr("C2(C1)")
    with pytest.raises(ArityError):
        parse_expr("{x,y}(C1, C1, C1)")
    with pytest.raises(UnknownName):
        parse_expr("mystery")
    with pytest.raises(CycleDetected) as exc:
        parse_poset("{a<b, b<a}")
    assert str(exc.value) == "cycle among a, b"


def test_a_name_is_reported_where_it_appears(capsys):
    # the grammar has no names: any identifier other than Cn or An is an
    # error at the parse, before any arity check of an enclosing literal
    for text, name in (("foo", "foo"), ("f(C1, C2)", "f"),
                       ("{a<b}(foo, C1)", "foo"), ("foo|", "foo"),
                       ("{a,b}(foo)", "foo")):
        with pytest.raises(UnknownName) as exc:
            parse_expr(text)
        assert str(exc.value) == name
    assert cli.main(["poly", "foo"]) == 2
    assert capsys.readouterr() == ("", "error: foo\n")
    assert cli.main(["poly", "C1|5"]) == 2
    assert capsys.readouterr().err == (
        "error: 1:4: expected a literal (Cn, An, '{...}'), "
        "found '5'\n")


def test_format_examples():
    assert format_expr(ChainLit(3)) == "C3"
    assert format_expr(Union(ChainLit(1), ChainLit(1))) == "(C1 | C1)"
    zig = parse_expr("{x<y,z<y,z<w}")
    applied = LexApply(zig, (ChainLit(2), ChainLit(1), ChainLit(1), ChainLit(1)))
    assert format_expr(applied) == "{x<y,z<y,z<w}(C2, C1, C1, C1)"


def _random_ast(rng, depth):
    kind = rng.randrange(6 if depth > 0 else 3)
    if kind == 0:
        return ChainLit(rng.randrange(0, 5))
    if kind == 1:
        return AntichainLit(rng.randrange(0, 5))
    if kind == 2:
        n = rng.randrange(1, 5)
        labels = rng.sample(string.ascii_lowercase, n)
        covers = []
        for j in range(n):
            for i in range(j):
                if rng.random() < 0.4:
                    covers.append((labels[i], labels[j]))
        return HasseLit(tuple(labels), tuple(covers))
    if kind == 3:
        return Union(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 4:
        return OrdinalSum(_random_ast(rng, depth - 1),
                          _random_ast(rng, depth - 1))
    outer = ChainLit(rng.randrange(1, 4))
    args = tuple(_random_ast(rng, depth - 1) for _ in range(outer.n))
    return LexApply(outer, args)


def test_round_trip_corpus_of_1000():
    rng = random.Random(20240817)
    for _ in range(1000):
        ast = _random_ast(rng, 4)
        assert parse_expr(format_expr(ast)) == ast


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_round_trip_hypothesis(data):
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    ast = _random_ast(random.Random(seed), 3)
    assert parse_expr(format_expr(ast)) == ast


def test_hasse_label_order_is_first_appearance():
    # isolated labels that would otherwise appear out of order
    lit = HasseLit(("w", "x", "y", "z"), (("x", "y"),))
    text = format_expr(lit)
    assert parse_expr(text) == lit
    P = resolve(lit)
    assert P.elements == ("w", "x", "y", "z")


def test_empty_brace_literal():
    assert resolve(parse_expr("{}")) == chain(0)
