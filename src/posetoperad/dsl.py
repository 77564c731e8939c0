"""Parser and printer for poset expressions.

Grammar (EBNF)::

    expr      := term ('|' term)*
    term      := factor ('*' factor)*
    factor    := literal | literal '(' expr (',' expr)* ')' | '(' expr ')'
    literal   := 'C' nat | 'A' nat | '{' relations '}'
    relations := relitem (',' relitem)* | <empty>
    relitem   := ident (('<'|'>') ident)*

'|' is disjoint union (the unicode square-cup is accepted as an alias) and
'*' is the ordinal sum; '*' binds tighter, both associate left.  Inside a
brace literal 'a>b' normalizes to the cover (b, a) before closure.
Lexicographic application `lit(e1, ..., ek)` binds arguments to the
literal's labels in first-appearance order; that order is also the slot
order of the resolved poset.

An expression may nest at most ``MAX_DEPTH`` levels: parentheses and
argument lists inside each other, and operators over operators (a chain
``a | b | c`` nests two levels).  Deeper input is a syntax error, so that
parsing and resolving never exhaust the interpreter's stack.
"""

from __future__ import annotations

import re

from .errors import ArityError, ExprSyntaxError, Record, UnknownName
from .poset import antichain, chain, construct_poset, lex_sum

MAX_DEPTH = 100


class ChainLit(Record):
    __slots__ = ("n",)


class AntichainLit(Record):
    __slots__ = ("n",)


class HasseLit(Record):
    __slots__ = ("labels", "covers")


class Union(Record):
    __slots__ = ("left", "right")


class OrdinalSum(Record):
    __slots__ = ("left", "right")


class LexApply(Record):
    __slots__ = ("outer", "args")


_TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<nat>[0-9]+)"
    r"|(?P<punct>[(){}<>,*|]|⊔)"
    r"|(?P<space>[ \t]+)"
    r"|(?P<newline>\n)"
)


class _Tok(Record):
    __slots__ = ("kind", "text", "line", "col")


def _tokenize(text):
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprSyntaxError(line, col, "a token", text[pos])
        pos = m.end()
        if m.lastgroup == "newline":
            line += 1
            col = 1
            continue
        if m.lastgroup == "space":
            col += len(m.group())
            continue
        tok_text = m.group()
        kind = m.lastgroup
        if kind == "punct" and tok_text == "⊔":
            tok_text = "|"
        toks.append(_Tok(kind, tok_text, line, col))
        col += len(m.group())
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    """Recursive descent; each parse_* method returns (node, depth), the
    depth of the node's syntax tree, while ``open`` counts the parse_expr
    calls in progress: the top level and each enclosing parenthesis or
    argument list."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.open = 0

    def check_depth(self, tok, depth):
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(tok.line, tok.col,
                                  f"at most {MAX_DEPTH} levels of nesting",
                                  tok.text)
        return depth

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text, what=None):
        t = self.peek()
        if t.text != text:
            raise ExprSyntaxError(t.line, t.col, what or repr(text),
                                  t.text or "end of input")
        return self.advance()

    def parse_expr(self):
        self.open += 1
        self.check_depth(self.peek(), self.open)
        node_depth = self.parse_chain("|", Union, self.parse_term)
        self.open -= 1
        return node_depth

    def parse_term(self):
        return self.parse_chain("*", OrdinalSum, self.parse_factor)

    def parse_chain(self, op_text, node_type, parse_operand):
        """Operands joined by one left-associative operator."""
        node, depth = parse_operand()
        while self.peek().text == op_text:
            op = self.advance()
            right, d = parse_operand()
            node = node_type(node, right)
            depth = self.check_depth(op, 1 + max(depth, d))
        return node, depth

    def parse_factor(self):
        t = self.peek()
        if t.text == "(":
            self.advance()
            node_depth = self.parse_expr()
            self.expect(")")
            return node_depth
        lit = self.parse_literal()
        if self.peek().text == "(":
            open_tok = self.advance()
            args = [self.parse_expr()]
            while self.peek().text == ",":
                self.advance()
                args.append(self.parse_expr())
            self.expect(")")
            slots = element_count(lit)
            if slots != len(args):
                raise ArityError(open_tok.line, open_tok.col,
                                 f"literal has {slots} slots, "
                                 f"got {len(args)} arguments")
            depth = 1 + max(d for _, d in args)
            return (LexApply(lit, tuple(a for a, _ in args)),
                    self.check_depth(open_tok, depth))
        return lit, 1

    def parse_literal(self):
        t = self.peek()
        if t.kind == "ident":
            self.advance()
            m = re.fullmatch(r"([CA])([0-9]+)", t.text)
            if m:
                n = int(m.group(2))
                return ChainLit(n) if m.group(1) == "C" else AntichainLit(n)
            raise UnknownName(t.text)
        if t.text == "{":
            return self.parse_hasse()
        raise ExprSyntaxError(t.line, t.col,
                              "a literal (Cn, An, '{...}')",
                              t.text or "end of input")

    def parse_hasse(self):
        self.expect("{")
        labels = []
        covers = []
        seen = set()

        def label():
            t = self.peek()
            if t.kind != "ident":
                raise ExprSyntaxError(t.line, t.col, "an element label",
                                      t.text or "end of input")
            self.advance()
            if t.text not in seen:
                seen.add(t.text)
                labels.append(t.text)
            return t.text

        if self.peek().text != "}":
            while True:
                prev = label()
                while self.peek().text in ("<", ">"):
                    op = self.advance()
                    nxt = label()
                    covers.append((prev, nxt) if op.text == "<"
                                  else (nxt, prev))
                    prev = nxt
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect("}")
        return HasseLit(tuple(labels), tuple(covers))


def parse_expr(text):
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "eof":
        raise ExprSyntaxError(tail.line, tail.col, "end of input", tail.text)
    return node


def format_expr(ast):
    """Inverse of parse_expr up to whitespace: parse(format(a)) == a."""
    if isinstance(ast, ChainLit):
        return f"C{ast.n}"
    if isinstance(ast, AntichainLit):
        return f"A{ast.n}"
    if isinstance(ast, HasseLit):
        return _format_hasse(ast)
    if isinstance(ast, Union):
        return f"({format_expr(ast.left)} | {format_expr(ast.right)})"
    if isinstance(ast, OrdinalSum):
        return f"({format_expr(ast.left)} * {format_expr(ast.right)})"
    if isinstance(ast, LexApply):
        args = ", ".join(format_expr(a) for a in ast.args)
        return f"{format_expr(ast.outer)}({args})"
    raise TypeError(f"not an expression node: {ast!r}")


def _format_hasse(lit):
    items = [f"{a}<{b}" for a, b in lit.covers]
    in_covers = {x for pair in lit.covers for x in pair}
    items += [l for l in lit.labels if l not in in_covers]
    # first-appearance order must reproduce the declared label order
    if _appearance_order(items) != list(lit.labels):
        items = list(lit.labels) + [f"{a}<{b}" for a, b in lit.covers]
    return "{" + ",".join(items) + "}"


def _appearance_order(items):
    order = []
    seen = set()
    for item in items:
        for label in re.split(r"[<>]", item):
            if label not in seen:
                seen.add(label)
                order.append(label)
    return order


def element_count(ast):
    """|P| for the poset an expression denotes, read off the syntax tree
    without building the poset."""
    if isinstance(ast, (ChainLit, AntichainLit)):
        return ast.n
    if isinstance(ast, HasseLit):
        return len(ast.labels)
    if isinstance(ast, (Union, OrdinalSum)):
        return element_count(ast.left) + element_count(ast.right)
    if isinstance(ast, LexApply):
        return sum(element_count(a) for a in ast.args)
    raise TypeError(f"not an expression node: {ast!r}")


def resolve(ast):
    """Evaluate an expression node to a Poset."""
    if isinstance(ast, ChainLit):
        return chain(ast.n)
    if isinstance(ast, AntichainLit):
        return antichain(ast.n)
    if isinstance(ast, HasseLit):
        return construct_poset(ast.labels, ast.covers)
    if isinstance(ast, Union):
        return lex_sum(antichain(2), [resolve(ast.left), resolve(ast.right)])
    if isinstance(ast, OrdinalSum):
        return lex_sum(chain(2), [resolve(ast.left), resolve(ast.right)])
    if isinstance(ast, LexApply):
        outer = resolve(ast.outer)
        return lex_sum(outer, [resolve(a) for a in ast.args])
    raise TypeError(f"not an expression node: {ast!r}")


def parse_poset(text):
    return resolve(parse_expr(text))
