"""Concrete syntax for circuits.

Grammar (lowest precedence first)::

    expr  ::= expr ';' expr            -- sequential, left associative
            | expr '*' expr            -- parallel, left associative, binds tighter
            | atom
    atom  ::= '(' expr ')'
            | 'let' NAME '=' expr 'in' expr
            | 'id' '(' WORD? ')' | 'swap' '(' COLOUR ',' COLOUR ')'
            | 'flip' '(' number ')' | 'scal' '(' number ')'
            | 'copyB' | 'delB' | 'and' | 'not'
            | 'copyR' | 'delR' | 'zero' | 'add' | 'one' | 'stdnormal' | 'ite'

Numbers written ``a/b`` (or bare integers) are exact rationals; decimal or
exponent literals are floats and demote evaluation to the float backend.
``#`` starts a line comment.  Words are written like ``BRR``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (Colour, Gen, GenKind, Id, Par, Seq, Swap, Term,
                      TypeWord, identity, mk_generator, swap)
from .errors import ParseError, TypeMismatch
from .linalg import format_scalar, scalar_to_json


@dataclass(frozen=True)
class SourceSpan:
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self):
        return f"{self.file}:{self.start_line}:{self.start_col}"


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[();,*/=-])
""", re.VERBOSE)

_KEYWORDS = {"let", "in"}
_NULLARY = {kind.value: kind for kind in GenKind
            if kind not in (GenKind.FLIP, GenKind.SCALAR)}
_RESERVED = set(_NULLARY) | {"flip", "scal", "id", "swap"} | _KEYWORDS


@dataclass(frozen=True)
class Token:
    kind: str      # 'name' | 'int' | 'float' | one of the punctuation marks | 'eof'
    text: str
    span: SourceSpan


def _tokenize(src: str, filename: str) -> list:
    line_starts = [0]
    for i, ch in enumerate(src):
        if ch == "\n":
            line_starts.append(i + 1)

    def locate(offset: int):
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - line_starts[lo] + 1

    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            line, col = locate(pos)
            raise ParseError(f"unexpected character {src[pos]!r}",
                             SourceSpan(filename, line, col, line, col))
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            sl, sc = locate(m.start())
            el, ec = locate(m.end() - 1)
            if kind == "punct":
                kind = text
            tokens.append(Token(kind, text, SourceSpan(filename, sl, sc, el, ec)))
        pos = m.end()
    line, col = locate(max(len(src) - 1, 0))
    tokens.append(Token("eof", "", SourceSpan(filename, line, col + 1, line, col + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens, filename):
        self.tokens = tokens
        self.i = 0
        self.filename = filename

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}",
                             tok.span, expected={kind})
        return self.next()

    def parse_expr(self, env) -> Term:
        left = self.parse_par(env)
        while self.peek().kind == ";":
            op = self.next()
            right = self.parse_par(env)
            try:
                left = Seq(left, right)
            except TypeMismatch as err:
                err.span = op.span
                raise
        return left

    def parse_par(self, env) -> Term:
        left = self.parse_atom(env)
        while self.peek().kind == "*":
            self.next()
            left = Par(left, self.parse_atom(env))
        return left

    def parse_atom(self, env) -> Term:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr(env)
            self.expect(")")
            return inner
        if tok.kind != "name":
            raise ParseError(f"expected a circuit, found {tok.text!r}",
                             tok.span, expected={"name", "("})
        name = self.next().text
        if name == "let":
            bound = self.expect("name").text
            if bound in _RESERVED:
                raise ParseError(f"{bound!r} is reserved", tok.span)
            self.expect("=")
            value = self.parse_expr(env)
            in_tok = self.next()
            if in_tok.kind != "name" or in_tok.text != "in":
                raise ParseError(f"expected 'in', found {in_tok.text!r}",
                                 in_tok.span, expected={"in"})
            inner_env = dict(env)
            inner_env[bound] = value
            return self.parse_expr(inner_env)
        if name == "id":
            self.expect("(")
            word = ""
            if self.peek().kind == "name":
                word_tok = self.next()
                word = word_tok.text
                if any(ch not in "BR" for ch in word):
                    raise ParseError(f"bad word {word!r}: use letters B and R",
                                     word_tok.span)
            self.expect(")")
            return identity(TypeWord.of(word))
        if name == "swap":
            self.expect("(")
            first = self._colour()
            self.expect(",")
            second = self._colour()
            self.expect(")")
            return swap(first, second)
        if name == "flip" or name == "scal":
            self.expect("(")
            value = self._number()
            self.expect(")")
            kind = GenKind.FLIP if name == "flip" else GenKind.SCALAR
            return mk_generator(kind, value)
        if name in _NULLARY:
            return mk_generator(_NULLARY[name])
        if name in env:
            return env[name]
        raise ParseError(f"unknown name {name!r}", tok.span,
                         expected=set(_NULLARY) | {"flip", "scal", "id", "swap", "let"})

    def _colour(self) -> Colour:
        tok = self.expect("name")
        if tok.text not in ("B", "R"):
            raise ParseError(f"expected colour B or R, found {tok.text!r}",
                             tok.span, expected={"B", "R"})
        return Colour(tok.text)

    def _number(self):
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.peek()
        if tok.kind == "float":
            self.next()
            return sign * float(tok.text)
        if tok.kind == "int":
            self.next()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.next()
                den_tok = self.expect("int")
                return Fraction(sign * num, int(den_tok.text))
            return Fraction(sign * num)
        raise ParseError(f"expected a number, found {tok.text!r}",
                         tok.span, expected={"int", "float"})


def parse(src: str, filename: str = "<string>") -> Term:
    """Parse circuit text; raises ParseError / TypeMismatch with a span."""
    parser = _Parser(_tokenize(src, filename), filename)
    term = parser.parse_expr({})
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.span, expected={"eof"})
    return term


def parse_file(path: str) -> Term:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), filename=path)


_SEQ_LEVEL, _PAR_LEVEL, _ATOM_LEVEL = 0, 1, 2


def print_term(t: Term) -> str:
    """Concrete syntax such that parse(print_term(t)) == t structurally."""
    # An explicit stack of (term, level) pairs and pending text, so deep
    # terms do not recurse.
    out = []
    todo = [(t, _SEQ_LEVEL)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        if isinstance(node, Seq):
            own = _SEQ_LEVEL
            parts = [(node.early, _SEQ_LEVEL), " ; ", (node.late, _PAR_LEVEL)]
        elif isinstance(node, Par):
            own = _PAR_LEVEL
            parts = [(node.top, _PAR_LEVEL), " * ", (node.bottom, _ATOM_LEVEL)]
        else:
            out.append(_atom_text(node))
            continue
        if level > own:
            parts = ["(", *parts, ")"]
        todo += reversed(parts)
    return "".join(out)


def _atom_text(t: Term) -> str:
    if isinstance(t, Id):
        return f"id({t.word})"
    if isinstance(t, Swap):
        return f"swap({t.first},{t.second})"
    gen = t.generator
    if gen.param is None:
        return gen.kind.value
    return f"{gen.kind.value}({format_scalar(gen.param)})"


def export_json_ast(t: Term) -> dict:
    if isinstance(t, Seq):
        children = [export_json_ast(t.early), export_json_ast(t.late)]
        node = {"kind": "seq", "params": {}, "children": children}
    elif isinstance(t, Par):
        children = [export_json_ast(t.top), export_json_ast(t.bottom)]
        node = {"kind": "par", "params": {}, "children": children}
    elif isinstance(t, Id):
        node = {"kind": "id", "params": {"word": str(t.word)}, "children": []}
    elif isinstance(t, Swap):
        node = {"kind": "swap",
                "params": {"first": t.first.value, "second": t.second.value},
                "children": []}
    else:
        params = {"name": t.generator.kind.value}
        if t.generator.param is not None:
            params["value"] = scalar_to_json(t.generator.param)
        node = {"kind": "gen", "params": params, "children": []}
    node["dom"] = str(t.dom)
    node["cod"] = str(t.cod)
    return node


class _Wire:
    __slots__ = ("colour", "source", "sink", "parent", "order")

    def __init__(self, colour, order):
        self.colour = colour
        self.source = None
        self.sink = None
        self.parent = self
        self.order = order


def _find(w: _Wire) -> _Wire:
    while w.parent is not w:
        w.parent = w.parent.parent
        w = w.parent
    return w


def _union(a: _Wire, b: _Wire):
    ra, rb = _find(a), _find(b)
    if ra is rb:
        return
    rb.parent = ra
    ra.source = ra.source or rb.source
    ra.sink = ra.sink or rb.sink


def _gen_label(gen) -> str:
    if gen.param is None:
        return gen.kind.value
    return f"{gen.kind.value}({format_scalar(gen.param)})"


def export_dot(t: Term) -> str:
    """Layered DOT rendering; byte-identical across runs for equal terms."""
    nodes = []
    wires = []

    def fresh(colour):
        w = _Wire(colour, len(wires))
        wires.append(w)
        return w

    def build(sub):
        if isinstance(sub, Gen):
            nid = len(nodes)
            nodes.append(_gen_label(sub.generator))
            ins = []
            for k, colour in enumerate(sub.dom):
                w = fresh(colour)
                w.sink = (f"n{nid}", k)
                ins.append(w)
            outs = []
            for k, colour in enumerate(sub.cod):
                w = fresh(colour)
                w.source = (f"n{nid}", k)
                outs.append(w)
            return ins, outs
        if isinstance(sub, Id):
            ws = [fresh(c) for c in sub.word]
            return ws, list(ws)
        if isinstance(sub, Swap):
            w1, w2 = fresh(sub.first), fresh(sub.second)
            return [w1, w2], [w2, w1]
        if isinstance(sub, Seq):
            ins1, outs1 = build(sub.early)
            ins2, outs2 = build(sub.late)
            for a, b in zip(outs1, ins2):
                _union(a, b)
            return ins1, outs2
        ins1, outs1 = build(sub.top)
        ins2, outs2 = build(sub.bottom)
        return ins1 + ins2, outs1 + outs2

    ins, outs = build(t)
    for i, w in enumerate(ins):
        _find(w).source = (f"in{i}", 0)
    for j, w in enumerate(outs):
        _find(w).sink = (f"out{j}", 0)

    lines = ["digraph circuit {", "  rankdir=LR;"]
    for i in range(len(ins)):
        lines.append(f'  in{i} [shape=point, label=""];')
    for j in range(len(outs)):
        lines.append(f'  out{j} [shape=point, label=""];')
    for k, label in enumerate(nodes):
        lines.append(f'  n{k} [shape=box, label="{label}"];')
    seen = set()
    for w in wires:
        root = _find(w)
        if id(root) in seen:
            continue
        seen.add(id(root))
        style = "color=gray50, style=dashed" if root.colour is Colour.B \
            else "color=black"
        lines.append(f"  {root.source[0]} -> {root.sink[0]} [{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_ast_text(t: Term) -> str:
    return json.dumps(export_json_ast(t), indent=2, sort_keys=True) + "\n"
