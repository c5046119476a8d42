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
from typing import NamedTuple

from .diagram import (Colour, Gen, GenKind, Id, Par, Seq, Swap, Term,
                      TypeWord, fold, identity, mk_generator, swap)
from .errors import CgmError, ParseError, TypeMismatch
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


class Token(NamedTuple):
    kind: str      # 'name' | 'int' | 'float' | one of the punctuation marks | 'eof'
    text: str
    start: int     # offset of the first character
    end: int       # offset of the last character


def _locate(src: str, offset: int):
    """The 1-based line and column of `offset` in `src`."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


def _tokenize(src: str, filename: str) -> list:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            line, col = _locate(src, pos)
            raise ParseError(f"unexpected character {src[pos]!r}",
                             SourceSpan(filename, line, col, line, col))
        kind = m.lastgroup
        end = m.end()
        if kind != "ws" and kind != "comment":
            text = m.group()
            tokens.append(Token(text if kind == "punct" else kind, text,
                                pos, end - 1))
        pos = end
    last = max(len(src) - 1, 0)
    tokens.append(Token("eof", "", last, last))
    return tokens


class _Parser:
    def __init__(self, src: str, filename: str):
        self.src, self.filename, self.i = src, filename, 0
        self.tokens = _tokenize(src, filename)

    def span(self, tok: Token, last: Token | None = None) -> SourceSpan:
        """Where `tok` (through `last`) is; the end of input is one column
        past the last character."""
        shift, last = tok.kind == "eof", last or tok
        (sl, sc), (el, ec) = _locate(self.src, tok.start), _locate(self.src, last.end)
        return SourceSpan(self.filename, sl, sc + shift, el, ec + shift)

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
                             self.span(tok), expected={kind})
        return self.next()

    def parse_expr(self) -> Term:
        """Precedence climbing with an explicit stack of open ``(`` and
        ``let`` frames, so nesting depth does not recurse."""
        # The open expression: what ends it, the name a ``let`` binds, its
        # scope, its ';' chain, last ';' token and '*' chain so far.
        frames = []
        closer, bound, env, left, op, row = None, None, {}, None, None, None
        while True:
            tok = self.next()
            if tok.kind == "(" or tok.kind == "name" and tok.text == "let":
                frames.append((closer, bound, env, left, op, row))
                closer, left, op, row = tok.text, None, None, None
                if closer == "let":
                    bound = self.expect("name").text
                    if bound in _RESERVED:
                        raise ParseError(f"{bound!r} is reserved", self.span(tok))
                    self.expect("=")
                continue
            atom = self.parse_atom(tok, env)
            while True:
                row = atom if row is None else Par(row, atom)
                if self.peek().kind == "*":
                    self.next()
                    break
                try:
                    left = row if left is None else Seq(left, row)
                except TypeMismatch as err:
                    err.span = self.span(op)
                    raise
                row = None
                if self.peek().kind == ";":
                    op = self.next()
                    break
                if closer is None:
                    return left
                if closer == "let":
                    # The value ends at 'in'; the body runs to the end of
                    # the expression around the let.
                    in_tok = self.next()
                    if in_tok.kind != "name" or in_tok.text != "in":
                        raise ParseError(f"expected 'in', found {in_tok.text!r}",
                                         self.span(in_tok), expected={"in"})
                    env = {**env, bound: left}
                    closer, left = "in", None
                    break
                if closer == "(":
                    self.expect(")")
                atom = left
                closer, bound, env, left, op, row = frames.pop()

    def parse_atom(self, tok, env) -> Term:
        """The atom starting at `tok`, unless it is a ``(`` or a ``let``."""
        if tok.kind != "name":
            raise ParseError(f"expected a circuit, found {tok.text!r}",
                             self.span(tok), expected={"name", "("})
        name = tok.text
        if name == "id":
            self.expect("(")
            word = ""
            if self.peek().kind == "name":
                word_tok = self.next()
                word = word_tok.text
                if any(ch not in "BR" for ch in word):
                    raise ParseError(f"bad word {word!r}: use letters B and R",
                                     self.span(word_tok))
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
            try:
                return mk_generator(kind, value)
            except CgmError as err:
                err.span = self.span(tok)
                raise
        if name in _NULLARY:
            return mk_generator(_NULLARY[name])
        if name in env:
            return env[name]
        raise ParseError(f"unknown name {name!r}", self.span(tok),
                         expected=set(_NULLARY) | {"flip", "scal", "id", "swap", "let"})

    def _colour(self) -> Colour:
        tok = self.expect("name")
        if tok.text not in ("B", "R"):
            raise ParseError(f"expected colour B or R, found {tok.text!r}",
                             self.span(tok), expected={"B", "R"})
        return Colour(tok.text)

    def _number(self):
        first = self.peek()
        sign = 1
        if first.kind == "-":
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
                if int(den_tok.text) == 0:
                    text = self.src[first.start:den_tok.end + 1]
                    raise ParseError(f"zero denominator in {text!r}",
                                     self.span(first, den_tok))
                return Fraction(sign * num, int(den_tok.text))
            return Fraction(sign * num)
        raise ParseError(f"expected a number, found {tok.text!r}",
                         self.span(tok), expected={"int", "float"})


def parse(src: str, filename: str = "<string>") -> Term:
    """Parse circuit text; raises ParseError / TypeMismatch with a span."""
    parser = _Parser(src, filename)
    term = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", parser.span(tok),
                         expected={"eof"})
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
    return _gen_text(t.generator)


def _gen_text(gen) -> str:
    if gen.param is None:
        return gen.kind.value
    return f"{gen.kind.value}({format_scalar(gen.param)})"


def export_json_ast(t: Term) -> dict:
    """The term as nested dicts; a shared subterm's dict is shared too."""
    def node(s, kind, params, children=()):
        return {"kind": kind, "params": params, "children": list(children),
                "dom": str(s.dom), "cod": str(s.cod)}

    def leaf(s):
        if isinstance(s, Id):
            return node(s, "id", {"word": str(s.word)})
        if isinstance(s, Swap):
            return node(s, "swap", {"first": s.first.value, "second": s.second.value})
        params = {"name": s.generator.kind.value}
        if s.generator.param is not None:
            params["value"] = scalar_to_json(s.generator.param)
        return node(s, "gen", params)

    return fold(t, leaf, lambda s, a, b: node(s, "seq", {}, (a, b)),
                lambda s, a, b: node(s, "par", {}, (a, b)))


def export_dot(t: Term) -> str:
    """Layered DOT rendering; byte-identical across runs for equal terms.

    Each occurrence of a generator is its own box, shared or not.  One
    forward walk visits the leaves early before late and top before
    bottom, and numbers wires as it meets them: a generator's domain wires
    then its codomain wires, one per position of an identity, a swap's
    first then its second.  A signal is (source, first wire, colour); it
    ends as an edge into a box or an output, and edges are printed by
    first wire.
    """
    nodes, edges, wire = [], [], 0
    signals = [(f"in{i}", None, c) for i, c in enumerate(t.dom)]
    # Subterms still to walk, each with the position of its first input.
    todo = [(t, 0)]
    while todo:
        sub, at = todo.pop()
        if isinstance(sub, Seq):
            todo += ((sub.late, at), (sub.early, at))
            continue
        if isinstance(sub, Par):
            todo += ((sub.bottom, at + len(sub.top.cod)), (sub.top, at))
            continue
        end = at + len(sub.dom)
        passed = [(source, wire + k if first is None else first, colour)
                  for k, (source, first, colour) in enumerate(signals[at:end])]
        wire += len(passed)
        if isinstance(sub, Gen):
            box = f"n{len(nodes)}"
            nodes.append(_gen_text(sub.generator))
            edges += [(first, source, box, c) for source, first, c in passed]
            passed = [(box, wire + k, c) for k, c in enumerate(sub.cod)]
            wire += len(passed)
        elif isinstance(sub, Swap):
            passed.reverse()
        signals[at:end] = passed
    edges += [(first, source, f"out{j}", c)
              for j, (source, first, c) in enumerate(signals)]
    edges.sort(key=lambda edge: edge[0])

    lines = ["digraph circuit {", "  rankdir=LR;"]
    lines += [f'  in{i} [shape=point, label=""];' for i in range(len(t.dom))]
    lines += [f'  out{j} [shape=point, label=""];' for j in range(len(t.cod))]
    lines += [f'  n{k} [shape=box, label="{label}"];' for k, label in enumerate(nodes)]
    for _, source, sink, colour in edges:
        style = "color=gray50, style=dashed" if colour is Colour.B else "color=black"
        lines.append(f"  {source} -> {sink} [{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_ast_text(t: Term) -> str:
    """``json.dumps(export_json_ast(t), indent=2, sort_keys=True)`` and a
    newline, written from an explicit stack so deep terms do not recurse."""
    out = []
    todo = [(export_json_ast(t), "\n")]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        value, newline = item
        if not value or not isinstance(value, (dict, list)):
            out.append(json.dumps(value))
            continue
        inner = newline + "  "
        if isinstance(value, dict):
            brackets = "{}"
            entries = [(json.dumps(k) + ": ", value[k]) for k in sorted(value)]
        else:
            brackets, entries = "[]", [("", v) for v in value]
        parts = [brackets[0]]
        for k, (key, v) in enumerate(entries):
            parts += [("," if k else "") + inner + key, (v, inner)]
        parts.append(newline + brackets[1])
        todo += reversed(parts)
    return "".join(out) + "\n"
