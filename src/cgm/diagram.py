"""Typed terms of the free two-coloured prop of mixed circuits.

A term is a syntax tree over the thirteen generators, identities on words,
single-wire crossings, and the two composition operations.  Boundary words
are computed once at construction and cached on the node; ill-typed
sequential composites cannot be built.  Terms are immutable values and may
be shared freely (the gadget builders below lean on that).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BiasOutOfRange, MissingParam, TypeMismatch, UnexpectedParam
from .linalg import Scalar, as_scalar


class Colour(enum.Enum):
    B = "B"
    R = "R"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class TypeWord:
    """A word over the colours {B, R}; the empty word is the monoidal unit."""

    colours: tuple = ()

    @staticmethod
    def of(text: str) -> "TypeWord":
        return TypeWord(tuple(Colour(ch) for ch in text))

    def __add__(self, other: "TypeWord") -> "TypeWord":
        return TypeWord(self.colours + other.colours)

    def __len__(self):
        return len(self.colours)

    def __iter__(self):
        return iter(self.colours)

    def __getitem__(self, i):
        picked = self.colours[i]
        return TypeWord(picked) if isinstance(i, slice) else picked

    def __str__(self):
        return "".join(c.value for c in self.colours)

    @property
    def n_bool(self) -> int:
        return sum(1 for c in self.colours if c is Colour.B)

    @property
    def n_real(self) -> int:
        return sum(1 for c in self.colours if c is Colour.R)

    def bool_positions(self) -> tuple:
        return tuple(i for i, c in enumerate(self.colours) if c is Colour.B)

    def real_positions(self) -> tuple:
        return tuple(i for i, c in enumerate(self.colours) if c is Colour.R)


EMPTY = TypeWord()
B = TypeWord((Colour.B,))
R = TypeWord((Colour.R,))


def bools(n: int) -> TypeWord:
    return TypeWord((Colour.B,) * n)


def reals(n: int) -> TypeWord:
    return TypeWord((Colour.R,) * n)


class GenKind(enum.Enum):
    BOOL_DISCARD = "delB"
    BOOL_COPY = "copyB"
    AND = "and"
    NOT = "not"
    FLIP = "flip"
    REAL_DISCARD = "delR"
    REAL_COPY = "copyR"
    ZERO = "zero"
    ADD = "add"
    SCALAR = "scal"
    ONE = "one"
    STD_NORMAL = "stdnormal"
    ITE = "ite"


SIGNATURES = {
    GenKind.BOOL_DISCARD: (B, EMPTY),
    GenKind.BOOL_COPY: (B, B + B),
    GenKind.AND: (B + B, B),
    GenKind.NOT: (B, B),
    GenKind.FLIP: (EMPTY, B),
    GenKind.REAL_DISCARD: (R, EMPTY),
    GenKind.REAL_COPY: (R, R + R),
    GenKind.ZERO: (EMPTY, R),
    GenKind.ADD: (R + R, R),
    GenKind.SCALAR: (R, R),
    GenKind.ONE: (EMPTY, R),
    GenKind.STD_NORMAL: (EMPTY, R),
    GenKind.ITE: (B + R + R, R),
}

PARAMETRIC = {GenKind.FLIP, GenKind.SCALAR}


@dataclass(frozen=True)
class Generator:
    kind: GenKind
    param: Optional[Scalar] = None

    def __post_init__(self):
        if self.kind in PARAMETRIC:
            if self.param is None:
                raise MissingParam(f"{self.kind.value} needs a parameter")
            object.__setattr__(self, "param", as_scalar(self.param))
            if self.kind is GenKind.FLIP and not 0 <= self.param <= 1:
                raise BiasOutOfRange(f"flip bias {self.param} not in [0, 1]")
        elif self.param is not None:
            raise UnexpectedParam(f"{self.kind.value} takes no parameter")

    @property
    def dom(self) -> TypeWord:
        return SIGNATURES[self.kind][0]

    @property
    def cod(self) -> TypeWord:
        return SIGNATURES[self.kind][1]


def _cache_boundaries(term, dom, cod):
    object.__setattr__(term, "dom", dom)
    object.__setattr__(term, "cod", cod)


@dataclass(frozen=True)
class Gen:
    generator: Generator

    def __post_init__(self):
        _cache_boundaries(self, self.generator.dom, self.generator.cod)


@dataclass(frozen=True)
class Id:
    word: TypeWord

    def __post_init__(self):
        _cache_boundaries(self, self.word, self.word)


@dataclass(frozen=True)
class Swap:
    first: Colour
    second: Colour

    def __post_init__(self):
        dom = TypeWord((self.first, self.second))
        cod = TypeWord((self.second, self.first))
        _cache_boundaries(self, dom, cod)


@dataclass(frozen=True)
class Seq:
    early: "Term"
    late: "Term"

    def __post_init__(self):
        if self.early.cod != self.late.dom:
            raise TypeMismatch(
                f"cannot compose: codomain {self.early.cod} != domain {self.late.dom}",
                expected=self.early.cod, actual=self.late.dom)
        _cache_boundaries(self, self.early.dom, self.late.cod)


@dataclass(frozen=True)
class Par:
    top: "Term"
    bottom: "Term"

    def __post_init__(self):
        _cache_boundaries(self, self.top.dom + self.bottom.dom,
                          self.top.cod + self.bottom.cod)


Term = Union[Gen, Id, Swap, Seq, Par]


def mk_generator(kind, param=None) -> Term:
    """Build a generator term; `kind` may be a GenKind or its textual name."""
    if isinstance(kind, str):
        try:
            kind = GenKind(kind)
        except ValueError:
            raise ValueError(f"unknown generator {kind!r}") from None
    return Gen(Generator(kind, param))


def identity(word) -> Term:
    if isinstance(word, str):
        word = TypeWord.of(word)
    return Id(word)


def swap(first: Colour, second: Colour) -> Term:
    return Swap(first, second)


def seq(s: Term, t: Term) -> Term:
    return Seq(s, t)


def par(s: Term, t: Term) -> Term:
    return Par(s, t)


def seq_all(*terms: Term) -> Term:
    if not terms:
        raise ValueError("seq_all needs at least one term")
    out = terms[0]
    for t in terms[1:]:
        out = Seq(out, t)
    return out


def par_all(*terms: Term) -> Term:
    if not terms:
        return Id(EMPTY)
    out = terms[0]
    for t in terms[1:]:
        out = Par(out, t)
    return out


def type_of(t: Term):
    return t.dom, t.cod


def flip(bias) -> Term:
    return mk_generator(GenKind.FLIP, bias)


def scal(k) -> Term:
    return mk_generator(GenKind.SCALAR, k)


def subterms(t: Term):
    """Depth-first iterator over all subterms, root first."""
    todo = [t]
    while todo:
        s = todo.pop()
        yield s
        if isinstance(s, Seq):
            todo.extend((s.late, s.early))
        elif isinstance(s, Par):
            todo.extend((s.bottom, s.top))


def generator_count(t: Term) -> int:
    return sum(1 for s in subterms(t) if isinstance(s, Gen))


def has_float_literal(t: Term) -> bool:
    return any(isinstance(s, Gen) and isinstance(s.generator.param, float)
               for s in subterms(t))


def map_params(t: Term, f) -> Term:
    """Rebuild a term with every generator parameter passed through `f`.

    Shared subterms stay shared, and a subterm in which no parameter
    changes (in value or type) is returned as it is.
    """
    memo = {}
    todo = [(t, False)]
    while todo:
        s, expanded = todo.pop()
        if id(s) in memo:
            continue
        if isinstance(s, (Seq, Par)):
            a, b = (s.early, s.late) if isinstance(s, Seq) else (s.top, s.bottom)
            if not expanded:
                todo += ((s, True), (b, False), (a, False))
                continue
            new_a, new_b = memo[id(a)], memo[id(b)]
            out = s if new_a is a and new_b is b else type(s)(new_a, new_b)
        elif isinstance(s, Gen) and s.generator.param is not None:
            old = s.generator.param
            new = f(old)
            out = s if type(new) is type(old) and new == old \
                else Gen(Generator(s.generator.kind, new))
        else:
            out = s
        memo[id(s)] = out
    return memo[id(t)]


def to_float_params(t: Term) -> Term:
    return map_params(t, float)


def to_exact_params(t: Term) -> Term:
    return map_params(t, lambda x: x if isinstance(x, Fraction) else Fraction(x))
