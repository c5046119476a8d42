"""Typed terms of the free two-coloured prop of mixed circuits.

A term is a syntax tree over the thirteen generators, identities on words,
single-wire crossings, and the two composition operations.  Boundary words,
and whether the term holds a float literal, are computed once at
construction and cached on the node; ill-typed sequential composites cannot
be built.  A word carries its colour counts, and is one object per word
where made here, so boundary checks mostly compare by `is`.  Terms are
immutable values and may be shared freely (the gadget builders below, and
the parser's one node per parameterless atom, lean on that).

Structural walks (evaluation, parameter casts, gate counts, JSON export,
associativity normalisation) are one `fold`, so terms of any depth need no
recursion headroom and ``let``-shared terms cost time linear in their
distinct nodes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Optional, Union

from .errors import (BiasOutOfRange, InvalidTerm, MissingParam, NonFiniteParam,
                     TypeMismatch, UnexpectedParam)
from .linalg import Scalar, as_scalar


class Colour(enum.Enum):
    B = "B"
    R = "R"

    __hash__ = object.__hash__      # members are singletons; `==` is `is`

    def __str__(self):
        return self.value


@dataclass(frozen=True, slots=True)
class TypeWord:
    """A word over the colours {B, R}; the empty word is the monoidal unit."""

    colours: tuple = ()
    n_bool: int = field(init=False, repr=False, compare=False)
    n_real: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_n_bool(self, self.colours.count(Colour.B))
        _set_n_real(self, self.colours.count(Colour.R))

    @staticmethod
    def of(text: str) -> "TypeWord":
        return _word(tuple(Colour(ch) for ch in text))

    def __add__(self, other: "TypeWord") -> "TypeWord":
        return _word(self.colours + other.colours)

    def __len__(self):
        return len(self.colours)

    def __iter__(self):
        return iter(self.colours)

    def __getitem__(self, i):
        picked = self.colours[i]
        return TypeWord(picked) if isinstance(i, slice) else picked

    def __str__(self):
        return "".join(c.value for c in self.colours)


_set_n_bool, _set_n_real = TypeWord.n_bool.__set__, TypeWord.n_real.__set__
_word = lru_cache(maxsize=None)(TypeWord)   # one object per word made here, kept
EMPTY = _word(())
B = _word((Colour.B,))
R = _word((Colour.R,))


def bools(n: int) -> TypeWord:
    return _word((Colour.B,) * n)


def reals(n: int) -> TypeWord:
    return _word((Colour.R,) * n)


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

    __hash__ = object.__hash__


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


@dataclass(frozen=True, slots=True)
class Generator:
    kind: GenKind
    param: Optional[Scalar] = None

    def __post_init__(self):
        if self.kind in PARAMETRIC:
            if self.param is None:
                raise MissingParam(f"{self.kind.value} needs a parameter")
            object.__setattr__(self, "param", as_scalar(self.param))
            if isinstance(self.param, float) and not math.isfinite(self.param):
                raise NonFiniteParam(f"{self.kind.value}({self.param}) is not finite")
            if self.kind is GenKind.FLIP and not 0 <= self.param <= 1:
                raise BiasOutOfRange(f"flip bias {self.param} not in [0, 1]")
        elif self.param is not None:
            raise UnexpectedParam(f"{self.kind.value} takes no parameter")

    def __eq__(self, other):
        # A literal's field is part of the value: Fraction(1, 2) == 0.5, but
        # flip(1/2) and flip(0.5) print, and may evaluate, differently.  So
        # is a float's sign: scal(-0.0) has A = [-0.0].
        if other.__class__ is not Generator:
            return NotImplemented
        return (self.kind, type(self.param), self.param) == \
            (other.kind, type(other.param), other.param) and \
            (type(self.param) is not float or
             math.copysign(1, self.param) == math.copysign(1, other.param))

    def __hash__(self):
        return hash((self.kind, type(self.param), self.param))

    @property
    def dom(self) -> TypeWord:
        return SIGNATURES[self.kind][0]

    @property
    def cod(self) -> TypeWord:
        return SIGNATURES[self.kind][1]


_CACHED = ("dom", "cod", "float_literal", "discards")   # discards: holds a delB or delR


class _Node:
    """A term node: fields and `_CACHED` in slots, pickled by constructor."""
    __slots__ = _CACHED

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__dataclass_fields__)


_set_dom, _set_cod, _set_float_literal, _set_discards = (
    getattr(_Node, name).__set__ for name in _CACHED)


def _cache_boundaries(term, dom, cod, float_literal=False, discards=False):
    _set_dom(term, dom)
    _set_cod(term, cod)
    _set_float_literal(term, float_literal)
    _set_discards(term, discards)


@dataclass(frozen=True)
class Gen(_Node):
    __slots__ = ("generator",)
    generator: Generator

    def __post_init__(self):
        _cache_boundaries(self, self.generator.dom, self.generator.cod,
                          isinstance(self.generator.param, float),
                          self.generator.kind in (GenKind.BOOL_DISCARD,
                                                  GenKind.REAL_DISCARD))


@dataclass(frozen=True)
class Id(_Node):
    __slots__ = ("word",)
    word: TypeWord

    def __post_init__(self):
        _cache_boundaries(self, self.word, self.word)


@dataclass(frozen=True)
class Swap(_Node):
    __slots__ = ("first", "second")
    first: Colour
    second: Colour

    def __post_init__(self):
        dom = _word((self.first, self.second))
        cod = _word((self.second, self.first))
        _cache_boundaries(self, dom, cod)


class _Composite(_Node):
    """Structural equality, hash and repr for Seq and Par over explicit
    stacks, so terms of any depth can be compared, hashed and printed.  A
    pair of nodes is compared once and a shared node printed once, so
    shared subterms cost once; a node's hash is computed when first asked
    for and cached on the node."""
    __slots__ = ("_hash",)

    def __eq__(self, other):
        todo, seen = [(self, other)], set()     # seen: node pairs entered
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, _Composite):
                seen.add((id(a), id(b)))
                todo += zip(children(a), children(b))
            elif a != b:
                return False
        return True

    def __hash__(self):
        todo = [self]
        while not hasattr(self, "_hash"):
            parts = children(todo[-1])
            pending = [c for c in parts if isinstance(c, _Composite)
                       and not hasattr(c, "_hash")]
            if pending:
                todo += pending
            else:
                t = todo.pop()
                object.__setattr__(t, "_hash", hash((type(t), *parts)))
        return self._hash

    def __repr__(self):
        # A composite reached twice (by identity) is printed once, behind a
        # label "#k=", and as "#k#" after that, so a shared term prints in
        # its distinct nodes; an unshared term has no labels.
        seen, shared, todo = set(), set(), [self]
        while todo:
            for c in children(todo.pop()):
                if isinstance(c, _Composite):
                    if id(c) in seen:
                        shared.add(id(c))
                    else:
                        seen.add(id(c))
                        todo.append(c)
        labels, out, todo = {}, [], [self]
        while todo:
            t = todo.pop()
            if type(t) is str:
                out.append(t)
            elif id(t) in labels:
                out.append(f"#{labels[id(t)]}#")
            elif isinstance(t, _Composite):
                if id(t) in shared:
                    labels[id(t)] = len(labels) + 1
                    out.append(f"#{len(labels)}=")
                (f, a), (g, b) = ((name, getattr(t, name))
                                  for name in t.__dataclass_fields__)
                todo += (")", b, f", {g}=", a, f"{type(t).__name__}({f}=")
            else:
                out.append(repr(t))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Seq(_Composite):
    __slots__ = ("early", "late")
    early: "Term"
    late: "Term"

    def __post_init__(self):
        if self.early.cod is not self.late.dom and self.early.cod != self.late.dom:
            raise TypeMismatch(
                f"cannot compose: codomain {self.early.cod} != domain {self.late.dom}",
                expected=self.early.cod, actual=self.late.dom)
        _cache_boundaries(self, self.early.dom, self.late.cod,
                          self.early.float_literal or self.late.float_literal,
                          self.early.discards or self.late.discards)


@dataclass(frozen=True, eq=False, repr=False)
class Par(_Composite):
    __slots__ = ("top", "bottom")
    top: "Term"
    bottom: "Term"

    def __post_init__(self):
        _cache_boundaries(self, self.top.dom + self.bottom.dom,
                          self.top.cod + self.bottom.cod,
                          self.top.float_literal or self.bottom.float_literal,
                          self.top.discards or self.bottom.discards)


Term = Union[Gen, Id, Swap, Seq, Par]


def children(t: Term) -> tuple:
    """The two operands of a Seq or Par, in order."""
    return (t.early, t.late) if isinstance(t, Seq) else (t.top, t.bottom)


def mk_generator(kind, param=None) -> Term:
    """Build a generator term; `kind` may be a GenKind or its textual name."""
    if isinstance(kind, str):
        try:
            kind = GenKind(kind)
        except ValueError:
            raise InvalidTerm(f"unknown generator {kind!r}") from None
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
        raise InvalidTerm("seq_all needs at least one term")
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


def flip(bias) -> Term:
    return mk_generator(GenKind.FLIP, bias)


def fold(term: Term, leaf, seq, par):
    """``leaf(t)`` at each Gen, Id and Swap; ``seq(t, a, b)`` and
    ``par(t, a, b)`` at each Seq and Par, given its children's values.

    Post-order over an explicit stack; each distinct node (by identity) is
    computed once."""
    return _fold(term, leaf, seq, par, {})


def _fold(term: Term, leaf, seq, par, memo: dict):
    """`fold` from `memo` (node id -> value): a node found there is not entered."""
    todo = [term]
    while todo:
        t = todo.pop()
        if type(t) is tuple:        # pushed below its children, now done
            t, = t
            if isinstance(t, Seq):
                memo[id(t)] = seq(t, memo[id(t.early)], memo[id(t.late)])
            else:
                memo[id(t)] = par(t, memo[id(t.top)], memo[id(t.bottom)])
        elif id(t) in memo:
            continue
        elif isinstance(t, Seq):
            todo += ((t,), t.late, t.early)
        elif isinstance(t, Par):
            todo += ((t,), t.bottom, t.top)
        else:
            memo[id(t)] = leaf(t)
    return memo[id(term)]


def _sum(_t, a, b):
    return a + b


def generator_count(t: Term) -> int:
    """Generators in `t`, counted with multiplicity."""
    return fold(t, lambda s: int(isinstance(s, Gen)), _sum, _sum)


def has_float_literal(t: Term) -> bool:
    """Whether some generator parameter in `t` is a float; each node records
    it when built, from its parameter or its children, as it does its
    boundaries."""
    return t.float_literal


def map_params(t: Term, f) -> Term:
    """Rebuild a term with every generator parameter passed through `f`.

    Shared subterms stay shared, and a subterm in which no parameter
    changes (in value or type) is returned as it is.
    """
    def leaf(s):
        old = s.generator.param if isinstance(s, Gen) else None
        if old is None:
            return s
        new = f(old)
        if type(new) is type(old) and new == old:
            return s
        return Gen(Generator(s.generator.kind, new))

    return fold(t, leaf,
                lambda s, a, b: s if a is s.early and b is s.late else Seq(a, b),
                lambda s, a, b: s if a is s.top and b is s.bottom else Par(a, b))


def to_float_params(t: Term) -> Term:
    return map_params(t, float)


def to_exact_params(t: Term) -> Term:
    return map_params(t, lambda x: x if isinstance(x, Fraction) else Fraction(x))
