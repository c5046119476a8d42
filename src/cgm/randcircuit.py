"""Seeded generation of random well-typed circuits.

Used by the axiom soundness harness for circuit metavariables and by the
test suite as a fuzzing source.  Generation is driven entirely by a
``random.Random`` instance, so everything derived from a seed is
reproducible.  A "bridge" (discard the whole domain, source the whole
codomain) guarantees a term exists between any two words, which lets the
generator recurse freely.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .diagram import (Colour, EMPTY, GenKind, SIGNATURES, Term, TypeWord,
                      identity, mk_generator, par, par_all, seq, swap)

BOOLEAN_KINDS = frozenset({GenKind.BOOL_DISCARD, GenKind.BOOL_COPY,
                           GenKind.AND, GenKind.NOT, GenKind.FLIP})
GAUSSIAN_KINDS = frozenset({GenKind.REAL_DISCARD, GenKind.REAL_COPY,
                            GenKind.ZERO, GenKind.ADD, GenKind.SCALAR,
                            GenKind.ONE, GenKind.STD_NORMAL})
ALL_KINDS = frozenset(GenKind)
DEN_CAP = 6     # largest denominator of a sampled bias or scalar


class TermSampler:
    """Draws random well-typed terms between chosen boundary words."""

    def __init__(self, rng: random.Random, kinds=ALL_KINDS, max_depth: int = 4,
                 max_word: int = 3):
        self.rng = rng
        self.kinds = frozenset(kinds)
        self.max_depth = max_depth
        self.max_word = max_word
        self.colours = tuple(sorted(
            {c for k in self.kinds for w in SIGNATURES[k] for c in w},
            key=lambda c: c.value))
        if not self.colours:
            raise ValueError("kind set generates no colours")

    def bias(self) -> Fraction:
        den = self.rng.randint(1, DEN_CAP)
        return Fraction(self.rng.randint(0, den), den)

    def scalar(self) -> Fraction:
        den = self.rng.randint(1, DEN_CAP)
        return Fraction(self.rng.randint(-DEN_CAP, DEN_CAP), den)

    def word(self, max_len: int | None = None) -> TypeWord:
        length = self.rng.randint(0, max_len if max_len is not None else self.max_word)
        return TypeWord(tuple(self.rng.choice(self.colours) for _ in range(length)))

    def _source(self, colour: Colour) -> Term:
        if colour is Colour.B:
            return mk_generator(GenKind.FLIP, self.bias())
        choices = []
        if GenKind.ZERO in self.kinds:
            choices.append(lambda: mk_generator(GenKind.ZERO))
        if GenKind.ONE in self.kinds:
            choices.append(lambda: mk_generator(GenKind.ONE))
        if GenKind.STD_NORMAL in self.kinds:
            choices.append(lambda: mk_generator(GenKind.STD_NORMAL))
            if GenKind.SCALAR in self.kinds:
                choices.append(lambda: seq(mk_generator(GenKind.STD_NORMAL),
                                           mk_generator(GenKind.SCALAR, self.scalar())))
        if not choices:
            raise ValueError("no real-valued sources in the kind set")
        return self.rng.choice(choices)()

    def _sink(self, colour: Colour) -> Term:
        kind = GenKind.BOOL_DISCARD if colour is Colour.B else GenKind.REAL_DISCARD
        return mk_generator(kind)

    def bridge(self, dom: TypeWord, cod: TypeWord) -> Term:
        """Discard everything, then source the codomain; types always fit."""
        drop = par_all(*(self._sink(c) for c in dom)) if len(dom) else identity(EMPTY)
        make = par_all(*(self._source(c) for c in cod)) if len(cod) else identity(EMPTY)
        if len(dom) == 0:
            return make
        if len(cod) == 0:
            return drop
        return seq(drop, make)

    def _primitive(self, dom: TypeWord, cod: TypeWord) -> Term:
        options = [lambda: self.bridge(dom, cod)]
        if dom == cod:
            options.append(lambda: identity(dom))
        if len(dom) == 2 and len(cod) == 2 and \
                (cod.colours[0], cod.colours[1]) == (dom.colours[1], dom.colours[0]):
            options.append(lambda: swap(dom.colours[0], dom.colours[1]))
        for kind in sorted(self.kinds, key=lambda k: k.value):
            sig_dom, sig_cod = SIGNATURES[kind]
            if sig_dom == dom and sig_cod == cod:
                if kind is GenKind.FLIP:
                    options.append(lambda k=kind: mk_generator(k, self.bias()))
                elif kind is GenKind.SCALAR:
                    options.append(lambda k=kind: mk_generator(k, self.scalar()))
                else:
                    options.append(lambda k=kind: mk_generator(k))
        return self.rng.choice(options)()

    def term(self, dom: TypeWord, cod: TypeWord, depth: int | None = None) -> Term:
        if depth is None:
            depth = self.max_depth
        if depth <= 0:
            return self._primitive(dom, cod)
        roll = self.rng.random()
        if roll < 0.4:
            mid = self.word()
            return seq(self.term(dom, mid, depth - 1),
                       self.term(mid, cod, depth - 1))
        if roll < 0.7 and (len(dom) > 0 or len(cod) > 0):
            i = self.rng.randint(0, len(dom))
            j = self.rng.randint(0, len(cod))
            return par(self.term(dom[:i], cod[:j], depth - 1),
                       self.term(dom[i:], cod[j:], depth - 1))
        return self._primitive(dom, cod)

    def closed_term(self, max_len: int | None = None, depth: int | None = None) -> Term:
        """Random circuit between random words."""
        return self.term(self.word(max_len), self.word(max_len), depth)
