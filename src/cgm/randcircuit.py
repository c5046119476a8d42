"""Seeded generation of random well-typed circuits.

Used by the axiom soundness harness for circuit metavariables and by the
test suite as a fuzzing source.  Generation is driven entirely by a
``random.Random`` instance, so everything derived from a seed is
reproducible.  Generators are drawn from one table of ``SIGNATURES`` by
boundary.  A "bridge" (discard the domain, source the codomain) makes a
term exist between any two words, which lets the generator recurse freely.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .diagram import (Colour, GenKind, SIGNATURES, Term, TypeWord,
                      identity, mk_generator, par, par_all, seq, swap)
from .gadgets import nary_copy, seq_trim

BOOLEAN_KINDS, GAUSSIAN_KINDS = (
    frozenset(k for k, (dom, cod) in SIGNATURES.items() if set(dom + cod) == {c})
    for c in (Colour.B, Colour.R))
ALL_KINDS = frozenset(GenKind)
DEN_CAP = 6     # largest denominator of a sampled bias or scalar

# {(dom, cod): [kinds with that signature]}, in name order: the draws rely on it.
_BY_BOUNDARY = {sig: [k for k in sorted(GenKind, key=lambda k: k.value)
                      if SIGNATURES[k] == sig] for sig in SIGNATURES.values()}


@lru_cache(maxsize=None)
def _colours(kinds: frozenset) -> tuple:
    """The colours on the boundaries of `kinds`, in name order."""
    return tuple(sorted({c for k in kinds for w in SIGNATURES[k] for c in w},
                        key=lambda c: c.value))


class TermSampler:
    """Draws random well-typed terms between chosen boundary words."""

    def __init__(self, rng: random.Random, kinds=ALL_KINDS, max_depth: int = 4,
                 max_word: int = 3):
        self.rng = rng
        self.kinds = frozenset(kinds)
        self.max_depth = max_depth
        self.max_word = max_word
        self.colours = _colours(self.kinds)
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

    def _generator(self, kind: GenKind) -> Term:
        """A generator of `kind`; a flip draws its bias and a scal its scalar."""
        return mk_generator(kind, self.bias() if kind is GenKind.FLIP else
                            self.scalar() if kind is GenKind.SCALAR else None)

    def _source(self, colour: Colour) -> Term:
        if colour is Colour.B:
            return self._generator(GenKind.FLIP)
        choices = [k for k in (GenKind.ZERO, GenKind.ONE, GenKind.STD_NORMAL)
                   if k in self.kinds]
        if GenKind.STD_NORMAL in choices and GenKind.SCALAR in self.kinds:
            choices.append(GenKind.SCALAR)      # stands for stdnormal ; scal(k)
        if not choices:
            raise ValueError("no real-valued sources in the kind set")
        kind = self.rng.choice(choices)
        if kind is GenKind.SCALAR:
            return seq(mk_generator(GenKind.STD_NORMAL), self._generator(kind))
        return self._generator(kind)

    def bridge(self, dom: TypeWord, cod: TypeWord) -> Term:
        """Discard everything, then source the codomain; types always fit."""
        return seq_trim(par_all(*(nary_copy(c, 0) for c in dom)),
                        par_all(*(self._source(c) for c in cod)))

    def _primitive(self, dom: TypeWord, cod: TypeWord) -> Term:
        options = [None]        # the bridge; it and a kind are built once picked
        if dom == cod:
            options.append(identity(dom))
        if len(dom) == 2 and cod == dom[::-1]:
            options.append(swap(*dom))
        options += [k for k in _BY_BOUNDARY.get((dom, cod), ()) if k in self.kinds]
        pick = self.rng.choice(options)
        if pick is None:
            return self.bridge(dom, cod)
        return self._generator(pick) if isinstance(pick, GenKind) else pick

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
