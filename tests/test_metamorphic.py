"""Metamorphic relations at the evaluation fast paths.

`evaluate` keeps identities, swaps, copies and discards as a `Wiring` and
joins them to a kernel by index maps, takes a product's order from its
operands' joined sort keys, and follows whatever tree of `;` and `*` a
term has.  None of that may change a kernel.  So each term t is evaluated
beside six terms that denote the same kernel: ``id ; t``, ``t ; id``,
``id() * t``, ``t * id()``, and t with every Seq and Par chain associated
to the right (`assoc_normal`) and to the left.

The terms are seeded `TermSampler` circuits and one side (left and right
by turns) of one instance of every axiom schema.  Rational kernels must have equal tables and equal
`mixture_to_json`.  Float kernels must be `mixtures_equal` at 1e-9; a
float sum depends on the order of its terms, so tables may differ in the
last bits.
"""

import json
import random
import zlib
from functools import reduce

from cgm.axioms import CATALOG, assoc_normal, sample_binding
from cgm.diagram import EMPTY, Id, Par, Seq, fold
from cgm.dsl import print_term
from cgm.errors import InadmissibleBinding
from cgm.randcircuit import TermSampler
from cgm.semantics import evaluate, mixture_to_json, mixtures_equal

TERMS = 60
TOL = 1e-9


def left_normal(t):
    """Left-associate every Seq and Par chain, at every depth.  A subterm's
    value is its top chain's node type and operands; a leaf is a chain of
    one, of type None, which `reduce` returns without calling it."""
    def operands(value, kind):
        chain_kind, items = value
        return items if chain_kind is kind else (reduce(chain_kind, items),)

    def join(s, a, b):
        return type(s), operands(a, type(s)) + operands(b, type(s))

    kind, items = fold(t, lambda s: (None, (s,)), join, join)
    return reduce(kind, items)


def variants(t) -> list:
    """Terms that denote the same kernel as `t`, each through another path."""
    return [Seq(Id(t.dom), t), Seq(t, Id(t.cod)), Par(Id(EMPTY), t),
            Par(t, Id(EMPTY)), assoc_normal(t), left_normal(t)]


def corpus() -> list:
    sampler = TermSampler(random.Random(20261019), max_depth=4, max_word=3)
    terms = [sampler.closed_term() for _ in range(TERMS)]
    for side, (name, schema) in enumerate(CATALOG.items()):
        for index in range(8):
            rng = random.Random(zlib.crc32(f"metamorphic:{name}:{index}".encode()))
            try:
                sides = schema.build(sample_binding(schema, rng))
            except InadmissibleBinding:
                continue
            terms.append(sides[side % 2])
            break
    return terms


TERMS_AND_VARIANTS = [(t, variants(t)) for t in corpus()]


def test_the_corpus_exercises_every_relation():
    # Some re-associations change the term, and every axiom gave an instance.
    assert len(TERMS_AND_VARIANTS) == TERMS + len(CATALOG)
    moved = sum(right != t or left != t
                for t, (*_, right, left) in TERMS_AND_VARIANTS)
    assert moved >= len(TERMS_AND_VARIANTS) // 4


def test_rational_kernels_are_unchanged():
    for t, others in TERMS_AND_VARIANTS:
        mix = evaluate(t, backend="rational")
        text = json.dumps(mixture_to_json(mix), sort_keys=True)
        for other in others:
            got = evaluate(other, backend="rational")
            assert got.table == mix.table, print_term(other)
            assert json.dumps(mixture_to_json(got), sort_keys=True) == text, \
                print_term(other)


def test_float_kernels_are_equal_within_tolerance():
    for t, others in TERMS_AND_VARIANTS:
        mix = evaluate(t, backend="float")
        for other in others:
            assert mixtures_equal(evaluate(other, backend="float"), mix, TOL), \
                print_term(other)
