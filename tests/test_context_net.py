"""Axiom instances in random contexts: a standing differential net.

The semantics is compositional, so an instance l = r of a sound schema
gives equal kernels in every context C: C[l] = C[r].  What joins an
instance to its context (wiring index maps, keyed products, the canonical
builder) is what a change to evaluation is most likely to break, and a
closed instance compared at the top runs little of it.

Each instance is put in three contexts, drawn by a `TermSampler` from a
seeded `random.Random`:

* framed: a pre-context, then the instance beside a random side term (on
  a random side), then a post-context on one copy of what they output;
* plugged: at a random path of a random host, by `replace_at`, between
  random adapters that fit the subterm it replaces;
* bare: beside the side term and nothing else, so that a product at the
  top keeps the order its operands' joined sort keys give it.

Rational sides are compared by `mixture_to_json` (Gram matrices, which
are canonical; factors are not), after each is checked to be canonical:
rebuilt from its bare table it comes back the same, which a product that
takes its order from its operands' joined sort keys must also do.  Float
sides are compared by `mixtures_equal` at 1e-9, and every fourth schema's
contexts by `decide_equiv` as well.  Each mutant schema must be told apart
in at least one of its contexts.
"""

import json
import random
import zlib

import pytest

from cgm.axioms import CATALOG, mutant_of, replace_at, sample_binding, subterm_at
from cgm.diagram import Par, Seq, children, identity, par, seq, seq_all
from cgm.dsl import print_term
from cgm.errors import InadmissibleBinding
from cgm.gadgets import copy_bundle
from cgm.normalform import decide_equiv
from cgm.randcircuit import TermSampler
from cgm.semantics import (CGMixture, canonicalize, evaluate, mixture_to_json,
                           mixtures_equal)

INSTANCES = 3          # per sound schema, each in every context
MUTANT_INSTANCES = 4   # per mutant schema
TOL = 1e-9


def _rng(name: str, index: int) -> random.Random:
    return random.Random(zlib.crc32(f"context-net:{name}:{index}".encode()))


def _paths(term) -> list:
    """Every path of the term, root first."""
    todo, out = [(term, ())], []
    while todo:
        t, path = todo.pop()
        out.append(path)
        if isinstance(t, (Seq, Par)):
            todo += [(child, path + (k,)) for k, child in enumerate(children(t))]
    return out


def adapters(sampler: TermSampler, hole, inner):
    """``t -> into ; t ; out_of``, random adapters from `hole`'s boundary to
    `inner`'s and back, so the result can replace `hole`; `t` sits at path
    `WRAPPED` of it."""
    into = sampler.term(hole.dom, inner.dom, depth=1)
    out_of = sampler.term(inner.cod, hole.cod, depth=1)
    return lambda t: seq_all(into, t, out_of)


WRAPPED = (0, 1)


def contexts(lhs, rhs, rng: random.Random) -> list:
    """``[(C[lhs], C[rhs]), ...]`` for a framed, a plugged and a bare context."""
    sampler = TermSampler(rng, max_depth=2, max_word=2)
    side = sampler.term(sampler.word(), sampler.word(), depth=1)
    beside = (lambda t: par(side, t)) if rng.random() < 0.5 else \
        (lambda t: par(t, side))
    middle = beside(lhs)
    pre = sampler.term(sampler.word(), middle.dom)
    # The post-context reads a copy of the middle's outputs and the other
    # copy stays an output, so it cannot discard what the instance made.
    post = seq(copy_bundle(middle.cod),
               par(identity(middle.cod), sampler.term(middle.cod, sampler.word())))
    host = sampler.closed_term(depth=3)
    path = rng.choice(_paths(host))
    wrap = adapters(sampler, subterm_at(host, path), lhs)

    def framed(t):
        return seq_all(pre, beside(t), post)

    def plugged(t):
        return replace_at(host, path, wrap(t))

    return [(context(lhs), context(rhs)) for context in (framed, plugged, beside)]


def instances(schema, name: str, count: int) -> list:
    """`count` admissible ``(lhs, rhs, rng)`` draws of the schema, seeded."""
    out = []
    for index in range(8 * count):
        rng = _rng(name, index)
        try:
            lhs, rhs = schema.build(sample_binding(schema, rng))
        except InadmissibleBinding:
            continue
        out.append((lhs, rhs, rng))
        if len(out) == count:
            break
    return out


def exact_json(term) -> str:
    """The rational kernel's JSON, once it is checked to be canonical: built
    again from its bare table, it has the same table, in the same order."""
    mix = evaluate(term, backend="rational")
    again = canonicalize(CGMixture(mix.dom_word, mix.cod_word, mix.table))
    assert again.table == mix.table, print_term(term)
    return json.dumps(mixture_to_json(mix), sort_keys=True)


@pytest.mark.parametrize("name", list(CATALOG))
def test_sound_instances_stay_equal_in_context(name):
    schema = CATALOG[name]
    checked = 0
    for lhs, rhs, rng in instances(schema, name, INSTANCES):
        for left, right in contexts(lhs, rhs, rng):
            where = (print_term(left), print_term(right))
            assert exact_json(left) == exact_json(right), where
            assert mixtures_equal(evaluate(left, backend="float"),
                                  evaluate(right, backend="float"), TOL), where
            if list(CATALOG).index(name) % 4 == 0:
                assert decide_equiv(left, right, TOL)[0], where
            checked += 1
    assert checked == 3 * INSTANCES


@pytest.mark.parametrize("name", list(CATALOG))
def test_mutants_are_told_apart_in_context(name):
    mutant = mutant_of(name)
    draws = instances(mutant, mutant.name, MUTANT_INSTANCES)
    assert any(mixture_to_json(evaluate(left, backend="rational")) !=
               mixture_to_json(evaluate(right, backend="rational"))
               for lhs, rhs, rng in draws
               for left, right in contexts(lhs, rhs, rng)), \
        f"{mutant.name} passed in all {3 * len(draws)} contexts"
