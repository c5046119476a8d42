"""Evaluation builds nothing that only a discard reads.

Every generator is discardable (``g ; del = del``), so a subterm none of
whose outputs any occurrence reads has, in context, the value of any kernel
on its words.  `evaluate` walks demand from the root and gives such a
subterm a stand-in instead of building it.  These tests hold the result to
the reference fold, which builds everything, and keep the discard laws
exercised there.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from cgm import semantics
from cgm.axioms import CATALOG, _trial_seed, get_axiom, instantiate, sample_binding
from cgm.diagram import (Gen, GenKind, Seq, TypeWord, identity, mk_generator,
                         par, seq, seq_all, to_float_params)
from cgm.dsl import parse
from cgm.gadgets import copy_bundle, discard_all, seq_trim
from cgm.randcircuit import TermSampler
from cgm.semantics import GENERATOR_WIRINGS, evaluate, mixtures_equal
from oracles import reference_evaluate, subterms


def test_discard_laws_hold_in_the_reference_fold():
    # `evaluate` no longer builds ``g`` in ``g ; del``, so check_soundness
    # does not compose these sides; the reference fold does.
    names = [n for n in CATALOG if n.startswith(("A2", "B2", "D1-", "D2-")) or n == "E9"]
    assert len(names) == 13
    for name in names:
        schema = get_axiom(name)
        for index in range(4):
            rng = random.Random(_trial_seed(2030, name, index))
            lhs, rhs = instantiate(schema, sample_binding(schema, rng))
            assert isinstance(lhs, Seq) and lhs.late.discards, name
            assert reference_evaluate(lhs).table == reference_evaluate(rhs).table, name


def holding_discards(count: int = 40) -> list:
    """Seeded sampled terms, closed and open on mixed words, each put where
    demand is partial: a shared copy of it read beside one that is not,
    either way round, and its outputs copied with one copy discarded; and
    the sampled term itself when it holds a discard."""
    rng = random.Random(606)
    sampler = TermSampler(rng)
    words = [TypeWord.of(w) for w in ("B", "R", "BR", "RB", "BBR", "RRB")]
    terms = []
    for i in range(count):
        s = sampler.closed_term() if i % 2 else sampler.term(rng.choice(words),
                                                              rng.choice(words))
        keep, drop = identity(s.cod), discard_all(s.cod)
        terms += [seq(par(s, s), par(keep, drop)), seq(par(s, s), par(drop, keep)),
                  seq_trim(s, copy_bundle(s.cod), par(drop, keep)),
                  seq_trim(s, copy_bundle(s.cod), par(keep, drop))]
        if s.discards:
            terms.append(s)
    return terms


def test_unread_subterms_change_no_kernel(monkeypatch):
    interpreted = []
    real = semantics.interp_generator
    monkeypatch.setattr(semantics, "interp_generator",
                        lambda *args: interpreted.append(1) or real(*args))
    fresh = semantics._leaf.__wrapped__
    built = distinct = 0
    for t in holding_discards():
        # A fresh leaf cache: each distinct generator value, once, unless pruned.
        monkeypatch.setattr(semantics, "_leaf", lru_cache(maxsize=None)(fresh))
        del interpreted[:]
        assert evaluate(t, backend="rational").table == reference_evaluate(t).table
        built += len(interpreted)
        distinct += len({s.generator for s in subterms(t) if isinstance(s, Gen)
                         and s.generator.kind not in GENERATOR_WIRINGS})
        assert mixtures_equal(evaluate(t, backend="float"),
                              reference_evaluate(to_float_params(t)), 1e-9)
    # The reference fold interprets every distinct generator value; the
    # corpus must leave some unbuilt, or it would test no pruning.
    assert built < distinct


class TestDeepAndShared:
    """The demand walk needs no recursion headroom (see conftest) and visits
    each node once per set of outputs read, so shared terms stay linear."""

    def test_long_chain_into_a_discard(self):
        # Built, the chain would end at 2^100000: a float overflow, or a
        # 100,000-bit rational.  Its outputs are discarded, so it is not.
        chain = seq_all(mk_generator(GenKind.STD_NORMAL),
                        *[mk_generator(GenKind.SCALAR, 2)] * 99_998,
                        mk_generator(GenKind.REAL_DISCARD))
        started = time.perf_counter()
        for backend in ("auto", "float", "rational"):
            assert evaluate(chain, backend=backend).table == \
                evaluate(identity(""), backend=backend).table
        assert time.perf_counter() - started < 10

    def test_let_doubled_term_with_one_copy_discarded(self):
        # x_i = copyR ; x_{i-1} * x_{i-1} ; id(R) * delR: 2^30 occurrences of
        # scal(2) in 91 distinct nodes, one of each pair unread.
        x = mk_generator(GenKind.SCALAR, 2)
        keep_first = par(identity("R"), mk_generator(GenKind.REAL_DISCARD))
        for _ in range(30):
            x = seq_all(mk_generator(GenKind.REAL_COPY), par(x, x), keep_first)
        started = time.perf_counter()
        assert evaluate(x).table == evaluate(mk_generator(GenKind.SCALAR, 2)).table
        assert time.perf_counter() - started < 10


@pytest.mark.parametrize("backend", ["auto", "float", "rational"])
def test_an_overflow_nothing_reads_is_not_built(backend):
    # `test_float_overflow_raises` keeps the overflow that reaches an output.
    # Under auto the float literals pick the float field.
    text = "stdnormal ; scal(1e300) ; scal(1e300) ; delR"
    field = "rational" if backend == "rational" else "float"
    assert evaluate(parse(text), backend=backend).table == \
        evaluate(identity(""), backend=field).table


def test_exact_weights_sum_to_one_where_a_flip_is_unread():
    # The flip's two rows merge back to weight 1 exactly in the reference.
    t = parse("flip(1/3) * stdnormal ; delB * scal(2)")
    assert evaluate(t).table == reference_evaluate(t).table
    assert [c.weight for c in evaluate(t).row(())] == [Fraction(1)]
