"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here: the rational backend must be bit-exact
(deviation 0), the float backend is held to 1e-9, Monte Carlo estimates to
five standard errors, and the two timed criteria must finish inside 60 s.
"""

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import bool_prob, bool_table_oracle, is_trivial_kernel

from cgm.axioms import (CATALOG, check_soundness, e10_weights, get_axiom,
                        instantiate, sample_binding)
from cgm.diagram import generator_count, identity, mk_generator, par, seq
from cgm.gadgets import convex_mix, discard_all, gaussian_circuit
from cgm.linalg import CovFactor, Matrix
from cgm.normalform import (NFTree, decide_equiv, disintegrate, emit_nf,
                            make_bool_kernel, nftree_equal)
from cgm.randcircuit import BOOLEAN_KINDS, TermSampler
from cgm.semantics import (CGMixture, GaussComponent, compose, evaluate,
                           max_deviation, mixtures_equal,
                           moments, sample_many, with_sorted_words)
from cgm.dsl import parse

SEED = 2026
TRIALS = 100


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def axiom_instances():
    """The criterion-1 instance corpus: (name, binding, lhs, rhs) per trial."""
    corpus = []
    from cgm.axioms import _trial_seed
    for name in CATALOG:
        schema = get_axiom(name)
        for index in range(TRIALS):
            rng = random.Random(_trial_seed(SEED, name, index))
            binding = sample_binding(schema, rng)
            lhs, rhs = instantiate(schema, binding)
            corpus.append((name, binding, lhs, rhs))
    return corpus


def test_criterion_1_axiom_soundness():
    start = time.time()
    failures = []
    for name in CATALOG:
        exact_report = check_soundness(get_axiom(name), TRIALS, SEED)
        if not exact_report.passed:
            failures.append((name, "rational", exact_report.failures))
        float_report = check_soundness(get_axiom(name), TRIALS, SEED,
                                       tol=1e-9, backend="float")
        if not float_report.passed:
            failures.append((name, "float", float_report.failures))
    elapsed = time.time() - start
    assert not failures, failures[:3]
    assert elapsed < 60, f"soundness suite took {elapsed:.1f}s"
    _report(1, f"{len(CATALOG)} schemas x {TRIALS} trials, both backends, "
               f"{elapsed:.1f}s")


def test_criterion_2_worked_examples():
    # two-component mixture with p = 3/10
    text = """
    let n31 = (stdnormal * one) ; (id(R) * scal(3)) ; add in
    let n04 = stdnormal ; scal(2) in
    flip(3/10) * (n31 * n04) ; ite
    """
    mix = evaluate(parse(text))
    comps = {(c.mean.entries[0], c.gram().entries[0]): c.weight
             for c in mix.row(())}
    assert comps == {(Fraction(3), Fraction(1)): Fraction(3, 10),
                     (Fraction(0), Fraction(4)): Fraction(7, 10)}

    # three-component cascade: biases p1 and p2/(1-p1) give weights p1,p2,p3
    p1, p2 = Fraction(2, 5), Fraction(1, 4)
    p3 = 1 - p1 - p2
    q = p2 / (1 - p1)
    leaves = [gaussian_circuit([k], Matrix.from_rows([[1]])) for k in (7, 8, 9)]
    cascade = convex_mix(p1, leaves[0], convex_mix(q, leaves[1], leaves[2]))
    weights = {c.mean.entries[0]: c.weight for c in evaluate(cascade).row(())}
    assert weights == {Fraction(7): p1, Fraction(8): p2, Fraction(9): p3}
    _report(2, "two- and three-component mixture encodings, exact")


def test_criterion_3_e10_weight_law():
    rng = random.Random(SEED)
    schema = get_axiom("E10")
    checked = 0
    while checked < 50:
        p = Fraction(rng.randint(0, 12), 12)
        q = Fraction(rng.randint(0, 12), 12)
        if p * q == 1:
            continue
        pt, qt = e10_weights(p, q)
        assert pt == p * q
        assert qt == q * (1 - p) / (1 - p * q)
        if 0 < p < 1 and 0 < q < 1:
            assert 0 < pt < 1 and 0 < qt < 1
        lhs, rhs = instantiate(schema, {"p": p, "q": q})
        left, right = evaluate(lhs), evaluate(rhs)
        assert mixtures_equal(left, right)
        assert max_deviation(left, right) == 0.0
        checked += 1
    _report(3, "50 random rational reassociations, weights exact")


def _random_gauss_map(rng, m, n):
    a = Matrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(m)] for _ in range(n)], cols=m)
    b = Matrix.column([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(n)])
    k = rng.randint(0, n)
    fac = Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(k)]
                            for _ in range(n)], cols=k)
    from cgm.diagram import reals
    comp = GaussComponent(Fraction(1), (), a, b, CovFactor(fac))
    return CGMixture(reals(m), reals(n), (((), (comp,)),))


def test_criterion_4_gaussian_composition_oracle():
    rng = random.Random(SEED + 4)
    for _ in range(100):
        mid = rng.randint(0, 4)
        f = _random_gauss_map(rng, rng.randint(0, 4), mid)
        g = _random_gauss_map(rng, mid, rng.randint(0, 4))
        out = compose(f, g)
        (cf,) = f.row(())
        (cg,) = g.row(())
        (co,) = out.row(())
        assert co.lin == cg.lin @ cf.lin
        assert co.mean == cg.lin @ cf.mean + cg.mean
        want_cov = cg.lin @ cf.gram() @ cg.lin.transpose() + cg.gram()
        assert co.gram() == want_cov
    _report(4, "100 random affine-Gaussian pairs match the closed form exactly")


def test_criterion_5_boolean_bruteforce_oracle():
    rng = random.Random(SEED + 5)
    sampler = TermSampler(rng, kinds=BOOLEAN_KINDS, max_word=5, max_depth=4)
    checked = 0
    while checked < 100:
        t = sampler.closed_term()
        if generator_count(t) > 12:
            continue
        mix = evaluate(t)
        table = bool_table_oracle(t)
        for bits, comps in mix.table:
            got = {c.bool_out: c.weight for c in comps}
            want = {k: v for k, v in table[bits].items() if v != 0}
            assert got == want
        checked += 1
    _report(5, "100 random Boolean circuits equal the enumerated "
               "stochastic-matrix product exactly")


def _live_perturbations(tree):
    """Every certificate parameter that is free to move, bumped by 1e-3."""
    delta = Fraction(1, 1000)
    marginal = {bits: {c.bool_out: c.weight for c in row}
                for bits, row in tree.bool_marginal.table}
    for bits_in, row in tree.bool_marginal.table:
        if len(row) >= 2 or (len(row) == 1 and tree.q > 0):
            moved = dict(marginal[bits_in])
            source = max(moved, key=moved.get)
            target = next(v for v in itertools.product((0, 1), repeat=tree.q)
                          if v != source)
            if moved[source] < delta:
                continue
            moved[source] -= delta
            moved[target] = moved.get(target, Fraction(0)) + delta
            table = dict(marginal)
            table[bits_in] = moved
            kernel = make_bool_kernel(tree.p, tree.q, table)
            yield NFTree(tree.p, tree.m, tree.q, tree.n, kernel, tree.leaves)
    for index, (key, cell) in enumerate(tree.leaves):
        if bool_prob(tree.bool_marginal, key[0], key[1]) == 0:
            continue   # forced zero cell: not a live parameter
        comp = cell[0]
        bumps = []
        if tree.n > 0:
            bumps.append(replace(comp, mean=comp.mean + Matrix.from_rows(
                [[delta]] + [[0]] * (tree.n - 1))))
            bumped_cov = Matrix(tree.n, tree.n, tuple(
                x + delta if i == 0 else x
                for i, x in enumerate(comp.cov.entries)))
            bumps.append(replace(comp, cov=bumped_cov))
            if tree.m > 0:
                bumped_lin = Matrix(tree.n, tree.m, tuple(
                    x + delta if i == 0 else x
                    for i, x in enumerate(comp.lin.entries)))
                bumps.append(replace(comp, lin=bumped_lin))
        if len(cell) >= 2 and comp.weight > delta:
            tail = cell[-1]
            new_comps = ((replace(comp, weight=comp.weight - delta),)
                         + cell[1:-1]
                         + (replace(tail, weight=tail.weight + delta),))
            leaves = list(tree.leaves)
            leaves[index] = (key, new_comps)
            yield NFTree(tree.p, tree.m, tree.q, tree.n, tree.bool_marginal,
                         tuple(leaves))
        for bumped in bumps:
            leaves = list(tree.leaves)
            leaves[index] = (key, (bumped,) + cell[1:])
            yield NFTree(tree.p, tree.m, tree.q, tree.n, tree.bool_marginal,
                         tuple(leaves))


def test_criterion_6_normal_form_roundtrip_and_uniqueness(axiom_instances):
    # (a) 200 random mixed circuits round-trip exactly
    rng = random.Random(SEED + 6)
    sampler = TermSampler(rng, max_word=4, max_depth=4)
    done = 0
    while done < 200:
        t = sampler.closed_term()
        if t.dom.n_bool > 3 or t.dom.n_real > 3 or \
                t.cod.n_bool > 3 or t.cod.n_real > 3:
            continue
        mix = evaluate(t)
        if max(len(comps) for _, comps in mix.table) > 4:
            continue
        reference = with_sorted_words(mix)
        back = evaluate(emit_nf(disintegrate(mix)))
        assert mixtures_equal(reference, back)
        assert max_deviation(reference, back) == 0.0
        done += 1

    # (b) every axiom-instance pair decides equivalent with identical certs
    for name, _binding, lhs, rhs in axiom_instances:
        verdict, (nf1, nf2) = decide_equiv(lhs, rhs)
        assert verdict, name
        assert nf1 == nf2, name

    # (c) perturbing any single live certificate parameter flips the verdict
    flips = 0
    for name, _binding, lhs, _rhs in axiom_instances[:: len(axiom_instances) // 25]:
        tree = disintegrate(evaluate(lhs))
        for perturbed in _live_perturbations(tree):
            assert not nftree_equal(tree, perturbed), name
            verdict, _ = decide_equiv(lhs, emit_nf(perturbed))
            assert not verdict, name
            flips += 1
    assert flips > 0
    _report(6, f"200 round trips exact; {len(axiom_instances)} certificate "
               f"pairs identical; {flips} single-parameter perturbations "
               f"all flipped the verdict")


def test_criterion_7_monte_carlo_consistency():
    start = time.time()
    rng = random.Random(SEED + 7)
    sampler = TermSampler(rng, max_word=3, max_depth=4)
    n_draws = 100_000
    checked = 0
    while checked < 20:
        t = sampler.closed_term()
        mix = evaluate(t, backend="float")
        bits = (0,) * mix.p
        xs = [0.5, -1.0, 2.0][:mix.m]
        stats = moments(mix, bits, xs)
        bools_out, reals_out = sample_many(mix, bits, xs, n_draws,
                                           seed=SEED + checked)
        # Boolean marginals within five binomial standard errors
        counts = {}
        for b in bools_out:
            counts[b] = counts.get(b, 0) + 1
        for out_bits, weight in stats.bool_marginal:
            p_hat = counts.get(out_bits, 0) / n_draws
            p_true = float(weight)
            se = (p_true * (1 - p_true) / n_draws) ** 0.5
            assert abs(p_hat - p_true) <= 5 * se + 1e-12, (p_hat, p_true)
        # real mean and covariance within five empirical standard errors
        if mix.n:
            mean_true = np.array([float(v) for v in stats.mean.entries])
            se_mean = reals_out.std(axis=0, ddof=1) / n_draws ** 0.5
            assert (np.abs(reals_out.mean(axis=0) - mean_true)
                    <= 5 * se_mean + 1e-12).all()
            centred = reals_out - mean_true
            for i in range(mix.n):
                for j in range(i, mix.n):
                    prod = centred[:, i] * centred[:, j]
                    c_true = float(stats.cov.at(i, j))
                    se = prod.std(ddof=1) / n_draws ** 0.5
                    assert abs(prod.mean() - c_true) <= 5 * se + 1e-12
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"Monte Carlo took {elapsed:.1f}s"
    _report(7, f"20 circuits x {n_draws} draws within 5 SE, {elapsed:.1f}s")


def test_criterion_8_discardability():
    rng = random.Random(SEED + 8)
    sampler = TermSampler(rng, max_word=4, max_depth=4)
    for _ in range(100):
        t = sampler.closed_term()
        mix = evaluate(seq(t, discard_all(t.cod)))
        assert is_trivial_kernel(mix)
        for _, comps in mix.table:
            assert comps[0].weight == 1
    _report(8, "100 random circuits compose with full discard to the "
               "weight-1 trivial kernel, exactly")
