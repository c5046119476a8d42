"""Equality, maximum deviation and first difference against the references.

`mixtures_equal`, `max_deviation`, `nftree_equal` and
`first_certificate_difference` share one difference walker; the reference
loops in `oracles` are what they were before.  Over axiom instances and
their mutants, random term pairs and perturbed certificates, each under the
rational and the float backend, the verdicts and the deviations must be the
same, and a first difference must be reported exactly when the certificates
are unequal.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cgm.axioms import (CATALOG, _trial_seed, get_axiom, mutant_of,
                        sample_binding)
from cgm.dsl import parse
from cgm.errors import InadmissibleBinding
from cgm.linalg import Matrix
from cgm.normalform import (NFTree, decide_equiv, disintegrate,
                            first_certificate_difference, make_bool_kernel,
                            nftree_equal, reordered_shape, tree_is_exact)
from cgm.randcircuit import TermSampler
from cgm.semantics import evaluate, max_deviation, mixtures_equal
from oracles import (reference_first_certificate_difference,
                     reference_max_deviation, reference_mixtures_equal,
                     reference_nftree_equal, reference_tree_is_exact)

BACKENDS = ("rational", "float")


def check_mixtures(left, right):
    """Same verdict and deviation as the references; returns the verdict."""
    verdict = mixtures_equal(left, right)
    assert verdict == reference_mixtures_equal(left, right)
    assert max_deviation(left, right) == reference_max_deviation(left, right)
    return verdict


def check_trees(a, b):
    """Same verdict as the reference and a first difference exactly when
    unequal; returns the verdict."""
    verdict = nftree_equal(a, b)
    assert verdict == reference_nftree_equal(a, b)
    assert tree_is_exact(a) == reference_tree_is_exact(a)
    assert (first_certificate_difference(a, b) is None) == verdict
    return verdict


def check_terms(lhs, rhs, backend):
    """Checks both comparisons of one term pair; returns the verdicts."""
    left = evaluate(lhs, backend=backend)
    right = evaluate(rhs, backend=backend)
    same = None
    if (left.dom_word, left.cod_word) == (right.dom_word, right.cod_word):
        same = check_mixtures(left, right)
    if reordered_shape(lhs) != reordered_shape(rhs):
        return same, None
    decided, (a, b) = decide_equiv(lhs, rhs, backend=backend)
    assert decided == check_trees(a, b)
    return same, decided


def axiom_pairs():
    """Both sides of trials 0-2 of every schema and trials 0-1 of its mutant."""
    pairs = []
    for name in CATALOG:
        for schema, trials in ((get_axiom(name), 3), (mutant_of(name), 2)):
            for index in range(trials):
                rng = random.Random(_trial_seed(5, schema.name, index))
                try:
                    pairs.append(schema.build(sample_binding(schema, rng)))
                except InadmissibleBinding:
                    continue
    return pairs


def random_pairs(count=60):
    sampler = TermSampler(random.Random(11), max_word=3, max_depth=4)
    pairs = []
    while len(pairs) < count:
        dom, cod = sampler.word(), sampler.word()
        pairs.append((sampler.term(dom, cod), sampler.term(dom, cod)))
    return pairs


@pytest.mark.parametrize("backend", BACKENDS)
def test_axiom_and_mutant_instances(backend):
    verdicts = [check_terms(lhs, rhs, backend) for lhs, rhs in axiom_pairs()]
    # The corpus has both outcomes of both comparisons.
    assert {same for same, _ in verdicts} >= {True, False}
    assert {decided for _, decided in verdicts} >= {True, False}


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_term_pairs(backend):
    for lhs, rhs in random_pairs():
        check_terms(lhs, rhs, backend)
        check_terms(lhs, lhs, backend)


def bumped(matrix: Matrix, index: int, delta) -> Matrix:
    entries = list(matrix.entries)
    entries[index] += delta
    return Matrix(matrix.rows, matrix.cols, tuple(entries))


def perturbations(tree: NFTree, delta):
    """Copies of `tree` with one scalar moved by `delta`, at every place."""
    for i, (key, cell) in enumerate(tree.leaves):
        for j, comp in enumerate(cell):
            changes = [{"weight": comp.weight + delta}]
            for field in ("lin", "mean", "cov"):
                matrix = getattr(comp, field)
                changes += [{field: bumped(matrix, k, delta)}
                            for k in range(len(matrix.entries))]
            for change in changes:
                comps = list(cell)
                comps[j] = replace(comp, **change)
                leaves = list(tree.leaves)
                leaves[i] = (key, tuple(comps))
                yield replace(tree, leaves=tuple(leaves))
    for bits_in, row in tree.bool_marginal.table:
        for out in (c.bool_out for c in row):
            table = {b: {c.bool_out: c.weight for c in r}
                     for b, r in tree.bool_marginal.table}
            table[bits_in][out] += delta
            yield replace(tree, bool_marginal=make_bool_kernel(
                tree.p, tree.q, table))


@pytest.mark.parametrize("backend", BACKENDS)
def test_perturbed_certificates(backend):
    verdicts = []
    for lhs, _ in random_pairs(12):
        tree = disintegrate(evaluate(lhs, backend=backend))
        for delta in (Fraction(1, 1000), 1e-3, 1e-12):
            for other in perturbations(tree, delta):
                verdicts.append(check_trees(tree, other))
                check_trees(other, tree)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("backend", BACKENDS)
def test_perturbed_mixtures(backend):
    for lhs, _ in random_pairs(12):
        mix = evaluate(lhs, backend=backend)
        for delta in (Fraction(1, 1000), 1e-3, 1e-12):
            for bits, comps in mix.table:
                for j, comp in enumerate(comps):
                    for k in range(len(comp.mean.entries)):
                        moved = list(comps)
                        moved[j] = replace(comp, mean=bumped(comp.mean, k, delta))
                        table = tuple((b, tuple(moved) if b == bits else c)
                                      for b, c in mix.table)
                        check_mixtures(mix, replace(mix, table=table))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("left, right, message", [
    ("flip(1/2)", "stdnormal", "shape (0, 0, 1, 0) vs (0, 0, 0, 1)"),
    ("stdnormal", "flip(1/2) * stdnormal * (stdnormal ; scal(2)) ; ite",
     "leaf(a'=, a=): 1 vs 2 components"),
], ids=["shape", "component-count"])
def test_structural_difference_messages(left, right, message, backend):
    # Certificates of other shapes, or with cells of other sizes: the
    # corpora above meet a differing scalar or marginal row first.
    a, b = (disintegrate(evaluate(parse(text), backend=backend))
            for text in (left, right))
    assert first_certificate_difference(a, b) == message
    assert reference_first_certificate_difference(a, b) == message
