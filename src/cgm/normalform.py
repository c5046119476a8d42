"""Canonical normal forms and the equivalence decision procedure.

A kernel disintegrates into a Boolean marginal plus, for every pair of
Boolean output/input assignments, a convex cell: the tuple of its
affine-Gaussian `CellComponent`s, weights summing to one.  Zero-mass
branches get a designated Dirac-at-zero cell so the certificate is unique.
The marginal is itself a kernel B^p -> B^q: a `CGMixture` of weighted
Diracs with empty matrices, which `make_bool_kernel` builds through the
canonical builder, so its rows are sorted and hold no zero weight.
The certificate (`NFTree`) stores covariances as Gram matrices, which are
canonical; the emitted circuit is a deterministic function of the
certificate, so certificate equality and emitted-circuit equality
coincide.  It is reduced: equal cells, and equal flips of the marginal, are
one term, a guard whose two branches are one term is discarded (E8), and no
stage of a composite is an identity wire (`seq_trim`/`par_trim` drop them).

Emission is exact under the rational backend: each positive LDL^T pivot d
is split into at most four rational squares (Lagrange), one standard normal
per square, so the synthesized covariance reproduces the Gram matrix with
no floating square roots; under the float backend a single sqrt(d)-scaled
normal per pivot is used instead.  A component is one matrix circuit of
[A | F | mu] applied to its inputs, those normals and the constant 1.

The marginal's selector trees and the guard tree over the cells have one
shape (test the leftmost guard, copy the rest and the shared real wires into
both branches, join), so one builder makes both, level by level:
`gadgets._guard_tree`, which `gadgets.thick_ite` uses too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .diagram import EMPTY, GenKind, Term, bools, identity, mk_generator, reals
from .dsl import parse
from .errors import TypeMismatch
from .gadgets import (_guard_tree, convex_mix, copy_bundle, discard_all,
                      gauss_map_circuit, ite_n, par_trim, seq_trim)
from .linalg import (CovFactor, Matrix, Scalar, ldlt, matrix_to_json,
                     scalar_to_json, sum_square_scales)
from .semantics import (CGMixture, DEFAULT_BOOL_CAP, DEFAULT_TOLERANCE,
                        GaussComponent, _build, _component_blocks,
                        _differences, all_bitvecs, bits_to_str, canonicalize,
                        evaluate)


def make_bool_kernel(p: int, q: int, table: dict) -> CGMixture:
    """The canonical kernel B^p -> B^q of ``{bits_in: {bits_out: weight}}``:
    one Dirac per entry, its matrices empty, in the table's field (float if
    a weight is); `_build` drops the zero weights and sorts."""
    field = float if any(isinstance(w, float) for row in table.values()
                         for w in row.values()) else Fraction
    empty = Matrix.zeros(0, 0, field)
    mean, cov = Matrix.zeros(0, 1, field), CovFactor(empty)
    rows = [(bits_in, [GaussComponent(w, out, empty, mean, cov)
                       for out, w in table.get(bits_in, {}).items()])
            for bits_in in all_bitvecs(p)]
    return _build(bools(p), bools(q), rows, field, DEFAULT_TOLERANCE)


@dataclass(frozen=True)
class CellComponent:
    weight: Scalar
    lin: Matrix    # n x m
    mean: Matrix   # n x 1
    cov: Matrix    # n x n Gram matrix (canonical, PSD)


def zero_cell(n: int, m: int) -> tuple:
    return (CellComponent(Fraction(1), Matrix.zeros(n, m), Matrix.zeros(n, 1),
                          Matrix.zeros(n, n)),)


@dataclass(frozen=True)
class NFTree:
    """Canonical certificate: Boolean marginal plus guarded convex cells."""

    p: int
    m: int
    q: int
    n: int
    bool_marginal: CGMixture   # B^p -> B^q, from `make_bool_kernel`
    leaves: tuple   # sorted (((a_out, a_in), cell), ...), complete


def disintegrate(mix: CGMixture, tol: float = DEFAULT_TOLERANCE) -> NFTree:
    """Split a kernel into Boolean marginal and normalized conditionals."""
    mix = canonicalize(mix, tol)
    p, m, q, n = mix.p, mix.m, mix.q, mix.n
    marginal = {}
    leaves = {}
    for bits_in, comps in mix.table:
        groups = {}
        for c in comps:
            groups.setdefault(c.bool_out, []).append(c)
        row = {}
        for bits_out in all_bitvecs(q):
            group = groups.get(bits_out)
            if not group:
                leaves[(bits_out, bits_in)] = zero_cell(n, m)
                continue
            mass = sum(c.weight for c in group)
            row[bits_out] = mass
            leaves[(bits_out, bits_in)] = tuple(
                CellComponent(c.weight / mass, c.lin, c.mean, c.gram())
                for c in group)
        marginal[bits_in] = row
    return NFTree(p, m, q, n, make_bool_kernel(p, q, marginal),
                  tuple(sorted(leaves.items())))


def _noise_factor(cov: Matrix, tol: float) -> Matrix:
    """Canonical factor F with F F^T = cov; rational if cov is rational."""
    lower, diag = ldlt(cov, tol)
    columns = [[s * lower.at(r, i) for r in range(cov.rows)]
               for i, d in enumerate(diag) for s in sum_square_scales(d)]
    flat = [x for col in columns for x in col]
    return (Matrix(len(columns), cov.rows, flat) if cov.exact
            else Matrix.over(len(columns), cov.rows, flat, None)).transpose()


def synth_cnf(cell: tuple, tol: float = DEFAULT_TOLERANCE) -> Term:
    """Emit the convex cascade for one cell: R^m -> R^n, deterministic.

    Singletons become one `gauss_map_circuit`; larger cells become a
    right-nested cascade of flip-guarded conditionals whose biases are the
    renormalized weights (first-sorted component in the true branch).
    """
    def leaf(component: CellComponent) -> Term:
        factor = _noise_factor(component.cov, tol)
        return gauss_map_circuit(component.lin, component.mean, factor)

    weights = [c.weight for c in cell]
    leaves = [leaf(c) for c in cell]
    # The mass left before each component; the cascade is built inside out.
    remaining = itertools.accumulate(weights[:-1], sub, initial=sum(weights))
    out = leaves.pop()
    for weight, mass, head in reversed(list(zip(weights, remaining, leaves))):
        out = convex_mix(weight / mass, head, out)
    return out


# The Boolean multiplexer from and/not/copy: not(not(g and x) and not(not g and y)).
_MUX3 = parse("copyB * id(BB) ; id(B) * swap(B,B) * id(B) ; and * (not * id(B) ; and)"
              " ; not * not ; and ; not")


def synth_bool(kernel: CGMixture) -> Term:
    """Circuit of chained conditional Bernoullis with eval equal to the kernel.

    Output bit j is drawn by a flip whose bias P(b_j = 1 | inputs, earlier
    outputs) is selected by a mux tree; zero-probability prefixes get bias 0.
    """
    p, q = kernel.p, kernel.q
    if p == q and all(len(comps) == 1 and comps[0].bool_out == bits and
                      comps[0].weight == 1 for bits, comps in kernel.table):
        return identity(bools(p))

    def prefix_mass(bits_in, prefix):
        return sum(c.weight for c in kernel.row(bits_in)
                   if c.bool_out[:len(prefix)] == prefix)

    stage_terms, shared = [], {}
    for j in range(q):
        flips = []
        for v in itertools.product((1, 0), repeat=p + j):
            bits_in, prefix = v[:p], v[p:]
            denom = prefix_mass(bits_in, prefix)
            bias = prefix_mass(bits_in, prefix + (1,)) / denom if denom else 0
            flip = mk_generator(GenKind.FLIP, bias)
            flips.append(shared.setdefault(flip, flip))
        stage_terms.append(seq_trim(copy_bundle(bools(p + j)), par_trim(
            identity(bools(p + j)), _guard_tree(flips, EMPTY, _MUX3))))
    finish = par_trim(discard_all(bools(p)), identity(bools(q)))
    return seq_trim(*stage_terms, finish)


def emit_nf(tree: NFTree, tol: float = DEFAULT_TOLERANCE) -> Term:
    """Deterministic circuit for a certificate; eval reconstructs the kernel.

    Shape: copy the Boolean inputs, run the marginal circuit, copy its
    outputs, then a guard tree testing the q copied outputs followed by the
    p inputs (leftmost first, true branch first) whose leaves are the cell
    cascades applied to the shared real inputs; a step that is an identity
    (p or q = 0, say) is left out.  Each distinct cell's cascade is built
    once, so equal cells are one term, and `_guard_tree` discards a guard
    whose branches are equal (E8); the circuit is still a deterministic
    function of the certificate.
    """
    p, m, q, n = tree.p, tree.m, tree.q, tree.n
    cascades = {cell: synth_cnf(cell, tol)
                for cell in dict.fromkeys(cell for _, cell in tree.leaves)}
    cells = {key: cascades[cell] for key, cell in tree.leaves}
    guard_tree = _guard_tree(
        [cells[(v[:q], v[q:])] for v in itertools.product((1, 0), repeat=q + p)],
        reals(m), ite_n(n))
    inputs = identity(bools(p) + reals(m))
    return seq_trim(par_trim(copy_bundle(bools(p)), identity(reals(m))),
                    par_trim(synth_bool(tree.bool_marginal), inputs),
                    par_trim(copy_bundle(bools(q)), inputs),
                    par_trim(identity(bools(q)), guard_tree))


def _tree_blocks(tree: NFTree):
    """The shape, each marginal row, then each leaf and its components."""
    yield ("shape",), (tree.p, tree.m, tree.q, tree.n), ()
    for bits_in, comps in tree.bool_marginal.table:
        outs = tuple(c.bool_out for c in comps)
        yield (("marginal", bits_in, outs), (bits_in, outs),
               tuple(c.weight for c in comps))
    for key, cell in tree.leaves:
        yield ("leaf", key), (key, len(cell)), ()
        for idx, c in enumerate(cell):
            yield from _component_blocks(("leaf", key, idx), c.weight, c.lin,
                                         c.mean, c.cov)


def tree_is_exact(tree: NFTree) -> bool:
    return all(xs.exact if isinstance(xs, Matrix) else
               all(isinstance(x, Fraction) for x in xs)
               for _, _, xs in _tree_blocks(tree))


def _tree_differences(a: NFTree, b: NFTree, tol):
    eps = 0 if tree_is_exact(a) and tree_is_exact(b) else tol
    return _differences(_tree_blocks(a), _tree_blocks(b), eps)


def nftree_equal(a: NFTree, b: NFTree, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Structural certificate equality, exact unless floats are involved."""
    return not any(_tree_differences(a, b, tol))


def reordered_shape(term: Term):
    """(p, m, q, n) after moving Boolean wires in front of real ones."""
    return (term.dom.n_bool, term.dom.n_real,
            term.cod.n_bool, term.cod.n_real)


def decide_equiv(c1: Term, c2: Term, tol: float = DEFAULT_TOLERANCE,
                 cap: int = DEFAULT_BOOL_CAP, backend: str = "auto"):
    """Semantic equivalence via canonical certificates.

    Boundaries must agree up to the wire reordering that sorts Booleans
    before reals; returns the verdict together with both certificates.
    """
    if reordered_shape(c1) != reordered_shape(c2):
        raise TypeMismatch(
            f"boundaries differ even after reordering: "
            f"{c1.dom}->{c1.cod} vs {c2.dom}->{c2.cod}",
            expected=(c1.dom, c1.cod), actual=(c2.dom, c2.cod))
    nf1 = disintegrate(evaluate(c1, cap=cap, tol=tol, backend=backend), tol)
    nf2 = disintegrate(evaluate(c2, cap=cap, tol=tol, backend=backend), tol)
    return nftree_equal(nf1, nf2, tol), (nf1, nf2)


def first_certificate_difference(a: NFTree, b: NFTree,
                                 tol: float = DEFAULT_TOLERANCE):
    """Human-readable location of the first differing certificate entry."""
    hit = next(_tree_differences(a, b, tol), None)
    if hit is None:
        return None
    (kind, *where), x, y = hit
    if kind == "shape":
        return f"shape {x} vs {y}"
    if kind == "marginal":
        bits_in, outs, *entry = where
        given = bits_to_str(bits_in)
        if entry:
            return f"marginal({bits_to_str(outs[entry[0]])}|{given}): {x} vs {y}"
        x, y = ("{" + ", ".join(map(bits_to_str, key[1])) + "}" for key in (x, y))
        return f"marginal(*|{given}): outputs {x} vs {y}"
    (a_out, a_in), *where = where
    label = f"leaf(a'={bits_to_str(a_out)}, a={bits_to_str(a_in)})"
    if not where:
        return f"{label}: {x[1]} vs {y[1]} components"
    idx, field, *entry = where
    if entry and field != "weight":
        cols = {"A": a.m, "mu": 1, "cov": a.n}[field]
        field += "[%d,%d]" % divmod(entry[0], cols)
    return f"{label} component {idx}: {field} {x} vs {y}"


def certificate_json(tree: NFTree) -> dict:
    marginal_rows = []
    for bits_in, comps in tree.bool_marginal.table:
        marginal_rows.append({
            "input": bits_to_str(bits_in),
            "outputs": [{"output": bits_to_str(c.bool_out),
                         "weight": scalar_to_json(c.weight)} for c in comps],
        })
    leaves = []
    for (a_out, a_in), cell in tree.leaves:
        leaves.append({
            "aPrime": bits_to_str(a_out),
            "a": bits_to_str(a_in),
            "components": [{
                "weight": scalar_to_json(c.weight),
                "A": matrix_to_json(c.lin),
                "mu": matrix_to_json(c.mean),
                "cov": matrix_to_json(c.cov),
            } for c in cell],
        })
    return {"p": tree.p, "m": tree.m, "q": tree.q, "n": tree.n,
            "boolMarginal": marginal_rows, "leaves": leaves}
