import hashlib
import itertools
import json
import random
import re
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgm import diagram, semantics
from cgm.axioms import (CATALOG, _trial_seed, check_soundness, get_axiom,
                        instantiate, rewrite_at, sample_binding)
from cgm.diagram import (Colour, GenKind, Generator, Id, Par, Seq, Swap,
                         TypeWord, bools, flip, identity, mk_generator, par,
                         par_all, reals, seq, seq_all, to_exact_params,
                         to_float_params)
from cgm.dsl import parse, print_term
from cgm.errors import (DimensionMismatch, InputCapExceeded, InvalidDrawCount,
                        InvalidSeed, InvalidWeight, NonFiniteParam,
                        NonFiniteResult, TypeMismatch)
from cgm.gadgets import (convex_mix, discard_all, gauss_map_circuit,
                         gaussian_circuit, matrix_circuit, mix_gate, nary_copy,
                         sort_boundary, thick_ite)
from cgm.linalg import CovFactor, Matrix
from cgm.normalform import decide_equiv, disintegrate, emit_nf, nftree_equal
from cgm.randcircuit import BOOLEAN_KINDS, GAUSSIAN_KINDS, TermSampler
from cgm.semantics import (DEFAULT_TOLERANCE, CGMixture, GaussComponent,
                           _guide_table, _pick_components, all_bitvecs, canonicalize,
                           compose, evaluate, identity_kernel, interp_generator,
                           max_deviation, mixture_is_exact, mixture_to_json,
                           mixtures_equal, moments, sample,
                           sample_many, swap_kernel, tensor, with_sorted_words)
from oracles import (is_trivial_kernel, reference_build, reference_evaluate,
                     reference_moments, reference_sample_many)
import test_normalform

# SHA-256 of the rational kernels of `exactness_corpus()`; any change to an
# exact kernel or to its JSON form changes it.
EXACTNESS_CORPUS_DIGEST = (
    "1251144389945277d07f87289511fbd9d3f5fa5fec1328011822b60f8889cf50")


def axiom_sides(seed: int) -> list:
    """Both sides of trials 0-4 of every axiom schema."""
    terms = []
    for name in CATALOG:
        schema = get_axiom(name)
        for index in range(5):
            rng = random.Random(_trial_seed(seed, name, index))
            terms.extend(instantiate(schema, sample_binding(schema, rng)))
    return terms


def exactness_corpus() -> list:
    """`axiom_sides(2026)`, then 100 random closed terms."""
    sampler = TermSampler(random.Random(2027))
    return axiom_sides(2026) + [sampler.closed_term() for _ in range(100)]


def gauss_map(a_rows, b_entries, factor_rows, m=None):
    """Single-component kernel x -> N(Ax + b, F F^T) built directly."""
    a = Matrix.from_rows(a_rows, cols=m)
    mean = Matrix.column(b_entries)
    fac = Matrix.from_rows(factor_rows, cols=0) if factor_rows is not None \
        else Matrix.zeros(a.rows, 0)
    from cgm.semantics import GaussComponent
    comp = GaussComponent(Fraction(1), (), a, mean, CovFactor(fac))
    return CGMixture(reals(a.cols), reals(a.rows), (((), (comp,)),))


class TestGeneratorTable:
    def test_std_normal(self):
        m = interp_generator(Generator(GenKind.STD_NORMAL))
        (c,) = m.row(())
        assert c.lin.cols == 0 and c.mean.is_zero()
        assert c.gram() == Matrix.from_rows([[1]])

    def test_and_gate(self):
        m = interp_generator(Generator(GenKind.AND))
        (c,) = m.row((1, 0))
        assert c.weight == 1 and c.bool_out == (0,)

    def test_ite_false_guard(self):
        m = interp_generator(Generator(GenKind.ITE))
        (c,) = m.row((0,))
        assert c.lin == Matrix.from_rows([[0, 1]])

    def test_flip(self):
        m = interp_generator(Generator(GenKind.FLIP, Fraction(3, 10)))
        weights = {c.bool_out: c.weight for c in m.row(())}
        assert weights == {(1,): Fraction(3, 10), (0,): Fraction(7, 10)}

    def test_add(self):
        m = interp_generator(Generator(GenKind.ADD))
        (c,) = m.row(())
        assert c.lin == Matrix.from_rows([[1, 1]]) and c.gram().is_zero()


class TestCompose:
    def test_affine_gaussian_closed_form(self):
        f = gauss_map([[2]], [1], [[1]])           # x -> N(2x+1, 1)
        g = gauss_map([[3]], [0], [[2]])           # y -> N(3y, 4)
        out = compose(f, g)
        (c,) = out.row(())
        assert c.lin == Matrix.from_rows([[6]])
        assert c.mean == Matrix.from_rows([[3]])
        assert c.gram() == Matrix.from_rows([[13]])

    def test_identity_is_neutral(self):
        f = evaluate(mix_gate(Fraction(1, 3)))
        from cgm.semantics import identity_kernel
        assert compose(f, identity_kernel(f.cod_word)).table == f.table

    def test_flip_then_not_matches_matrix_product(self):
        p = Fraction(2, 7)
        out = compose(interp_generator(Generator(GenKind.FLIP, p)),
                      interp_generator(Generator(GenKind.NOT)))
        # column-stochastic product: [[0,1],[1,0]] applied to (1-p, p)
        weights = {c.bool_out: c.weight for c in out.row(())}
        assert weights == {(0,): p, (1,): 1 - p}

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            compose(interp_generator(Generator(GenKind.AND)),
                    interp_generator(Generator(GenKind.ADD)))


class TestTensor:
    def test_unit(self):
        f = evaluate(mix_gate(Fraction(1, 4)))
        from cgm.semantics import identity_kernel
        from cgm.diagram import EMPTY
        assert tensor(f, identity_kernel(EMPTY)).table == f.table

    def test_block_structure(self):
        g1 = gauss_map([[]], [3], [[1]], m=0)
        g2 = gauss_map([[]], [0], [[2]], m=0)
        out = tensor(g1, g2)
        (c,) = out.row(())
        assert c.mean == Matrix.column([3, 0])
        assert c.gram() == Matrix.from_rows([[1, 0], [0, 4]])

    def test_product_weights(self):
        p, q = Fraction(1, 3), Fraction(1, 5)
        out = tensor(interp_generator(Generator(GenKind.FLIP, p)),
                     interp_generator(Generator(GenKind.FLIP, q)))
        weights = {c.bool_out: c.weight for c in out.row(())}
        assert weights == {(1, 1): p * q, (1, 0): p * (1 - q),
                           (0, 1): (1 - p) * q, (0, 0): (1 - p) * (1 - q)}


def random_kernel(rng, exact=True, near=False) -> CGMixture:
    """A kernel on small random words whose rows may hold duplicate
    components and zero weights, and with `near`, float near-duplicates
    (means 1e-12 apart)."""
    p, m, q, n = (rng.randint(0, 2) for _ in range(4))

    def value():
        x = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        return x if exact else float(x)

    def component():
        width, weight = rng.randint(0, 2), abs(value()) + 1
        return GaussComponent(
            weight * 0 if rng.random() < 0.15 else weight,
            tuple(rng.randint(0, 1) for _ in range(q)),
            Matrix(n, m, tuple(value() for _ in range(n * m))),
            Matrix(n, 1, tuple(value() for _ in range(n))),
            CovFactor(Matrix(n, width, tuple(value()
                                             for _ in range(n * width)))))

    rows = {}
    for bits in itertools.product((0, 1), repeat=p):
        comps = [component() for _ in range(rng.randint(1, 3))]
        for c in list(comps):
            if rng.random() < 0.3:
                comps.append(c)
            elif near and rng.random() < 0.3 and n:
                comps.append(GaussComponent(
                    c.weight, c.bool_out, c.lin,
                    Matrix(n, 1, tuple(x + 1e-12 for x in c.mean.entries)),
                    c.cov))
        rng.shuffle(comps)
        rows[bits] = tuple(comps)
    return CGMixture(bools(p) + reals(m), bools(q) + reals(n),
                     tuple(sorted(rows.items())))


def product_operands(seed: int, exact: bool, near=False) -> list:
    """Seeded (f, g) pairs: random kernels, evaluated terms and wiring
    kernels, on either side."""
    rng = random.Random(seed)
    sampler = TermSampler(random.Random(seed + 1), max_word=3)
    wirings = [identity_kernel(reals(1)), identity_kernel(bools(2)),
               swap_kernel(Colour.B, Colour.R), swap_kernel(Colour.R, Colour.R),
               interp_generator(Generator(GenKind.BOOL_COPY)),
               interp_generator(Generator(GenKind.REAL_COPY)),
               interp_generator(Generator(GenKind.REAL_DISCARD))]
    backend = "rational" if exact else "float"
    kinds = [lambda: random_kernel(rng, exact, near),
             lambda: evaluate(sampler.closed_term(max_len=3), backend=backend),
             lambda: rng.choice(wirings)]
    return [(rng.choice(kinds)(), rng.choice(kinds)()) for _ in range(150)]


class TestCanonicalProduct:
    def test_rational_product_is_raw_product_canonicalized(self):
        from oracles import reference_tensor
        for f, g in product_operands(61, exact=True):
            assert tensor(f, g).table == reference_tensor(f, g).table

    def test_float_product_matches_raw_product(self):
        from oracles import reference_tensor
        for f, g in product_operands(62, exact=False):
            assert mixtures_equal(tensor(f, g), reference_tensor(f, g), 1e-9)

    def test_float_product_of_near_duplicates(self):
        # Merging at a tolerance only joins neighbours in key order.  In a
        # raw product, other components can sort between two near-duplicates
        # of one operand, so the raw product's merge pass can miss them;
        # `tensor` merges each operand first, as the raw product of the
        # canonical operands does.
        from oracles import reference_tensor
        for f, g in product_operands(64, exact=False, near=True):
            want = reference_tensor(canonicalize(f), canonicalize(g))
            assert mixtures_equal(tensor(f, g), want, 1e-9)

    def test_canonical_kernels_come_back_unchanged(self):
        for exact in (True, False):
            for f, g in product_operands(63, exact)[:40]:
                for k in (canonicalize(f, 1e-9), tensor(f, g, 1e-9)):
                    assert canonicalize(k, 1e-9) is k
                    assert (canonicalize(k, 1e-3) is k) is mixture_is_exact(k)

    def test_float_kernel_merges_again_at_a_wider_tolerance(self):
        parts = tuple(GaussComponent(0.5, (), Matrix.zeros(1, 0),
                                     Matrix.column([mu]),
                                     CovFactor(Matrix.zeros(1, 0)))
                      for mu in (0.0, 1e-6))
        mix = CGMixture(TypeWord(), reals(1), (((), parts),))
        fine = canonicalize(mix, 1e-9)
        assert len(fine.row(())) == 2
        (merged,) = canonicalize(fine, 1e-3).row(())
        assert merged.weight == 1.0

    def test_exact_components_within_tol_merge_in_a_float_product(self):
        from oracles import reference_tensor
        parts = tuple(GaussComponent(Fraction(1, 2), (), Matrix.zeros(1, 0),
                                     Matrix.column([mu]),
                                     CovFactor(Matrix.zeros(1, 0)))
                      for mu in (Fraction(0), Fraction(1, 10 ** 12)))
        exact = CGMixture(TypeWord(), reals(1), (((), parts),))
        flip = interp_generator(Generator(GenKind.FLIP, 0.25))
        for f, g in ((flip, exact), (exact, flip)):
            out = tensor(f, g)
            assert out.table == reference_tensor(f, g).table
            assert len(out.row(())) == 2

    def test_underflowing_weights_are_dropped(self):
        from oracles import reference_tensor
        tiny = interp_generator(Generator(GenKind.FLIP, 1e-200))
        out = tensor(tiny, tiny)
        assert out.table == reference_tensor(tiny, tiny).table
        assert len(out.row(())) == 3

    def test_underflowing_composed_weights_are_dropped(self):
        # One composed weight, 1e-200 * 1e-200, underflows to 0.0; the
        # canonical builder drops it, so `compose` filters nothing itself.
        term = seq(flip(1e-200),
                   seq(mk_generator(GenKind.BOOL_DISCARD), flip(1e-200)))
        got = evaluate(term)
        assert mixtures_equal(got, reference_evaluate(term))
        assert [(c.bool_out, c.weight) for c in got.row(())] == \
            [((0,), 1.0), ((1,), 1e-200)]


class TestEvaluate:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            evaluate(parse("not"), backend="bogus")

    def test_worked_mixture(self):
        g1 = gaussian_circuit([3], Matrix.from_rows([[1]]))
        g2 = gaussian_circuit([0], Matrix.from_rows([[2]]))
        m = evaluate(convex_mix(Fraction(3, 10), g1, g2))
        comps = m.row(())
        assert [(c.weight, c.mean.entries[0], c.gram().entries[0])
                for c in comps] == [
            (Fraction(7, 10), Fraction(0), Fraction(4)),
            (Fraction(3, 10), Fraction(3), Fraction(1))]

    def test_cascade_weights(self):
        p1, p2 = Fraction(1, 2), Fraction(1, 3)
        q = p2 / (1 - p1)
        leaves = [gaussian_circuit([k], Matrix.from_rows([[1]])) for k in (1, 2, 3)]
        cascade = convex_mix(p1, leaves[0], convex_mix(q, leaves[1], leaves[2]))
        m = evaluate(cascade)
        weights = {c.mean.entries[0]: c.weight for c in m.row(())}
        assert weights == {Fraction(1): p1, Fraction(2): p2,
                           Fraction(3): 1 - p1 - p2}

    def test_input_cap(self):
        wide = identity(bools(13))
        with pytest.raises(InputCapExceeded):
            evaluate(wide)
        assert evaluate(wide, cap=13).p == 13

    def test_float_demotion(self):
        t = seq(mk_generator(GenKind.FLIP, 0.25), mk_generator(GenKind.NOT))
        m = evaluate(t)
        assert not mixture_is_exact(m)
        m2 = evaluate(t, backend="rational")
        assert mixture_is_exact(m2)

    def test_discard_everything_is_trivial(self):
        sampler = TermSampler(random.Random(23), max_word=3)
        for _ in range(40):
            t = sampler.closed_term()
            m = evaluate(seq(t, discard_all(t.cod)))
            assert is_trivial_kernel(m)

    def test_weights_normalized(self):
        sampler = TermSampler(random.Random(5), max_word=3)
        for _ in range(50):
            m = evaluate(sampler.closed_term())
            for _, comps in m.table:
                assert sum(c.weight for c in comps) == 1

    def test_functoriality_on_random_cuts(self):
        sampler = TermSampler(random.Random(31), max_word=3)
        for _ in range(40):
            mid = sampler.word()
            t1 = sampler.term(sampler.word(), mid)
            t2 = sampler.term(mid, sampler.word())
            lhs = evaluate(Seq(t1, t2))
            rhs = compose(evaluate(t1), evaluate(t2))
            assert mixtures_equal(lhs, rhs)
            u1, u2 = sampler.closed_term(max_len=2), sampler.closed_term(max_len=2)
            assert mixtures_equal(evaluate(Par(u1, u2)),
                                  tensor(evaluate(u1), evaluate(u2)))

    def test_sorted_words_match_syntactic_reordering(self):
        sampler = TermSampler(random.Random(77), max_word=4)
        for _ in range(40):
            t = sampler.closed_term()
            assert evaluate(sort_boundary(t)).table == \
                with_sorted_words(evaluate(t)).table


BUILDERS = ("compose", "tensor", "_wiring_then_kernel", "_kernel_then_wiring")


@pytest.fixture
def builds(monkeypatch):
    """Counts the calls that build a kernel for a Seq or Par."""
    calls = []
    for name in BUILDERS:
        def counted(*args, _build=getattr(semantics, name), **kwargs):
            calls.append(1)
            return _build(*args, **kwargs)
        monkeypatch.setattr(semantics, name, counted)
    return calls


def criterion6_anchors(count: int = 6) -> list:
    """The first circuits criterion 6 draws (seed 2026 + 6)."""
    sampler, out = TermSampler(random.Random(2032), max_word=4, max_depth=4), []
    while len(out) < count:
        t = sampler.closed_term()
        if max(t.dom.n_bool, t.dom.n_real, t.cod.n_bool, t.cod.n_real) <= 3 \
                and max(len(comps) for _, comps in evaluate(t).table) <= 4:
            out.append(t)
    return out


def distinct_nodes(t) -> int:
    seen, todo = set(), [t]
    while todo:
        s = todo.pop()
        if id(s) not in seen:
            seen.add(id(s))
            todo += diagram.children(s) if isinstance(s, (Seq, Par)) else ()
    return len(seen)


class TestValueMemo:
    """`evaluate` builds each Seq or Par of the same operand values once per
    call, and `check_soundness` once per instance."""

    # Re-parsing loses sharing by identity, but equal leaves are one object
    # (`_leaf`), so equal re-parsed subterms hit the memo.  The emitted
    # `stacked_coins(4)` circuit is put beside itself, so that a re-parse
    # whose leaves were not interned would build about twice as much.
    @pytest.mark.parametrize("make", [
        lambda: par_all(*[emit_nf(disintegrate(evaluate(
            test_normalform.TestDeepCascade.stacked_coins(4))))] * 2),
        lambda: thick_ite(3, 2)], ids=["emitted-coins", "thick-ite"])
    def test_reparsed_term_builds_no_more(self, make, builds):
        term = make()
        back = parse(print_term(term))
        assert distinct_nodes(back) > distinct_nodes(term)   # sharing lost
        want = mixture_to_json(evaluate(term))
        shared = len(builds)
        assert mixture_to_json(evaluate(back)) == want
        assert len(builds) - shared <= shared

    def test_instance_sides_build_a_bound_subterm_once(self, builds):
        # SMC-seq-unit-r is ``c ; id = c``: the right side is the bound c.
        schema, seed, trials = get_axiom("SMC-seq-unit-r"), 4, 12
        sides = [instantiate(schema, sample_binding(schema, random.Random(
                     _trial_seed(seed, schema.name, index))))
                 for index in range(trials)]
        assert check_soundness(schema, trials, seed).passed
        shared = len(builds)
        for lhs, _ in sides:
            evaluate(lhs)
        assert len(builds) == 2 * shared
        for _, rhs in sides:
            evaluate(rhs)
        assert len(builds) > 2 * shared    # c alone builds something

    def test_rewrite_sides_build_a_bound_subterm_once(self, builds):
        # `rewrite_at` checks ``c ; id`` against c through one memo, so the
        # replacement builds nothing that the replaced subterm did not.
        schema = get_axiom("SMC-seq-unit-r")
        binding = {"c": parse("flip(1/3) * stdnormal ; copyB * scal(2)")}
        lhs, rhs = instantiate(schema, binding)
        evaluate(lhs)
        alone = len(builds)
        evaluate(rhs)
        assert len(builds) > alone       # c alone builds something
        del builds[:]
        assert rewrite_at(lhs, (), schema, "L2R", binding) == rhs
        assert len(builds) == alone

    def test_evicted_generator_kernels_change_nothing(self, monkeypatch):
        # A kernel evicted between the two sides of an instance may be freed;
        # the memo holds its operands, so no id in a key is reused.
        names = ("C1-scal", "E4", "E7", "E10", "SMC-seq-unit-r")
        anchors = criterion6_anchors()

        def outcomes():
            reports = [check_soundness(get_axiom(name), 30, 3, backend=backend)
                       for name in names for backend in ("auto", "float")]
            kernels = []
            for t in anchors:
                mix = evaluate(t)
                back = parse(print_term(emit_nf(disintegrate(mix))))
                kernels += [mixture_to_json(mix), mixture_to_json(evaluate(back))]
            return [(r.axiom, r.failures) for r in reports], kernels

        want = outcomes()
        assert all(failures == [] for _, failures in want[0])
        monkeypatch.setattr(semantics, "_leaf", lru_cache(maxsize=1)(
            semantics._leaf.__wrapped__))
        assert outcomes() == want


def dirac_kernel(dom: str, cod: str, rows: dict, lin_rows) -> CGMixture:
    """Weight-1 Dirac kernel: input bits -> output bits, one fixed A."""
    n = len(lin_rows)
    lin = Matrix.from_rows(lin_rows, cols=TypeWord.of(dom).n_real)
    table = tuple(sorted(
        (bits, (GaussComponent(Fraction(1), out, lin, Matrix.zeros(n, 1),
                               CovFactor(Matrix.zeros(n, 0))),))
        for bits, out in rows.items()))
    return CGMixture(TypeWord.of(dom), TypeWord.of(cod), table)


class TestWiringFastPaths:
    WIRING_LEAVES = [
        (Id(TypeWord.of("BRB")), dirac_kernel(
            "BRB", "BRB", {b: b for b in itertools.product((0, 1), repeat=2)},
            [[1]])),
        (Swap(Colour.B, Colour.B), dirac_kernel(
            "BB", "BB", {(a, b): (b, a) for a in (0, 1) for b in (0, 1)}, [])),
        (Swap(Colour.R, Colour.R), dirac_kernel(
            "RR", "RR", {(): ()}, [[0, 1], [1, 0]])),
        (Swap(Colour.B, Colour.R), dirac_kernel(
            "BR", "RB", {(0,): (0,), (1,): (1,)}, [[1]])),
        (Swap(Colour.R, Colour.B), dirac_kernel(
            "RB", "BR", {(0,): (0,), (1,): (1,)}, [[1]])),
        (mk_generator(GenKind.BOOL_COPY), dirac_kernel(
            "B", "BB", {(0,): (0, 0), (1,): (1, 1)}, [])),
        (mk_generator(GenKind.BOOL_DISCARD), dirac_kernel(
            "B", "", {(0,): (), (1,): ()}, [])),
        (mk_generator(GenKind.REAL_COPY), dirac_kernel(
            "R", "RR", {(): ()}, [[1], [1]])),
        (mk_generator(GenKind.REAL_DISCARD), dirac_kernel(
            "R", "", {(): ()}, [])),
    ]

    @pytest.mark.parametrize("leaf,want", WIRING_LEAVES)
    def test_wiring_leaf(self, leaf, want):
        assert evaluate(leaf).table == want.table
        assert reference_evaluate(leaf).table == want.table

    def test_pure_wiring_roots(self):
        br, rr = TypeWord.of("BR"), TypeWord.of("RR")
        cross = seq(Swap(Colour.B, Colour.R), Swap(Colour.R, Colour.B))
        assert evaluate(cross).table == identity_kernel(br).table
        assert evaluate(seq(Id(rr), Swap(Colour.R, Colour.R))).table == \
            swap_kernel(Colour.R, Colour.R).table
        copy_then_drop = seq(mk_generator(GenKind.REAL_COPY),
                             par(mk_generator(GenKind.REAL_DISCARD), Id(reals(1))))
        assert evaluate(copy_then_drop).table == identity_kernel(reals(1)).table
        assert evaluate(Swap(Colour.B, Colour.B)).table == \
            swap_kernel(Colour.B, Colour.B).table

    def test_copy_then_kernel(self):
        double = seq(mk_generator(GenKind.REAL_COPY), mk_generator(GenKind.ADD))
        (c,) = evaluate(double).row(())
        assert c.lin == Matrix.from_rows([[2]])
        # Both branches of the guarded choice read the same copied input,
        # so its two components become one.
        either = seq(par(flip(Fraction(1, 2)), Id(reals(2))),
                     mk_generator(GenKind.ITE))
        assert len(evaluate(either).row(())) == 2
        merged = evaluate(seq(mk_generator(GenKind.REAL_COPY), either))
        assert merged.table == identity_kernel(reals(1)).table

    def test_discard_after_two_components(self):
        two = seq(par_all(flip(Fraction(1, 3)), mk_generator(GenKind.ONE),
                          mk_generator(GenKind.ZERO)), mk_generator(GenKind.ITE))
        assert len(evaluate(two).row(())) == 2
        dropped = evaluate(seq(two, mk_generator(GenKind.REAL_DISCARD)))
        assert is_trivial_kernel(dropped)
        assert dropped.table == reference_evaluate(
            seq(two, mk_generator(GenKind.REAL_DISCARD))).table

    def test_exact_and_float_flips_keep_their_own_kernels(self):
        exact = evaluate(flip(Fraction(1, 2)))
        floating = evaluate(flip(0.5))
        exact_again = evaluate(flip(Fraction(1, 2)))
        for mix, kind in ((exact, Fraction), (floating, float),
                          (exact_again, Fraction)):
            assert {type(c.weight) for c in mix.row(())} == {kind}

    def test_deep_chain_on_every_backend(self):
        chain = seq_all(flip(Fraction(1, 3)), *[mk_generator(GenKind.NOT)] * 3000)
        for backend in ("auto", "float", "rational"):
            want = evaluate(flip(Fraction(1, 3)), backend=backend)
            assert evaluate(chain, backend=backend).table == want.table


@pytest.fixture
def kernel_builds(monkeypatch):
    """Counts the calls of `_build`, the one builder that sorts and merges."""
    calls = []

    def counted(*args, _build=semantics._build):
        calls.append(1)
        return _build(*args)
    monkeypatch.setattr(semantics, "_build", counted)
    return calls


class TestIdentityRealMap:
    """A wiring whose real map is the identity, before a kernel g that is
    exact or canonical at the caller's tolerance, only moves bits: each row
    is g's row at the wired bits, the same component objects, and no
    `_build` runs.  Any other real map or g goes through `_build`."""

    # BBR -> BBR, two components per row.
    G = "and * scal(1/2) ; id(B) * flip(1/4) * id(R)"

    def evaluate_after(self, wiring: str, g: str, kernel_builds):
        built, args = {}, (semantics.DEFAULT_BOOL_CAP, DEFAULT_TOLERANCE, "auto")
        g_term = parse(g)
        value = semantics._evaluate(g_term, *args, built)
        del kernel_builds[:]
        term = seq(parse(wiring), g_term)
        mix = semantics._evaluate(term, *args, built)
        count = len(kernel_builds)
        assert mix.table == reference_evaluate(term).table
        return value, mix, count

    def test_bits_move_and_components_are_shared(self, kernel_builds):
        value, mix, count = self.evaluate_after("swap(B, B) * id(R)", self.G,
                                                kernel_builds)
        assert count == 0
        for bits, comps in mix.table:
            want = value.row(bits[::-1])
            assert len(comps) == len(want) == 2
            assert all(c is d for c, d in zip(comps, want))

    def test_a_real_map_that_moves_reals_builds(self, kernel_builds):
        _, _, count = self.evaluate_after(
            "swap(B, B) * swap(R, R)", "and * add ; id(B) * flip(1/4) * id(R)",
            kernel_builds)
        assert count == 1

    @pytest.mark.parametrize("backend, tol, shared", [
        ("auto", 1e-6, True),             # exact: canonical at any tolerance
        ("float", DEFAULT_TOLERANCE, True),
        ("float", 1e-6, False)])          # float, canonical at another one
    def test_only_a_canonical_kernel_is_shared(self, backend, tol, shared,
                                               kernel_builds):
        g = evaluate(parse(self.G), backend=backend)
        w = semantics.Wiring.swap(Colour.B, Colour.B).beside(
            semantics.Wiring.identity(reals(1)))
        del kernel_builds[:]
        out = semantics._wiring_then_kernel(w, g, tol)
        assert bool(kernel_builds) is not shared
        assert all((c is d) is shared for bits, comps in out.table
                   for c, d in zip(comps, g.row(bits[::-1])))
        assert mixtures_equal(out, evaluate(seq(parse("swap(B, B) * id(R)"),
                                                parse(self.G)), backend=backend))


def random_mixed_terms() -> list:
    sampler = TermSampler(random.Random(404))
    return [sampler.closed_term() for _ in range(300)]


def dense_cascade_term(seed: int = 12):
    """A convex_mix cascade of three dense Gaussian maps R^2 -> R^3, then a
    dense 3 x 3 map: the shape whose factors `ite` pads with zero columns."""
    rng = random.Random(seed)

    def dense(rows, cols):
        return Matrix.from_rows([[Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                                  for _ in range(cols)] for _ in range(rows)],
                                cols=cols)

    leaves = [gauss_map_circuit(dense(3, 2), dense(3, 1), dense(3, width))
              for width in (2, 3, 1)]
    cascade = convex_mix(Fraction(1, 3), leaves[0],
                         convex_mix(Fraction(1, 2), leaves[1], leaves[2]))
    return seq(cascade, matrix_circuit(dense(3, 3)))


def zero_columns(factor: Matrix) -> list:
    return [j for j in range(factor.cols)
            if all(factor.at(i, j) == 0 for i in range(factor.rows))]


class TestExactness:
    def test_factors_hold_no_zero_column(self):
        for t in random_mixed_terms() + exactness_corpus() + [dense_cascade_term()]:
            for backend in ("rational", "float"):
                mix = evaluate(t, backend=backend)
                assert [z for _, comps in mix.table for c in comps
                        if (z := zero_columns(c.cov.factor))] == []

    def test_rational_kernels_are_pinned(self):
        digest = hashlib.sha256()
        for t in exactness_corpus():
            text = json.dumps(mixture_to_json(evaluate(t)), sort_keys=True)
            digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == EXACTNESS_CORPUS_DIGEST

    def test_rational_tables_equal_the_reference_fold(self):
        for t in random_mixed_terms() + exactness_corpus():
            assert evaluate(t, backend="rational").table == \
                reference_evaluate(t).table

    def test_float_kernels_match_the_reference_fold(self):
        for t in random_mixed_terms() + exactness_corpus():
            assert mixtures_equal(evaluate(t, backend="float"),
                                  reference_evaluate(to_float_params(t)), 1e-9)


def cast_corpus() -> list:
    """200 random terms (closed, and open on mixed words, some with float
    literals), then both sides of 5 instances of every axiom."""
    sampler = TermSampler(random.Random(515))
    words = [TypeWord.of(w) for w in ("", "B", "R", "BR", "RB", "BBR")]
    terms = []
    for i in range(200):
        t = sampler.closed_term() if i % 2 else sampler.term(
            sampler.rng.choice(words), sampler.rng.choice(words))
        terms.append(to_float_params(t) if i % 5 == 0 else t)
    return terms + axiom_sides(2028)


def scalars_of(mix: CGMixture):
    """Every stored scalar: weights, A, mu and covariance factor entries."""
    return (x for _, comps in mix.table for c in comps
            for x in (c.weight, *c.lin.entries, *c.mean.entries,
                      *c.cov.factor.entries))


def matrices_of(mix: CGMixture):
    """Every matrix of every component: A, mu, the covariance factor and its
    Gram matrix, empty ones included."""
    return (m for _, comps in mix.table for c in comps
            for m in (c.lin, c.mean, c.cov.factor, c.gram()))


def has_float_entry(mix: CGMixture) -> bool:
    return any(type(x) is float for x in scalars_of(mix))


def has_non_float_entry(mix: CGMixture) -> bool:
    return any(type(x) is not float for x in scalars_of(mix))


class TestBackendCastAtLeaves:
    """The backend casts each generator's parameter; every kernel evaluation
    builds carries its field from its operands."""

    def test_backends_equal_evaluation_of_cast_terms(self, monkeypatch):
        corpus = cast_corpus()
        want = [(b, json.dumps(mixture_to_json(evaluate(cast(t), backend=b)),
                               sort_keys=True))
                for t in corpus
                for b, cast in (("rational", to_exact_params),
                                ("float", to_float_params))]

        def no_rebuild(*_args):
            raise AssertionError("evaluate rebuilt the term")

        monkeypatch.setattr(diagram, "map_params", no_rebuild)
        got = [(b, json.dumps(mixture_to_json(evaluate(t, backend=b)),
                              sort_keys=True))
               for t in corpus for b in ("rational", "float")]
        assert got == want

    def test_no_kernel_evaluate_builds_is_scanned(self, monkeypatch):
        calls, scans = [], []
        scan = semantics.mixture_is_exact

        def counted(mix):
            calls.append(mix)
            if mix._canon is None:
                scans.append(mix)
            return scan(mix)

        monkeypatch.setattr(semantics, "mixture_is_exact", counted)
        semantics._leaf.cache_clear()
        semantics.wiring_kernel.cache_clear()
        for t in cast_corpus():
            for backend in ("auto", "rational", "float"):
                evaluate(t, backend=backend)
        assert calls and scans == []

    def test_exactness_is_recorded_from_the_operands(self):
        for t in cast_corpus():
            exact = evaluate(t, backend="rational")
            assert exact._canon.exact and not has_float_entry(exact)
            floating = evaluate(t, backend="float")
            if has_float_entry(floating):
                assert not floating._canon.exact
            auto = evaluate(t)
            assert auto._canon.exact is not diagram.has_float_literal(t)


WIRING_TERMS = ("id(R)", "copyR", "swap(R,R)", "swap(B,R)", "delB",
                "id(BR)", "copyB * delR")
# Kernels whose A, mu or factor have no entries.
EMPTY_TERMS = ("stdnormal ; delR ; zero", "flip(0.5)", "flip(1/2) ; delB")


class TestFloatField:
    """Under the float backend every scalar of every kernel is a float, and
    every matrix is float, empty ones included; under the rational backend
    every matrix is rational."""

    def test_float_kernels_hold_only_floats(self):
        corpus = cast_corpus() + [parse(text)
                                  for text in WIRING_TERMS + EMPTY_TERMS]
        for t in corpus:
            mix = evaluate(t, backend="float")
            assert not has_non_float_entry(mix), print_term(t)
            assert not mixture_is_exact(mix)
            assert all(m.den is None for m in matrices_of(mix)), print_term(t)
            exact = evaluate(t, backend="rational")
            assert all(type(m.den) is int for m in matrices_of(exact)), \
                print_term(t)

    def test_float_json_prints_numbers(self):
        for text in WIRING_TERMS + ("zero", "one ; scal(0.0) ; copyR"):
            encoded = mixture_to_json(evaluate(parse(text), backend="float"))
            scalars = [x for row in encoded["table"] for c in row["components"]
                       for x in [c["weight"]] + [v for key in ("A", "mu", "cov")
                                                 for v in c[key]["entries"]]]
            assert scalars and all(type(x) is float for x in scalars), text

    def test_auto_with_a_float_literal_is_the_float_field(self):
        t = parse("flip(0.5) * (one ; copyR)")
        assert evaluate(t).table == evaluate(t, backend="float").table
        assert not has_non_float_entry(evaluate(t))


class TestBooleanOracle:
    def test_eval_matches_enumeration(self):
        from oracles import bool_table_oracle
        sampler = TermSampler(random.Random(101), kinds=BOOLEAN_KINDS,
                              max_word=4, max_depth=4)
        for _ in range(60):
            t = sampler.closed_term()
            mix = evaluate(t)
            want = bool_table_oracle(t)
            for bits, comps in mix.table:
                got = {c.bool_out: c.weight for c in comps}
                expect = {k: v for k, v in want[bits].items() if v != 0}
                assert got == expect


class TestGaussianOracle:
    def test_eval_matches_propagation(self):
        from oracles import affine_oracle
        sampler = TermSampler(random.Random(55), kinds=GAUSSIAN_KINDS,
                              max_word=4, max_depth=4)
        for _ in range(60):
            t = sampler.closed_term()
            mix = evaluate(t)
            (c,) = mix.row(())
            a, b, sigma = affine_oracle(t)
            assert (c.lin, c.mean, c.gram()) == (a, b, sigma)


@st.composite
def exact_rows(draw):
    """``(dom, cod, rows)``: exact components with zero, negative and
    large-denominator entries, drawn from a small pool so that rows repeat
    components; a factor may be negated, which leaves its Gram matrix."""
    p, q, m, n = (draw(st.integers(0, 1)), draw(st.integers(0, 1)),
                  draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    value = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4),
                      st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                   max_denominator=10 ** 12))

    def matrix(rows, cols):
        return Matrix(rows, cols, draw(st.lists(value, min_size=rows * cols,
                                                max_size=rows * cols)))

    pool = [(tuple(draw(st.integers(0, 1)) for _ in range(q)), matrix(n, m),
             matrix(n, 1), matrix(n, draw(st.integers(0, 2))))
            for _ in range(draw(st.integers(1, 4)))]
    rows = []
    for bits in all_bitvecs(p):
        comps = []
        for _ in range(draw(st.integers(0, 6))):
            out, lin, mean, factor = draw(st.sampled_from(pool))
            if draw(st.booleans()):
                factor = Matrix.over(factor.rows, factor.cols,
                                     [-x for x in factor.nums], factor.den)
            weight = draw(st.fractions(min_value=0, max_value=1,
                                       max_denominator=10 ** 9))
            comps.append(GaussComponent(weight, out, lin, mean, CovFactor(factor)))
        rows.append((bits, comps))
    return bools(p) + reals(m), bools(q) + reals(n), rows


class TestCanonicalize:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(exact_rows())
    def test_exact_sort_and_merge_match_fraction_keys(self, case):
        """Keys of integer numerators sort and merge exact components as
        keys of their `Fraction` values do, and stay strictly increasing."""
        dom, cod, rows = case
        got = semantics._build(dom, cod, rows, Fraction, DEFAULT_TOLERANCE)
        assert [(bits, [(c.weight, c.bool_out, c.lin.entries, c.mean.entries,
                         c.gram().entries) for c in comps])
                for bits, comps in got.table] == reference_build(rows)
        for keys in got._canon.keys:
            assert all(x < y for x, y in zip(keys, keys[1:]))

    def _mix(self, comps):
        from cgm.semantics import GaussComponent
        parts = tuple(
            GaussComponent(w, (), Matrix.zeros(1, 0), Matrix.column([mu]),
                           CovFactor(Matrix.from_rows([[s]])))
            for w, mu, s in comps)
        return CGMixture(TypeWord(), reals(1), (((), parts),))

    def test_merges_duplicates(self):
        m = canonicalize(self._mix([(Fraction(1, 2), 0, 1),
                                    (Fraction(1, 2), 0, 1)]))
        (c,) = m.row(())
        assert c.weight == 1

    def test_sort_order(self):
        m = canonicalize(self._mix([(Fraction(3, 10), 3, 1),
                                    (Fraction(7, 10), 0, 2)]))
        first, second = m.row(())
        assert first.mean.entries[0] == 0   # N(0,4) sorts before N(3,1)
        assert second.mean.entries[0] == 3

    @pytest.mark.parametrize("cast", [Fraction, float])
    def test_merge_needs_every_parameter(self, cast):
        half, zero = cast(Fraction(1, 2)), cast(0)
        # Equal but for the covariance: both stay.
        apart = canonicalize(self._mix([(half, zero, cast(1)), (half, zero, cast(2))]))
        assert len(apart.row(())) == 2
        # Two factors of one covariance: one component.
        same = canonicalize(self._mix([(half, zero, cast(1)), (half, zero, cast(-1))]))
        assert [c.weight for c in same.row(())] == [1]

    def test_drops_zero_weights(self):
        m = canonicalize(self._mix([(Fraction(0), 5, 1), (Fraction(1), 0, 1)]))
        assert len(m.row(())) == 1

    def test_idempotent(self):
        sampler = TermSampler(random.Random(13), max_word=3)
        for _ in range(30):
            m = evaluate(sampler.closed_term())
            once = canonicalize(m)
            assert canonicalize(once).table == once.table


class TestEquality:
    def test_tolerance(self):
        a = gauss_map([[]], [0], [[1.0]], m=0)
        b = gauss_map([[]], [0], [[1.00005]], m=0)
        assert not mixtures_equal(a, b, tol=1e-9)
        assert mixtures_equal(a, b, tol=1e-3)

    def test_component_order_irrelevant(self):
        from cgm.semantics import GaussComponent
        def build(order):
            parts = tuple(
                GaussComponent(w, (), Matrix.zeros(1, 0), Matrix.column([mu]),
                               CovFactor(Matrix.from_rows([[1]])))
                for w, mu in order)
            return CGMixture(TypeWord(), reals(1), (((), parts),))
        one = build([(Fraction(1, 3), 0), (Fraction(2, 3), 5)])
        other = build([(Fraction(2, 3), 5), (Fraction(1, 3), 0)])
        assert mixtures_equal(one, other)

    def test_word_mismatch(self):
        with pytest.raises(TypeMismatch):
            mixtures_equal(evaluate(identity(reals(1))),
                           evaluate(identity(bools(1))))

    def test_nan_is_never_equal(self):
        # NaN > eps is False, so a gap test of that form read a NaN as
        # equal to anything.  Float overflow raises before a kernel holds
        # one (inf - inf here), so the NaN kernel is built by hand.
        huge = parse("stdnormal ; scal(1e300) ; scal(1e300) ; copyR"
                     " ; id(R) * scal(-1.0) ; add")
        five = parse("stdnormal ; scal(5.0)")
        with pytest.raises(NonFiniteResult):
            evaluate(huge)
        with pytest.raises(NonFiniteResult):
            decide_equiv(huge, five)
        left = CGMixture(TypeWord(), reals(1), (((), (GaussComponent(
            1.0, (), Matrix.zeros(1, 0, float), Matrix.column([float("nan")]),
            CovFactor(Matrix.column([5.0]))),)),))
        right = evaluate(five)
        assert not mixtures_equal(left, right)
        assert max_deviation(left, right) == float("inf")
        assert not nftree_equal(disintegrate(left), disintegrate(right))

    @pytest.mark.parametrize("backend", ["auto", "float"])
    @pytest.mark.parametrize("text", [
        "stdnormal ; scal(1e300) ; scal(1e300) ; scal(0.0)",
        "stdnormal ; scal(1e300) ; scal(1e300) ; copyR ; id(R) * scal(-1.0) ; add"])
    def test_float_overflow_raises(self, text, backend):
        # Unchecked, the first gives variance 0.0 or NaN (inf * 0) and the
        # second a NaN factor (inf - inf), and neither says so.  Exactly,
        # both variances are 0.
        with pytest.raises(NonFiniteResult):
            evaluate(parse(text), backend=backend)
        exact = moments(evaluate(parse(text), backend="rational"))
        assert exact.cov == Matrix.zeros(1, 1)

    def test_max_deviation_checks_words(self):
        # id(R) and id(RR) ; add have one row and one Dirac each; walking
        # them entry by entry would compare a 1x1 A with a 1x2 A.
        one = evaluate(identity(reals(1)))
        two = evaluate(seq(identity(reals(2)), mk_generator(GenKind.ADD)))
        for compare in (mixtures_equal, max_deviation):
            with pytest.raises(TypeMismatch) as caught:
                compare(one, two)
            assert caught.value.expected == (one.dom_word, one.cod_word)
            assert caught.value.actual == (two.dom_word, two.cod_word)


class TestMomentsAndSampling:
    def _example(self):
        g1 = gaussian_circuit([3], Matrix.from_rows([[1]]))
        g2 = gaussian_circuit([0], Matrix.from_rows([[2]]))
        return evaluate(convex_mix(Fraction(3, 10), g1, g2))

    def test_law_of_total_variance(self):
        stats = moments(self._example())
        assert stats.mean == Matrix.from_rows([[Fraction(9, 10)]])
        assert stats.cov == Matrix.from_rows([[Fraction(499, 100)]])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_input_point_raises(self, value):
        # Unchecked, a NaN point gave NaN draws and an infinite one a NaN
        # covariance.
        for backend in ("rational", "float"):
            mix = evaluate(parse("id(R) * (stdnormal ; scal(2)) ; add"),
                           backend=backend)
            for xs in ([value], Matrix.column([value])):
                with pytest.raises(NonFiniteParam, match="input point"):
                    moments(mix, (), xs)
                with pytest.raises(NonFiniteParam, match="input point"):
                    sample_many(mix, (), xs, 5, 0)

    @pytest.mark.parametrize("src, xs", [
        ("scal(1e300)", [1e300]),                                   # the mean
        ("flip(1/2) * (one ; scal(1e300)) * (one ; scal(-1e300)) ; ite", []),
    ])
    def test_float_overflow_in_moments_raises(self, src, xs):
        # Unchecked, the mean read inf and the covariance nan or inf.
        with pytest.raises(NonFiniteResult, match="left the float range"):
            moments(evaluate(parse(src)), (), xs)

    @pytest.mark.parametrize("count", [0, 5])
    def test_float_overflow_in_sample_many_raises(self, count):
        # Unchecked, each draw read inf, after a NumPy RuntimeWarning.
        mix = evaluate(parse("scal(1e300)"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match="left the float range"):
                sample_many(mix, (), [1e300], count, 0)

    def test_float_overflow_in_draws_raises(self):
        # A kernel built by hand can hold a finite centre and factor whose
        # draws overflow.
        comp = GaussComponent(1.0, (), Matrix.zeros(1, 0, float),
                              Matrix.over(1, 1, [1.7e308], None),
                              CovFactor(Matrix.over(1, 1, [1e307], None)))
        mix = CGMixture(TypeWord(()), reals(1), (((), (comp,)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match="gave inf"):
                sample_many(mix, (), [], 100, 0)

    def test_rational_moments_do_not_overflow(self):
        big = 10 ** 300
        stats = moments(evaluate(parse(f"stdnormal ; scal({big})")))
        assert stats.cov.entries == (Fraction(big * big),)
        stats = moments(evaluate(parse(f"scal({big})")), (), [Fraction(big)])
        assert stats.mean.entries == (Fraction(big * big),)

    def test_dense_cascade_matches_closed_form(self):
        # 8 dense Gaussian maps R^2 -> R^2 with width-3 factors, mixed by a
        # cascade of convex_mix; the closed form uses plain Fraction lists.
        rng = random.Random(11)

        def dense(rows, cols):
            return [[Fraction(rng.choice((-3, -2, -1, 0, 1, 2, 3)),
                              rng.choice((1, 2, 3))) for _ in range(cols)]
                    for _ in range(rows)]

        comps = [(Fraction(rng.randint(1, 4)), dense(2, 2), dense(2, 1),
                  dense(2, 3)) for _ in range(8)]
        total = sum(w for w, *_ in comps)
        term, remaining = None, Fraction(0)
        for w, a, b, f in reversed(comps):
            leaf = gauss_map_circuit(Matrix.from_rows(a), Matrix.from_rows(b),
                                     Matrix.from_rows(f))
            remaining += w
            term = leaf if term is None else convex_mix(w / remaining, leaf, term)
        x = [Fraction(3, 2), Fraction(-1)]
        centres = [(w / total, [sum(p * v for p, v in zip(row, x)) + mu
                                for row, (mu,) in zip(a, b)], f)
                   for w, a, b, f in comps]
        mean = [sum(w * c[i] for w, c, _ in centres) for i in range(2)]
        cov = [sum(w * (sum(p * q for p, q in zip(f[i], f[j]))
                        + (c[i] - mean[i]) * (c[j] - mean[j]))
                   for w, c, f in centres)
               for i in range(2) for j in range(2)]
        mix = evaluate(term)
        assert len(mix.row(())) == 8
        stats = moments(mix, (), x)
        assert stats.mean.entries == tuple(mean)
        assert stats.cov.entries == tuple(cov)
        assert all(type(v) is Fraction for v in stats.cov.entries)

    def test_moments_rejects_bits_other_than_0_or_1(self):
        with pytest.raises(DimensionMismatch):
            moments(evaluate(parse("not")), (2,))

    def test_sample_many_rejects_bits_other_than_0_or_1(self):
        with pytest.raises(DimensionMismatch):
            sample_many(evaluate(parse("not")), (2,), (), 3, 1)

    def test_input_point_must_be_a_column(self):
        mix = evaluate(parse("add"))
        square = Matrix.from_rows([[1, 2], [3, 4]])
        for call in (lambda: moments(mix, (), square),
                     lambda: sample_many(mix, (), square, 3, 1)):
            with pytest.raises(DimensionMismatch):
                call()

    def test_sure_flip(self):
        m = evaluate(mk_generator(GenKind.FLIP, Fraction(1)))
        for seed in range(5):
            bits, _ = sample(m, (), (), seed)
            assert bits == (1,)

    def test_seeded_reproducibility(self):
        m = self._example()
        a = sample_many(m, (), (), 50, seed=9)
        b = sample_many(m, (), (), 50, seed=9)
        assert a[0] == b[0] and (a[1] == b[1]).all()

    def test_empirical_mean_close(self):
        m = self._example()
        stats = moments(m)
        _, xs = sample_many(m, (), (), 20000, seed=3)
        want = float(stats.mean.entries[0])
        se = (float(stats.cov.entries[0]) / 20000) ** 0.5
        assert abs(xs.mean() - want) < 5 * se

    def test_negative_count_is_typed(self):
        with pytest.raises(InvalidDrawCount, match="-1"):
            sample_many(self._example(), (), (), -1, 0)

    @pytest.mark.parametrize("count, seed, error, message", [
        (2.5, 0, InvalidDrawCount, "cannot draw 2.5 samples"),
        ("3", 0, InvalidDrawCount, "cannot draw '3' samples"),
        (None, 0, InvalidDrawCount, "cannot draw None samples"),
        (3, -1, InvalidSeed, "cannot seed the sampler with -1"),
        (3, 1.5, InvalidSeed, "cannot seed the sampler with 1.5"),
        (3, None, InvalidSeed, "cannot seed the sampler with None"),
        (-1, -1, InvalidDrawCount, "cannot draw -1 samples")])
    def test_bad_count_or_seed_is_typed(self, count, seed, error, message):
        # Unchecked, NumPy raised a TypeError for 2.5 and a bare
        # "ValueError: expected non-negative integer" for seed -1.
        with pytest.raises(error, match=re.escape(message)):
            sample_many(self._example(), (), (), count, seed)

    def test_numpy_integers_draw_as_ints(self):
        mix = self._example()
        got = sample_many(mix, (), (), np.int64(40), np.uint32(7))
        want = sample_many(mix, (), (), 40, 7)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_zero_count(self):
        bools_out, reals_out = sample_many(self._example(), (), (), 0, 0)
        assert bools_out == [] and reals_out.shape == (0, 1)

    def test_discarded_noise_leaves_no_reals(self):
        m = evaluate(parse("stdnormal ; delR"))
        (c,) = m.row(())
        # The discarded noise leaves a zero column, which is dropped.
        assert (c.cov.factor.rows, c.cov.factor.cols) == (0, 0)
        bools_out, reals_out = sample_many(m, (), (), 7, 0)
        assert bools_out == [()] * 7 and reals_out.shape == (7, 0)

    def test_discarded_noise_beside_flip(self):
        m = evaluate(parse("(stdnormal ; delR) * flip(1/3)"))
        n_draws = 30000
        bools_out, reals_out = sample_many(m, (), (), n_draws, 4)
        assert reals_out.shape == (n_draws, 0)
        p_hat = bools_out.count((1,)) / n_draws
        se = (1 / 3 * 2 / 3 / n_draws) ** 0.5
        assert abs(p_hat - 1 / 3) < 5 * se

    def test_factor_wider_than_dimension(self):
        m = evaluate(parse("(stdnormal * stdnormal) ; add"))
        (c,) = m.row(())
        assert (c.cov.factor.rows, c.cov.factor.cols) == (1, 2)
        n_draws = 30000
        _, reals_out = sample_many(m, (), (), n_draws, 5)
        # The sample variance of N(0, 2) has standard error sqrt(2 * 2^2 / N).
        assert abs(reals_out.var() - 2) < 5 * (8 / n_draws) ** 0.5

    def _beside_wide(self, narrow):
        """Half `narrow`, half a 2-dimensional Gaussian of factor width 3;
        the sampler pads both factors to width 3, wider than 2, so both are
        QR-reduced."""
        wide = gaussian_circuit([1, -2], Matrix.from_rows([[1, 2, 0], [0, 1, 3]]))
        m = evaluate(convex_mix(Fraction(1, 2), narrow, wide))
        assert max(c.cov.factor.cols for c in m.row(())) > m.n
        n_draws = 20000
        _, reals_out = sample_many(m, (), (), n_draws, 6)
        return reals_out, 2.5 * n_draws ** 0.5

    def test_copied_noise_beside_wider_component(self):
        reals_out, five_se = self._beside_wide(parse("stdnormal ; copyR"))
        agree = np.abs(reals_out[:, 0] - reals_out[:, 1]) <= 1e-12
        assert abs(agree.sum() - len(reals_out) / 2) < five_se

    def test_dirac_draws_are_its_centre(self):
        dirac = gaussian_circuit([Fraction(5, 2), -1], Matrix.zeros(2, 0))
        reals_out, five_se = self._beside_wide(dirac)
        at_centre = (reals_out == [2.5, -1.0]).all(axis=1)
        assert abs(at_centre.sum() - len(reals_out) / 2) < five_se

    def test_draw_stream_is_pinned(self):
        """A change to the draws a seed gives must be deliberate.  Its
        factors are 2 x 2, so the draws are not QR-reduced."""
        m = evaluate(parse(
            "let n31 = (stdnormal * one) ; (id(R) * scal(3)) ; add in "
            "let n04 = stdnormal ; scal(2) in "
            "flip(1/4) * (flip(3/10) * (n31 * n04) ; ite ; copyR "
            "; id(R) * ((stdnormal * id(R)) ; add))"))
        bools_out, reals_out = sample_many(m, (), (), 1000, 2026)
        digest = hashlib.sha256(repr(bools_out).encode())
        digest.update((np.round(reals_out, 10) + 0.0).tobytes())
        assert digest.hexdigest() == (
            "9b6ef318dfd97818b0893aeb413b8e50d3d8ae20a634b322d539a23e65701ef6")


def sampler_cases() -> list:
    """(term, bits, xs): no reals, factors wider than n, one component,
    real dimension up to 6, open kernels and random mixed circuits."""
    rng = random.Random(707)

    def dense(rows, cols):
        return Matrix.from_rows([[Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                                  for _ in range(cols)] for _ in range(rows)],
                                cols=cols)

    def gauss_map(m, n, width):
        return gauss_map_circuit(dense(n, m), dense(n, 1), dense(n, width))

    cases = [(parse("flip(1/3) * (stdnormal ; delR)"), (), ()),
             (parse("(stdnormal * stdnormal) ; add"), (), ()),
             (parse("stdnormal ; scal(2)"), (), ()),
             (parse("ite"), (1,), (Fraction(3, 2), -2)),
             (convex_mix(Fraction(1, 3), gauss_map(2, 6, 8), gauss_map(2, 6, 3)),
              (), (Fraction(1, 2), 1)),
             (convex_mix(Fraction(2, 5), gauss_map(1, 4, 2), gauss_map(1, 4, 0)),
              (), (-1,))]
    sampler = TermSampler(random.Random(708), max_word=3, max_depth=4)
    for _ in range(12):
        t = sampler.closed_term() if rng.random() < 0.5 else sampler.term(
            TypeWord.of(rng.choice(("B", "R", "BR", "RR"))),
            TypeWord.of(rng.choice(("R", "BR", "RR", "BRR"))))
        cases.append((t, tuple(rng.randint(0, 1) for _ in range(t.dom.n_bool)),
                      tuple(Fraction(rng.randint(-4, 4), 2)
                            for _ in range(t.dom.n_real))))
    return cases


class TestSamplerOracle:
    """`sample_many` gives the reference sampler's draws bit for bit."""

    def test_draws_equal_the_reference(self):
        seen = set()
        for t, bits, xs in sampler_cases():
            for backend in ("rational", "float"):
                mix = evaluate(t, backend=backend)
                comps = mix.row(bits)
                seen.add((mix.n == 0, max(c.cov.factor.cols for c in comps) > mix.n,
                          len(comps) == 1))
                for seed in (0, 1, 2026):
                    for count in (0, 1, 300):
                        got = sample_many(mix, bits, xs, count, seed)
                        want = reference_sample_many(mix, bits, xs, count, seed)
                        assert got[0] == want[0]
                        assert np.array_equal(got[1], want[1])
        assert {key[0] for key in seen} == {True, False}
        assert {key[1] for key in seen} == {True, False}
        assert {key[2] for key in seen} == {True, False}


class TestSampleRowCache:
    """The arrays `sample_many` keeps on a kernel change no draw and no
    value of the kernel."""

    def test_warm_rows_draw_as_the_reference(self):
        rows_seen = 0
        for t, _, xs in sampler_cases():
            for backend in ("rational", "float"):
                mix = evaluate(t, backend=backend)
                rows = all_bitvecs(mix.p)
                # Every row cold, then warm, sampled by turns.
                for seed, count in ((3, 200), (4, 200), (5, 1)):
                    for bits in rows:
                        got = sample_many(mix, bits, xs, count, seed)
                        want = reference_sample_many(mix, bits, xs, count, seed)
                        assert got[0] == want[0]
                        assert np.array_equal(got[1], want[1])
                assert set(mix._sampling) == set(rows)
                rows_seen += len(rows)
        assert rows_seen > 2 * len(sampler_cases())

    def test_warm_row_at_another_input_point(self):
        t = convex_mix(Fraction(1, 3),
                       gauss_map_circuit(Matrix.from_rows([[1, 2], [0, -1]]),
                                         Matrix.column([1, 0]),
                                         Matrix.from_rows([[1, 0, 2], [0, 3, 1]])),
                       gauss_map_circuit(Matrix.from_rows([[2, 0], [1, 1]]),
                                         Matrix.column([0, -2]),
                                         Matrix.from_rows([[1], [2]])))
        mix = evaluate(t, backend="float")
        for xs in ([0.5, 1.0], [-3.0, 2.5], [0.5, 1.0]):
            got = sample_many(mix, (), xs, 100, 11)
            want = reference_sample_many(mix, (), xs, 100, 11)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
            one = reference_sample_many(mix, (), xs, 1, 11)
            assert np.array_equal(sample(mix, (), xs, 11)[1], one[1][0])

    def test_kernel_value_is_unchanged(self):
        for t, bits, xs in sampler_cases():
            mix = evaluate(t)
            fresh = CGMixture(mix.dom_word, mix.cod_word, mix.table)
            before = mixture_to_json(mix)
            sample_many(mix, bits, xs, 10, 0)
            assert mix._sampling and fresh._sampling is None
            assert mix == fresh and hash(mix) == hash(fresh)
            assert mixture_to_json(mix) == before
            assert mixtures_equal(mix, fresh)


@st.composite
def pick_cases(draw):
    """(weights, count, seed): 1 to 512 random weights, some of them
    raised to a power so that a few dominate, with runs of zero weights at
    the start, in the middle or at the end, or one heavy weight beside many
    tiny ones."""
    size = draw(st.integers(min_value=1, max_value=512))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        weights = np.full(size, draw(st.sampled_from((1e-12, 1e-6, 1e-3))) / size)
        weights[rng.integers(size)] = 0.999
    else:
        weights = rng.random(size) ** draw(st.integers(min_value=1, max_value=8))
        run = size // 4   # three runs of zeros leave a quarter of the weights
        for at in draw(st.sets(st.sampled_from((0, size // 3, size - run)))):
            weights[at:at + run] = 0
    count = draw(st.sampled_from((0, 1, 7, 50000)))
    return weights, count, draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestComponentPick:
    """The guide table gives NumPy's `Generator.choice` indices and leaves
    the generator where `choice` leaves it."""

    TAIL = np.array([0.999] + [0.001 / 255] * 255)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pick_cases())
    @example((np.array([1.0]), 50000, 1))
    @example((np.array([0.0, 0.0, 0.5, 0.0, 0.5, 0.0]), 50000, 2))
    @example((np.array([3.0, 0.0, 0.0, 1.0]), 1, 3))
    @example((TAIL, 50000, 4))
    @example((TAIL[::-1].copy(), 50000, 5))
    @example((np.arange(512.0), 50000, 6))
    @example((np.ones(2), 0, 7))
    def test_indices_equal_choice(self, case):
        weights, count, seed = case
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _pick_components(mine, _guide_table(weights), count)
        want = theirs.choice(len(weights), size=count, p=weights / weights.sum())
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert mine.standard_normal() == theirs.standard_normal()

    def test_uniform_on_a_cdf_point_picks_the_next_component(self):
        """A uniform equal to a cdf point is past it, as in `searchsorted`
        with side="right"; zero weights are never picked."""
        class Uniforms:
            def random(self, count):
                return np.array(u[:count])

        below_one = np.nextafter(1.0, 0.0)
        u = [0.0, 0.25, np.nextafter(0.25, 0.0), 0.5, 0.75, below_one]
        picked = _pick_components(Uniforms(), _guide_table(np.array([1.0, 1.0, 2.0])),
                                  len(u))
        assert picked.tolist() == [0, 1, 0, 2, 2, 2]
        u = [0.0, 0.5, np.nextafter(0.5, 0.0), below_one]
        picked = _pick_components(
            Uniforms(), _guide_table(np.array([0.0, 1.0, 0.0, 1.0, 0.0])), len(u))
        assert picked.tolist() == [1, 3, 1, 3]
        # 1/3 lies inside a cell, so the comparison, not the table, decides.
        u = [1 / 3, np.nextafter(1 / 3, 0.0), np.nextafter(1 / 3, 1.0)]
        picked = _pick_components(Uniforms(), _guide_table(np.array([1.0, 2.0])), len(u))
        assert picked.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("weights, error, message", [
        ((float("nan"), 1.0), NonFiniteParam, "component 0 has weight nan"),
        ((0.5, float("inf")), NonFiniteParam, "component 1 has weight inf"),
        ((1.5, -0.5), InvalidWeight, "component 1 has negative weight -0.5"),
        ((-1.0, -1.0), InvalidWeight, "component 0 has negative weight"),
        ((0.0, 0.0), InvalidWeight, "the weights sum to 0.0"),
        ((1e308, 1e308), InvalidWeight, "the weights sum to inf")])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_bad_weights_are_typed(self, weights, error, message):
        parts = tuple(GaussComponent(w, (), Matrix.zeros(1, 0), Matrix.column([mu]),
                                     CovFactor(Matrix.from_rows([[1.0]])))
                      for mu, w in enumerate(weights))
        with pytest.raises(error, match=re.escape(message)):
            _guide_table(np.array(weights))
        mix = CGMixture(TypeWord(), reals(1), (((), parts),))
        for count in (0, 10, 10):
            with pytest.raises(error, match=re.escape(message)):
                sample_many(mix, (), (), count, 0)
        assert mix._sampling is None


def assert_moments_close(got, want, eps):
    assert [bits for bits, _ in got.bool_marginal] == \
        [bits for bits, _ in want.bool_marginal]
    for mine, theirs in ((tuple(w for _, w in got.bool_marginal),
                          tuple(w for _, w in want.bool_marginal)),
                         (got.mean.entries, want.mean.entries),
                         (got.cov.entries, want.cov.entries)):
        assert len(mine) == len(theirs)
        assert all(abs(x - y) <= eps for x, y in zip(mine, theirs))


class TestMomentsOracle:
    """`moments` equals the entrywise reference: exactly on rational kernels,
    within 1e-9 on float kernels and at float input points."""

    def cases(self):
        cases = [(t, xs) for t, _, xs in sampler_cases()]
        cases.append((dense_cascade_term(), (Fraction(3, 2), Fraction(-5, 2))))
        cases.append((parse("flip(1/3) * id(B) ; and ; copyB"), ()))
        return cases

    def test_rational_moments_equal_the_reference(self):
        seen = set()
        for t, xs in self.cases():
            mix = evaluate(t, backend="rational")
            for bits in all_bitvecs(mix.p):
                got, want = moments(mix, bits, xs), reference_moments(mix, bits, xs)
                assert got == want
                assert all(type(x) is Fraction for x in (
                    *(w for _, w in got.bool_marginal), *got.mean.entries,
                    *got.cov.entries))
                seen.add((mix.p > 0, mix.n > 0, any(xs)))
        assert {(True, True, True), (False, False, False)} <= seen

    def test_float_moments_are_close_to_the_reference(self):
        for t, xs in self.cases():
            kernels = [(evaluate(t, backend="float"), xs)]
            if xs:   # a float point makes a rational kernel's moments floats
                kernels.append((evaluate(t, backend="rational"),
                                tuple(float(v) for v in xs)))
            for mix, point in kernels:
                for bits in all_bitvecs(mix.p):
                    got = moments(mix, bits, point)
                    assert all(type(x) is float for x in got.cov.entries)
                    assert_moments_close(got, reference_moments(mix, bits, point),
                                         1e-9)
