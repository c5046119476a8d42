import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cgm.diagram import (Gen, GenKind, bools, identity, mk_generator, par,
                         par_all, reals, seq)
from cgm.dsl import print_term
from cgm.errors import TypeMismatch
from cgm.gadgets import add_n, convex_mix, discard_all, gaussian_circuit
from cgm.linalg import Matrix
from cgm.normalform import (CellComponent, NFTree, decide_equiv,
                            disintegrate, emit_nf, first_certificate_difference, make_bool_kernel,
                            nftree_equal, synth_bool, synth_cnf, zero_cell)
from cgm.randcircuit import TermSampler
from cgm.semantics import (evaluate, mixtures_equal, max_deviation,
                           with_sorted_words)
from oracles import bool_prob, subterms


def flip(p):
    return mk_generator(GenKind.FLIP, p)


def example_mixture_term(p=Fraction(3, 10)):
    g1 = gaussian_circuit([3], Matrix.from_rows([[1]]))
    g2 = gaussian_circuit([0], Matrix.from_rows([[2]]))
    return convex_mix(p, g1, g2)


class TestDisintegrate:
    def test_flip_marginal(self):
        tree = disintegrate(evaluate(flip(Fraction(3, 10))))
        assert bool_prob(tree.bool_marginal, (1,), ()) == Fraction(3, 10)
        assert bool_prob(tree.bool_marginal, (0,), ()) == Fraction(7, 10)
        for _, cell in tree.leaves:
            (c,) = cell
            assert c.lin.rows == 0 and c.weight == 1

    def test_no_boolean_output(self):
        tree = disintegrate(evaluate(example_mixture_term()))
        assert tree.q == 0
        ((key, cell),) = tree.leaves
        assert key == ((), ())
        assert [c.weight for c in cell] == \
            [Fraction(7, 10), Fraction(3, 10)]

    def test_zero_mass_leaf_is_designated(self):
        # flip(1) never emits 0, so the (0,) leaf is the Dirac-at-zero cell
        term = seq(flip(Fraction(1)),
                   par(identity(bools(1)), mk_generator(GenKind.ONE)))
        tree = disintegrate(evaluate(term))
        assert dict(tree.leaves)[(0,), ()] == zero_cell(1, 0)
        (c,) = dict(tree.leaves)[(1,), ()]
        assert c.mean == Matrix.from_rows([[1]])


class TestSynthCnf:
    def test_cascade_biases(self):
        cell = tuple(
            CellComponent(w, Matrix.zeros(1, 0), Matrix.column([mu]),
                          Matrix.from_rows([[1]]))
            for w, mu in [(Fraction(1, 5), 0), (Fraction(3, 10), 1),
                          (Fraction(1, 2), 2)])
        term = synth_cnf(cell)
        biases = [s.generator.param for s in subterms(term)
                  if isinstance(s, Gen) and s.generator.kind is GenKind.FLIP]
        assert biases == [Fraction(1, 5), Fraction(3, 8)]
        weights = sorted((c.weight, c.mean.entries[0])
                         for c in evaluate(term).row(()))
        assert weights == [(Fraction(1, 5), Fraction(0)),
                           (Fraction(3, 10), Fraction(1)),
                           (Fraction(1, 2), Fraction(2))]

    def test_biases_in_open_interval(self):
        rng = random.Random(12)
        for _ in range(20):
            k = rng.randint(2, 4)
            raw = [Fraction(rng.randint(1, 6)) for _ in range(k)]
            total = sum(raw)
            cell = tuple(
                CellComponent(w / total, Matrix.zeros(1, 0),
                              Matrix.column([i]), Matrix.from_rows([[1]]))
                for i, w in enumerate(raw))
            term = synth_cnf(cell)
            for s in subterms(term):
                if isinstance(s, Gen) and s.generator.kind is GenKind.FLIP:
                    assert 0 < s.generator.param < 1

    def test_singleton_wiring_has_no_noise(self):
        cell = (CellComponent(Fraction(1), Matrix.identity(2),
                              Matrix.zeros(2, 1), Matrix.zeros(2, 2)),)
        term = synth_cnf(cell)
        kinds = {s.generator.kind for s in subterms(term) if isinstance(s, Gen)}
        assert GenKind.STD_NORMAL not in kinds
        assert GenKind.FLIP not in kinds
        (c,) = evaluate(term).row(())
        assert c.lin == Matrix.identity(2)

    def test_rank_deficient_cov_gets_minimal_noise(self):
        cell = (CellComponent(
            Fraction(1), Matrix.zeros(2, 0), Matrix.zeros(2, 1),
            Matrix.from_rows([[1, 1], [1, 1]])),)
        term = synth_cnf(cell)
        (c,) = evaluate(term).row(())
        assert c.gram() == Matrix.from_rows([[1, 1], [1, 1]])


class TestDeepCascade:
    # Runs at the interpreter's default recursion limit (see conftest).
    @staticmethod
    def stacked_coins(k):
        """e -> R: sum of 2^i * (1 or 0), i < k; one cell of 2^k components."""
        one, zero = mk_generator(GenKind.ONE), mk_generator(GenKind.ZERO)
        return seq(par_all(*(seq(convex_mix(Fraction(1, 2), one, zero),
                                 mk_generator(GenKind.SCALAR, 2 ** i))
                             for i in range(k))), add_n(k))

    def test_thousand_component_cell_is_emitted_without_recursion(self):
        tree = disintegrate(evaluate(self.stacked_coins(10)))
        assert [len(cell) for _, cell in tree.leaves] == [1024]
        text = print_term(emit_nf(tree))
        # The circuit the recursive cascade emitted (under a raised limit).
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "2d375a2617a6d2daf88a746b985cfb168760ceb827b2cc979dd235adcf67e331"

    def test_cascade_round_trips(self):
        # Evaluating the 1,024-deep cascade takes minutes (quadratic in the
        # components), so the semantic round trip runs on 64 components.
        term = self.stacked_coins(6)
        emitted = emit_nf(disintegrate(evaluate(term)))
        assert hashlib.sha256(print_term(emitted).encode()).hexdigest() == \
            "9f87d88804b8a5f2fce958c1c824d4ef34f8cfe2b05f887a3fc329c8632d45da"
        equivalent, _ = decide_equiv(term, emitted)
        assert equivalent


class TestSynthBool:
    def test_identity_fast_path(self):
        kernel = make_bool_kernel(1, 1, {(0,): {(0,): Fraction(1)},
                                         (1,): {(1,): Fraction(1)}})
        assert synth_bool(kernel) == identity(bools(1))

    def test_constant_flip(self):
        kernel = make_bool_kernel(0, 1, {(): {(1,): Fraction(3, 10),
                                              (0,): Fraction(7, 10)}})
        mix = evaluate(synth_bool(kernel))
        got = {c.bool_out: c.weight for c in mix.row(())}
        assert got == {(1,): Fraction(3, 10), (0,): Fraction(7, 10)}

    def test_xor_kernel(self):
        table = {}
        for a, b in itertools.product((0, 1), repeat=2):
            table[(a, b)] = {(a ^ b,): Fraction(1)}
        kernel = make_bool_kernel(2, 1, table)
        term = synth_bool(kernel)
        biases = {s.generator.param for s in subterms(term)
                  if isinstance(s, Gen) and s.generator.kind is GenKind.FLIP}
        assert biases <= {Fraction(0), Fraction(1)}
        mix = evaluate(term)
        for (a, b) in itertools.product((0, 1), repeat=2):
            (c,) = mix.row((a, b))
            assert c.bool_out == (a ^ b,) and c.weight == 1

    def test_random_kernels_exact(self):
        rng = random.Random(44)
        for trial in range(12):
            p = rng.randint(0, 3) if trial else 3
            q = rng.randint(1, 3) if trial else 3
            table = {}
            for bits in itertools.product((0, 1), repeat=p):
                outs = list(itertools.product((0, 1), repeat=q))
                raw = [Fraction(rng.randint(0, 5)) for _ in outs]
                total = sum(raw) or Fraction(1)
                row = {o: w / total for o, w in zip(outs, raw) if w}
                missing = 1 - sum(row.values())
                if missing:
                    row[outs[0]] = row.get(outs[0], Fraction(0)) + missing
                table[bits] = row
            kernel = make_bool_kernel(p, q, table)
            mix = evaluate(synth_bool(kernel))
            for bits in itertools.product((0, 1), repeat=p):
                got = {c.bool_out: c.weight for c in mix.row(bits)}
                assert got == {c.bool_out: c.weight for c in kernel.row(bits)}


class TestEmit:
    def test_boolean_only_round_trip(self):
        term = seq(flip(Fraction(1, 3)), mk_generator(GenKind.NOT))
        mix = evaluate(term)
        back = evaluate(emit_nf(disintegrate(mix)))
        assert mixtures_equal(mix, back)

    def test_example_mixture(self):
        mix = evaluate(example_mixture_term())
        back = evaluate(emit_nf(disintegrate(mix)))
        assert mixtures_equal(mix, back)
        assert max_deviation(mix, back) == 0.0

    def test_random_round_trips_exact(self):
        sampler = TermSampler(random.Random(7), max_word=3, max_depth=4)
        done = 0
        while done < 40:
            t = sampler.closed_term()
            mix = evaluate(t)
            if max(len(comps) for _, comps in mix.table) > 4:
                continue
            sorted_mix = with_sorted_words(mix)
            back = evaluate(emit_nf(disintegrate(mix)))
            assert mixtures_equal(sorted_mix, back)
            assert max_deviation(sorted_mix, back) == 0.0
            done += 1

    def test_emitted_literals_hold_the_certificate_field(self):
        # Equal rational and float matrices are distinct cache keys of
        # `matrix_circuit`, so emitting one never reuses the other's gates.
        term = seq(mk_generator(GenKind.STD_NORMAL), mk_generator(GenKind.SCALAR, 3))
        for backend, text in (("rational", "stdnormal ; scal(3)"),
                              ("float", "stdnormal ; scal(3.0)")):
            tree = disintegrate(evaluate(term, backend=backend))
            assert print_term(emit_nf(tree)) == text

    def test_certificate_stability(self):
        mix = evaluate(example_mixture_term())
        tree = disintegrate(mix)
        again = disintegrate(evaluate(emit_nf(tree)))
        assert nftree_equal(tree, again)
        assert tree == again


class TestDecideEquiv:
    def test_axiom_pair(self):
        from cgm.axioms import get_axiom, instantiate
        lhs, rhs = instantiate(get_axiom("E10"),
                               {"p": Fraction(1, 2), "q": Fraction(1, 3)})
        verdict, (nf1, nf2) = decide_equiv(lhs, rhs)
        assert verdict and nf1 == nf2

    def test_different_variance(self):
        one = gaussian_circuit([3], Matrix.from_rows([[1]]))
        other = gaussian_circuit([3], Matrix.from_rows([[2]]))
        verdict, (nf1, nf2) = decide_equiv(one, other)
        assert not verdict
        assert "cov" in first_certificate_difference(nf1, nf2)

    def test_boundary_mismatch(self):
        with pytest.raises(TypeMismatch):
            decide_equiv(mk_generator(GenKind.NOT),
                         mk_generator(GenKind.SCALAR, Fraction(2)))

    def test_three_mixture_reassociation(self):
        # same three weights from both cascade bracketings
        w1, w2, w3 = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
        leaves = [gaussian_circuit([k], Matrix.from_rows([[1]]))
                  for k in (4, 5, 6)]
        right = convex_mix(w1, leaves[0],
                           convex_mix(w2 / (1 - w1), leaves[1], leaves[2]))
        left = convex_mix(w1 + w2,
                          convex_mix(w1 / (w1 + w2), leaves[0], leaves[1]),
                          leaves[2])
        verdict, (nf1, nf2) = decide_equiv(right, left)
        assert verdict and nf1 == nf2

    def test_interleaved_boundaries_compare(self):
        from cgm.diagram import Colour, swap as swap_term
        one = swap_term(Colour.B, Colour.R)
        other = identity(bools(1) + reals(1))
        verdict, _ = decide_equiv(one, other)
        assert verdict

    def test_perturbed_parameter_flips_verdict(self):
        mix_term = example_mixture_term()
        tree = disintegrate(evaluate(mix_term))
        ((key, cell),) = tree.leaves
        bumped = (replace(cell[0], mean=cell[0].mean +
                          Matrix.from_rows([[Fraction(1, 1000)]])),) + cell[1:]
        perturbed = NFTree(tree.p, tree.m, tree.q, tree.n,
                           tree.bool_marginal, ((key, bumped),))
        assert not nftree_equal(tree, perturbed)
        verdict, _ = decide_equiv(mix_term, emit_nf(perturbed))
        assert not verdict

    def test_zero_mass_leaf_is_forced(self):
        term = seq(flip(Fraction(1)),
                   par(identity(bools(1)), mk_generator(GenKind.ONE)))
        tree = disintegrate(evaluate(term))
        poked = []
        for key, cell in tree.leaves:
            if key == ((0,), ()):
                comp = replace(cell[0],
                               mean=Matrix.from_rows([[Fraction(5)]]))
                poked.append((key, (comp,)))
            else:
                poked.append((key, cell))
        perturbed = NFTree(tree.p, tree.m, tree.q, tree.n,
                           tree.bool_marginal, tuple(poked))
        verdict, _ = decide_equiv(term, emit_nf(perturbed))
        assert verdict
