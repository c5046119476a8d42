import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgm.diagram import B, Colour, GenKind, TypeWord, mk_generator, reals
from cgm.errors import CgmError, DimensionMismatch, InvalidGadget
from cgm.gadgets import (add_n, convex_mix, gauss_map_circuit,
                         gaussian_circuit, ite_n, matrix_circuit, nary_copy,
                         permute_term, thick_ite)
from cgm.linalg import Matrix
from cgm.semantics import evaluate


ONE_BY_ONE = Matrix.from_rows([[1]])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: gaussian_circuit([1, 2], ONE_BY_ONE),
                 "mean is 2x1, factor has 1 rows", id="gaussian"),
    pytest.param(lambda: gauss_map_circuit(ONE_BY_ONE, [0, 0], ONE_BY_ONE),
                 "inconsistent Gaussian map dimensions", id="gauss-map"),
    pytest.param(lambda: convex_mix(Fraction(1, 2),
                                    mk_generator(GenKind.SCALAR, 2),
                                    mk_generator(GenKind.ADD)),
                 "convex_mix needs equal boundaries", id="mix-boundaries"),
    pytest.param(lambda: convex_mix(Fraction(1, 2), mk_generator(GenKind.NOT),
                                    mk_generator(GenKind.NOT)),
                 "convex_mix branches must be all-real", id="mix-all-real")])
def test_mismatched_dimensions_are_typed(build, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: permute_term(TypeWord.of("RB"), (1, 1)),
                 r"not a permutation of 2 wires: \(1, 1\)", id="permute"),
    pytest.param(lambda: nary_copy(Colour.R, -1), "negative fanout", id="copy"),
    pytest.param(lambda: add_n(-1), "negative arity", id="add"),
    pytest.param(lambda: ite_n(-1), "negative width", id="ite"),
    pytest.param(lambda: thick_ite(0, 1), "need at least one guard",
                 id="thick-ite")])
def test_bad_gadget_sizes_are_typed(build, message):
    # Typed, and still the ValueError they were before.
    with pytest.raises(InvalidGadget, match=f"^{message}$") as caught:
        build()
    assert isinstance(caught.value, CgmError) and isinstance(caught.value, ValueError)


class TestNaryCopy:
    def test_copies_into_diracs(self):
        for n in range(4):
            mix = evaluate(nary_copy(Colour.R, n))
            (c,) = mix.row(())
            assert c.lin == Matrix.from_rows([[1]] * n, cols=1)
            assert c.gram().is_zero() and c.weight == 1

    def test_boolean_fanout(self):
        mix = evaluate(nary_copy(Colour.B, 3))
        for b in (0, 1):
            (c,) = mix.row((b,))
            assert c.bool_out == (b, b, b)


class TestWideBuilders:
    """Each width is built on the one below and shares it, in a loop."""

    def test_wide_sum_and_fanout_at_the_default_limit(self):
        total = add_n(2000)
        assert (total.dom, total.cod) == (reals(2000), reals(1))
        assert total.early.bottom is add_n(1999)
        fanout = nary_copy(Colour.R, 2000)
        assert (fanout.dom, fanout.cod) == (reals(1), reals(2000))
        assert fanout.late.bottom is nary_copy(Colour.R, 1999)
        mix = evaluate(add_n(40))
        (c,) = mix.row(())
        assert c.lin == Matrix.from_rows([[1] * 40])

    def test_wide_ite_needs_no_recursion_headroom(self):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            wide = ite_n(120)
        finally:
            sys.setrecursionlimit(limit)
        assert (wide.dom, wide.cod) == (B + reals(240), reals(120))
        assert wide.late.bottom is ite_n(119)


class TestThickIte:
    def test_selects_ath_block(self):
        # brute-force selector over all guard vectors, true-first block order
        for p in (1, 2, 3, 4):
            for n in (1, 2) if p <= 3 else (1,):
                mix = evaluate(thick_ite(p, n))
                order = [v for v in itertools.product((1, 0), repeat=p)]
                for bits, comps in mix.table:
                    (c,) = comps
                    block = order.index(bits)
                    selector = [[1 if j == block * n + i else 0
                                 for j in range(2 ** p * n)]
                                for i in range(n)]
                    assert c.lin == Matrix.from_rows(selector, cols=2 ** p * n)
                    assert c.mean.is_zero() and c.gram().is_zero()

    def test_zero_width_payload(self):
        mix = evaluate(thick_ite(2, 0))
        assert mix.cod_word == thick_ite(2, 0).cod
        for _, comps in mix.table:
            assert comps[0].weight == 1


class TestMatrixCircuit:
    def test_identity_is_dirac_at_input(self):
        mix = evaluate(matrix_circuit(Matrix.identity(2)))
        (c,) = mix.row(())
        assert c.lin == Matrix.identity(2)
        assert c.mean.is_zero() and c.gram().is_zero()

    def test_random_rational_matrices(self):
        rng = random.Random(6)
        for _ in range(40):
            n, m = rng.randint(0, 4), rng.randint(0, 4)
            a = Matrix.from_rows(
                [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                  for _ in range(m)] for _ in range(n)], cols=m)
            mix = evaluate(matrix_circuit(a))
            (c,) = mix.row(())
            assert c.lin == a
            assert c.mean.is_zero() and c.gram().is_zero()
            assert c.weight == 1


class TestGaussianCircuit:
    def test_univariate_examples(self):
        (c,) = evaluate(gaussian_circuit([3], Matrix.from_rows([[1]]))).row(())
        assert (c.mean, c.gram()) == (Matrix.from_rows([[3]]),
                                      Matrix.from_rows([[1]]))
        (c,) = evaluate(gaussian_circuit([0], Matrix.from_rows([[2]]))).row(())
        assert (c.mean, c.gram()) == (Matrix.from_rows([[0]]),
                                      Matrix.from_rows([[4]]))

    def test_random_factors(self):
        rng = random.Random(14)
        for _ in range(25):
            n, k = rng.randint(0, 3), rng.randint(0, 3)
            mu = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            factor = Matrix.from_rows(
                [[Fraction(rng.randint(-3, 3)) for _ in range(k)]
                 for _ in range(n)], cols=k)
            mix = evaluate(gaussian_circuit(mu, factor))
            (c,) = mix.row(())
            assert c.weight == 1
            assert c.mean == Matrix.column(mu)
            assert c.gram() == factor @ factor.transpose()

    @pytest.mark.parametrize("field", (Fraction, float))
    @pytest.mark.parametrize("zero_mean", (False, True))
    @pytest.mark.parametrize("n, m, k", ((2, 0, 2), (2, 3, 0), (1, 0, 0),
                                         (3, 2, 2), (0, 2, 1)))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_open_map_is_its_three_blocks(self, n, m, k, field, zero_mean, data):
        # x |-> N(Ax + mu, F F^T): R^m -> R^n, with k noise columns.
        def block(rows, cols):
            cells = st.fractions(-4, 4, max_denominator=4).map(field)
            return Matrix.from_rows(
                data.draw(st.lists(st.lists(cells, min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows)), cols=cols)
        a, factor = block(n, m), block(n, k)
        mu = Matrix.zeros(n, 1, field) if zero_mean else block(n, 1)
        term = gauss_map_circuit(a, mu, factor)
        assert (term.dom, term.cod) == (reals(m), reals(n))
        backend = "rational" if field is Fraction else "float"
        (c,) = evaluate(term, backend=backend).row(())
        assert c.weight == 1
        for got, want in ((c.lin, a), (c.mean, mu),
                          (c.gram(), factor @ factor.transpose())):
            assert (got.rows, got.cols, got.entries) == \
                (want.rows, want.cols, want.entries)
