import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgm.errors import DimensionMismatch, NotPSD
from cgm.linalg import (CovFactor, Matrix, block_diag, cov_block, cov_compose,
                        drop_zero_columns, four_squares, hstack, ldlt,
                        quantize_key, sum_square_scales, vstack)
from cgm.dsl import parse
from cgm.normalform import _noise_factor
from cgm.semantics import _rows_of, evaluate, moments

from oracles import (reference_add, reference_block_diag,
                     reference_drop_zero_columns, reference_hstack,
                     reference_matmul, reference_product_entries,
                     reference_rows, reference_transpose, reference_vstack)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10)
# Zero, negative, mixed-denominator and large-denominator entries for the
# product kernels.
exact_entries = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-20, max_value=20,
                                       max_denominator=12),
                          st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                       max_denominator=10 ** 15))
float_entries = st.one_of(st.just(0.0), st.just(-0.0),
                          st.floats(min_value=-20, max_value=20))
mixed_entries = st.one_of(exact_entries, float_entries)
dims = st.integers(min_value=0, max_value=5)

ROW = Matrix.from_rows([[1, 2]])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Matrix(-1, 0, ()), "negative matrix dimension",
                 id="negative"),
    pytest.param(lambda: Matrix(2, 2, (1, 2, 3)), "entry count 3 != 2x2",
                 id="entry-count"),
    pytest.param(lambda: Matrix.from_rows([[1, 2], [3]]), "ragged rows",
                 id="ragged"),
    pytest.param(lambda: ROW + ROW.transpose(), "add 1x2 with 2x1", id="add"),
    pytest.param(lambda: ROW @ ROW, "mul 1x2 with 1x2", id="matmul"),
    pytest.param(lambda: hstack(ROW, ROW.transpose()), "hstack rows 1 != 2",
                 id="hstack"),
    pytest.param(lambda: vstack(ROW, ROW.transpose()), "vstack cols 2 != 1",
                 id="vstack"),
    pytest.param(lambda: ldlt(ROW), "ldlt needs a square matrix", id="ldlt")])
def test_mismatched_shapes_are_typed(build, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        build()


@st.composite
def matrices(draw, entries, rows=dims, cols=dims):
    n, m = draw(rows), draw(cols)
    return Matrix(n, m, tuple(draw(st.lists(entries, min_size=n * m,
                                            max_size=n * m))))


@st.composite
def products(draw, entries, inner=dims):
    n, k, m = draw(dims), draw(inner), draw(dims)
    return (draw(matrices(entries, st.just(n), st.just(k))),
            draw(matrices(entries, st.just(k), st.just(m))))


@st.composite
def raw_products(draw, entries):
    """``((n, k, xs), (m, ys))``: the scalars of an n x k and a k x m matrix."""
    n, k, m = draw(dims), draw(dims), draw(dims)
    return ((n, k, draw(st.lists(entries, min_size=n * k, max_size=n * k))),
            (m, draw(st.lists(entries, min_size=k * m, max_size=k * m))))


@st.composite
def exact_cases(draw):
    """``(a, b, c, picks)``: an n x k times k x m product, with one- and
    two-term products (k of 1 or 2) drawn often, a second n x k matrix and
    a pick of a's rows."""
    a, b = draw(st.one_of(products(exact_entries),
                          products(exact_entries, st.integers(1, 2))))
    c = draw(matrices(exact_entries, st.just(a.rows), st.just(a.cols)))
    picks = draw(st.lists(st.integers(0, a.rows - 1), max_size=4)) if a.rows else []
    return a, b, c, tuple(picks)


def reduced(m: Matrix) -> bool:
    """The rational form: a positive denominator coprime to the numerators,
    so a zero matrix is over 1."""
    return (m.exact and m.den > 0 and math.gcd(m.den, *m.nums) == 1
            and all(type(x) is int for x in m.nums))


def same_entries(out: Matrix, want: Matrix) -> bool:
    """Equal shape, equal values and the same type in every entry."""
    return ((out.rows, out.cols, out.entries) == (want.rows, want.cols, want.entries)
            and [type(x) for x in out.entries] == [type(x) for x in want.entries])


def mat(rows):
    return Matrix.from_rows(rows)


@st.composite
def padded_factors(draw, entries, zeros):
    """``(factor, the factor with zero columns inserted)``; each inserted
    column repeats one of `zeros`.  When float zero columns make a factor
    with no entries a float matrix, the factor is the float one too."""
    factor = draw(matrices(entries))
    cols = [factor.entries[j::factor.cols] for j in range(factor.cols)]
    for zero in draw(st.lists(st.sampled_from(zeros), max_size=3)):
        cols.insert(draw(st.integers(0, len(cols))), (zero,) * factor.rows)
    padded = Matrix(factor.rows, len(cols), tuple(
        col[i] for i in range(factor.rows) for col in cols))
    if factor.exact and not padded.exact:
        factor = Matrix.zeros(factor.rows, factor.cols, float)
    return factor, padded


class TestMatrix:
    def test_mul_identity(self):
        m = mat([[1, 2, 3], [4, 5, 6]])
        assert Matrix.identity(2) @ m == m

    def test_block_diag(self):
        a, b = Fraction(2), Fraction(-3)
        assert block_diag(mat([[a]]), mat([[b]])) == mat([[a, 0], [0, b]])

    def test_block_diag_is_stacked_padding(self):
        rng = random.Random(9)
        for ra, ca, rb, cb in itertools.product(range(3), repeat=4):
            a = Matrix(ra, ca, tuple(Fraction(rng.randint(-5, 5))
                                     for _ in range(ra * ca)))
            b = Matrix(rb, cb, tuple(float(rng.randint(-5, 5))
                                     for _ in range(rb * cb)))
            want = vstack(hstack(a, Matrix.zeros(ra, cb)),
                          hstack(Matrix.zeros(rb, ca), b))
            out = block_diag(a, b)
            assert (out.rows, out.cols, out.entries) == \
                (want.rows, want.cols, want.entries)
            assert [type(x) for x in out.entries] == \
                [type(x) for x in want.entries]

    def test_hstack_dims(self):
        out = hstack(Matrix.zeros(2, 1), Matrix.zeros(2, 2))
        assert (out.rows, out.cols) == (2, 3)
        with pytest.raises(DimensionMismatch):
            hstack(Matrix.zeros(2, 1), Matrix.zeros(3, 1))

    def test_integral_entries(self):
        # Any rational scalar goes over its own denominator, numpy's too.
        m = Matrix(1, 3, (np.int64(3), True, Fraction(1, 2)))
        assert (m.nums, m.den) == ((6, 2, 1), 2) and type(m.nums[0]) is int

    def test_mismatched_mul(self):
        with pytest.raises(DimensionMismatch):
            mat([[1, 2]]) @ mat([[1, 2]])

    def test_degenerate_shapes(self):
        empty = Matrix.zeros(0, 0)
        assert (empty @ empty).entries == ()
        wide = Matrix.zeros(0, 3)
        assert (wide @ Matrix.zeros(3, 2)).rows == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(exact_cases())
    def test_exact_product_matches_reference(self, case):
        """Every operation on rational matrices gives its reference's
        `Fraction` entries, in reduced form; rebuilt from its entries, each
        result is an equal matrix with an equal hash."""
        a, b, c, picks = case
        sigma, theta = CovFactor(b), CovFactor(c)
        for got, want in (
                (a @ b, reference_matmul(a, b)),
                (CovFactor(a).gram(), reference_matmul(a, reference_transpose(a))),
                (a.transpose(), reference_transpose(a)),
                (a + c, reference_add(a, c)),
                (hstack(a, c), reference_hstack(a, c)),
                (vstack(a, c), reference_vstack(a, c)),
                (block_diag(a, b), reference_block_diag(a, b)),
                (cov_block(CovFactor(a), sigma).factor, reference_block_diag(a, b)),
                (cov_compose(a, sigma, theta).factor, reference_drop_zero_columns(
                    reference_hstack(reference_matmul(a, b), c))),
                (drop_zero_columns(a), reference_drop_zero_columns(a)),
                (_rows_of(a, picks), reference_rows(a, picks))):
            assert same_entries(got, want)
            assert all(type(x) is Fraction for x in got.entries)
            assert reduced(got)
            rebuilt = Matrix(got.rows, got.cols, got.entries)
            assert rebuilt == got and hash(rebuilt) == hash(got)
            assert pickle.loads(pickle.dumps(got)) == got == copy.deepcopy(got)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(raw_products(float_entries), raw_products(mixed_entries)))
    def test_float_and_mixed_product_matches_reference(self, case):
        (n, k, xs), (m, ys) = case
        a, b = Matrix(n, k, xs), Matrix(k, m, ys)
        got = a @ b
        assert same_entries(got, reference_matmul(a, b))

        # Each operand's field is read off its raw scalars, before a
        # `Matrix` holds them: float if some one is a nonzero float or all
        # are floats, its entries converted; else reduced and rational, a
        # float zero an exact 0.  The product is float iff an operand is.
        def float_scalars(raw) -> bool:
            floats = [x for x in raw if type(x) is float]
            return bool(floats) and (len(floats) == len(raw) or any(floats))

        float_a, float_b = float_scalars(xs), float_scalars(ys)
        for made, raw, is_float in ((a, xs, float_a), (b, ys, float_b),
                                    (got, reference_product_entries(a, b),
                                     float_a or float_b)):
            if is_float:
                assert made.den is None and made.nums is made.entries
                assert made.nums == tuple(map(float, raw))
                assert all(type(x) is float for x in made.nums)
            else:
                assert reduced(made) and made.entries == tuple(Fraction(x) for x in raw)
            assert pickle.loads(pickle.dumps(made)) == made

    @given(rationals, rationals)
    def test_rational_arithmetic_exact(self, a, b):
        assert (a + b) - b == a

    @given(st.lists(st.lists(rationals, min_size=2, max_size=2),
                    min_size=2, max_size=2))
    def test_transpose_involution(self, rows):
        m = mat(rows)
        assert m.transpose().transpose() == m


class TestField:
    """A constructor given the float field makes float entries, and an
    operation with a float operand a float result, empty ones included;
    float zeros are one shared 0.0."""

    def test_fields_are_distinct_keys(self):
        assert Fraction != float and len({Fraction, float}) == 2
        assert type(Matrix.zeros(2, 2).entries[0]) is Fraction
        assert type(Matrix.zeros(2, 2, float).entries[0]) is float

    def test_float_constructors_hold_only_floats(self):
        a = Matrix(2, 1, (1.5, 0.0))
        made = [Matrix.zeros(2, 3, float), Matrix.identity(3, float),
                block_diag(a, a),
                cov_block(CovFactor(a), CovFactor(Matrix.zeros(1, 0))).factor,
                Matrix.zeros(2, 0, float) @ Matrix.zeros(0, 3),
                a @ Matrix(1, 2, (0.0, 2.0)),
                cov_compose(Matrix.zeros(2, 0), CovFactor(Matrix.zeros(0, 2)),
                            CovFactor(a)).factor,
                # An all-zero product, and results built from empty floats.
                Matrix(1, 1, (1.0,)) @ Matrix(1, 1, (0.0,)),
                CovFactor(Matrix.zeros(2, 0, float)).gram(),
                block_diag(Matrix.zeros(1, 0, float), Matrix.zeros(0, 1, float))]
        for m in made:
            assert m.entries and all(type(x) is float for x in m.entries)
            assert m.den is None
        # Float results with no entries, built from scalars.
        flip = moments(evaluate(parse("flip(0.5)")))
        empty = [ldlt(Matrix.zeros(0, 0, float))[0],
                 _noise_factor(Matrix.zeros(2, 2, float), 1e-9),
                 flip.mean, flip.cov]
        assert [(m.rows, m.cols, m.den) for m in empty] == \
            [(0, 0, None), (2, 0, None), (0, 1, None), (0, 0, None)]
        zero = Matrix.zeros(1, 1, float).entries[0]
        assert Matrix.identity(3, float).entries[1] is zero
        assert block_diag(a, a).entries[1] is zero


class TestQuantizeKey:
    def test_zero_keys_match_the_formatted_key(self):
        for zero in (0.0, -0.0):
            key = quantize_key(zero)
            want = float(f"{zero:.12g}")
            assert key == want and type(key) is float
            assert math.copysign(1.0, key) == math.copysign(1.0, want)
        assert type(quantize_key(Fraction(0))) is Fraction

    def test_nonzero_floats_round_to_12_digits(self):
        assert quantize_key(0.1 + 0.2) == 0.3
        assert quantize_key(-1e-300) == float(f"{-1e-300:.12g}")


class TestCovFactor:
    def test_compose_scalar_case(self):
        sigma = CovFactor(mat([[1]]))
        theta = CovFactor(mat([[2]]))
        out = cov_compose(mat([[3]]), sigma, theta)
        assert out.gram() == mat([[13]])

    def test_compose_zero_factors(self):
        z = CovFactor(Matrix.zeros(2, 0))
        out = cov_compose(Matrix.identity(2), z, CovFactor(Matrix.zeros(2, 0)))
        assert out.gram() == Matrix.zeros(2, 2)

    def test_identity_preserves(self):
        sigma = CovFactor(mat([[1, 2], [0, 1]]))
        out = cov_compose(Matrix.identity(2), sigma, CovFactor(Matrix.zeros(2, 0)))
        assert out.gram() == sigma.gram()

    def test_gram_examples(self):
        assert CovFactor(mat([[1], [1]])).gram() == mat([[1, 1], [1, 1]])
        assert CovFactor(Matrix.zeros(2, 0)).gram() == Matrix.zeros(2, 2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(matrices(exact_entries), matrices(float_entries),
                     matrices(mixed_entries)))
    def test_gram_matches_reference(self, factor):
        assert same_entries(CovFactor(factor).gram(),
                            reference_matmul(factor, factor.transpose()))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(padded_factors(exact_entries, (Fraction(0), 0.0, -0.0)),
                     padded_factors(float_entries, (0.0, -0.0))))
    def test_zero_columns_leave_gram_unchanged(self, case):
        factor, padded = case
        want = CovFactor(factor).gram()
        dropped = drop_zero_columns(padded)
        for got in (CovFactor(padded).gram(), CovFactor(dropped).gram()):
            assert same_entries(got, want)
            assert list(map(repr, got.entries)) == list(map(repr, want.entries))
        assert dropped == drop_zero_columns(factor)
        assert all(any(dropped.entries[j::dropped.cols])
                   for j in range(dropped.cols))

    def test_drop_zero_columns(self):
        assert drop_zero_columns(mat([[0, 1, 0], [0, 2, -3]])) == mat([[1, 0], [2, -3]])
        assert drop_zero_columns(Matrix(1, 2, (-0.0, 0.5))) == Matrix(1, 1, (0.5,))
        assert drop_zero_columns(mat([[0], [0]])) == Matrix.zeros(2, 0)
        compact = mat([[1, 0], [0, 1]])
        assert drop_zero_columns(compact) is compact

    def test_compose_drops_the_columns_it_zeroes(self):
        # [I | 0] keeps the first block of a block diagonal factor.
        sigma = cov_block(CovFactor(mat([[2]])), CovFactor(mat([[3, 1]])))
        out = cov_compose(mat([[1, 0]]), sigma, CovFactor(mat([[5]])))
        assert out.factor == mat([[2, 5]])

    def test_gram_orthogonal_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            l_mat = mat([[Fraction(rng.randint(-4, 4)) for _ in range(3)]
                         for _ in range(3)])
            perm = [0, 1, 2]
            rng.shuffle(perm)
            signs = [rng.choice((-1, 1)) for _ in range(3)]
            q = Matrix.from_rows(
                [[signs[j] if perm[i] == j else 0 for j in range(3)]
                 for i in range(3)])
            assert CovFactor(l_mat @ q).gram() == CovFactor(l_mat).gram()

    def test_gram_of_compose_is_closed_form(self):
        rng = random.Random(9)
        for _ in range(25):
            b = mat([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(2)] for _ in range(2)])
            s = CovFactor(mat([[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                                  for _ in range(2)]))
            t = CovFactor(mat([[Fraction(rng.randint(-3, 3))] for _ in range(2)]))
            lhs = cov_compose(b, s, t).gram()
            rhs = b @ s.gram() @ b.transpose() + t.gram()
            assert lhs == rhs


# An empty operand contributes nothing: each stacking operation beside an
# operand with no entries, where the result has the other's shape, returns
# the other operand itself when both are in one field, and promotes the
# result to float as before when they are not.  Each entry: the operation,
# the empty operand's shape beside m, and the general path's value.
STACKS = {"hstack": (hstack, lambda m: (m.rows, 0), reference_hstack),
          "vstack": (vstack, lambda m: (0, m.cols), reference_vstack),
          "block_diag": (block_diag, lambda m: (0, 0), reference_block_diag)}
OTHERS = {"rational": mat([[1, Fraction(1, 2)], [-3, 4]]),
          "float": Matrix.from_rows([[1.5, 0.0], [2.0, -1.0]])}


class TestEmptyOperands:
    @pytest.mark.parametrize("empty_first", [True, False])
    @pytest.mark.parametrize("kind", OTHERS)
    @pytest.mark.parametrize("name", STACKS)
    def test_stack_beside_an_empty_operand_is_the_other(self, name, kind,
                                                        empty_first):
        op, shape, reference = STACKS[name]
        other = OTHERS[kind]
        empty = Matrix.zeros(*shape(other), Fraction if other.exact else float)
        a, b = (empty, other) if empty_first else (other, empty)
        assert op(a, b) is other
        assert op(a, b) == reference(a, b)

    @pytest.mark.parametrize("empty_first", [True, False])
    @pytest.mark.parametrize("kind", OTHERS)
    @pytest.mark.parametrize("name", STACKS)
    def test_empty_operand_of_the_other_field_promotes(self, name, kind,
                                                       empty_first):
        op, shape, reference = STACKS[name]
        other = OTHERS[kind]
        empty = Matrix.zeros(*shape(other), float if other.exact else Fraction)
        a, b = (empty, other) if empty_first else (other, empty)
        want = reference(a, b)
        out = op(a, b)
        assert out.den is None and out is not other
        assert out == Matrix.over(want.rows, want.cols, want.floats(), None)

    def test_sum_of_empty_matrices_is_the_second(self):
        a, b = Matrix(2, 0, ()), Matrix(2, 0, ())    # two objects
        assert a is not b
        assert a + b is b and a + b == reference_add(a, b)
        for out in (a + Matrix.zeros(2, 0, float), Matrix.zeros(2, 0, float) + a):
            assert out.den is None and (out.rows, out.cols) == (2, 0)

    def test_cov_block_beside_an_empty_factor_is_the_other(self):
        theta = CovFactor(mat([[1, 0], [Fraction(1, 2), 2]]))
        empty = CovFactor(Matrix(0, 0, ()))
        assert cov_block(empty, theta) is theta
        assert cov_block(theta, empty) is theta
        assert theta.factor == reference_block_diag(empty.factor, theta.factor)
        for out in (cov_block(CovFactor(Matrix.zeros(0, 0, float)), theta),
                    cov_block(theta, CovFactor(Matrix.zeros(0, 0, float)))):
            assert out.factor.den is None
            assert out.factor == Matrix.over(2, 2, theta.factor.floats(), None)

    @pytest.mark.parametrize("field", [Fraction, float])
    def test_gram_of_no_columns_is_the_cached_zero(self, field, monkeypatch):
        factor = Matrix.over(3, 0, (), 1 if field is Fraction else None)
        want = factor @ factor.transpose()
        calls = []
        for name in ("transpose", "__matmul__"):
            monkeypatch.setattr(Matrix, name,
                                lambda *args, _name=name: calls.append(_name))
        out = CovFactor(factor).gram()
        assert out is Matrix.zeros(3, 3, field) and not calls
        assert out == want and out.den == want.den


class TestLdlt:
    def test_scalar(self):
        lower, diag = ldlt(mat([[4]]))
        assert lower == mat([[1]]) and diag == (Fraction(4),)

    def test_rank_one(self):
        lower, diag = ldlt(mat([[1, 1], [1, 1]]))
        assert lower == mat([[1, 0], [1, 1]])
        assert diag == (Fraction(1), Fraction(0))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSD):
            ldlt(mat([[0, 1], [1, 0]]))

    def test_negative_rejected(self):
        with pytest.raises(NotPSD):
            ldlt(mat([[-1]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPSD):
            ldlt(mat([[1, 2], [0, 1]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=997))
    def test_reconstruction_rational(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        m = mat([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(n)] for _ in range(n)])
        sigma = m @ m.transpose()
        lower, diag = ldlt(sigma)
        d = Matrix.from_rows([[diag[i] if i == j else 0 for j in range(n)]
                              for i in range(n)])
        assert lower @ d @ lower.transpose() == sigma
        assert all(x >= 0 for x in diag)

    def test_reconstruction_float(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 6)
            m = mat([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
            sigma = m @ m.transpose()
            lower, diag = ldlt(sigma, tol=1e-9)
            d = Matrix.from_rows([[diag[i] if i == j else 0.0 for j in range(n)]
                                  for i in range(n)])
            rebuilt = lower @ d @ lower.transpose()
            assert all(abs(x - y) < 1e-12
                       for x, y in zip(rebuilt.entries, sigma.entries))

    def test_factors_hold_the_input_field(self):
        # [[1, 1], [1, 2]] is the float Gram matrix of (stdnormal *
        # stdnormal) ; (copyR * id(R)) ; (id(R) * add); the second matrix
        # has a zero pivot
        for rows in ([[1, 1], [1, 2]], [[1, 1], [1, 1]]):
            lower, diag = ldlt(mat([[float(x) for x in r] for r in rows]), 1e-9)
            assert {type(x) for x in lower.entries + diag} == {float}
            lower, diag = ldlt(mat(rows))
            assert {type(x) for x in lower.entries + diag} == {Fraction}

    def test_compose_stays_psd(self):
        rng = random.Random(4)
        for _ in range(20):
            b = mat([[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                     for _ in range(2)])
            s = CovFactor(mat([[Fraction(rng.randint(-2, 2)) for _ in range(3)]
                                  for _ in range(2)]))
            t = CovFactor(mat([[Fraction(rng.randint(-2, 2))] for _ in range(2)]))
            _, diag = ldlt(cov_compose(b, s, t).gram())
            assert all(x >= 0 for x in diag)


class TestJson:
    def test_matrix_round_trip(self):
        from cgm.linalg import matrix_to_json
        from oracles import matrix_from_json
        m = mat([[Fraction(1, 3), -2], [0, Fraction(5)]])
        encoded = matrix_to_json(m)
        assert encoded == {"rows": 2, "cols": 2,
                           "entries": ["1/3", "-2", "0", "5"]}
        assert matrix_from_json(encoded) == m

    def test_float_entries_stay_numbers(self):
        from cgm.linalg import matrix_to_json
        from oracles import matrix_from_json
        m = Matrix.from_rows([[0.5]])
        encoded = matrix_to_json(m)
        assert encoded["entries"] == [0.5]
        assert matrix_from_json(encoded) == m


class TestSquares:
    @given(st.integers(min_value=0, max_value=100000))
    @settings(max_examples=150, deadline=None)
    def test_four_squares(self, n):
        a, b, c, d = four_squares(n)
        assert a * a + b * b + c * c + d * d == n
        assert a >= b >= c >= d >= 0

    def test_four_squares_deterministic(self):
        assert four_squares(2026) == four_squares(2026)

    @given(st.fractions(min_value=0, max_value=40, max_denominator=12))
    @settings(max_examples=100, deadline=None)
    def test_scales_reconstruct_exactly(self, d):
        scales = sum_square_scales(d)
        assert sum(r * r for r in scales) == d
        assert all(isinstance(r, Fraction) for r in scales)

    def test_float_scale(self):
        (r,) = sum_square_scales(2.0)
        assert abs(r * r - 2.0) < 1e-12
