import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

from cgm.diagram import (B, Colour, EMPTY, Gen, GenKind, Id, R, Seq, Swap,
                         TypeWord, bools, fold, generator_count,
                         has_float_literal, identity, map_params,
                         mk_generator, par, reals, seq, seq_all, swap,
                         to_exact_params, to_float_params)
from cgm.dsl import parse, print_term
from cgm.errors import (BiasOutOfRange, CgmError, InvalidParam, InvalidTerm,
                        MissingParam, NonFiniteParam, TypeMismatch,
                        UnexpectedParam)
from cgm.gadgets import (matrix_circuit, nary_copy, permute_term, thick_ite)
from cgm.linalg import Matrix
from cgm.randcircuit import TermSampler
from oracles import subterms


class TestGenerators:
    def test_flip_signature(self):
        t = mk_generator(GenKind.FLIP, Fraction(1, 2))
        assert (t.dom, t.cod) == (EMPTY, B)

    def test_ite_signature(self):
        t = mk_generator("ite")
        assert (t.dom, t.cod) == (B + R + R, R)

    def test_bias_out_of_range(self):
        with pytest.raises(BiasOutOfRange):
            mk_generator(GenKind.FLIP, 1.5)

    def test_missing_and_unexpected_params(self):
        with pytest.raises(MissingParam):
            mk_generator(GenKind.SCALAR)
        with pytest.raises(UnexpectedParam):
            mk_generator(GenKind.ADD, 3)

    @pytest.mark.parametrize("kind, value", [
        ("scal", float("inf")), ("scal", float("-inf")), ("scal", float("nan")),
        ("flip", float("nan")), ("flip", float("inf"))])
    def test_non_finite_param(self, kind, value):
        with pytest.raises(NonFiniteParam):
            mk_generator(kind, value)

    def test_non_finite_literal(self):
        with pytest.raises(NonFiniteParam):
            parse("stdnormal ; scal(1e400)")

    def test_add_arity(self):
        add = mk_generator("add")
        assert (add.dom, add.cod) == (R + R, R)

    @pytest.mark.parametrize("build, message", [
        (lambda: mk_generator("bogus"), "unknown generator 'bogus'"),
        (lambda: seq_all(), "seq_all needs at least one term")],
        ids=["generator", "seq-all"])
    def test_bad_terms_are_typed(self, build, message):
        # Typed, and still the ValueError they were before.
        with pytest.raises(InvalidTerm, match=f"^{message}$") as caught:
            build()
        assert isinstance(caught.value, CgmError) and isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("kind, param, message", [
        ("scal", True, "bool is not a scalar"),
        ("flip", "1/2", "not a scalar: '1/2'")], ids=["bool", "text"])
    def test_non_numeric_params_are_typed(self, kind, param, message):
        # Typed, and still the TypeError they were before.
        with pytest.raises(InvalidParam, match=f"^{message}$") as caught:
            mk_generator(kind, param)
        assert isinstance(caught.value, CgmError) and isinstance(caught.value, TypeError)


class TestComposition:
    def test_seq_typing(self):
        t = seq(mk_generator(GenKind.FLIP, Fraction(3, 10)),
                mk_generator(GenKind.NOT))
        assert (t.dom, t.cod) == (EMPTY, B)

    def test_seq_with_identity(self):
        t = seq(identity(R), mk_generator(GenKind.REAL_COPY))
        assert (t.dom, t.cod) == (R, R + R)

    def test_seq_mismatch(self):
        with pytest.raises(TypeMismatch):
            seq(mk_generator(GenKind.AND), mk_generator(GenKind.REAL_COPY))

    def test_par_boundaries(self):
        t = par(identity(B), mk_generator(GenKind.STD_NORMAL))
        assert (t.dom, t.cod) == (B, B + R)

    def test_par_unit_word(self):
        inner = mk_generator(GenKind.NOT)
        t = par(identity(EMPTY), inner)
        assert (t.dom, t.cod) == (inner.dom, inner.cod)

    def test_identity_on_empty(self):
        t = identity(EMPTY)
        assert (t.dom, t.cod) == (EMPTY, EMPTY)

    def test_swap_words(self):
        t = swap(Colour.B, Colour.R)
        assert (t.dom, t.cod) == (TypeWord.of("BR"), TypeWord.of("RB"))


class TestParamCasts:
    def test_casts_keep_shared_subterms_shared(self):
        shared = seq(mk_generator(GenKind.FLIP, 0.5), mk_generator(GenKind.NOT))
        exact = to_exact_params(par(shared, shared))
        assert exact.top is exact.bottom
        assert exact.top.early.generator.param == Fraction(1, 2)
        assert to_float_params(exact).top.early.generator.param == 0.5

    def test_cast_without_change_returns_the_term(self):
        t = par(seq(mk_generator(GenKind.FLIP, Fraction(1, 3)),
                    mk_generator(GenKind.NOT)), identity("R"))
        assert to_exact_params(t) is t
        floated = to_float_params(t)
        assert to_float_params(floated) is floated
        assert floated.bottom is t.bottom

    def test_deep_chain(self):
        chain = seq_all(mk_generator(GenKind.FLIP, Fraction(1, 3)),
                        *[mk_generator(GenKind.NOT)] * 3000)
        assert sum(1 for _ in subterms(chain)) == 2 * 3001 - 1
        floated = to_float_params(chain)
        assert floated.late is chain.late
        flips = [s.generator.param for s in subterms(floated)
                 if isinstance(s, Gen) and s.generator.kind is GenKind.FLIP]
        assert flips == [1 / 3]


class TestFold:
    def test_post_order_once_per_distinct_node(self):
        a = mk_generator(GenKind.NOT)
        shared = seq(a, a)
        t = par(shared, seq(shared, a))
        visits = []

        def note(text):
            return lambda s, *kids: visits.append(s) or text.format(*kids)

        assert fold(t, note("g"), note("({};{})"), note("({}*{})")) == \
            "((g;g)*((g;g);g))"
        assert [id(v) for v in visits] == [id(a), id(shared), id(t.bottom), id(t)]

    def test_shared_doubling_is_linear(self):
        # 2^30 generators in 31 distinct nodes.
        t = mk_generator(GenKind.NOT)
        for _ in range(30):
            t = seq(t, t)
        assert generator_count(t) == 2 ** 30
        assert not has_float_literal(t)
        assert to_exact_params(t) is t
        floated = to_float_params(seq(mk_generator(GenKind.FLIP, Fraction(1, 2)), t))
        assert floated.late is t and has_float_literal(floated)
        assert generator_count(floated) == 2 ** 30 + 1

    def test_shared_doubling_repr_is_linear(self):
        # Expanded, this repr would print 2^30 generators and not return.
        t = mk_generator(GenKind.NOT)
        once = seq(t, t)
        assert "#" not in repr(seq(seq(t, t), seq(t, t)))
        assert repr(seq(once, once)) == f"Seq(early=#1={once!r}, late=#1#)"
        for _ in range(30):
            t = seq(t, t)
        started = time.perf_counter()
        text = repr(t)
        assert time.perf_counter() - started < 5
        assert len(text) < 2000 and text.count("Gen(") == 2
        assert all(text.count(f"#{k}=Seq(") == text.count(f"#{k}#") == 1
                   for k in range(1, 30))
        assert "#30" not in text


def folded_float_literal(t) -> bool:
    """Whether some parameter of `t` is a float, by a fold over its leaves."""
    def either(_t, a, b):
        return a or b
    return fold(t, lambda s: isinstance(s, Gen) and
                isinstance(s.generator.param, float), either, either)


class TestFloatLiteralFlag:
    """Each node records whether it holds a float literal as it is built;
    `has_float_literal` reads that record, which must agree with a fold."""

    def test_sampled_terms_agree_with_a_fold(self):
        rng = random.Random(71)
        sampler = TermSampler(rng)
        outcomes = set()
        for _ in range(150):
            t = sampler.closed_term()
            # About one parameter in three becomes a float of the same value.
            mixed = map_params(t, lambda x: float(x) if rng.random() < 0.3 else x)
            for term in (t, mixed, to_float_params(mixed), to_exact_params(mixed)):
                for s in subterms(term):
                    assert has_float_literal(s) is folded_float_literal(s)
                outcomes.add(has_float_literal(term))
        assert outcomes == {False, True}

    def test_deep_chain(self):
        # The flip is 10^5 levels below the root: first exact, then float.
        nots = [mk_generator(GenKind.NOT)] * 10 ** 5
        chain = seq_all(mk_generator(GenKind.FLIP, Fraction(1, 4)), *nots)
        floated = to_float_params(chain)
        late = seq(chain, seq(mk_generator(GenKind.BOOL_DISCARD),
                              mk_generator(GenKind.FLIP, 0.25)))
        terms = (chain, floated, to_exact_params(floated), late)
        # Flags first, so that a failure does not print the deep terms.
        flags = [(has_float_literal(t), folded_float_literal(t)) for t in terms]
        assert flags == [(False, False), (True, True), (False, False),
                         (True, True)]


def test_discard_flag_agrees_with_a_fold():
    # `evaluate` walks demand only where this record says a discard is held.
    def either(_t, a, b):
        return a or b

    def discards(s):
        return fold(s, lambda g: isinstance(g, Gen) and g.generator.kind in
                    (GenKind.BOOL_DISCARD, GenKind.REAL_DISCARD), either, either)

    sampler = TermSampler(random.Random(72))
    outcomes = set()
    for _ in range(150):
        t = sampler.closed_term()
        for s in subterms(t):
            assert s.discards is discards(s)
        outcomes.add(t.discards)
    assert outcomes == {False, True}


def test_terms_pickle_and_copy():
    # Nodes keep their fields in slots; pickling goes through the constructors.
    t = parse("flip(1/2) * stdnormal ; not * id(R) ; delB * scal(0.5)")
    for back in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert back == t and hash(back) == hash(t) and repr(back) == repr(t)
        assert (back.dom, back.cod, back.float_literal, back.discards) == \
            (t.dom, t.cod, True, True)


class TestDeepTermValues:
    """Equality, hashing and repr of Seq/Par terms 3,000 nodes deep, at the
    interpreter's default recursion limit (see conftest)."""

    @staticmethod
    def chain(last=None):
        nots = [mk_generator(GenKind.NOT) for _ in range(3000)]
        return seq_all(*nots[:-1], last or nots[-1])

    def test_equal_chains_hash_alike(self):
        a, b = self.chain(), self.chain()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_chains_differing_in_the_last_leaf(self):
        a, b = self.chain(), self.chain(identity(B))
        assert a != b and not a == b
        assert par(a, a) != par(a, b)
        assert a != par(identity(EMPTY), a)

    def test_literal_field_is_part_of_the_value(self):
        # Fraction(1, 2) == 0.5, but the two terms print and evaluate apart.
        a, b = parse("flip(1/2) ; not"), parse("flip(0.5) ; not")
        assert a != b and not a == b
        assert len({a, b}) == 2
        same = parse("flip(2/4) ; not")
        assert a == same and hash(a) == hash(same)

    def test_shared_subterms_compare_once(self):
        # 2^25 paths through 26 distinct nodes on each side.
        a, b = mk_generator(GenKind.NOT), mk_generator(GenKind.NOT)
        for _ in range(25):
            a, b = seq(a, a), seq(b, b)
        assert a == b and hash(a) == hash(b)
        assert seq(a, identity(B)) != seq(b, mk_generator(GenKind.NOT))

    def test_repr(self):
        small = seq(par(mk_generator(GenKind.NOT), identity(R)),
                    swap(Colour.B, Colour.R))
        assert repr(small) == (
            f"Seq(early=Par(top={mk_generator(GenKind.NOT)!r}, "
            f"bottom={identity(R)!r}), late={swap(Colour.B, Colour.R)!r})")
        text = repr(self.chain())
        assert text.startswith("Seq(early=Seq(early=")
        assert text.count("Gen(") == 3000

    def test_parse_round_trip(self):
        right = mk_generator(GenKind.NOT)      # nested to the right
        for _ in range(2999):
            right = seq(mk_generator(GenKind.NOT), right)
        t = par(self.chain(), right)
        assert parse(print_term(t)) == t


class TestGadgetShapes:
    def test_nary_copy_unital(self):
        assert nary_copy(Colour.R, 1) == identity(R)

    def test_thick_ite_single_guard(self):
        t = thick_ite(1, 2)
        assert (t.dom, t.cod) == (B + reals(4), reals(2))
        gens = [s.generator.kind for s in subterms(t) if isinstance(s, Gen)]
        assert gens.count(GenKind.ITE) == 2
        assert gens.count(GenKind.BOOL_COPY) == 1

    def test_thick_ite_two_guards(self):
        t = thick_ite(2, 1)
        assert (t.dom, t.cod) == (bools(2) + reals(4), reals(1))
        gens = [s.generator.kind for s in subterms(t) if isinstance(s, Gen)]
        assert gens.count(GenKind.ITE) == 3

    def test_matrix_circuit_types(self):
        t = matrix_circuit(Matrix.from_rows([[2, 0], [1, 1], [0, 0]]))
        assert (t.dom, t.cod) == (reals(2), reals(3))

    def test_permute_term_identity(self):
        word = TypeWord.of("BRB")
        assert permute_term(word, (0, 1, 2)) == identity(word)

    def test_permute_term_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_term(TypeWord.of("RR"), (0, 0))


def _check_boundaries(t):
    if isinstance(t, Seq):
        assert t.early.cod == t.late.dom
        assert t.dom == t.early.dom and t.cod == t.late.cod
        _check_boundaries(t.early)
        _check_boundaries(t.late)
    elif isinstance(t, Gen):
        assert t.dom == t.generator.dom and t.cod == t.generator.cod
    elif isinstance(t, Id):
        assert t.dom == t.cod == t.word
    elif isinstance(t, Swap):
        assert len(t.dom) == 2 and t.cod.colours == t.dom.colours[::-1]
    else:
        assert t.dom == t.top.dom + t.bottom.dom
        assert t.cod == t.top.cod + t.bottom.cod
        _check_boundaries(t.top)
        _check_boundaries(t.bottom)


def test_random_builders_stay_well_typed():
    sampler = TermSampler(random.Random(17), max_word=4, max_depth=5)
    for _ in range(300):
        t = sampler.closed_term()
        _check_boundaries(t)
