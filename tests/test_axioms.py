import hashlib
import random
from fractions import Fraction

import pytest

from cgm.axioms import (AXIOM_TABLE, CATALOG, CORE_NAMES, MUTANT_TABLE,
                        SMC_NAMES, AxiomSchema, assoc_normal, check_soundness,
                        e10_weights,
                        get_axiom, instantiate, mutant_of, replace_at,
                        rewrite_at, sample_binding, subterm_at, _check_instance,
                        _entries, _first_mismatch, _METAVAR, _trial_seed)
from cgm.diagram import (B, EMPTY, Colour, Gen, GenKind, R, Seq, identity,
                         mk_generator, par, reals, seq, seq_all)
from cgm.dsl import parse, print_term
from cgm.errors import (InadmissibleBinding, InvalidDrawCount, InvalidPath,
                        NoMatch)
from cgm.randcircuit import TermSampler
from cgm.semantics import (DEFAULT_BOOL_CAP, DEFAULT_TOLERANCE, evaluate,
                           max_deviation, mixtures_equal)
from oracles import subterms

QUICK_TRIALS = 12

# SHA-256 of print_term of both sides of 20 sound and 20 mutant draws per
# schema at seed 2026, drawn as the benchmark's axiom-suite draws them.
# Re-pinned when `copy_bundle` stopped composing with an identity crossing
# (E4's instances use it); every changed instance keeps its certificate.
BINDING_CORPUS_DIGEST = (
    "98bc50aa586accde51b46438f200e95901196822c01e35365ee8154f74c99dec")


class TestCatalog:
    def test_core_axiom_count(self):
        assert len(CORE_NAMES) >= 30

    def test_smc_laws_present(self):
        assert "SMC-interchange" in SMC_NAMES
        assert len(SMC_NAMES) == 9

    def test_e10_scalar_vars(self):
        schema = get_axiom("E10")
        assert {name for name, _ in schema.scalar_vars} == {"p", "q"}
        with pytest.raises(InadmissibleBinding):
            instantiate(schema, {"p": Fraction(1), "q": Fraction(1)})

    def test_unknown_axiom(self):
        with pytest.raises(InadmissibleBinding):
            get_axiom("Z9")


class TestCatalogText:
    BUILDERS = ("E4", "E5", "E10") + SMC_NAMES
    TEXT_MUTANTS = ("C1-zero", "D1-zero", "D1-add", "D1-scal", "D1-one",
                    "D1-stdnormal", "D2-and", "D2-not", "E9")

    @pytest.mark.parametrize("table", [AXIOM_TABLE, MUTANT_TABLE])
    def test_sides_are_in_printed_form(self, table):
        for name, _, lhs, rhs in _entries(table):
            for side in (lhs, rhs):
                # parsed with 0 in place of a metavariable
                side = _METAVAR.sub(r"\1(0)", side)
                assert print_term(parse(side)) == " ".join(side.split()), name

    def test_names_follow_the_catalog(self):
        assert [entry[0] for entry in _entries(AXIOM_TABLE)] == \
            [name for name in CATALOG if name not in self.BUILDERS]
        assert [entry[0] for entry in _entries(MUTANT_TABLE)] == \
            [name for name in CATALOG if name in self.TEXT_MUTANTS]
        for name, summary, _, _ in _entries(MUTANT_TABLE):
            assert mutant_of(name).summary == summary

    def test_metavariables(self):
        assert get_axiom("C1-scal").scalar_vars == (("k", "real"),)
        assert get_axiom("D2-flip").scalar_vars == (("p", "bias"),)
        lhs, rhs = instantiate(get_axiom("C1-scal"), {"k": Fraction(-3, 2)})
        assert (print_term(lhs), print_term(rhs)) == \
            ("scal(-3/2) ; copyR", "copyR ; scal(-3/2) * scal(-3/2)")
        lhs, _ = mutant_of("D1-scal").build({"k": 0.25})
        assert lhs == mk_generator(GenKind.SCALAR, 0.25)

    def test_negative_trials_rejected(self):
        with pytest.raises(InvalidDrawCount):
            check_soundness(get_axiom("A1"), -1, seed=0)

    @pytest.mark.parametrize("trials", [2.5, "3", None])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(InvalidDrawCount, match=f"A1: {trials!r} trials"):
            check_soundness(get_axiom("A1"), trials, seed=0)


def test_binding_corpora_are_pinned():
    """Any change to what a sampler draws, or to the order in which a retry
    loop draws it, changes this digest."""
    digest = hashlib.sha256()
    for name in CATALOG:
        schema = get_axiom(name)
        for index in range(20):
            rng = random.Random(_trial_seed(2026, name, index))
            lhs, rhs = instantiate(schema, sample_binding(schema, rng))
            digest.update(f"{print_term(lhs)}\n{print_term(rhs)}\n".encode())
    for name in CATALOG:
        mutant = mutant_of(name)
        for index in range(20):
            rng = random.Random(_trial_seed(2026, mutant.name, index))
            try:
                lhs, rhs = mutant.build(sample_binding(mutant, rng))
            except InadmissibleBinding:
                digest.update(b"inadmissible\n")
                continue
            digest.update(f"{print_term(lhs)}\n{print_term(rhs)}\n".encode())
    assert digest.hexdigest() == BINDING_CORPUS_DIGEST


class TestInstantiate:
    def test_e10_weights(self):
        assert e10_weights(Fraction(1, 2), Fraction(1, 2)) == \
            (Fraction(1, 4), Fraction(1, 3))

    def test_e10_instance_biases(self):
        lhs, rhs = instantiate(get_axiom("E10"),
                               {"p": Fraction(1, 2), "q": Fraction(1, 2)})
        def biases(t):
            return sorted(s.generator.param for s in subterms(t)
                          if isinstance(s, Gen) and s.generator.kind is GenKind.FLIP)
        assert biases(lhs) == [Fraction(1, 2), Fraction(1, 2)]
        assert biases(rhs) == [Fraction(1, 4), Fraction(1, 3)]

    def test_e10_closure(self):
        rng = random.Random(2)
        for _ in range(50):
            p = Fraction(rng.randint(1, 9), 10)
            q = Fraction(rng.randint(1, 9), 10)
            pt, qt = e10_weights(p, q)
            assert 0 < pt < 1 and 0 < qt < 1

    def test_e6_fixed_pair(self):
        lhs, rhs = instantiate(get_axiom("E6"), {})
        kinds = [s.generator.kind for s in subterms(lhs) if isinstance(s, Gen)]
        assert GenKind.NOT in kinds and GenKind.ITE in kinds
        assert (lhs.dom, lhs.cod) == (rhs.dom, rhs.cod)

    def test_e4_rejects_boolean_boundary(self):
        bad = mk_generator(GenKind.NOT)   # B -> B
        with pytest.raises(InadmissibleBinding):
            instantiate(get_axiom("E4"), {"c": bad, "d": bad})

    # A value of the wrong sort for a metavariable is inadmissible, never a
    # failure inside the schema's build.
    @pytest.mark.parametrize("name, binding, constraint", [
        ("SMC-seq-unit-l", {"c": Fraction(3)}, "circuit:c"),
        ("SMC-seq-unit-l", {"c": Colour.B}, "circuit:c"),
        ("E4", {"c": Colour.B, "d": Colour.R}, "circuit:c"),
        ("SMC-interchange", {"c1": 1, "c2": 2, "d1": 3, "d2": 4}, "circuit:c1"),
        ("SMC-swap-invol", {}, "colour"),
        ("SMC-swap-invol", {"a": Fraction(3), "b": Colour.B}, "colour"),
        ("SMC-swap-invol", {"a": Colour.B, "b": mk_generator(GenKind.NOT)},
         "colour")])
    def test_mistyped_binding_is_inadmissible(self, name, binding, constraint):
        with pytest.raises(InadmissibleBinding) as caught:
            instantiate(get_axiom(name), binding)
        assert caught.value.constraint == constraint

    def test_type_preservation_across_catalog(self):
        rng = random.Random(8)
        for name in CATALOG:
            schema = get_axiom(name)
            binding = sample_binding(schema, random.Random(rng.randint(0, 10**6)))
            lhs, rhs = instantiate(schema, binding)
            assert (lhs.dom, lhs.cod) == (rhs.dom, rhs.cod)


# One case per refusal of `check_binding`, of each `validate` and of
# `sample_binding`: the constraint it names and its message.
SCAL, ADD, NOT, ZERO = (mk_generator(GenKind.SCALAR, 2),
                        mk_generator(GenKind.ADD), mk_generator(GenKind.NOT),
                        mk_generator(GenKind.ZERO))
NEVER = AxiomSchema("never", "no draw binds c", circuit_vars=("c",),
                    sample=lambda _sampler: {})


@pytest.mark.parametrize("refuse, constraint, message", [
    pytest.param(lambda: instantiate(get_axiom("C1-scal"), {}),
                 "scalar:k", "C1-scal: missing scalar k", id="missing-scalar"),
    pytest.param(lambda: instantiate(get_axiom("C1-scal"), {"k": "2"}),
                 "scalar:k", "C1-scal: k is not a scalar", id="not-a-scalar"),
    pytest.param(lambda: instantiate(get_axiom("D2-flip"), {"p": Fraction(3, 2)}),
                 "bias:p", "D2-flip: bias p=3/2 not in [0,1]", id="bias-range"),
    pytest.param(lambda: instantiate(get_axiom("E5"), {}),
                 "circuit:c", "E5: c must be a circuit", id="missing-circuit"),
    pytest.param(lambda: instantiate(get_axiom("E4"), {"c": ZERO, "d": ZERO}),
                 "noise-input", "E4: c needs the shared noise input",
                 id="e4-noise"),
    pytest.param(lambda: instantiate(get_axiom("E4"), {"c": SCAL, "d": ADD}),
                 "equal-boundaries", "E4: c and d need equal boundaries",
                 id="e4-boundaries"),
    pytest.param(lambda: instantiate(get_axiom("SMC-seq-assoc"),
                                     {"c": SCAL, "d": NOT, "e": NOT}),
                 "composable-chain", "SMC-seq-assoc: c ; d does not compose",
                 id="chain"),
    pytest.param(lambda: instantiate(get_axiom("SMC-interchange"),
                                     {"c1": SCAL, "d1": NOT, "c2": NOT, "d2": NOT}),
                 "composable-columns", "SMC-interchange: c1 ; d1 does not compose",
                 id="interchange"),
    pytest.param(lambda: instantiate(get_axiom("SMC-swap-nat"),
                                     {"c": ADD, "k": Colour.B}),
                 "single-wire", "SMC-swap-nat: stated for single-wire circuits",
                 id="swap-nat-wires"),
    pytest.param(lambda: instantiate(get_axiom("SMC-swap-nat"),
                                     {"c": SCAL, "k": Fraction(1)}),
                 "colour", "SMC-swap-nat: k must be a colour",
                 id="swap-nat-colour"),
    pytest.param(lambda: instantiate(mutant_of("SMC-seq-unit-l"),
                                     {"c": identity(EMPTY)}),
                 "output-wire", "SMC-seq-unit-l-mutant: needs an output wire",
                 id="mutant-output"),
    pytest.param(lambda: sample_binding(NEVER, random.Random(0)),
                 "sampling", "never: could not sample a binding",
                 id="sampling-gives-up")])
def test_refusals_name_their_constraint(refuse, constraint, message):
    with pytest.raises(InadmissibleBinding) as caught:
        refuse()
    assert (caught.value.constraint, str(caught.value)) == (constraint, message)


# A `bool` is not a scalar, and a name the schema does not declare is not
# ignored: both are refused before the schema's build.
@pytest.mark.parametrize("name, binding, constraint, message", [
    ("D2-flip", {"p": True}, "scalar:p", "D2-flip: p is not a scalar"),
    ("C1-scal", {"k": False}, "scalar:k", "C1-scal: k is not a scalar"),
    ("A1", {"zz": 3}, "undeclared:zz", "A1: no variable zz"),
    ("D2-flip", {"p": Fraction(1, 2), "q": Fraction(1, 3)}, "undeclared:q",
     "D2-flip: no variable q"),
    ("SMC-swap-nat", {"c": SCAL, "k": Colour.R, "a": Colour.B},
     "undeclared:a", "SMC-swap-nat: no variable a")])
def test_bools_and_undeclared_names_are_inadmissible(name, binding, constraint,
                                                     message):
    with pytest.raises(InadmissibleBinding) as caught:
        instantiate(get_axiom(name), binding)
    assert (caught.value.constraint, str(caught.value)) == (constraint, message)


class TestSoundness:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_quick_pass(self, name):
        report = check_soundness(get_axiom(name), QUICK_TRIALS, seed=2024)
        assert report.passed, [f.binding for f in report.failures]

    def test_e5_explicit(self):
        report = check_soundness(get_axiom("E5"), 30, seed=5)
        assert report.passed

    def test_e4_explicit(self):
        report = check_soundness(get_axiom("E4"), 30, seed=6)
        assert report.passed

    def test_deterministic_given_seed(self):
        one = check_soundness(get_axiom("E10"), 10, seed=3)
        two = check_soundness(get_axiom("E10"), 10, seed=3)
        assert [f.binding for f in one.failures] == \
            [f.binding for f in two.failures]

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_documented_mutant_fails(self, name):
        mutant = mutant_of(name)
        report = check_soundness(mutant, 20, seed=99)
        assert report.failures, f"mutant of {name} went unnoticed"


def check_instance(lhs, rhs, backend="auto"):
    return _check_instance(lhs, rhs, DEFAULT_TOLERANCE, DEFAULT_BOOL_CAP,
                           backend, {})


class TestCheckInstance:
    def test_sound_instance_is_none(self):
        sides = instantiate(get_axiom("C1-scal"), {"k": Fraction(-3, 2)})
        assert check_instance(*sides) is None

    @pytest.mark.parametrize("backend", ["auto", "rational", "float"])
    def test_mutant_gives_its_max_deviation(self, backend):
        lhs, rhs = mutant_of("E10").build({"p": Fraction(1, 2),
                                           "q": Fraction(1, 3)})
        want = max_deviation(evaluate(lhs, backend=backend),
                             evaluate(rhs, backend=backend))
        assert 0 < check_instance(lhs, rhs, backend) == want

    def test_unequal_words_give_inf(self):
        assert check_instance(parse("not"), parse("scal(2)")) == float("inf")


class TestRewrite:
    def test_a1_example(self):
        copy_r = mk_generator(GenKind.REAL_COPY)
        term = seq(copy_r, par(identity(R), copy_r))
        out = rewrite_at(term, (), get_axiom("A1"), "L2R", {})
        assert out == seq(copy_r, par(copy_r, identity(R)))
        back = rewrite_at(out, (), get_axiom("A1"), "R2L", {})
        assert back == term

    def test_matching_modulo_associativity(self):
        copy_r = mk_generator(GenKind.REAL_COPY)
        # same redex, re-associated: ((copyR ; (id * copyR)) parsed differently
        term = seq(seq(copy_r, par(identity(R), copy_r)),
                   identity(reals(3)))
        inner = rewrite_at(term, (0,), get_axiom("A1"), "L2R", {})
        assert mixtures_equal(evaluate(inner), evaluate(term))

    def test_no_match_reports_position(self):
        with pytest.raises(NoMatch):
            rewrite_at(mk_generator(GenKind.ADD), (), get_axiom("A1"), "L2R", {})

    def test_invalid_path(self):
        with pytest.raises(InvalidPath):
            subterm_at(mk_generator(GenKind.ADD), (0,))

    def test_rewrite_preserves_semantics(self):
        lhs, rhs = instantiate(get_axiom("E7"), {})
        host = seq(lhs, mk_generator(GenKind.REAL_COPY))
        out = rewrite_at(host, (0,), get_axiom("E7"), "L2R", {})
        assert mixtures_equal(evaluate(out), evaluate(host))
        assert out == seq(rhs, mk_generator(GenKind.REAL_COPY))

    def test_e10_rewrite_with_binding(self):
        binding = {"p": Fraction(1, 2), "q": Fraction(1, 2)}
        lhs, rhs = instantiate(get_axiom("E10"), binding)
        out = rewrite_at(lhs, (), get_axiom("E10"), "L2R", binding)
        assert out == rhs

    def test_assoc_normal_flattens(self):
        a, b, c = (mk_generator(GenKind.NOT) for _ in range(3))
        left = seq(seq(a, b), c)
        right = seq(a, seq(b, c))
        assert assoc_normal(left) == assoc_normal(right)

    def test_deep_chains_without_recursion(self):
        # Runs at the interpreter's default recursion limit (see conftest).
        lhs, rhs = instantiate(get_axiom("A1"), {})
        host = seq_all(lhs, *[identity(reals(3))] * 3000)
        path = (0,) * 3000
        out = rewrite_at(host, path, get_axiom("A1"), "L2R", {})
        assert subterm_at(out, path) is rhs
        assert subterm_at(out, (0,) * 2999).late is subterm_at(host, (0,) * 2999).late
        with pytest.raises(NoMatch) as err:
            rewrite_at(host, (), get_axiom("A1"), "L2R", {})
        assert err.value.position == (1,)
        normal = assoc_normal(host)
        for _ in range(3001):
            assert isinstance(normal, Seq) and not isinstance(normal.early, Seq)
            normal = normal.late
        assert normal == identity(reals(3))
        not_ = mk_generator(GenKind.NOT)
        chain = seq_all(*[not_] * 3000)
        again = seq_all(*[mk_generator(GenKind.NOT) for _ in range(3000)])
        assert _first_mismatch(assoc_normal(chain), assoc_normal(again)) is None
        other = seq_all(*[not_] * 2999, seq(mk_generator(GenKind.BOOL_COPY),
                                             mk_generator(GenKind.AND)))
        assert _first_mismatch(assoc_normal(chain), assoc_normal(other)) == (1,) * 2999

    def test_first_mismatch_is_the_first_in_pre_order(self):
        n, a, c = (mk_generator(k) for k in
                   (GenKind.NOT, GenKind.AND, GenKind.BOOL_COPY))
        assert _first_mismatch(par(n, n), par(a, c)) == (0,)
        assert _first_mismatch(par(par(n, n), n), par(par(n, a), c)) == (0, 1)
        assert _first_mismatch(par(n, par(n, n)), par(n, n)) == (1,)

    def test_replace_at_rejects_bad_paths(self):
        term = seq(mk_generator(GenKind.NOT), mk_generator(GenKind.NOT))
        for path in ((2,), (0, 0), (1, 1, 0)):
            with pytest.raises(InvalidPath):
                replace_at(term, path, term)
