"""The equational theory as data: axiom schemas, instantiation, a randomized
semantic soundness harness, and single-step rewriting.

Each schema builds closed (lhs, rhs) terms from a binding of its scalar and
circuit metavariables.  Several axioms are only drawn as pictures in their
usual presentation; the encodings below fix one orientation of each picture
(documented in the summary strings) and the soundness harness verifies the
chosen reading semantically.

A schema's `sample` draws one candidate binding, and its `validate` checks
every constraint on a binding (through `check_binding`).  `sample_binding`
is the one loop that redraws until a candidate passes, for schemas and
mutants alike.

Matching for rewrites is structural modulo associativity of the two
composition operations only; the structural laws themselves are schemas in
the catalog and can be applied explicitly.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .diagram import (B, Colour, EMPTY, GenKind, Par, R, Seq, Term, TypeWord,
                      bools, children, fold, identity, mk_generator, par,
                      par_all, reals, seq, seq_all, swap)
from .dsl import print_term
from .errors import InadmissibleBinding, InvalidPath, NoMatch
from .gadgets import copy_bundle, ite_n, mix_gate, permute_term
from .linalg import format_scalar
from .randcircuit import TermSampler
from .semantics import (DEFAULT_BOOL_CAP, DEFAULT_TOLERANCE, evaluate,
                        max_deviation, mixture_to_json, mixtures_equal)


def _g(kind, param=None):
    return mk_generator(kind, param)


# Terms are immutable values, so each nullary wiring generator is built once.
_COPY_R, _COPY_B = _g(GenKind.REAL_COPY), _g(GenKind.BOOL_COPY)
_DEL_R, _DEL_B = _g(GenKind.REAL_DISCARD), _g(GenKind.BOOL_DISCARD)
_ITE = _g(GenKind.ITE)


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    summary: str
    scalar_vars: tuple = ()
    circuit_vars: tuple = ()
    build: Callable = None
    sample: Callable = None
    validate: Callable = None


def check_binding(schema: AxiomSchema, binding: dict):
    for name, kind in schema.scalar_vars:
        if name not in binding:
            raise InadmissibleBinding(f"{schema.name}: missing scalar {name}",
                                      constraint=f"scalar:{name}")
        value = binding[name]
        if not isinstance(value, (Fraction, int, float)):
            raise InadmissibleBinding(f"{schema.name}: {name} is not a scalar",
                                      constraint=f"scalar:{name}")
        if kind == "bias" and not 0 <= value <= 1:
            raise InadmissibleBinding(
                f"{schema.name}: bias {name}={value} not in [0,1]",
                constraint=f"bias:{name}")
    for name in schema.circuit_vars:
        if name not in binding:
            raise InadmissibleBinding(f"{schema.name}: missing circuit {name}",
                                      constraint=f"circuit:{name}")
    if schema.validate is not None:
        schema.validate(binding)


def instantiate(schema: AxiomSchema, binding: dict):
    """Closed, well-typed (lhs, rhs) with equal boundary words."""
    check_binding(schema, binding)
    lhs, rhs = schema.build(binding)
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        raise AssertionError(f"{schema.name}: sides have unequal boundaries")
    return lhs, rhs


def _no_sample(_sampler):
    return {}


def _fixed(name, summary, lhs, rhs):
    return AxiomSchema(name, summary, build=lambda _b: (lhs, rhs),
                       sample=_no_sample)


def e10_weights(p, q):
    """Reassociation weights: p~ = pq and q~ = q(1-p)/(1-pq)."""
    pt = p * q
    if pt == 1:
        raise InadmissibleBinding("E10 needs pq != 1", constraint="pq!=1")
    qt = q * (1 - p) / (1 - pt)
    return pt, qt


def _copy_laws(colour, copy, delete):
    name, tag = ("A", "real") if colour is Colour.R else ("B", "bool")
    one = identity(TypeWord((colour,)))
    yield _fixed(f"{name}1", f"co-associativity of {tag} copy",
                 seq(copy, par(one, copy)), seq(copy, par(copy, one)))
    yield _fixed(f"{name}2l", f"left co-unit of {tag} copy",
                 seq(copy, par(delete, one)), one)
    yield _fixed(f"{name}2r", f"right co-unit of {tag} copy",
                 seq(copy, par(one, delete)), one)
    yield _fixed(f"{name}3", f"co-commutativity of {tag} copy",
                 seq(copy, swap(colour, colour)), copy)


def _scalar_schema(name, summary, param_kind, builder, var_names=("k",)):
    def sample(sampler: TermSampler):
        draw = sampler.bias if param_kind == "bias" else sampler.scalar
        return {v: draw() for v in var_names}

    return AxiomSchema(name, summary,
                       scalar_vars=tuple((v, param_kind) for v in var_names),
                       build=builder, sample=sample)


def _copyable_schemas():
    idR, idB = identity(R), identity(B)
    yield _fixed("C1-zero", "zero is copyable",
                 seq(_g(GenKind.ZERO), _COPY_R),
                 par(_g(GenKind.ZERO), _g(GenKind.ZERO)))
    yield _fixed("C1-add", "addition is copyable",
                 seq(_g(GenKind.ADD), _COPY_R),
                 seq_all(par(_COPY_R, _COPY_R),
                         par_all(idR, swap(Colour.R, Colour.R), idR),
                         par(_g(GenKind.ADD), _g(GenKind.ADD))))
    yield _scalar_schema(
        "C1-scal", "scalar gates are copyable", "real",
        lambda b: (seq(_g(GenKind.SCALAR, b["k"]), _COPY_R),
                   seq(_COPY_R, par(_g(GenKind.SCALAR, b["k"]),
                                    _g(GenKind.SCALAR, b["k"])))))
    yield _fixed("C1-one", "the constant one is copyable",
                 seq(_g(GenKind.ONE), _COPY_R),
                 par(_g(GenKind.ONE), _g(GenKind.ONE)))
    yield _fixed("C2-and", "conjunction is copyable",
                 seq(_g(GenKind.AND), _COPY_B),
                 seq_all(par(_COPY_B, _COPY_B),
                         par_all(idB, swap(Colour.B, Colour.B), idB),
                         par(_g(GenKind.AND), _g(GenKind.AND))))
    yield _fixed("C2-not", "negation is copyable",
                 seq(_g(GenKind.NOT), _COPY_B),
                 seq(_COPY_B, par(_g(GenKind.NOT), _g(GenKind.NOT))))


def _discard_schemas():
    yield _fixed("D1-zero", "zero is discardable",
                 seq(_g(GenKind.ZERO), _DEL_R), identity(EMPTY))
    yield _fixed("D1-add", "addition is discardable",
                 seq(_g(GenKind.ADD), _DEL_R), par(_DEL_R, _DEL_R))
    yield _scalar_schema(
        "D1-scal", "scalar gates are discardable", "real",
        lambda b: (seq(_g(GenKind.SCALAR, b["k"]), _DEL_R), _DEL_R))
    yield _fixed("D1-one", "the constant one is discardable",
                 seq(_g(GenKind.ONE), _DEL_R), identity(EMPTY))
    yield _fixed("D1-stdnormal", "the Gaussian source is discardable",
                 seq(_g(GenKind.STD_NORMAL), _DEL_R), identity(EMPTY))
    yield _fixed("D2-and", "conjunction is discardable",
                 seq(_g(GenKind.AND), _DEL_B), par(_DEL_B, _DEL_B))
    yield _fixed("D2-not", "negation is discardable",
                 seq(_g(GenKind.NOT), _DEL_B), _DEL_B)
    yield _scalar_schema(
        "D2-flip", "coin flips are discardable", "bias",
        lambda b: (seq(_g(GenKind.FLIP, b["p"]), _DEL_B), identity(EMPTY)),
        var_names=("p",))


def _ite_schemas():
    idB, idR = identity(B), identity(R)
    idRR, idRRR = identity(reals(2)), identity(reals(3))
    single = seq(par_all(idB, idR, _DEL_R, idR), _ITE)
    yield _fixed(
        "E1l", "retesting a shared guard in the true branch is redundant "
               "(encoding fixes one orientation of the picture)",
        seq_all(par(_COPY_B, idRRR), par_all(idB, _ITE, idR), _ITE),
        single)
    yield _fixed(
        "E1r", "retesting a shared guard in the false branch is redundant "
               "(encoding fixes one orientation of the picture)",
        single,
        seq_all(par(_COPY_B, idRRR),
                par_all(idB, swap(Colour.B, Colour.R), idRR),
                par_all(idB, idR, _ITE), _ITE))
    yield _fixed("E2", "a certainly-true guard takes the then branch",
                 seq(par(_g(GenKind.FLIP, Fraction(1)), idRR), _ITE),
                 par(idR, _DEL_R))
    yield _fixed("E2z", "a certainly-false guard takes the else branch",
                 seq(par(_g(GenKind.FLIP, Fraction(0)), idRR), _ITE),
                 par(_DEL_R, idR))
    # ite(a, ite(b,x1,x2), ite(b,x3,x4)) = ite(b, ite(a,x1,x3), ite(a,x2,x4))
    word7 = bools(3) + reals(4)
    lhs3 = seq_all(par_all(identity(B), _COPY_B, identity(reals(4))),
                   permute_term(word7, (0, 1, 4, 2, 3, 5, 6)),
                   par_all(identity(B), _ITE, _ITE), _ITE)
    rhs3 = seq_all(par_all(_COPY_B, identity(B), identity(reals(4))),
                   permute_term(word7, (1, 4, 0, 2, 5, 3, 6)),
                   par_all(identity(B), _ITE, _ITE), _ITE)
    yield _fixed("E3", "conditionals commute when their guards are swapped",
                 lhs3, rhs3)
    yield _fixed("E6", "negating the guard swaps the branches",
                 seq(par(_g(GenKind.NOT), idRR), _ITE),
                 seq(par(idB, swap(Colour.R, Colour.R)), _ITE))
    yield _fixed("E7", "a conjunctive guard unfolds to nested conditionals",
                 seq(par(_g(GenKind.AND), idRR), _ITE),
                 seq_all(par_all(idB, idB, idR, _COPY_R),
                         par_all(idB, _ITE, idR), _ITE))
    yield _fixed("E8", "equal branches make the conditional trivial",
                 seq(par(idB, _COPY_R), _ITE), par(_DEL_B, idR))
    yield _fixed("E9", "conditionals are discardable",
                 seq(_ITE, _DEL_R), par_all(_DEL_B, _DEL_R, _DEL_R))


def _build_e4(binding):
    c, d = binding["c"], binding["d"]
    m = len(c.dom) - 1
    n = len(c.cod)
    share_noise = seq(_g(GenKind.STD_NORMAL), _COPY_R)
    lhs_front = par_all(identity(B), share_noise, copy_bundle(reals(m)))
    # [b, z1, z2, y, y'] -> [b, z1, y, z2, y']
    word = B + reals(2 + 2 * m)
    dest = [0, 1, m + 2] + [2 + i for i in range(m)] + \
           [m + 3 + i for i in range(m)]
    lhs = seq_all(lhs_front, permute_term(word, tuple(dest)),
                  par_all(identity(B), c, d), ite_n(n))
    own = lambda t: seq(par(_g(GenKind.STD_NORMAL), identity(reals(m))), t)
    rhs = seq_all(par(identity(B), copy_bundle(reals(m))),
                  par_all(identity(B), own(c), own(d)), ite_n(n))
    return lhs, rhs


def _check_all_real(axiom, binding, names):
    for name in names:
        t = binding[name]
        if t.dom.n_bool or t.cod.n_bool:
            raise InadmissibleBinding(
                f"{axiom}: {name} must have all-real boundaries, got "
                f"{t.dom} -> {t.cod}", constraint="no-boolean-boundary")


def _validate_e4(binding):
    c, d = binding["c"], binding["d"]
    _check_all_real("E4", binding, "cd")
    if len(c.dom) < 1:
        raise InadmissibleBinding("E4: c needs the shared noise input",
                                  constraint="noise-input")
    if c.dom != d.dom or c.cod != d.cod:
        raise InadmissibleBinding("E4: c and d need equal boundaries",
                                  constraint="equal-boundaries")


def _sample_e4(sampler: TermSampler):
    m = sampler.rng.randint(0, 2)
    n = sampler.rng.randint(0, 2)
    dom, cod = reals(1 + m), reals(n)
    return {"c": sampler.term(dom, cod), "d": sampler.term(dom, cod)}


def _build_e5(binding):
    c = binding["c"]
    m, n = len(c.dom), len(c.cod)
    lhs = seq(par_all(identity(B), c, c), ite_n(n))
    rhs = seq(ite_n(m), c)
    return lhs, rhs


def _sample_e5(sampler: TermSampler):
    m = sampler.rng.randint(0, 2)
    n = sampler.rng.randint(0, 2)
    return {"c": sampler.term(reals(m), reals(n))}


def _build_e10(binding):
    p, q = binding["p"], binding["q"]
    pt, qt = e10_weights(p, q)
    lhs = seq(par(mix_gate(p), identity(R)), mix_gate(q))
    rhs = seq(par(identity(R), mix_gate(qt)), mix_gate(pt))
    return lhs, rhs


def _smc_schemas():
    def sample_chain(sampler, count):
        words = [sampler.word() for _ in range(count + 1)]
        return [sampler.term(words[i], words[i + 1]) for i in range(count)]

    yield AxiomSchema(
        "SMC-seq-assoc", "sequential composition is associative",
        circuit_vars=("c", "d", "e"),
        build=lambda b: (seq(seq(b["c"], b["d"]), b["e"]),
                         seq(b["c"], seq(b["d"], b["e"]))),
        sample=lambda s: dict(zip("cde", sample_chain(s, 3))),
        validate=_validate_chain("c", "d", "e"))
    yield AxiomSchema(
        "SMC-seq-unit-l", "identities are left units",
        circuit_vars=("c",),
        build=lambda b: (seq(identity(b["c"].dom), b["c"]), b["c"]),
        sample=lambda s: {"c": s.closed_term()})
    yield AxiomSchema(
        "SMC-seq-unit-r", "identities are right units",
        circuit_vars=("c",),
        build=lambda b: (seq(b["c"], identity(b["c"].cod)), b["c"]),
        sample=lambda s: {"c": s.closed_term()})
    yield AxiomSchema(
        "SMC-par-assoc", "the monoidal product is associative",
        circuit_vars=("c", "d", "e"),
        build=lambda b: (par(par(b["c"], b["d"]), b["e"]),
                         par(b["c"], par(b["d"], b["e"]))),
        sample=lambda s: {v: s.closed_term(max_len=2) for v in "cde"})
    yield AxiomSchema(
        "SMC-par-unit-l", "the empty word is a left unit",
        circuit_vars=("c",),
        build=lambda b: (par(identity(EMPTY), b["c"]), b["c"]),
        sample=lambda s: {"c": s.closed_term()})
    yield AxiomSchema(
        "SMC-par-unit-r", "the empty word is a right unit",
        circuit_vars=("c",),
        build=lambda b: (par(b["c"], identity(EMPTY)), b["c"]),
        sample=lambda s: {"c": s.closed_term()})
    yield AxiomSchema(
        "SMC-interchange", "sequential and parallel composition interchange",
        circuit_vars=("c1", "c2", "d1", "d2"),
        build=lambda b: (seq(par(b["c1"], b["c2"]), par(b["d1"], b["d2"])),
                         par(seq(b["c1"], b["d1"]), seq(b["c2"], b["d2"]))),
        sample=_sample_interchange,
        validate=_validate_interchange)
    yield AxiomSchema(
        "SMC-swap-nat", "wire crossings are natural in single-wire maps",
        circuit_vars=("c",), scalar_vars=(),
        build=_build_swap_nat, sample=_sample_swap_nat,
        validate=_validate_swap_nat)
    yield AxiomSchema(
        "SMC-swap-invol", "crossing twice is the identity",
        build=_build_swap_invol, sample=_sample_swap_invol)


def _validate_chain(*names):
    def check(binding):
        for first, second in zip(names, names[1:]):
            if binding[first].cod != binding[second].dom:
                raise InadmissibleBinding(
                    f"chain breaks between {first} and {second}",
                    constraint="composable-chain")
    return check


def _sample_interchange(sampler: TermSampler):
    u1, v1, w1 = (sampler.word(max_len=2) for _ in range(3))
    u2, v2, w2 = (sampler.word(max_len=2) for _ in range(3))
    return {"c1": sampler.term(u1, v1), "d1": sampler.term(v1, w1),
            "c2": sampler.term(u2, v2), "d2": sampler.term(v2, w2)}


def _validate_interchange(binding):
    if binding["c1"].cod != binding["d1"].dom or \
            binding["c2"].cod != binding["d2"].dom:
        raise InadmissibleBinding("interchange needs composable columns",
                                  constraint="composable-columns")


def _build_swap_nat(binding):
    c = binding["c"]
    k = binding["k"]
    a, b = c.dom.colours[0], c.cod.colours[0]
    lhs = seq(par(identity(TypeWord((k,))), c), swap(k, b))
    rhs = seq(swap(k, a), par(c, identity(TypeWord((k,)))))
    return lhs, rhs


def _validate_swap_nat(binding):
    c = binding["c"]
    if len(c.dom) != 1 or len(c.cod) != 1:
        raise InadmissibleBinding(
            "swap naturality is stated for single-wire circuits",
            constraint="single-wire")
    if not isinstance(binding.get("k"), Colour):
        raise InadmissibleBinding("k must be a colour", constraint="colour")


def _sample_swap_nat(sampler: TermSampler):
    rng = sampler.rng
    colours = sampler.colours
    a, b, k = (rng.choice(colours) for _ in range(3))
    return {"c": sampler.term(TypeWord((a,)), TypeWord((b,))), "k": k}


def _build_swap_invol(binding):
    a, b = binding["a"], binding["b"]
    return (seq(swap(a, b), swap(b, a)), identity(TypeWord((a, b))))


def _sample_swap_invol(sampler: TermSampler):
    rng = sampler.rng
    return {"a": rng.choice(sampler.colours), "b": rng.choice(sampler.colours)}


def _catalog() -> dict:
    schemas = []
    schemas.extend(_copy_laws(Colour.R, _COPY_R, _DEL_R))
    schemas.extend(_copy_laws(Colour.B, _COPY_B, _DEL_B))
    schemas.extend(_copyable_schemas())
    schemas.extend(_discard_schemas())
    schemas.extend(_ite_schemas())
    schemas.append(AxiomSchema(
        "E4", "branches may share one Gaussian sample or draw their own "
              "(scheme over circuits with no Boolean boundary)",
        circuit_vars=("c", "d"), build=_build_e4, sample=_sample_e4,
        validate=_validate_e4))
    schemas.append(AxiomSchema(
        "E5", "if-then-else is natural: select inputs, then apply, or apply "
              "twice and select outputs (scheme over all-real circuits)",
        circuit_vars=("c",), build=_build_e5, sample=_sample_e5,
        validate=lambda b: _check_all_real("E5", b, "c")))
    schemas.append(AxiomSchema(
        "E10", "skew-associativity of convex sums; p~ = pq, q~ = q(1-p)/(1-pq)",
        scalar_vars=(("p", "bias"), ("q", "bias")),
        build=_build_e10,
        sample=lambda s: {"p": s.bias(), "q": s.bias()},
        validate=lambda b: e10_weights(b["p"], b["q"])))
    schemas.extend(_smc_schemas())
    return {s.name: s for s in schemas}


CATALOG = _catalog()
CORE_NAMES = tuple(name for name in CATALOG if not name.startswith("SMC-"))
SMC_NAMES = tuple(name for name in CATALOG if name.startswith("SMC-"))


def get_axiom(name: str) -> AxiomSchema:
    try:
        return CATALOG[name]
    except KeyError:
        raise InadmissibleBinding(f"unknown axiom {name!r}",
                                  constraint="axiom-name") from None


@dataclass
class Failure:
    binding: str
    deviation: float
    lhs_semantics: dict = None
    rhs_semantics: dict = None


@dataclass
class SoundnessReport:
    axiom: str
    trials: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _trial_seed(seed: int, name: str, index: int) -> int:
    return (seed & 0xFFFFFFFF) ^ zlib.crc32(f"{name}:{index}".encode())


def _dump_binding(binding: dict) -> str:
    parts = []
    for key in sorted(binding):
        value = binding[key]
        if isinstance(value, (Fraction, int, float)):
            parts.append(f"{key}={format_scalar(value)}")
        elif isinstance(value, Colour):
            parts.append(f"{key}={value.value}")
        else:
            parts.append(f"{key}=({print_term(value)})")
    return ", ".join(parts)


def sample_binding(schema: AxiomSchema, rng: random.Random) -> dict:
    """Draw bindings from `rng` until one passes `check_binding`; the one
    retry loop for every schema and mutant."""
    sampler = TermSampler(rng)
    for _ in range(64):
        binding = schema.sample(sampler)
        try:
            check_binding(schema, binding)
            return binding
        except InadmissibleBinding:
            continue
    raise InadmissibleBinding(f"{schema.name}: could not sample a binding",
                              constraint="sampling")


def check_soundness(schema: AxiomSchema, trials: int, seed: int,
                    tol: float = DEFAULT_TOLERANCE,
                    cap: int = DEFAULT_BOOL_CAP,
                    backend: str = "auto") -> SoundnessReport:
    """Randomized semantic check: eval both sides of `trials` instances.

    Failures are data, not errors.
    """
    report = SoundnessReport(schema.name, trials)
    for index in range(trials):
        rng = random.Random(_trial_seed(seed, schema.name, index))
        binding = sample_binding(schema, rng)
        lhs, rhs = schema.build(binding)
        left = evaluate(lhs, cap=cap, tol=tol, backend=backend)
        right = evaluate(rhs, cap=cap, tol=tol, backend=backend)
        same_words = (left.dom_word, left.cod_word) == \
            (right.dom_word, right.cod_word)
        if not same_words or not mixtures_equal(left, right, tol):
            report.failures.append(
                Failure(_dump_binding(binding),
                        max_deviation(left, right, tol)
                        if same_words else float("inf"),
                        mixture_to_json(left), mixture_to_json(right)))
    return report


def soundness_suite(trials: int, seed: int, names=None,
                    tol: float = DEFAULT_TOLERANCE,
                    cap: int = DEFAULT_BOOL_CAP, backend: str = "auto") -> list:
    picked = names if names is not None else list(CATALOG)
    return [check_soundness(get_axiom(name), trials, seed, tol, cap,
                            backend=backend)
            for name in picked]


# --- documented mutants: each breaks its schema so the harness must notice ---

def _mutant_scale_output(schema: AxiomSchema):
    """Scale the right-hand side's first output wire if it is real, or
    negate it if it is Boolean; `validate` requires that wire."""
    def build(binding):
        lhs, rhs = schema.build(binding)
        first, *rest = rhs.cod
        change = _g(GenKind.SCALAR, Fraction(2)) if first is Colour.R \
            else _g(GenKind.NOT)
        keep = (identity(TypeWord((colour,))) for colour in rest)
        return lhs, seq(rhs, par_all(change, *keep))

    def validate(binding):
        if schema.validate is not None:
            schema.validate(binding)
        if not schema.build(binding)[1].cod:
            raise InadmissibleBinding("mutant needs an output wire",
                                      constraint="output-wire")

    return AxiomSchema(schema.name + "-mutant",
                       "rhs postcomposed with a non-identity on one output",
                       schema.scalar_vars, schema.circuit_vars,
                       build=build, sample=schema.sample, validate=validate)


def _mutant_fixed(schema, summary, build):
    return AxiomSchema(schema.name + "-mutant", summary, schema.scalar_vars,
                       schema.circuit_vars, build=build, sample=schema.sample,
                       validate=schema.validate)


def mutant_of(name: str) -> AxiomSchema:
    """A deliberately unsound variant of the named schema.

    Discard-style axioms relate terms into the unit object, where every
    kernel is equal; their mutants drop the final discard so that the two
    sides become observable again.
    """
    schema = get_axiom(name)
    dropped_discard = {
        "D1-zero": lambda b: (_g(GenKind.ZERO), _g(GenKind.ONE)),
        "D1-one": lambda b: (_g(GenKind.ONE), _g(GenKind.ZERO)),
        "D1-stdnormal": lambda b: (_g(GenKind.STD_NORMAL), _g(GenKind.ZERO)),
        "D1-add": lambda b: (_g(GenKind.ADD),
                             seq(par(_DEL_R, _DEL_R), _g(GenKind.ZERO))),
        "D1-scal": lambda b: (_g(GenKind.SCALAR, b["k"]),
                              seq(_DEL_R, _g(GenKind.ZERO))),
        "D2-and": lambda b: (_g(GenKind.AND),
                             seq(par(_DEL_B, _DEL_B),
                                 _g(GenKind.FLIP, Fraction(1, 2)))),
        "D2-not": lambda b: (_g(GenKind.NOT),
                             seq(_DEL_B, _g(GenKind.FLIP, Fraction(1, 2)))),
        "D2-flip": lambda b: (_g(GenKind.FLIP, b["p"]),
                              _g(GenKind.FLIP, (1 + b["p"]) / 2)),
        "E9": lambda b: (_ITE,
                         seq(par_all(_DEL_B, _DEL_R, _DEL_R),
                             _g(GenKind.ZERO))),
    }
    if name in dropped_discard:
        return _mutant_fixed(schema, "final discard dropped, sides exposed",
                             dropped_discard[name])
    if name == "C1-zero":
        # scaling a zero output is invisible, so disturb one copy instead
        return _mutant_fixed(
            schema, "one copy of the duplicated constant replaced by one",
            lambda b: (seq(_g(GenKind.ZERO), _COPY_R),
                       par(_g(GenKind.ONE), _g(GenKind.ZERO))))
    if name == "E10":
        def bad_weights(binding):
            p, q = binding["p"], binding["q"]
            pt, _qt = e10_weights(p, q)
            lhs = seq(par(mix_gate(p), identity(R)), mix_gate(q))
            rhs = seq(par(identity(R), mix_gate(q)), mix_gate(pt))
            return lhs, rhs
        return _mutant_fixed(schema, "reassociated weights keep q~ := q",
                             bad_weights)
    return _mutant_scale_output(schema)


# --- single-step rewriting ------------------------------------------------

def _descend(term: Term, path) -> tuple:
    """The subterm at `path`, and the (node, child index) steps above it."""
    above = []
    for step, k in enumerate(path):
        if not isinstance(term, (Seq, Par)):
            raise InvalidPath(f"no child {k} below {tuple(path[:step])}")
        if k not in (0, 1):
            raise InvalidPath(f"child index {k} out of range at {tuple(path[:step])}")
        above.append((term, k))
        term = children(term)[k]
    return term, above


def subterm_at(term: Term, path) -> Term:
    return _descend(term, path)[0]


def replace_at(term: Term, path, new: Term) -> Term:
    for node, k in reversed(_descend(term, path)[1]):
        a, b = children(node)
        new = type(node)(new, b) if k == 0 else type(node)(a, new)
    return new


def assoc_normal(t: Term) -> Term:
    """Right-associate every Seq and Par chain, at every depth."""
    # A subterm's value is (node type, operands of its top chain), each
    # operand already normal; a chain is built where it ends.
    def join(s, a, b):
        return type(s), _operands(a, type(s)) + _operands(b, type(s))

    return _build_chain(fold(t, lambda s: (None, (s,)), join, join))


def _operands(value, node_type) -> tuple:
    kind, items = value
    return items if kind is node_type else (_build_chain(value),)


def _build_chain(value) -> Term:
    kind, items = value
    out = items[-1]
    for item in reversed(items[:-1]):
        out = kind(item, out)
    return out


def _first_mismatch(a: Term, b: Term):
    """Path of the first differing node in pre-order, or None."""
    todo = [(a, b, ())]
    while todo:
        x, y, path = todo.pop()
        if type(x) is not type(y):
            return path
        if isinstance(x, (Seq, Par)):
            (x0, x1), (y0, y1) = children(x), children(y)
            todo += ((x1, y1, path + (1,)), (x0, y0, path + (0,)))
        elif x != y:
            return path
    return None


def rewrite_at(term: Term, path, schema: AxiomSchema, direction: str,
               binding: Optional[dict] = None, tol: float = DEFAULT_TOLERANCE,
               cap: int = DEFAULT_BOOL_CAP) -> Term:
    """Replace the subterm at `path` by the other side of an axiom instance.

    Matching is structural modulo associativity of Seq and Par only;
    `direction` is 'L2R' or 'R2L'.  The replaced subterm and its replacement
    are evaluated and compared (skipped above the input cap).
    """
    if direction not in ("L2R", "R2L"):
        raise ValueError("direction must be 'L2R' or 'R2L'")
    lhs, rhs = instantiate(schema, binding or {})
    src, dst = (lhs, rhs) if direction == "L2R" else (rhs, lhs)
    target = subterm_at(term, path)
    mismatch = _first_mismatch(assoc_normal(target), assoc_normal(src))
    if mismatch is not None:
        raise NoMatch(
            f"{schema.name} {direction}: subterm does not match at "
            f"position {mismatch}", position=mismatch)
    out = replace_at(term, tuple(path), dst)
    if target.dom.n_bool <= cap:
        if not mixtures_equal(evaluate(target, cap=cap, tol=tol),
                              evaluate(dst, cap=cap, tol=tol), tol):
            raise AssertionError(
                f"{schema.name}: rewrite changed the semantics")
    return out
