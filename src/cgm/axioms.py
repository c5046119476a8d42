"""The equational theory as data: axiom schemas, instantiation, a randomized
semantic soundness harness, and single-step rewriting.

Each schema with neither circuit metavariables nor derived weights is an
entry ``name | summary | lhs = rhs`` of `AXIOM_TABLE`, both sides in `.cgm`
syntax as `print_term` prints them (an indented line continues an entry).
A scalar metavariable stands where its parameter goes: ``scal(k)`` for a
real, ``flip(p)`` for a bias.  Sides are parsed once, at import; a
binding's value goes in with `map_params`.  E4, E5, E10 and the SMC laws
are builders.  Some axioms are drawn as pictures in their usual
presentation; each text fixes one orientation (noted in its summary), and
the soundness harness verifies the chosen reading semantically.

A schema's `sample` draws one candidate binding.  `check_binding` refuses
a name the schema does not declare and a value of the wrong sort (a `bool`
is not a scalar), then runs its `validate` for the other constraints.
`sample_binding` is the one loop that redraws until a candidate passes, for
schemas and mutants alike.

Matching for rewrites is structural modulo associativity of the two
composition operations only; the structural laws themselves are schemas in
the catalog and can be applied explicitly.
"""

from __future__ import annotations

import random
import re
import zlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .diagram import (B, Colour, EMPTY, GenKind, Par, R, Seq, Term, TypeWord,
                      children, flip, fold, identity, map_params, mk_generator,
                      par, par_all, reals, seq, seq_all, swap)
from .dsl import parse, print_term
from .errors import InadmissibleBinding, InvalidDrawCount, InvalidPath, NoMatch
from .gadgets import copy_bundle, ite_n, mix_gate, permute_term
from .linalg import format_scalar
from .randcircuit import TermSampler
from .semantics import (DEFAULT_BOOL_CAP, DEFAULT_TOLERANCE, _evaluate,
                        max_deviation, mixtures_equal)

AXIOM_TABLE = """
A1 | co-associativity of real copy | copyR ; id(R) * copyR = copyR ; copyR * id(R)
A2l | left co-unit of real copy | copyR ; delR * id(R) = id(R)
A2r | right co-unit of real copy | copyR ; id(R) * delR = id(R)
A3 | co-commutativity of real copy | copyR ; swap(R,R) = copyR
B1 | co-associativity of bool copy | copyB ; id(B) * copyB = copyB ; copyB * id(B)
B2l | left co-unit of bool copy | copyB ; delB * id(B) = id(B)
B2r | right co-unit of bool copy | copyB ; id(B) * delB = id(B)
B3 | co-commutativity of bool copy | copyB ; swap(B,B) = copyB
C1-zero | zero is copyable | zero ; copyR = zero * zero
C1-add | addition is copyable
    | add ; copyR = copyR * copyR ; id(R) * swap(R,R) * id(R) ; add * add
C1-scal | scalar gates are copyable | scal(k) ; copyR = copyR ; scal(k) * scal(k)
C1-one | the constant one is copyable | one ; copyR = one * one
C2-and | conjunction is copyable
    | and ; copyB = copyB * copyB ; id(B) * swap(B,B) * id(B) ; and * and
C2-not | negation is copyable | not ; copyB = copyB ; not * not
D1-zero | zero is discardable | zero ; delR = id()
D1-add | addition is discardable | add ; delR = delR * delR
D1-scal | scalar gates are discardable | scal(k) ; delR = delR
D1-one | the constant one is discardable | one ; delR = id()
D1-stdnormal | the Gaussian source is discardable | stdnormal ; delR = id()
D2-and | conjunction is discardable | and ; delB = delB * delB
D2-not | negation is discardable | not ; delB = delB
D2-flip | coin flips are discardable | flip(p) ; delB = id()
E1l | retesting a shared guard in the true branch is redundant (encoding fixes
    one orientation of the picture) | copyB * id(RRR) ; id(B) * ite * id(R) ; ite
    = id(B) * id(R) * delR * id(R) ; ite
E1r | retesting a shared guard in the false branch is redundant (encoding fixes
    one orientation of the picture) | id(B) * id(R) * delR * id(R) ; ite
    = copyB * id(RRR) ; id(B) * swap(B,R) * id(RR) ; id(B) * id(R) * ite ; ite
E2 | a certainly-true guard takes the then branch | flip(1) * id(RR) ; ite
    = id(R) * delR
E2z | a certainly-false guard takes the else branch | flip(0) * id(RR) ; ite
    = delR * id(R)
E3 | conditionals commute when their guards are swapped
    | id(B) * copyB * id(RRRR) ; (id(BB) * swap(B,R) * id(RRR)
    ; id(BBR) * swap(B,R) * id(RR)) ; id(B) * ite * ite ; ite
    = copyB * id(B) * id(RRRR) ; (id(B) * swap(B,B) * id(R) * swap(R,R) * id(R)
    ; swap(B,B) * swap(B,R) * id(RRR) ; id(BBR) * swap(B,R) * id(RR))
    ; id(B) * ite * ite ; ite
E6 | negating the guard swaps the branches
    | not * id(RR) ; ite = id(B) * swap(R,R) ; ite
E7 | a conjunctive guard unfolds to nested conditionals | and * id(RR) ; ite
    = id(B) * id(B) * id(R) * copyR ; id(B) * ite * id(R) ; ite
E8 | equal branches make the conditional trivial | id(B) * copyR ; ite = delB * id(R)
E9 | conditionals are discardable | ite ; delR = delB * delR * delR
"""

# Documented mutants.  Discard-style axioms relate terms into the unit,
# where all kernels are equal, so their mutants drop the final discard.
# Scaling C1-zero's zero output is invisible, so one copy is disturbed.
MUTANT_TABLE = """
C1-zero | one copy of the duplicated constant replaced by one
    | zero ; copyR = one * zero
D1-zero | final discard dropped, sides exposed | zero = one
D1-add | final discard dropped, sides exposed | add = delR * delR ; zero
D1-scal | final discard dropped, sides exposed | scal(k) = delR ; zero
D1-one | final discard dropped, sides exposed | one = zero
D1-stdnormal | final discard dropped, sides exposed | stdnormal = zero
D2-and | final discard dropped, sides exposed | and = delB * delB ; flip(1/2)
D2-not | final discard dropped, sides exposed | not = delB ; flip(1/2)
E9 | final discard dropped, sides exposed | ite = delB * delR * delR ; zero
"""

# A scalar metavariable: scal(k) stands for a real, flip(p) for a bias.
_METAVAR = re.compile(r"\b(scal|flip)\(([a-z])\)")


def _entries(table: str):
    """(name, summary, lhs, rhs) of each entry of a table."""
    for entry in re.split(r"\n(?=\S)", table.strip()):
        name, summary, equation = " ".join(entry.split()).split(" | ")
        lhs, rhs = equation.split(" = ")
        yield name, summary, lhs, rhs


def _text_rule(lhs: str, rhs: str):
    """The scalar variables of one entry and its build function.  Each side
    is parsed once with 0 in place of the metavariable; an entry with a
    metavariable has no other parameter, so a binding maps every one."""
    scalars = tuple({v: "bias" if gen == "flip" else "real"
                     for gen, v in _METAVAR.findall(f"{lhs} {rhs}")}.items())
    sides = tuple(parse(_METAVAR.sub(r"\1(0)", side)) for side in (lhs, rhs))
    if not scalars:
        return scalars, lambda _b: sides
    (var, _kind), = scalars
    return scalars, lambda b: tuple(map_params(side, lambda _x: b[var])
                                    for side in sides)


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    summary: str
    scalar_vars: tuple = ()
    circuit_vars: tuple = ()
    colour_vars: tuple = ()
    build: Callable = None
    sample: Callable = None
    validate: Callable = None


def check_binding(schema: AxiomSchema, binding: dict):
    declared = {*schema.circuit_vars, *schema.colour_vars, *dict(schema.scalar_vars)}
    for name in binding:
        if name not in declared:
            raise InadmissibleBinding(f"{schema.name}: no variable {name}",
                                      constraint=f"undeclared:{name}")
    for name, kind in schema.scalar_vars:
        if name not in binding:
            raise InadmissibleBinding(f"{schema.name}: missing scalar {name}",
                                      constraint=f"scalar:{name}")
        value = binding[name]
        if isinstance(value, bool) or \
                not isinstance(value, (Fraction, int, float)):
            raise InadmissibleBinding(f"{schema.name}: {name} is not a scalar",
                                      constraint=f"scalar:{name}")
        if kind == "bias" and not 0 <= value <= 1:
            raise InadmissibleBinding(
                f"{schema.name}: bias {name}={value} not in [0,1]",
                constraint=f"bias:{name}")
    for name in schema.circuit_vars:
        if not isinstance(binding.get(name), Term):     # missing, or not a term
            raise InadmissibleBinding(f"{schema.name}: {name} must be a circuit",
                                      constraint=f"circuit:{name}")
    for name in schema.colour_vars:
        if not isinstance(binding.get(name), Colour):
            raise InadmissibleBinding(f"{name} must be a colour",
                                      constraint="colour")
    if schema.validate is not None:
        schema.validate(binding)


def instantiate(schema: AxiomSchema, binding: dict):
    """Closed, well-typed (lhs, rhs) with equal boundary words."""
    check_binding(schema, binding)
    lhs, rhs = schema.build(binding)
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        raise AssertionError(f"{schema.name}: sides have unequal boundaries")
    return lhs, rhs


def e10_weights(p, q):
    """Reassociation weights: p~ = pq and q~ = q(1-p)/(1-pq)."""
    pt = p * q
    if pt == 1:
        raise InadmissibleBinding("E10 needs pq != 1", constraint="pq!=1")
    qt = q * (1 - p) / (1 - pt)
    return pt, qt


def _draw_scalars(scalar_vars):
    """A sampler of one bias or real per scalar variable, in order."""
    def sample(sampler: TermSampler):
        return {v: (sampler.bias if kind == "bias" else sampler.scalar)()
                for v, kind in scalar_vars}
    return sample


def _build_e4(binding):
    c, d = binding["c"], binding["d"]
    m = len(c.dom) - 1
    n = len(c.cod)
    share_noise = seq(mk_generator("stdnormal"), mk_generator("copyR"))
    lhs_front = par_all(identity(B), share_noise, copy_bundle(reals(m)))
    # [b, z1, z2, y, y'] -> [b, z1, y, z2, y']
    word = B + reals(2 + 2 * m)
    dest = [0, 1, m + 2] + [2 + i for i in range(m)] + \
           [m + 3 + i for i in range(m)]
    lhs = seq_all(lhs_front, permute_term(word, tuple(dest)),
                  par_all(identity(B), c, d), ite_n(n))
    own = lambda t: seq(par(mk_generator("stdnormal"), identity(reals(m))), t)
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


def _e10_sides(p, q, qt):
    """Both sides of E10, reassociated with the weights p~ = pq and `qt`."""
    return (seq(par(mix_gate(p), identity(R)), mix_gate(q)),
            seq(par(identity(R), mix_gate(qt)), mix_gate(p * q)))


def _build_e10(binding):
    p, q = binding["p"], binding["q"]
    return _e10_sides(p, q, e10_weights(p, q)[1])


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
        circuit_vars=("c",), colour_vars=("k",),
        build=_build_swap_nat, sample=_sample_swap_nat,
        validate=_validate_swap_nat)
    yield AxiomSchema(
        "SMC-swap-invol", "crossing twice is the identity",
        colour_vars=("a", "b"),
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
    for name, summary, lhs, rhs in _entries(AXIOM_TABLE):
        scalars, build = _text_rule(lhs, rhs)
        schemas.append(AxiomSchema(name, summary, scalars, build=build,
                                   sample=_draw_scalars(scalars)))
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
        sample=_draw_scalars((("p", "bias"), ("q", "bias"))),
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

    The two sides of an instance share one evaluation memo, so a subterm
    they both hold (a bound metavariable, say) is built once.  Failures
    are data, not errors.
    """
    if trials < 0:
        raise InvalidDrawCount(f"{schema.name}: {trials} trials")
    report = SoundnessReport(schema.name, trials)
    for index in range(trials):
        rng = random.Random(_trial_seed(seed, schema.name, index))
        binding = sample_binding(schema, rng)
        lhs, rhs = schema.build(binding)
        built = {}
        left = _evaluate(lhs, cap, tol, backend, built)
        right = _evaluate(rhs, cap, tol, backend, built)
        same_words = (left.dom_word, left.cod_word) == \
            (right.dom_word, right.cod_word)
        if not same_words or not mixtures_equal(left, right, tol):
            report.failures.append(
                Failure(_dump_binding(binding),
                        max_deviation(left, right, tol)
                        if same_words else float("inf")))
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
        change = mk_generator(GenKind.SCALAR, 2) if first is Colour.R \
            else mk_generator(GenKind.NOT)
        keep = (identity(TypeWord((colour,))) for colour in rest)
        return lhs, seq(rhs, par_all(change, *keep))

    def validate(binding):
        if schema.validate is not None:
            schema.validate(binding)
        if not schema.build(binding)[1].cod:
            raise InadmissibleBinding("mutant needs an output wire",
                                      constraint="output-wire")

    return replace(schema, name=schema.name + "-mutant",
                   summary="rhs postcomposed with a non-identity on one output",
                   build=build, validate=validate)


def _mutant_fixed(schema, summary, build):
    return replace(schema, name=schema.name + "-mutant", summary=summary,
                   build=build)


_TEXT_MUTANTS = {name: _mutant_fixed(get_axiom(name), summary,
                                     _text_rule(lhs, rhs)[1])
                 for name, summary, lhs, rhs in _entries(MUTANT_TABLE)}


def mutant_of(name: str) -> AxiomSchema:
    """A deliberately unsound variant of the named schema: an entry of
    `MUTANT_TABLE`, one of the two below, or the rhs with one output
    disturbed."""
    schema = get_axiom(name)
    if name in _TEXT_MUTANTS:
        return _TEXT_MUTANTS[name]
    if name == "D2-flip":
        return _mutant_fixed(schema, "final discard dropped, sides exposed",
                             lambda b: (flip(b["p"]), flip((1 + b["p"]) / 2)))
    if name == "E10":
        return _mutant_fixed(schema, "reassociated weights keep q~ := q",
                             lambda b: _e10_sides(b["p"], b["q"], b["q"]))
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
    are evaluated through one memo, as in `check_soundness`, and compared
    (skipped above the input cap).
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
        built = {}
        if not mixtures_equal(_evaluate(target, cap, tol, "auto", built),
                              _evaluate(dst, cap, tol, "auto", built), tol):
            raise AssertionError(
                f"{schema.name}: rewrite changed the semantics")
    return out
