"""The four benchmark workloads: seeded inputs, one timed operation, oracles.

Every workload generates its inputs from the seed during set-up, exposes the
operations of one run as `ops` (in seeded order; runs cycle through them),
times only `run(op)`, and checks each result with `check(op, result)` against
a reference that does not come from the code path being timed.  Position i
of a run executes `ops[i % len(ops)]`.  `finish(done)` runs the checks that
need a whole run (pooled Monte Carlo statistics, the pinned certificate
digest) over positions 0..done-1 and returns the positions that failed.

Library functions are always looked up through their module at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import numpy as np

from cgm import axioms, diagram, dsl, gadgets, normalform, semantics
from cgm.errors import InadmissibleBinding
from cgm.linalg import Matrix
from cgm.randcircuit import TermSampler
from tracer import gate_count

TOL = 1e-9


def shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# --- axiom-suite -------------------------------------------------------------

class AxiomSuite:
    """Criterion-1 corpus: 43 schemas x 100 trials on both backends, plus
    mutant instances.  One op evaluates both sides and compares them.

    Why: thousands of small, wiring-heavy terms; time goes to generator
    interpretation, wiring compose/tensor, canonicalize and comparison.
    """

    name = "axiom-suite"
    trials = 100
    mutant_trials = 3
    tail_pct = 99.0
    trace_ops = 2000

    def __init__(self, seed: int):
        sound = []
        for name in axioms.CATALOG:
            schema = axioms.get_axiom(name)
            for index in range(self.trials):
                rng = random.Random(axioms._trial_seed(seed, name, index))
                binding = axioms.sample_binding(schema, rng)
                lhs, rhs = axioms.instantiate(schema, binding)
                sound.append((name, lhs, rhs, True))
        mutants = []
        for name in axioms.CATALOG:
            mutant = axioms.mutant_of(name)
            for index in range(self.mutant_trials):
                rng = random.Random(axioms._trial_seed(seed, mutant.name, index))
                try:
                    binding = axioms.sample_binding(mutant, rng)
                    lhs, rhs = mutant.build(binding)
                except InadmissibleBinding:
                    continue
                # Reference verdict from the certificate procedure, a
                # different comparison than the timed one: a mutant whose
                # change is invisible (a scaled output that is always 0)
                # is not a mutant of the semantics and is left out.
                same, _ = normalform.decide_equiv(lhs, rhs)
                if not same:
                    mutants.append((mutant.name, lhs, rhs, False))
        self.ops = shuffled([(name, lhs, rhs, expected, backend)
                             for name, lhs, rhs, expected in sound + mutants
                             for backend in ("auto", "float")], seed)
        self.size = (f"{len(sound)} sound + {len(mutants)} mutant instance "
                     f"pairs x 2 backends = {len(self.ops)} ops")

    def run(self, op):
        _name, lhs, rhs, _expected, backend = op
        left = semantics.evaluate(lhs, tol=TOL, backend=backend)
        right = semantics.evaluate(rhs, tol=TOL, backend=backend)
        if (left.dom_word, left.cod_word) != (right.dom_word, right.cod_word):
            return False
        return semantics.mixtures_equal(left, right, TOL)

    def check(self, op, verdict) -> bool:
        return verdict is op[3]

    def finish(self, done: int) -> set:
        return set()


# --- nf-roundtrip ------------------------------------------------------------

def criterion6_circuits(rng: random.Random, count: int, slot=None) -> list:
    """Random mixed circuits passing criterion 6's filters: at most 3 bits
    and 3 reals on each side, at most 4 components per row.  A `slot`
    (dom, cod, components) prescribes the boundary words and the total
    number of components of the denotation."""
    sampler = TermSampler(rng, max_word=4, max_depth=4)
    out = []
    while len(out) < count:
        if slot is None:
            term = sampler.closed_term()
        else:
            term = sampler.term(diagram.TypeWord.of(slot[0]),
                                diagram.TypeWord.of(slot[1]))
        if max(term.dom.n_bool, term.dom.n_real,
               term.cod.n_bool, term.cod.n_real) > 3:
            continue
        mix = semantics.evaluate(term)
        if max(len(comps) for _, comps in mix.table) > 4:
            continue
        if slot is not None and \
                sum(len(comps) for _, comps in mix.table) != slot[2]:
            continue
        out.append(term)
    return out


def certificate_digest(trees) -> str:
    digest = hashlib.sha256()
    for tree in trees:
        digest.update(json.dumps(normalform.certificate_json(tree),
                                 sort_keys=True).encode())
    return digest.hexdigest()


class NfRoundtrip:
    """Criterion-6 circuits as .cgm text.  One op: parse, evaluate,
    disintegrate, emit_nf, print_term, parse, decide_equiv with the original.

    Why: the only workload where normalform, gadgets and dsl do most of the
    work; emitted terms carry 2^(p+q) Boolean rows and are about 2.5x larger
    than the input (nf_gate_ratio 2.47 on seed 1).
    The pool is stratified by boundary words (Boolean bits p+q <= 3) and by
    the number of components, which set the emitted circuit's size, so the
    pool's cost does not swing from seed to seed.
    """

    name = "nf-roundtrip"
    # (dom, cod, components of the denotation); per_slot circuits of each.
    slots = (("R", "R", 1), ("RR", "R", 1), ("BR", "R", 2), ("R", "BR", 2),
             ("RR", "BR", 2), ("BR", "BR", 2), ("BR", "BR", 4),
             ("BRR", "BR", 4), ("BR", "BRR", 4), ("BRR", "BRR", 4),
             ("BBR", "BR", 4), ("BBR", "BR", 8), ("BR", "BBR", 4))
    per_slot = 12
    # The first circuits of criterion 6 (seed 2026 + 6); every run checks
    # their certificates against this digest of the seed commit's output.
    anchor_seed = 2032
    anchors = 6
    anchor_digest = ("a0f71b0fa50b099234f21293f849a116"
                     "80bdc2828beb20d33c2d93f0aba3f694")
    tail_pct = 95.0
    trace_ops = 160

    def __init__(self, seed: int):
        rng = random.Random(seed)
        by_slot = [criterion6_circuits(rng, self.per_slot, slot)
                   for slot in self.slots]
        # One circuit of every slot in turn, so that any stretch of ops, such
        # as the part of a pass a run ends in, has the same mix.
        pool = [circuits[i] for i in range(self.per_slot)
                for circuits in by_slot]
        anchors = criterion6_circuits(random.Random(self.anchor_seed),
                                      self.anchors)
        texts = [dsl.print_term(t) for t in anchors + pool]
        self.ops = [(i if i < self.anchors else None, text)
                    for i, text in enumerate(texts)]
        self.anchor_certificates = {}
        self.gates = [0, 0]     # input, emitted; counted outside the timing
        self.size = (f"{self.anchors} anchor + {len(pool)} seeded circuits "
                     f"({len(self.slots)} slots of words and components)")

    def run(self, op):
        term = dsl.parse(op[1])
        tree = normalform.disintegrate(semantics.evaluate(term))
        emitted = normalform.emit_nf(tree)
        back = dsl.parse(dsl.print_term(emitted))
        verdict, (nf1, nf2) = normalform.decide_equiv(term, back)
        return verdict, nf1, nf2, term, emitted

    def check(self, op, result) -> bool:
        verdict, nf1, nf2, term, emitted = result
        self.gates[0] += gate_count(term)
        self.gates[1] += gate_count(emitted)
        if op[0] is not None:
            self.anchor_certificates.setdefault(op[0], nf1)
        return verdict is True and nf1 == nf2

    def finish(self, done: int) -> set:
        """Fail the anchor ops when their certificates drift from the pin."""
        anchor_ops = set(range(min(done, self.anchors)))
        if len(self.anchor_certificates) < self.anchors:
            return anchor_ops
        got = certificate_digest(self.anchor_certificates[i]
                                 for i in range(self.anchors))
        return set() if got == self.anchor_digest else anchor_ops


# --- dense-mixture -----------------------------------------------------------

def frac_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def frac_transpose(a):
    return [list(col) for col in zip(*a)]


def frac_rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                k = rows[r][col] / rows[rank][col]
                rows[r] = [x - k * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class DenseTerm:
    """Tensor of convex cascades of dense Gaussian maps, then a dense
    invertible linear map.  Keeps its parameters for the closed form."""

    def __init__(self, rng: random.Random, ks, dims, width: int):
        def value():
            return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                            rng.choice((1, 2)))

        def dense(rows, cols):
            return [[value() for _ in range(cols)] for _ in range(rows)]

        self.cascades = []
        for k, (m, n) in zip(ks, dims):
            comps = []
            means = set()
            while len(comps) < k:
                a, b, f = dense(n, m), dense(n, 1), dense(n, width)
                key = tuple(x for row in b for x in row)
                if key in means:
                    continue
                means.add(key)
                comps.append((Fraction(rng.randint(1, 4)), a, b, f))
            total = sum(c[0] for c in comps)
            self.cascades.append((m, n, [(w / total, a, b, f)
                                         for w, a, b, f in comps]))
        size = sum(n for _, n, _ in self.cascades)
        while True:
            self.out_map = dense(size, size)
            if frac_rank(self.out_map) == size:
                break
        self.inputs = sum(m for m, _, _ in self.cascades)
        self.components = 1
        for _, _, comps in self.cascades:
            self.components *= len(comps)
        self.term = diagram.seq(
            diagram.par_all(*(self._cascade(comps)
                              for _, _, comps in self.cascades)),
            gadgets.matrix_circuit(Matrix.from_rows(self.out_map)))

    @staticmethod
    def _cascade(comps):
        def leaf(a, b, f):
            return gadgets.gauss_map_circuit(
                Matrix.from_rows(a, cols=len(a[0])), Matrix.from_rows(b),
                Matrix.from_rows(f))

        def build(rest, remaining):
            w, a, b, f = rest[0]
            if len(rest) == 1:
                return leaf(a, b, f)
            return gadgets.convex_mix(w / remaining, leaf(a, b, f),
                                      build(rest[1:], remaining - w))

        return build(comps, Fraction(1))

    def closed_form(self, x):
        """Exact mean and covariance at input x from the parameters alone."""
        means, covs = [], []
        offset = 0
        for m, n, comps in self.cascades:
            xi = [[v] for v in x[offset:offset + m]]
            offset += m
            centres = [(w, [[p + q] for (p,), (q,) in
                            zip(frac_matmul(a, xi), b)], f)
                       for w, a, b, f in comps]
            mean = [sum((w * c[i][0] for w, c, _ in centres), Fraction(0))
                    for i in range(n)]
            cov = [[Fraction(0)] * n for _ in range(n)]
            for w, c, f in centres:
                gram = frac_matmul(f, frac_transpose(f))
                for i in range(n):
                    for j in range(n):
                        dev = (c[i][0] - mean[i]) * (c[j][0] - mean[j])
                        cov[i][j] += w * (gram[i][j] + dev)
            means.extend(mean)
            covs.append(cov)
        size = len(means)
        block = [[Fraction(0)] * size for _ in range(size)]
        start = 0
        for cov in covs:
            for i, row in enumerate(cov):
                block[start + i][start:start + len(row)] = row
            start += len(cov)
        lmap = self.out_map
        mean = frac_matmul(lmap, [[v] for v in means])
        cov = frac_matmul(frac_matmul(lmap, block), frac_transpose(lmap))
        return (tuple(v for (v,) in mean),
                tuple(v for row in cov for v in row))


class DenseMixture:
    """A few large terms: 64-256 components per row, real dimension 3-4.
    One op: rational evaluate plus moments at a fixed input.

    Why: Fraction matmul, covariance-factor growth and canonicalize sorts
    over hundreds of components dominate; there are few nodes and little
    wiring, so generator or wiring fast paths should show no change here.
    """

    name = "dense-mixture"
    # (terms, components per cascade, (inputs, outputs) per cascade, factor
    # width).  The 256-component terms cost twice the next largest; as 3 of
    # the 13 terms, p85 falls inside their cluster, with at least ten
    # samples beyond it, not on the edge between two clusters.
    shapes = ((2, (4, 4, 4), ((1, 1), (1, 1), (1, 1)), 1),
              (2, (4, 4, 4), ((1, 1), (1, 1), (1, 1)), 2),
              (2, (2, 4, 8), ((1, 1), (1, 1), (1, 1)), 1),
              (2, (4, 4, 8), ((1, 1), (1, 1), (1, 1)), 1),
              (2, (4, 4, 4), ((1, 2), (1, 1), (1, 1)), 1),
              (3, (8, 8, 4), ((1, 1), (1, 1), (1, 1)), 1))
    tail_pct = 85.0
    trace_ops = 52

    def __init__(self, seed: int):
        rng = random.Random(seed)
        terms = [DenseTerm(rng, ks, dims, width)
                 for count, ks, dims, width in self.shapes
                 for _ in range(count)]
        self.ops = []
        for term in shuffled(terms, seed):
            x = [Fraction(rng.randint(-4, 4), 2) for _ in range(term.inputs)]
            self.ops.append((term, x, term.closed_form(x)))
        self.size = (f"{len(terms)} terms, "
                     f"{min(t.components for t in terms)}-"
                     f"{max(t.components for t in terms)} components per row")

    def run(self, op):
        term, x, _ = op
        mix = semantics.evaluate(term.term, backend="rational")
        return mix, semantics.moments(mix, (), x)

    def check(self, op, result) -> bool:
        term, _, (mean, cov) = op
        mix, stats = result
        comps = mix.row(())
        return (len(comps) == term.components
                and sum(c.weight for c in comps) == 1
                and stats.mean.entries == mean
                and stats.cov.entries == cov)

    def finish(self, done: int) -> set:
        return set()


# --- monte-carlo -------------------------------------------------------------

class PooledMoments:
    """Running sums of one kernel's draws for criterion 7's 5-SE tests."""

    def __init__(self, stats):
        self.stats = stats
        n = stats.mean.rows
        self.mean = np.array([float(v) for v in stats.mean.entries])
        self.cov = np.array([float(v) for v in stats.cov.entries]).reshape(n, n)
        self.draws = 0
        self.counts = {}
        self.sum = np.zeros(n)
        self.sum_sq = np.zeros(n)
        self.prod = np.zeros((n, n))
        self.prod_sq = np.zeros((n, n))

    def add(self, bools_out, reals_out):
        self.draws += len(bools_out)
        for bits in bools_out:
            self.counts[bits] = self.counts.get(bits, 0) + 1
        if self.mean.size:
            self.sum += reals_out.sum(axis=0)
            self.sum_sq += (reals_out ** 2).sum(axis=0)
            centred = reals_out - self.mean
            self.prod += centred.T @ centred
            self.prod_sq += (centred ** 2).T @ (centred ** 2)

    def passes(self) -> bool:
        n = self.draws
        if not n:
            return True
        for bits, weight in self.stats.bool_marginal:
            p = float(weight)
            se = (max(p * (1 - p), 0.0) / n) ** 0.5
            if abs(self.counts.get(bits, 0) / n - p) > 5 * se + 1e-12:
                return False
        if self.mean.size:
            mean_hat = self.sum / n
            var_hat = np.maximum(self.sum_sq / n - mean_hat ** 2, 0.0)
            se = np.sqrt(var_hat * n / (n - 1) / n)
            if (np.abs(mean_hat - self.mean) > 5 * se + 1e-12).any():
                return False
            prod_hat = self.prod / n
            var_prod = np.maximum(self.prod_sq / n - prod_hat ** 2, 0.0)
            se = np.sqrt(var_prod * n / (n - 1) / n)
            if (np.abs(prod_hat - self.cov) > 5 * se + 1e-12).any():
                return False
        return True


class MonteCarlo:
    """Kernels evaluated at set-up: half criterion-7 random circuits (float
    backend), half dense-mixture kernels; a cycle of ops samples each random
    kernel once and each dense kernel twice.  One op: one seeded sample_many
    at a fixed input point.  The draws of each kernel are pooled over the run
    and must pass criterion 7's five-standard-error tests against moments.

    Why: evaluation writes covariances and sampling reads them; a
    representation change that speeds up evaluate but slows sampling shows
    here and nowhere else.
    """

    name = "monte-carlo"
    random_kernels = 8
    dense_shapes = (((4, 4, 8), ((1, 1), (1, 1), (1, 1)), 2),
                    ((4, 8, 8), ((1, 1), (1, 1), (1, 1)), 1))
    per_dense_shape = 4
    draws = 50_000
    tail_pct = 95.0
    trace_ops = 160

    def __init__(self, seed: int):
        rng = random.Random(seed)
        sampler = TermSampler(rng, max_word=3, max_depth=4)
        kernels = [semantics.evaluate(sampler.closed_term(), backend="float")
                   for _ in range(self.random_kernels)]
        for ks, dims, width in self.dense_shapes:
            for _ in range(self.per_dense_shape):
                dense = DenseTerm(rng, ks, dims, width)
                kernels.append(semantics.evaluate(dense.term, backend="float"))
        self.kernels = []
        for mix in kernels:
            bits = tuple(rng.randint(0, 1) for _ in range(mix.p))
            xs = [rng.randint(-4, 4) / 2 for _ in range(mix.m)]
            self.kernels.append((mix, bits, xs,
                                 PooledMoments(semantics.moments(mix, bits, xs))))
        # Each random kernel once, each dense kernel twice per cycle, so the
        # median op is a dense one instead of falling between the two kinds.
        dense = range(self.random_kernels, len(kernels))
        order = [i for r, d in zip(range(self.random_kernels), dense)
                 for i in (r, d, d)]
        base = seed * 1_000_003
        self.ops = [(k, base + i) for i, k in enumerate(order * 100)]
        comps = [len(m.row(b)) for m, b, _, _ in self.kernels]
        self.size = (f"{len(kernels)} kernels ({max(comps)} components max), "
                     f"{self.draws} draws per op")

    def run(self, op):
        mix, bits, xs, _ = self.kernels[op[0]]
        return semantics.sample_many(mix, bits, xs, self.draws, op[1])

    def check(self, op, result) -> bool:
        mix, _, _, pooled = self.kernels[op[0]]
        bools_out, reals_out = result
        if len(bools_out) != self.draws or reals_out.shape != (self.draws, mix.n):
            return False
        pooled.add(bools_out, reals_out)
        return True

    def finish(self, done: int) -> set:
        bad = {k for k, (_, _, _, pooled) in enumerate(self.kernels)
               if not pooled.passes()}
        return {i for i in range(done) if self.ops[i % len(self.ops)][0] in bad}


WORKLOADS = {w.name: w for w in (AxiomSuite, NfRoundtrip, DenseMixture,
                                 MonteCarlo)}
