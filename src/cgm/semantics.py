"""Compositional semantics: circuits denote conditional Gaussian mixtures.

A kernel is stored as a table indexed by the Boolean input assignment; each
entry is a list of weighted components carrying a Boolean output vector and
an affine-Gaussian part (A, mu, factored covariance).  Boundary words may
interleave colours arbitrarily: the table always works in the canonical
layout where bits and reals are listed in word order, so kernels on equal
words compare directly.

Composition and monoidal product follow the closed forms for affine maps
(mean ``CAx + Cb + d``, covariance ``C Sigma C^T + Theta``, block diagonals
for the product) with weights multiplying through.  Everything is exact
when every literal is rational.

The kernels `canonicalize`, `compose`, `tensor` and `evaluate` return are
canonical and record whether they are exact.  One builder sorts and merges
the rows of each result, and a result is exact when its operands are, so
only kernels a caller built are scanned for floats.

`evaluate` is a `diagram.fold` over one field, its scalar type `Fraction`
or `float`: each parameter is cast to it and every leaf is built in it, and
`linalg` reads it off the operands from there, so a float kernel holds only
floats.  A component is its weight, Boolean outputs, A, mu and covariance
factor, built directly; `linalg` checks the shapes as it multiplies.
Identities, swaps, copies and discards only move wires: it keeps them, and
any Seq/Par of them, as a `Wiring` (two index maps).  After a kernel it
gathers the kernel's outputs; before one it picks each input row and
multiplies each ``A`` by the wiring's 0/1 real map (cached per wiring and
field), instead of composing with a 0/1 kernel.  The result is the same
canonical kernel.  An identity real map moves only bits: before a kernel
exact or canonical at the caller's tolerance, each row is its row at the
wired bits, components and recorded keys as they are, nothing rebuilt.
Empty operands cost nothing: `linalg` returns the other operand of a
stack, block or sum with an empty one when both are in one field.

The denotation of a Seq or Par depends only on its operands' values, so
within one call `evaluate` builds each distinct operation on the same two
operand values once, keyed by their ids.  Leaf values come from one cache
keyed by value (`_leaf`), so equal leaves are one object, and equal
subterms are too.  `axioms.check_soundness` and `axioms.rewrite_at` share
that memo between the two sides of an instance.  The memo is not kept
from one call to the next.

Sampling is the one exception: the first `sample_many` call on a row of a
kernel builds the row's float arrays, guide table and Boolean outputs and
keeps them on the kernel, which is frozen, so later calls only draw and
gather.  They hold derived data, never draws, and `evaluate`, `==` and
`mixture_to_json` neither build nor read them.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from operator import add, mul, truediv
from typing import NamedTuple

from .diagram import (Colour, GenKind, Generator, Id, Seq, Swap, Term,
                      TypeWord, fold, has_float_literal)
from .errors import (DimensionMismatch, InputCapExceeded, InvalidDrawCount,
                     InvalidSeed, InvalidWeight, NonFiniteParam, TypeMismatch)
from .linalg import (CovFactor, Matrix, Scalar, _finite, block_diag,
                     common_denominator, cov_block, cov_compose, drop_zero_columns,
                     matrix_to_json, quantize_key, scalar_to_json, vstack)

BitVec = tuple

DEFAULT_TOLERANCE = 1e-9
DEFAULT_BOOL_CAP = 12


def all_bitvecs(p: int) -> list:
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=p)]


def bits_to_str(bits: BitVec) -> str:
    return "".join(str(b) for b in bits)


def str_to_bits(text: str) -> BitVec:
    if any(ch not in "01" for ch in text):
        raise ValueError(f"not a bit string: {text!r}")
    return tuple(int(ch) for ch in text)


@dataclass(frozen=True)
class GaussComponent:
    weight: Scalar
    bool_out: BitVec
    lin: Matrix            # n x m
    mean: Matrix           # n x 1
    cov: CovFactor         # n-dimensional

    def gram(self) -> Matrix:
        return self.cov.gram()


@dataclass(frozen=True)
class CGMixture:
    dom_word: TypeWord
    cod_word: TypeWord
    table: tuple   # sorted tuple of (bits, tuple-of-components)

    _canon = None   # a `_Canon` on every kernel `_canonical` builds
    _sampling = None   # {bits: `_SampleRow`} once `sample_many` draws from it

    def __post_init__(self):
        object.__setattr__(self, "_rows", dict(self.table))

    @property
    def p(self) -> int:
        return self.dom_word.n_bool

    @property
    def m(self) -> int:
        return self.dom_word.n_real

    @property
    def q(self) -> int:
        return self.cod_word.n_bool

    @property
    def n(self) -> int:
        return self.cod_word.n_real

    def row(self, bits: BitVec) -> tuple:
        return self._rows[tuple(bits)]


class _Canon(NamedTuple):
    """`keys` order the components of their own row only.  A product's keys
    join its operands' keys, each over its own row's denominator, so they
    need not be the keys a rebuild of the same table gives, and the keys of
    two kernels do not compare."""
    exact: bool     # every scalar is a Fraction
    tol: float      # the tolerance it is canonical at, if not exact
    keys: tuple     # per row of the table, each component's sort key


def _canonical(dom, cod, rows: list, field: type, tol) -> CGMixture:
    """The kernel of sorted ``(bits, [(key, ..., component)])`` rows, recorded."""
    mix = CGMixture(dom, cod, tuple((bits, tuple(item[-1] for item in row))
                                    for bits, row in rows))
    keys = tuple(tuple(item[0] for item in row) for _, row in rows)
    object.__setattr__(mix, "_canon", _Canon(field is Fraction, tol, keys))
    return mix


def _dirac(bool_out: BitVec, lin: Matrix, field: type) -> GaussComponent:
    n = lin.rows
    return GaussComponent(field(1), bool_out, lin, Matrix.zeros(n, 1, field),
                          CovFactor(Matrix.zeros(n, 0, field)))


@dataclass(frozen=True)
class Wiring:
    """A deterministic map that only moves wires.

    Output bit j is input bit ``bits[j]`` and output real j is input real
    ``reals[j]``: a repeated index copies a wire, a missing one discards it.
    """

    dom: TypeWord
    cod: TypeWord
    bits: tuple
    reals: tuple

    @staticmethod
    def identity(word: TypeWord) -> "Wiring":
        return Wiring(word, word, tuple(range(word.n_bool)),
                      tuple(range(word.n_real)))

    @staticmethod
    def swap(first: Colour, second: Colour) -> "Wiring":
        dom = TypeWord((first, second))
        cod = TypeWord((second, first))
        if first is not second:
            # Bits and reals are stored apart: a mixed crossing moves no index.
            return Wiring(dom, cod, (0,), (0,))
        if first is Colour.B:
            return Wiring(dom, cod, (1, 0), ())
        return Wiring(dom, cod, (), (1, 0))

    def then(self, late: "Wiring") -> "Wiring":
        return Wiring(self.dom, late.cod,
                      tuple(self.bits[i] for i in late.bits),
                      tuple(self.reals[i] for i in late.reals))

    def beside(self, bottom: "Wiring") -> "Wiring":
        p, m = self.dom.n_bool, self.dom.n_real
        return Wiring(self.dom + bottom.dom, self.cod + bottom.cod,
                      self.bits + tuple(p + i for i in bottom.bits),
                      self.reals + tuple(m + i for i in bottom.reals))


GENERATOR_WIRINGS = {
    GenKind.BOOL_DISCARD: Wiring(TypeWord.of("B"), TypeWord(), (), ()),
    GenKind.BOOL_COPY: Wiring(TypeWord.of("B"), TypeWord.of("BB"), (0, 0), ()),
    GenKind.REAL_DISCARD: Wiring(TypeWord.of("R"), TypeWord(), (), ()),
    GenKind.REAL_COPY: Wiring(TypeWord.of("R"), TypeWord.of("RR"), (), (0, 0)),
}


@lru_cache(maxsize=4096)
def wiring_kernel(w: Wiring, field: type = Fraction) -> CGMixture:
    """The kernel of a wiring, canonical: one weight-1 Dirac per input row."""
    lin = _real_map(w, field)
    rows = [(bits, (_dirac(tuple(bits[i] for i in w.bits), lin, field),))
            for bits in all_bitvecs(w.dom.n_bool)]
    return _build(w.dom, w.cod, rows, field, DEFAULT_TOLERANCE)


@lru_cache(maxsize=4096)
def _real_map(w: Wiring, field: type) -> Matrix:
    """The 0/1 matrix of the wiring's reals: row j is the unit row ``reals[j]``."""
    return _rows_of(Matrix.identity(w.dom.n_real, field), w.reals)


def interp_generator(gen: Generator, field: type = Fraction) -> CGMixture:
    """The generator's kernel over `field`; its parameter is used as it is."""
    kind, param, one, zero = gen.kind, gen.param, field(1), field(0)
    if kind in GENERATOR_WIRINGS:
        return wiring_kernel(GENERATOR_WIRINGS[kind], field)
    dom, cod = gen.dom, gen.cod
    rows = {}
    empty, line = Matrix.zeros(0, 0, field), Matrix.zeros(1, 0, field)
    if kind is GenKind.FLIP:
        rows[()] = tuple(GaussComponent(w, (b,), empty, Matrix.zeros(0, 1, field),
                                        CovFactor(empty))
                         for w, b in ((param, 1), (one - param, 0)))
    elif kind is GenKind.AND:
        rows = {(a, b): (_dirac((a & b,), empty, field),) for a, b in all_bitvecs(2)}
    elif kind is GenKind.NOT:
        rows = {(b,): (_dirac((1 - b,), empty, field),) for b in (0, 1)}
    elif kind is GenKind.STD_NORMAL:
        rows[()] = (GaussComponent(one, (), line, Matrix.zeros(1, 1, field),
                                   CovFactor(Matrix.identity(1, field))),)
    elif kind is GenKind.ZERO:
        rows[()] = (_dirac((), line, field),)
    elif kind is GenKind.ADD:
        rows[()] = (_dirac((), Matrix(1, 2, (one, one)), field),)
    elif kind is GenKind.SCALAR:
        rows[()] = (_dirac((), Matrix(1, 1, (param,)), field),)
    elif kind is GenKind.ONE:
        rows[()] = (GaussComponent(one, (), line, Matrix(1, 1, (one,)),
                                   CovFactor(line)),)
    elif kind is GenKind.ITE:
        rows[(1,)] = (_dirac((), Matrix(1, 2, (one, zero)), field),)
        rows[(0,)] = (_dirac((), Matrix(1, 2, (zero, one)), field),)
    else:  # pragma: no cover
        raise AssertionError(kind)
    return CGMixture(dom, cod, tuple(sorted(rows.items())))


def identity_kernel(word: TypeWord) -> CGMixture:
    return wiring_kernel(Wiring.identity(word))


def swap_kernel(first: Colour, second: Colour) -> CGMixture:
    return wiring_kernel(Wiring.swap(first, second))


def mixture_is_exact(mix: CGMixture) -> bool:
    """Whether the kernel is rational: its record, or a scan if it has none."""
    if mix._canon is not None:
        return mix._canon.exact
    return all(isinstance(c.weight, Fraction) and c.lin.exact and c.mean.exact
               and c.cov.factor.exact for _, comps in mix.table for c in comps)


def _field(*mixes: CGMixture) -> type:
    return Fraction if all(mixture_is_exact(m) for m in mixes) else float


def _sort_keys(comps: list, grams: list, exact: bool) -> list:
    """Each component's sort key: outputs, A, mu and the Gram matrix.  Exact,
    every matrix of the row is numerators over one denominator, so keys
    order (and are equal) as the values do, compared as integers; otherwise
    each is its entries' `quantize_key`s."""
    if exact and len(comps) == 1:   # nothing to order: its own numerators
        (c,), (g,) = comps, grams
        return [(c.bool_out, c.lin.nums, c.mean.nums, g.nums)]
    mats = [m for c, g in zip(comps, grams) for m in (c.lin, c.mean, g)]
    fields = common_denominator(mats)[1] if exact else \
        [tuple(map(quantize_key, m.entries)) for m in mats]
    return [(c.bool_out, *fields[3 * i:3 * i + 3]) for i, c in enumerate(comps)]


_ENDED = ((), ("ended",), ())


def _differences(left, right, eps):
    """(where, x, y) for each place where two flattened objects differ.

    A flattened object is a sequence of ``(where, key, scalars)`` blocks;
    keys are tuples, scalars are numbers.  Unequal keys are a structural
    mismatch (a side that ends first has the key ``("ended",)``), yielded
    as ``(where, key, key)``; it ends the walk.  Otherwise each pair of
    scalars that is neither equal nor within `eps` (a NaN is neither) is
    yielded with its index appended to `where`.  Scalars come as a tuple or
    as a `Matrix`, whose entries are read only when it is unequal.
    """
    for (wx, kx, xs), (wy, ky, ys) in itertools.zip_longest(
            left, right, fillvalue=_ENDED):
        if kx != ky:
            yield wx or wy, kx, ky
            return
        if xs != ys:
            for i, (x, y) in enumerate(zip(getattr(xs, "entries", xs),
                                           getattr(ys, "entries", ys))):
                if not (x == y or abs(x - y) <= eps):
                    yield wx + (i,), x, y


def _component_blocks(where, weight, lin, mean, cov) -> tuple:
    """The blocks of one component: weight, A, mu and the Gram matrix cov."""
    return ((where + ("weight",), (), (weight,)),
            (where + ("A",), (lin.rows, lin.cols), lin),
            (where + ("mu",), (mean.rows, mean.cols), mean),
            (where + ("cov",), (cov.rows, cov.cols), cov))


def _mixture_blocks(mix: CGMixture):
    """Each row's Boolean outputs, then its components."""
    for bits, comps in mix.table:
        yield (bits,), (bits, tuple(c.bool_out for c in comps)), ()
        for idx, c in enumerate(comps):
            yield from _component_blocks((bits, idx), c.weight, c.lin,
                                         c.mean, c.gram())


def _params_close(a: GaussComponent, ga: Matrix, b: GaussComponent,
                  gb: Matrix, tol) -> bool:
    # Everything but the weight, which merging adds up.
    return a.bool_out == b.bool_out and not any(_differences(
        _component_blocks((), 0, a.lin, a.mean, ga),
        _component_blocks((), 0, b.lin, b.mean, gb), tol))


def _build(dom, cod, rows, field: type, tol) -> CGMixture:
    """The canonical kernel of ``(bits, components)`` rows, recorded: zero
    weights dropped, equal components merged, sorted by key.  Callers read
    `field` from their operands' records; the rows are not scanned."""
    exact = field is Fraction
    out = []
    for bits, comps in rows:
        comps = [c for c in comps if c.weight != 0]
        grams = [c.gram() for c in comps]
        keys = _sort_keys(comps, grams, exact)
        keyed = sorted(zip(keys, grams, comps), key=lambda item: item[0])
        merged = []
        for key, g, c in keyed:
            # An exact key holds every parameter but the weight.
            if merged and (merged[-1][0] == key if exact else _params_close(
                    merged[-1][2], merged[-1][1], c, g, tol)):
                key, prev_g, prev = merged[-1]
                merged[-1] = (key, prev_g, replace(prev, weight=prev.weight + c.weight))
            else:
                merged.append((key, g, c))
        out.append((bits, merged))
    out.sort(key=lambda row: row[0])
    return _canonical(dom, cod, out, field, tol)


def _is_canonical(mix: CGMixture, tol) -> bool:
    """Whether `mix` was built canonical: exact, or at `tol`."""
    canon = mix._canon
    return canon is not None and (canon.exact or canon.tol == tol)


def canonicalize(mix: CGMixture, tol: float = DEFAULT_TOLERANCE) -> CGMixture:
    """Drop zero weights, merge equal components, sort by the canonical key.

    Idempotent; exact mixtures merge and sort on exact keys, anything with
    a float uses tolerance-quantized keys so the order is reproducible.
    A kernel that `canonicalize`, `compose`, `tensor` or `evaluate`
    returned comes back unchanged: at any tolerance when it is exact, at its
    own tolerance otherwise.
    """
    if _is_canonical(mix, tol):
        return mix
    return _build(mix.dom_word, mix.cod_word, mix.table, _field(mix), tol)


def compose(f: CGMixture, g: CGMixture, tol: float = DEFAULT_TOLERANCE) -> CGMixture:
    """Sequential composition of kernels; result is canonical."""
    if f.cod_word != g.dom_word:
        raise TypeMismatch(
            f"compose: {f.cod_word} does not match {g.dom_word}",
            expected=f.cod_word, actual=g.dom_word)
    rows = []
    for bits, comps in f.table:
        out = []
        for ci in comps:
            for cj in g.row(ci.bool_out):
                out.append(GaussComponent(ci.weight * cj.weight, cj.bool_out,
                                          cj.lin @ ci.lin,
                                          cj.lin @ ci.mean + cj.mean,
                                          cov_compose(cj.lin, ci.cov, cj.cov)))
        rows.append((bits, out))
    return _build(f.dom_word, g.cod_word, rows, _field(f, g), tol)


def tensor(f: CGMixture, g: CGMixture, tol: float = DEFAULT_TOLERANCE) -> CGMixture:
    """Monoidal product of kernels; result is canonical.

    The product of canonical kernels is block diagonal: its components stay
    distinct, and each key field (outputs, A, mu, Gram matrix) orders like
    the factors' fields concatenated.  So no Gram matrix, no merge pass."""
    f, g = canonicalize(f, tol), canonicalize(g, tol)
    field = _field(f, g)
    rows = []
    for (bits_f, comps_f), keys_f in zip(f.table, f._canon.keys):
        for (bits_g, comps_g), keys_g in zip(g.table, g._canon.keys):
            out = [(tuple(map(add, ki, kj)), GaussComponent(
                       w, ci.bool_out + cj.bool_out, block_diag(ci.lin, cj.lin),
                       vstack(ci.mean, cj.mean), cov_block(ci.cov, cj.cov)))
                   for ci, ki in zip(comps_f, keys_f)
                   for cj, kj in zip(comps_g, keys_g)
                   if (w := ci.weight * cj.weight) != 0]   # 0: a float underflow
            out.sort(key=lambda item: item[0])
            rows.append((bits_f + bits_g, out))
    dom, cod = f.dom_word + g.dom_word, f.cod_word + g.cod_word
    # Exact components closer than tol merge in a float product.
    if field is float and any(k._canon.exact and any(
            len(cs) > 1 for _, cs in k.table) for k in (f, g)):
        return _build(dom, cod, [(bits, [c for _, c in out])
                                 for bits, out in rows], field, tol)
    return _canonical(dom, cod, rows, field, tol)


def _rows_of(mat: Matrix, picks: tuple) -> Matrix:
    cols, nums = mat.cols, mat.nums
    return Matrix.over(len(picks), cols, (
        x for i in picks for x in nums[i * cols:(i + 1) * cols]), mat.den)


def _kernel_then_wiring(f: CGMixture, w: Wiring, tol) -> CGMixture:
    """``f ; w``: each component's outputs gathered through the wiring."""
    rows = [(bits, [GaussComponent(
                c.weight, tuple(c.bool_out[i] for i in w.bits),
                _rows_of(c.lin, w.reals), _rows_of(c.mean, w.reals),
                CovFactor(drop_zero_columns(_rows_of(c.cov.factor, w.reals))))
                for c in comps])
            for bits, comps in f.table]
    # A discard can make two components equal, so merge again.
    return _build(f.dom_word, w.cod, rows, _field(f), tol)


def _wiring_then_kernel(w: Wiring, g: CGMixture, tol) -> CGMixture:
    """``w ; g``: the row at the wired bits, each ``A`` times the real map."""
    field = _field(g)
    picks = [(bits, tuple(bits[i] for i in w.bits))
             for bits in all_bitvecs(w.dom.n_bool)]
    if w.reals == tuple(range(w.dom.n_real)) and _is_canonical(g, tol):
        keyed = {bits: tuple(zip(keys, comps))
                 for (bits, comps), keys in zip(g.table, g._canon.keys)}
        return _canonical(w.dom, g.cod_word, [(bits, keyed[src])
                                              for bits, src in picks], field, tol)
    real_map = _real_map(w, field)
    rows = [(bits, [GaussComponent(c.weight, c.bool_out, c.lin @ real_map,
                                   c.mean, c.cov) for c in g.row(src)])
            for bits, src in picks]
    return _build(w.dom, g.cod_word, rows, field, tol)


def _as_kernel(k, field: type) -> CGMixture:
    return wiring_kernel(k, field) if isinstance(k, Wiring) else k


@lru_cache(maxsize=4096)
def _leaf(field, tol, t: Term):
    """The value of a leaf over `field`: a `Wiring` for an identity, swap,
    copy or discard, else the generator's canonical kernel, its parameter
    cast to `field`.  The one cache of leaf values: keyed by value, so
    equal leaves are one object, which `_evaluate`'s memo relies on."""
    if isinstance(t, Id):
        return Wiring.identity(t.word)
    if isinstance(t, Swap):
        return Wiring.swap(t.first, t.second)
    gen = t.generator
    wiring = GENERATOR_WIRINGS.get(gen.kind)
    if wiring is not None:
        return wiring
    if gen.param is not None and type(gen.param) is not field:
        gen = Generator(gen.kind, field(gen.param))
    mix = interp_generator(gen, field)
    return _build(mix.dom_word, mix.cod_word, mix.table, field, tol)


def _seq(tol, f, g):
    if isinstance(f, Wiring):
        return f.then(g) if isinstance(g, Wiring) else _wiring_then_kernel(f, g, tol)
    if isinstance(g, Wiring):
        return _kernel_then_wiring(f, g, tol)
    return compose(f, g, tol)


def _par(field, tol, f, g):
    if isinstance(f, Wiring) and isinstance(g, Wiring):
        return f.beside(g)
    return tensor(_as_kernel(f, field), _as_kernel(g, field), tol)


_FIELDS = {"auto": Fraction, "rational": Fraction, "float": float}


def evaluate(term: Term, cap: int = DEFAULT_BOOL_CAP,
             tol: float = DEFAULT_TOLERANCE, backend: str = "auto") -> CGMixture:
    """Denotation of a term, canonical.

    Backends: 'auto' evaluates exactly unless some literal is a float, in
    which case the whole evaluation is demoted to floats; 'rational' and
    'float' force one side.  The backend is a field, `Fraction` or
    `float`: each parameter is cast to it as its generator is interpreted,
    and every leaf is built from its 0 and 1; the term itself is not
    rebuilt.

    Each distinct Seq or Par of the same two operand values is built once
    per call, also where the term repeats a subterm without sharing it (a
    printed and re-parsed term, say); nothing is kept between calls.
    """
    return _evaluate(term, cap, tol, backend, {})


def _evaluate(term: Term, cap: int, tol: float, backend: str,
              built: dict) -> CGMixture:
    """`evaluate`, building each ``(field, node type, left value, right
    value)`` once per `built`, a memo keyed by the operands' ids.  Equal
    leaves are one object (`_leaf`, the one cache of leaf values, is keyed
    by value), so by induction equal subterms get one value.  Each
    entry holds its operands, so no id in a key is reused while `built`
    lives, even when a cache evicts a leaf between two calls.  A hit is the
    kernel a miss would build: `_seq` and `_par` read only their operands.
    Calls that share `built` pass the same `tol`."""
    if backend not in _FIELDS:
        raise ValueError(f"unknown backend {backend!r}")
    field = _FIELDS[backend]
    if backend == "auto" and has_float_literal(term):
        field = float
    if term.dom.n_bool > cap:
        raise InputCapExceeded(
            f"{term.dom.n_bool} Boolean inputs exceed the cap of {cap}")

    def node(t, f, g):
        key = (field, type(t), id(f), id(g))
        hit = built.get(key)
        if hit is None:
            out = _seq(tol, f, g) if type(t) is Seq else _par(field, tol, f, g)
            hit = built[key] = (f, g, out)
        return hit[2]

    return _as_kernel(fold(term, partial(_leaf, field, tol), node, node), field)


def _mixture_differences(m1: CGMixture, m2: CGMixture, tol, eps=None):
    if m1.dom_word != m2.dom_word or m1.cod_word != m2.cod_word:
        raise TypeMismatch("mixtures on different boundary words",
                           expected=(m1.dom_word, m1.cod_word),
                           actual=(m2.dom_word, m2.cod_word))
    c1 = canonicalize(m1, tol)
    c2 = canonicalize(m2, tol)
    if eps is None:
        eps = 0 if c1._canon.exact and c2._canon.exact else tol
    return _differences(_mixture_blocks(c1), _mixture_blocks(c2), eps)


def mixtures_equal(m1: CGMixture, m2: CGMixture,
                   tol: float = DEFAULT_TOLERANCE) -> bool:
    """Equality of denotations via canonical forms."""
    return not any(_mixture_differences(m1, m2, tol))


def max_deviation(m1: CGMixture, m2: CGMixture,
                  tol: float = DEFAULT_TOLERANCE) -> float:
    """Largest parameter gap between the canonical forms; inf when their
    structure differs or a NaN meets any value, TypeMismatch when their
    boundary words differ."""
    worst = 0.0
    for _, x, y in _mixture_differences(m1, m2, tol, eps=0):
        if isinstance(x, tuple) or x != x or y != y:
            return float("inf")
        worst = max(worst, abs(float(x) - float(y)))
    return worst


@dataclass(frozen=True)
class Moments:
    bool_marginal: tuple   # sorted ((bits, weight), ...)
    mean: Matrix           # n x 1
    cov: Matrix            # n x n


def _input_point(mix: CGMixture, bits: BitVec, xs):
    """The table row at `bits` and the input point `xs` as a column;
    `NonFiniteParam` if an entry is infinite or NaN."""
    x = xs if isinstance(xs, Matrix) else Matrix.column(xs)
    if (x.rows, x.cols) != (mix.m, 1):
        raise DimensionMismatch(f"input is {x.rows}x{x.cols}, kernel wants {mix.m}x1")
    if not x.exact and not all(map(math.isfinite, x.nums)):
        bad = next(v for v in x.nums if not math.isfinite(v))
        raise NonFiniteParam(f"input point has entry {bad}, which is not finite")
    if len(bits) != mix.p or any(b not in (0, 1) for b in bits):
        raise DimensionMismatch(f"bits {bits!r}: kernel wants {mix.p} bits of 0 or 1")
    return mix.row(tuple(bits)), x


def moments(mix: CGMixture, bits: BitVec = (), xs=()) -> Moments:
    """Exact Boolean marginal and real mean/covariance at one input point.

    By the law of total variance the covariance is ``sum w F F^T`` with
    ``F = [L | C - mean]``, each component's factor L beside its centre's
    deviation.  The weights, the input point, and every component's A, mu
    and L are each put over one common denominator (all over 1, as floats,
    unless every one is rational), so the centres, the mean and those sums
    are integer arithmetic, with one reduction per output matrix.  A float
    mean or covariance entry that leaves the float range raises
    `NonFiniteResult`.
    """
    comps, x = _input_point(mix, bits, xs)
    n, m = mix.n, mix.m
    parts = ([Matrix(1, len(comps), [c.weight for c in comps])], [x],
             [c.lin for c in comps], [c.mean for c in comps],
             [c.cov.factor for c in comps])
    exact = all(mat.exact for part in parts for mat in part)
    over = [(den, [v for vs in nums for v in vs])
            for den, nums in map(common_denominator, parts)] if exact else \
        [(1, [v for mat in part for v in mat.floats()]) for part in parts]
    (d_w, ws), (d_x, xn), (d_a, an), (d_m, mn), (d_l, ln) = over
    marg = {}
    for c, w in zip(comps, ws):
        marg[c.bool_out] = marg.get(c.bool_out, 0) + w
    # Centres over d_c = d_a d_x d_m, one list over the components per row;
    # d_w d_c (C - mean) is the integer d_w C - sum w C.
    d_c, shift = d_a * d_x * d_m, d_a * d_x
    centres = [[d_m * sum(map(mul, an[(ci * n + i) * m:(ci * n + i + 1) * m], xn))
                + shift * mn[ci * n + i] for ci in range(len(comps))]
               for i in range(n)]
    sums = [sum(map(mul, ws, row)) for row in centres]
    # Row i of every F end to end, all over d_w d_c d_l, and weighted.
    rows, weighted = [[] for _ in range(n)], [[] for _ in range(n)]
    start, scale = 0, d_w * d_c
    for ci, (c, w) in enumerate(zip(comps, ws)):
        k = c.cov.factor.cols
        for i in range(n):
            row = [scale * v for v in ln[start + i * k:start + (i + 1) * k]]
            row.append(d_l * (d_w * centres[i][ci] - sums[i]))
            rows[i] += row
            weighted[i] += [w * v for v in row]
        start += n * k
    den = d_w * (scale * d_l) ** 2
    upper = {(i, j): sum(map(mul, weighted[i], rows[j]))
             for i in range(n) for j in range(i, n)}
    cov = [upper[min(i, j), max(i, j)] for i in range(n) for j in range(n)]
    marginal = tuple(sorted((b, (Fraction if exact else truediv)(w, d_w))
                            for b, w in marg.items()))
    if exact:
        return Moments(marginal, Matrix.over(n, 1, sums, scale),
                       Matrix.over(n, n, cov, den))
    return Moments(marginal, Matrix.over(n, 1, _finite(v / scale for v in sums), None),
                   Matrix.over(n, n, _finite(v / den for v in cov), None))


def _guide_table(weights) -> tuple:
    """The guide table `_pick_components` draws by `weights` from:
    ``(scaled, start, cells)``.

    Component i is picked for a uniform u below its cdf point and at or past
    the one before, as in NumPy's ``Generator.choice``.  The table (Chen and
    Asau, 1974) splits [0, 1) into `cells`, a power of two at least 4 times
    the number of components, and `start` holds for each cell the first
    component whose cdf point lies past the cell's left edge.  Scaling by a
    power of two is exact, so ``u * cells`` and `scaled`, the cdf times
    `cells`, compare as u and the cdf do.  A cell holding more than one cdf
    point starts at the sentinel `size`, where `scaled` ends in an infinity.
    ``cdf[-1]`` is exactly 1.

    Raises `NonFiniteParam` for a NaN or infinite weight and
    `InvalidWeight` for a negative weight or a total that is zero or
    overflows.
    """
    import numpy as np
    finite = np.isfinite(weights)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteParam(f"component {i} has weight {weights[i]}, "
                             "which is not finite")
    negative = weights < 0
    if negative.any():
        i = int(np.argmax(negative))
        raise InvalidWeight(f"component {i} has negative weight {weights[i]}")
    total = weights.sum()
    if not 0 < total < np.inf:
        raise InvalidWeight(f"the weights sum to {total}, "
                            "not to a positive finite total")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    size = len(cdf)
    cells = 1 << (4 * size - 1).bit_length()
    scaled = cdf * cells
    guide = scaled.searchsorted(np.arange(cells + 1), side="right")
    start = guide[:-1]
    start[np.diff(guide) > 1] = size
    return np.append(scaled, np.inf), start, cells


def _pick_components(rng, table: tuple, count: int):
    """`count` component indices drawn through the `_guide_table` of
    `weights`: NumPy's ``Generator.choice(len(weights), size=count,
    p=weights / weights.sum())`` bit for bit, from the same `count`
    uniforms of `rng`.

    A draw in a cell holding at most one cdf point is settled by one
    comparison; a crowded cell's draws (at most 1/8 of them in expectation,
    as at most size / 2 cells are crowded) go to one `searchsorted`.
    ``u < 1``, so no draw passes the last component of positive weight.
    """
    import numpy as np
    scaled, start, cells = table
    size = len(scaled) - 1
    x = rng.random(count)
    x *= cells
    idx = start.take(x.astype(np.intp))
    idx += scaled.take(idx) <= x
    crowded = np.flatnonzero(idx == size)
    idx[crowded] = scaled.searchsorted(x[crowded], side="right")
    return idx


class _SampleRow(NamedTuple):
    """One table row's arrays for `sample_many` (`_sample_row`)."""
    table: tuple     # its `_guide_table`
    lin: object      # (size, n, m) floats
    mu: object       # (size, n) floats
    factors: tuple   # per output coordinate, a contiguous (size, k) array
    width: int       # k, the standard normals each draw takes
    outs: object     # the Boolean outputs, an object array
    out: tuple | None   # the one Boolean output of every component, if so


def _sample_row(mix: CGMixture, bits: BitVec, comps: tuple) -> _SampleRow:
    """The arrays `sample_many` draws from row `bits`, built on its first
    call and kept on the kernel, which is frozen; a row whose weights raise
    keeps nothing."""
    row = (mix._sampling or {}).get(bits)
    if row is not None:
        return row
    import numpy as np
    n, m, size = mix.n, mix.m, len(comps)
    table = _guide_table(np.array([c.weight for c in comps], dtype=float))
    lin = np.array([c.lin.floats() for c in comps], dtype=float).reshape(size, n, m)
    mu = np.array([c.mean.floats() for c in comps], dtype=float).reshape(size, n)
    width = max(c.cov.factor.cols for c in comps)
    fac = np.zeros((size, n, width))
    for ci, c in enumerate(comps):
        k = c.cov.factor.cols
        fac[ci, :, :k] = np.array(c.cov.factor.floats(), dtype=float).reshape(n, k)
    if width > n:
        fac = np.linalg.qr(fac.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)
    factors = tuple(np.ascontiguousarray(fac[:, i]) for i in range(n))
    outs = np.fromiter((c.bool_out for c in comps), dtype=object, count=size)
    shared = {c.bool_out for c in comps}
    row = _SampleRow(table, lin, mu, factors, fac.shape[2], outs,
                     shared.pop() if len(shared) == 1 else None)
    if mix._sampling is None:
        object.__setattr__(mix, "_sampling", {})
    mix._sampling[bits] = row
    return row


def sample_many(mix: CGMixture, bits: BitVec, xs, count: int, seed: int):
    """`count` seeded draws; returns (list of Boolean outputs, (count, n) array).

    A draw picks a component by weight and returns ``A x + mu + F z`` with
    ``F F^T = Sigma``.  Factors wider than n are replaced by the n x n
    ``R^T`` of a QR decomposition of ``F^T``, so every draw takes at most n
    standard normals.  The draws are a deterministic function of the seed.
    Components are picked through a guide table (`_guide_table`), which
    gives NumPy's ``Generator.choice`` indices from the same uniforms.

    The row's float arrays (`Matrix.floats`), its guide table, one
    contiguous (size, k) factor array per output coordinate and its outputs
    are built on the first call and kept on the kernel (`_sample_row`), so a
    call draws, computes the centres at `xs` and gathers by index; the draws
    are those of a fresh build.

    Raises `InvalidDrawCount` for a count and `InvalidSeed` for a seed that
    is not a non-negative integer, `NonFiniteParam` for a NaN or infinite
    weight in the row, `InvalidWeight` for a negative weight or a total that
    is zero or overflows, and `NonFiniteResult` if a centre or a draw leaves
    the float range.  NumPy is imported here, so only sampling loads it.
    """
    import numpy as np
    comps, x = _input_point(mix, bits, xs)
    if not isinstance(count, numbers.Integral) or count < 0:
        raise InvalidDrawCount(f"cannot draw {count!r} samples: the count must be "
                               "a non-negative integer")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidSeed(f"cannot seed the sampler with {seed!r}: the seed must be "
                          "a non-negative integer")
    row = _sample_row(mix, tuple(bits), comps)
    rng = np.random.default_rng(seed)
    idx = _pick_components(rng, row.table, count)
    z = rng.standard_normal((count, row.width))
    with np.errstate(over="ignore", invalid="ignore"):
        centres = row.lin @ np.array(x.floats(), dtype=float) + row.mu
        reals_out = np.take(centres, idx, axis=0)
        for i, fac in enumerate(row.factors):
            reals_out[:, i] += np.einsum("dk,dk->d", fac.take(idx, axis=0), z)
    for values in (centres, reals_out):
        if not np.isfinite(values).all():
            _finite(values.flat)   # raises, naming the first bad entry
    if row.out is not None:
        return [row.out] * count, reals_out
    return np.take(row.outs, idx).tolist(), reals_out


def sample(mix: CGMixture, bits: BitVec, xs, seed: int):
    """One seeded draw: (Boolean output vector, real output vector)."""
    bools_out, reals_out = sample_many(mix, bits, xs, 1, seed)
    return bools_out[0], reals_out[0]


def mixture_to_json(mix: CGMixture) -> dict:
    table = []
    for bits, comps in mix.table:
        table.append({
            "input": bits_to_str(bits),
            "components": [{
                "weight": scalar_to_json(c.weight),
                "boolOut": bits_to_str(c.bool_out),
                "A": matrix_to_json(c.lin),
                "mu": matrix_to_json(c.mean),
                "cov": matrix_to_json(c.gram()),
            } for c in comps],
        })
    return {"inWord": str(mix.dom_word), "outWord": str(mix.cod_word),
            "table": table}


def with_sorted_words(mix: CGMixture) -> CGMixture:
    """The same kernel on Boolean-first boundary words.

    Moving every B wire in front of the R wires (preserving the relative
    order within each colour) does not touch the table: bits and reals are
    already stored separately in word order.
    """
    from .diagram import bools, reals
    dom = bools(mix.p) + reals(mix.m)
    cod = bools(mix.q) + reals(mix.n)
    return CGMixture(dom, cod, mix.table)

