"""Derived circuits: wire permutations, fanout copies, thick conditionals,
and the standard encodings of matrices and Gaussians as circuits.

Bracketing conventions are fixed once and for all: combs associate to the
right, guard order follows wire order (leftmost guard is tested first), and
the true branch always comes first.  Builders are cached, so repeated
gadgets are shared subterms and evaluation memoization kicks in.  Every
guard dispatch, `thick_ite`'s and `normalform`'s, is one `_guard_tree`.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import (B, EMPTY, Colour, GenKind, Id, Term, TypeWord, bools,
                      identity, mk_generator, par, par_all, reals, seq,
                      seq_all, swap)
from .errors import DimensionMismatch
from .linalg import Matrix, hstack


def seq_trim(*terms: Term) -> Term:
    """Sequential composition that drops identity stages."""
    kept = [t for t in terms if not isinstance(t, Id)]
    if not kept:
        return terms[0]
    return seq_all(*kept)


def par_trim(*terms: Term) -> Term:
    """Parallel composition that fuses neighbouring identity wires."""
    parts = []
    for t in terms:
        if isinstance(t, Id) and parts and isinstance(parts[-1], Id):
            parts[-1] = identity(parts[-1].word + t.word)
        elif isinstance(t, Id) and len(t.word) == 0:
            continue
        else:
            parts.append(t)
    if not parts:
        return identity(EMPTY)
    if len(parts) == 1:
        return parts[0]
    return par_all(*parts)


@lru_cache(maxsize=None)
def permute_term(word: TypeWord, dest: tuple) -> Term:
    """Wiring that sends input position i to output position dest[i].

    Built as layers of disjoint adjacent crossings (a bubble-sort network),
    which makes the result a deterministic function of (word, dest).
    """
    n = len(word)
    if sorted(dest) != list(range(n)):
        raise ValueError(f"not a permutation of {n} wires: {dest}")
    cur = list(range(n))
    layers = []
    while True:
        # One left-to-right scan decides and emits the layer's crossings,
        # and one `Id` per run of untouched wires; the crossings are
        # disjoint, so each decision sees wires not yet moved.
        parts, run, k = [], [], 0
        while k < n:
            if k < n - 1 and dest[cur[k]] > dest[cur[k + 1]]:
                parts += [identity(TypeWord(tuple(run))),
                          swap(word[cur[k]], word[cur[k + 1]])]
                run = []
                cur[k], cur[k + 1] = cur[k + 1], cur[k]
                k += 2
            else:
                run.append(word[cur[k]])
                k += 1
        layers.append(par_trim(*parts, identity(TypeWord(tuple(run)))))
        if isinstance(layers[-1], Id):      # no crossing left: sorted
            return seq_trim(*layers)


# nary_copy(c, k), add_n(k) and ite_n(k) by k: each is built in a loop on
# the one below and shares it, so no builder recurses once per wire.
# `setdefault` keeps the first build of a width if two calls race.
_FANOUTS = {Colour.B: {0: mk_generator(GenKind.BOOL_DISCARD), 1: identity(B)},
            Colour.R: {0: mk_generator(GenKind.REAL_DISCARD), 1: identity(reals(1))}}
_SUMS = {0: mk_generator(GenKind.ZERO), 1: identity(reals(1))}
_ITES = {0: mk_generator(GenKind.BOOL_DISCARD), 1: mk_generator(GenKind.ITE)}


def nary_copy(colour: Colour, n: int) -> Term:
    """Fanout-n copy of one wire, as a right-associated comb; n = 0 discards."""
    if n < 0:
        raise ValueError("negative fanout")
    built = _FANOUTS[colour]
    copy_kind = GenKind.BOOL_COPY if colour is Colour.B else GenKind.REAL_COPY
    for k in range(len(built), n + 1):
        built.setdefault(k, seq_trim(mk_generator(copy_kind),
                                     par_trim(built[1], built[k - 1])))
    return built[n]


@lru_cache(maxsize=None)
def discard_all(word: TypeWord) -> Term:
    return par_all(*(nary_copy(c, 0) for c in word))


@lru_cache(maxsize=None)
def copy_bundle(word: TypeWord) -> Term:
    """Copy every wire of `word`, then separate: word -> word . word."""
    n = len(word)
    if n == 0:
        return identity(EMPTY)
    copies = par_all(*(nary_copy(c, 2) for c in word))
    doubled = TypeWord(tuple(c for c in word for _ in range(2)))
    dest = []
    for i in range(n):
        dest.extend((i, n + i))
    return seq(copies, permute_term(doubled, tuple(dest)))


def add_n(n: int) -> Term:
    """Sum of n real wires, right-associated; n = 0 is the constant 0."""
    if n < 0:
        raise ValueError("negative arity")
    for k in range(len(_SUMS), n + 1):
        _SUMS.setdefault(k, seq_trim(par_trim(_SUMS[1], _SUMS[k - 1]),
                                     mk_generator(GenKind.ADD)))
    return _SUMS[n]


def ite_n(n: int) -> Term:
    """n if-then-else gates sharing one copied guard: B.R^n.R^n -> R^n."""
    if n < 0:
        raise ValueError("negative width")
    for k in range(len(_ITES), n + 1):
        spread = seq(par(mk_generator(GenKind.BOOL_COPY), identity(reals(2 * k))),
                     permute_term(B + B + reals(2 * k), _ite_split_dest(k)))
        _ITES.setdefault(k, seq(spread, par(mk_generator(GenKind.ITE), _ITES[k - 1])))
    return _ITES[n]


def _ite_split_dest(n: int) -> tuple:
    # [b1 b2 x1..xn y1..yn] -> [b1 x1 y1 b2 x2..xn y2..yn]
    return (0, 3, 1, *range(4, n + 3), 2, *range(n + 3, 2 * n + 2))


def _guard_tree(leaves: list, shared: TypeWord, join: Term) -> Term:
    """B^k . shared -> cod: the leaf of k guard bits, listed true first.

    Built level by level from the leaves: a node passes its guard to `join`
    and copies the guards below it and the `shared` wires into both branches.
    """
    below = 0
    while len(leaves) > 1:
        spread = par(identity(bools(1)), copy_bundle(bools(below) + shared))
        leaves = [seq_all(spread, par_all(identity(bools(1)), yes, no), join)
                  for yes, no in zip(leaves[::2], leaves[1::2])]
        below += 1
    return leaves[0]


@lru_cache(maxsize=None)
def thick_ite(guards: int, payload_width: int) -> Term:
    """Nested conditionals dispatching on `guards` Boolean wires.

    Type B^p . R^(2^p * n) -> R^n: a guard tree whose leaf k, k-th in the
    true-first enumeration of guard vectors, keeps payload block k.
    """
    p, n = guards, payload_width
    if p < 1:
        raise ValueError("need at least one guard")
    blocks = 2 ** p
    leaves = [par_trim(discard_all(reals(k * n)), identity(reals(n)),
                       discard_all(reals((blocks - 1 - k) * n)))
              for k in range(blocks)]
    return _guard_tree(leaves, reals(blocks * n), ite_n(n))


@lru_cache(maxsize=None)
def matrix_circuit(a: Matrix) -> Term:
    """Affine wiring with semantics x |-> Dirac(Ax).

    Inputs are the columns of A, outputs its rows; coefficient 0 means no
    wire, coefficient 1 a plain wire, anything else a scalar gate.
    """
    n, m = a.rows, a.cols
    col_uses = [[i for i in range(n) if a.at(i, j) != 0] for j in range(m)]
    row_uses = [[j for j in range(m) if a.at(i, j) != 0] for i in range(n)]
    fan = par_trim(*(nary_copy(Colour.R, len(us)) for us in col_uses))
    col_major = [(j, i) for j in range(m) for i in col_uses[j]]
    scales = []
    for j, i in col_major:
        coeff = a.at(i, j)
        scales.append(identity(reals(1)) if coeff == 1
                      else mk_generator(GenKind.SCALAR, coeff))
    scale_layer = par_trim(*scales)
    row_major = [(j, i) for i in range(n) for j in row_uses[i]]
    dest = tuple(row_major.index(pos) for pos in col_major)
    route = permute_term(reals(len(col_major)), dest)
    sums = par_trim(*(add_n(len(us)) for us in row_uses))
    return seq_trim(fan, scale_layer, route, sums)


def gaussian_circuit(mu, factor: Matrix) -> Term:
    """Closed circuit with semantics N(mu, factor . factor^T)."""
    mu_col = mu if isinstance(mu, Matrix) else Matrix.column(mu)
    if mu_col.cols != 1 or mu_col.rows != factor.rows:
        raise DimensionMismatch(
            f"mean is {mu_col.rows}x{mu_col.cols}, factor has {factor.rows} rows")
    k = factor.cols
    sources = [mk_generator(GenKind.STD_NORMAL)] * k
    coeffs = factor
    if not mu_col.is_zero():
        sources.append(mk_generator(GenKind.ONE))
        coeffs = hstack(factor, mu_col)
    return seq(par_all(*sources), matrix_circuit(coeffs))


def gauss_map_circuit(a: Matrix, mu, factor: Matrix) -> Term:
    """Open Gaussian map x |-> N(Ax + mu, factor . factor^T) : R^m -> R^n."""
    mu_col = mu if isinstance(mu, Matrix) else Matrix.column(mu)
    if factor.rows != a.rows or mu_col.rows != a.rows:
        raise DimensionMismatch("inconsistent Gaussian map dimensions")
    if factor.cols == 0 and mu_col.is_zero():
        return matrix_circuit(a)
    n, m = a.rows, a.cols
    noise = gaussian_circuit(mu_col, factor)
    if m == 0:
        return noise
    pair = par(matrix_circuit(a), noise)
    dest = tuple(2 * i for i in range(n)) + tuple(2 * i + 1 for i in range(n))
    riffle = permute_term(reals(2 * n), dest)
    adds = par_all(*(mk_generator(GenKind.ADD) for _ in range(n)))
    return seq_trim(pair, riffle, adds)


def _sorted_positions(word: TypeWord) -> tuple:
    return word.bool_positions() + word.real_positions()


def sort_boundary(t: Term) -> Term:
    """Pre/post-compose with crossings so both boundaries read B's first."""
    dom_sorted = _sorted_positions(t.dom)
    cod_sorted = _sorted_positions(t.cod)
    out = t
    if dom_sorted != tuple(range(len(t.dom))):
        sorted_dom = TypeWord(tuple(t.dom[i] for i in dom_sorted))
        pre = permute_term(sorted_dom, dom_sorted)
        out = seq(pre, out)
    if cod_sorted != tuple(range(len(t.cod))):
        dest = tuple(cod_sorted.index(i) for i in range(len(t.cod)))
        post = permute_term(t.cod, dest)
        out = seq(out, post)
    return out


def mix_gate(bias) -> Term:
    """Convex sum of two real wires: bias picks the first one."""
    return seq(par(mk_generator(GenKind.FLIP, bias), identity(reals(2))),
               mk_generator(GenKind.ITE))


def convex_mix(bias, first: Term, second: Term) -> Term:
    """Convex combination of two circuits R^m -> R^n sharing their input."""
    if first.dom != second.dom or first.cod != second.cod:
        raise DimensionMismatch("convex_mix needs equal boundaries")
    m, n = first.dom.n_real, first.cod.n_real
    if len(first.dom) != m or len(first.cod) != n:
        raise DimensionMismatch("convex_mix branches must be all-real")
    body = seq_trim(copy_bundle(reals(m)), par(first, second))
    return seq(par(mk_generator(GenKind.FLIP, bias), body), ite_n(n))
