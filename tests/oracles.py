"""Independent reference implementations used to cross-check evaluation.

The Boolean oracle enumerates stochastic tables directly and the affine
oracle propagates (A, b, Sigma) with plain matrix algebra, both avoiding
the CGMixture machinery; the reference fold uses the kernel algebra but
none of `evaluate`'s shortcuts, and its own product: the raw block
diagonal followed by `canonicalize`.  All three recurse over the raw term
structure.  The reference comparisons at the end are the four loops that
`mixtures_equal`, `max_deviation`, `nftree_equal` and
`first_certificate_difference` were before they shared one walker.
`reference_matmul` is the entrywise ``Fraction`` loop that ``Matrix.@``
was before exact products moved to integer numerators, and
`reference_product_entries` its scalars before a `Matrix` holds them; the other
``reference_`` matrix operations likewise work on `Fraction` entries and
build their results from scalars.  `reference_build` is the exact sort and
merge of `semantics._build` on `Fraction` keys, as it was before keys held
integer numerators.  `reference_sample_many` is the sampler as it was
before it read float entries directly and gathered each drawn factor once,
and `reference_moments` is `moments` as it was before it summed integer
numerators.  The last helpers are small readers that only tests use.
"""

import itertools
from fractions import Fraction

import numpy as np

from cgm.diagram import Gen, GenKind, Id, Par, Seq, Swap
from cgm.errors import TypeMismatch
from cgm.linalg import Matrix, as_scalar, block_diag, cov_block, vstack
from cgm.normalform import NFTree
from cgm.semantics import (DEFAULT_TOLERANCE, BitVec, CGMixture,
                           GaussComponent, Moments, _input_point, bits_to_str,
                           canonicalize, compose, identity_kernel,
                           interp_generator, mixture_is_exact, swap_kernel)

_ZERO = Fraction(0)


def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """``a @ b`` by entrywise scalar arithmetic, skipping zero factors."""
    return Matrix(a.rows, b.cols, reference_product_entries(a, b))


def reference_product_entries(a: Matrix, b: Matrix) -> list:
    """The scalars of ``a @ b``, row-major, before any `Matrix` holds them: an
    entry with no nonzero term is ``0.0`` when an operand is float and
    ``Fraction(0)`` otherwise, the others Python's own sums of products."""
    n, k, m = a.rows, a.cols, b.cols
    out = [0.0 if a.den is None or b.den is None else Fraction(0)] * (n * m)
    for i in range(n):
        base = i * k
        for t in range(k):
            x = a.entries[base + t]
            if x == 0:
                continue
            ob = t * m
            for j in range(m):
                y = b.entries[ob + j]
                if y != 0:
                    out[i * m + j] += x * y
    return out


def reference_transpose(a: Matrix) -> Matrix:
    return Matrix(a.cols, a.rows, tuple(a.entries[i * a.cols + j]
                                        for j in range(a.cols) for i in range(a.rows)))


def reference_add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def reference_hstack(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols + b.cols,
                  tuple(x for i in range(a.rows) for x in a.row(i) + b.row(i)))


def reference_vstack(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows + b.rows, a.cols, a.entries + b.entries)


def reference_block_diag(a: Matrix, b: Matrix) -> Matrix:
    return reference_vstack(reference_hstack(a, Matrix.zeros(a.rows, b.cols)),
                            reference_hstack(Matrix.zeros(b.rows, a.cols), b))


def reference_rows(a: Matrix, picks) -> Matrix:
    return Matrix(len(picks), a.cols, tuple(x for i in picks for x in a.row(i)))


def reference_drop_zero_columns(a: Matrix) -> Matrix:
    keep = [j for j in range(a.cols) if any(a.at(i, j) for i in range(a.rows))]
    return Matrix(a.rows, len(keep), tuple(a.at(i, j) for i in range(a.rows)
                                           for j in keep))


def reference_build(rows) -> list:
    """The sort and merge of `semantics._build` on an exact kernel's rows
    with keys of `Fraction`s: each component's outputs and the entries of
    A, mu and its Gram matrix, compared as values.  Each row as sorted
    ``(bits, [(weight, outputs, A, mu, Gram entries), ...])``."""
    out = []
    for bits, comps in rows:
        keyed = sorted((((c.bool_out, c.lin.entries, c.mean.entries,
                          c.gram().entries), c) for c in comps if c.weight != 0),
                       key=lambda item: item[0])
        merged = []
        for key, c in keyed:
            if merged and merged[-1][0] == key:
                merged[-1][1] += c.weight
            else:
                merged.append([key, c.weight])
        out.append((bits, [(w, *key) for key, w in merged]))
    return sorted(out, key=lambda row: row[0])


def subterms(t):
    """Depth-first iterator over all subterms, root first."""
    todo = [t]
    while todo:
        s = todo.pop()
        yield s
        if isinstance(s, Seq):
            todo.extend((s.late, s.early))
        elif isinstance(s, Par):
            todo.extend((s.bottom, s.top))


def bool_table_oracle(t):
    """Column-stochastic table of a grey circuit: bits_in -> {bits_out: w}."""
    if isinstance(t, Gen):
        kind, param = t.generator.kind, t.generator.param
        if kind is GenKind.FLIP:
            return {(): {(1,): param, (0,): 1 - param}}
        fixed = {
            GenKind.BOOL_DISCARD: {(0,): {(): 1}, (1,): {(): 1}},
            GenKind.BOOL_COPY: {(b,): {(b, b): 1} for b in (0, 1)},
            GenKind.NOT: {(b,): {(1 - b,): 1} for b in (0, 1)},
            GenKind.AND: {(a, b): {(a & b,): 1}
                          for a in (0, 1) for b in (0, 1)},
        }
        return fixed[kind]
    if isinstance(t, Id):
        bits = list(itertools.product((0, 1), repeat=len(t.word)))
        return {b: {b: 1} for b in bits}
    if isinstance(t, Swap):
        return {(a, b): {(b, a): 1} for a in (0, 1) for b in (0, 1)}
    if isinstance(t, Seq):
        first = bool_table_oracle(t.early)
        second = bool_table_oracle(t.late)
        out = {}
        for bits, row in first.items():
            acc = {}
            for mid, w1 in row.items():
                for final, w2 in second[mid].items():
                    acc[final] = acc.get(final, 0) + w1 * w2
            out[bits] = acc
        return out
    first = bool_table_oracle(t.top)
    second = bool_table_oracle(t.bottom)
    out = {}
    for b1, row1 in first.items():
        for b2, row2 in second.items():
            acc = {}
            for o1, w1 in row1.items():
                for o2, w2 in row2.items():
                    acc[o1 + o2] = acc.get(o1 + o2, 0) + w1 * w2
            out[b1 + b2] = acc
    return out


def affine_oracle(t):
    """(A, b, Sigma) of a black circuit, with Sigma a full matrix."""
    if isinstance(t, Gen):
        kind, param = t.generator.kind, t.generator.param
        z1 = Matrix.zeros(1, 1)
        if kind is GenKind.SCALAR:
            return (Matrix.from_rows([[param]]), Matrix.zeros(1, 1), z1)
        fixed = {
            GenKind.REAL_DISCARD: (Matrix.zeros(0, 1), Matrix.zeros(0, 1),
                                   Matrix.zeros(0, 0)),
            GenKind.REAL_COPY: (Matrix.from_rows([[1], [1]]),
                                Matrix.zeros(2, 1), Matrix.zeros(2, 2)),
            GenKind.ZERO: (Matrix.zeros(1, 0), Matrix.zeros(1, 1), z1),
            GenKind.ADD: (Matrix.from_rows([[1, 1]]), Matrix.zeros(1, 1), z1),
            GenKind.ONE: (Matrix.zeros(1, 0), Matrix.from_rows([[1]]), z1),
            GenKind.STD_NORMAL: (Matrix.zeros(1, 0), Matrix.zeros(1, 1),
                                 Matrix.from_rows([[1]])),
        }
        return fixed[kind]
    if isinstance(t, Id):
        n = len(t.word)
        return (Matrix.identity(n), Matrix.zeros(n, 1), Matrix.zeros(n, n))
    if isinstance(t, Swap):
        return (Matrix.from_rows([[0, 1], [1, 0]]), Matrix.zeros(2, 1),
                Matrix.zeros(2, 2))
    if isinstance(t, Seq):
        a1, b1, s1 = affine_oracle(t.early)
        a2, b2, s2 = affine_oracle(t.late)
        return (a2 @ a1, a2 @ b1 + b2, a2 @ s1 @ a2.transpose() + s2)
    a1, b1, s1 = affine_oracle(t.top)
    a2, b2, s2 = affine_oracle(t.bottom)
    return (block_diag(a1, a2), vstack(b1, b2), block_diag(s1, s2))


def raw_product(f: CGMixture, g: CGMixture) -> CGMixture:
    """Monoidal product before canonicalization: every pair of components
    of every pair of rows, block diagonal, zero weights dropped."""
    rows = {}
    for bits_f, comps_f in f.table:
        for bits_g, comps_g in g.table:
            rows[bits_f + bits_g] = tuple(
                GaussComponent(ci.weight * cj.weight,
                               ci.bool_out + cj.bool_out,
                               block_diag(ci.lin, cj.lin),
                               vstack(ci.mean, cj.mean),
                               cov_block(ci.cov, cj.cov))
                for ci in comps_f for cj in comps_g
                if ci.weight * cj.weight != 0)
    return CGMixture(f.dom_word + g.dom_word, f.cod_word + g.cod_word,
                     tuple(sorted(rows.items())))


def reference_tensor(f, g, tol=DEFAULT_TOLERANCE):
    """Product by raw block diagonal plus a full `canonicalize`."""
    return canonicalize(raw_product(f, g), tol)


def reference_evaluate(t, tol=DEFAULT_TOLERANCE):
    """Kernel of a term by the plain fold: every leaf becomes a kernel and
    every node a general `compose` or `reference_tensor`, with no wiring
    shortcuts and no caches.  Parameters are used as they are (no backend
    cast)."""
    memo = {}

    def fold(s):
        if id(s) in memo:
            return memo[id(s)]
        if isinstance(s, Gen):
            out = canonicalize(interp_generator(s.generator), tol)
        elif isinstance(s, Id):
            out = identity_kernel(s.word)
        elif isinstance(s, Swap):
            out = swap_kernel(s.first, s.second)
        elif isinstance(s, Seq):
            out = compose(fold(s.early), fold(s.late), tol)
        else:
            out = reference_tensor(fold(s.top), fold(s.bottom), tol)
        memo[id(s)] = out
        return out

    return fold(t)


# The four comparison loops as they stood before equality, maximum
# deviation and the first certificate difference were derived from one
# difference walker, kept verbatim (renamed) as references.


def reference_mixtures_equal(m1: CGMixture, m2: CGMixture,
                             tol: float = DEFAULT_TOLERANCE) -> bool:
    """Equality of denotations via canonical forms."""
    if m1.dom_word != m2.dom_word or m1.cod_word != m2.cod_word:
        raise TypeMismatch("mixtures on different boundary words",
                           expected=(m1.dom_word, m1.cod_word),
                           actual=(m2.dom_word, m2.cod_word))
    c1 = canonicalize(m1, tol)
    c2 = canonicalize(m2, tol)
    exact = mixture_is_exact(c1) and mixture_is_exact(c2)
    eps = 0 if exact else tol
    for (b1, comps1), (b2, comps2) in zip(c1.table, c2.table):
        if b1 != b2 or len(comps1) != len(comps2):
            return False
        for a, b in zip(comps1, comps2):
            if a.bool_out != b.bool_out or abs(a.weight - b.weight) > eps:
                return False
            for ma, mb in ((a.lin, b.lin), (a.mean, b.mean),
                           (a.gram(), b.gram())):
                if any(abs(x - y) > eps for x, y in zip(ma.entries, mb.entries)):
                    return False
    return True


def reference_max_deviation(m1: CGMixture, m2: CGMixture,
                            tol: float = DEFAULT_TOLERANCE) -> float:
    """Largest parameter gap between the canonical forms; inf on shape mismatch."""
    c1 = canonicalize(m1, tol)
    c2 = canonicalize(m2, tol)
    worst = 0.0
    for (b1, comps1), (b2, comps2) in zip(c1.table, c2.table):
        if b1 != b2 or len(comps1) != len(comps2):
            return float("inf")
        for a, b in zip(comps1, comps2):
            if a.bool_out != b.bool_out:
                return float("inf")
            worst = max(worst, abs(float(a.weight) - float(b.weight)))
            for ma, mb in ((a.lin, b.lin), (a.mean, b.mean),
                           (a.gram(), b.gram())):
                for x, y in zip(ma.entries, mb.entries):
                    worst = max(worst, abs(float(x) - float(y)))
    return worst


def _reference_scalars_of_tree(tree: NFTree):
    for _, comps in tree.bool_marginal.table:
        for c in comps:
            yield c.weight
    for _, cell in tree.leaves:
        for c in cell:
            yield c.weight
            yield from c.lin.entries
            yield from c.mean.entries
            yield from c.cov.entries


def reference_tree_is_exact(tree: NFTree) -> bool:
    return all(isinstance(x, Fraction) for x in _reference_scalars_of_tree(tree))


def reference_nftree_equal(a: NFTree, b: NFTree,
                           tol: float = DEFAULT_TOLERANCE) -> bool:
    """Structural certificate equality, exact unless floats are involved."""
    if (a.p, a.m, a.q, a.n) != (b.p, b.m, b.q, b.n):
        return False
    eps = 0 if reference_tree_is_exact(a) and reference_tree_is_exact(b) else tol
    for (bits_a, row_a), (bits_b, row_b) in zip(a.bool_marginal.table,
                                                b.bool_marginal.table):
        if bits_a != bits_b or len(row_a) != len(row_b):
            return False
        for ca, cb in zip(row_a, row_b):
            if ca.bool_out != cb.bool_out or abs(ca.weight - cb.weight) > eps:
                return False
    for (key_a, cell_a), (key_b, cell_b) in zip(a.leaves, b.leaves):
        if key_a != key_b or len(cell_a) != len(cell_b):
            return False
        for ca, cb in zip(cell_a, cell_b):
            if abs(ca.weight - cb.weight) > eps:
                return False
            for ma, mb in ((ca.lin, cb.lin), (ca.mean, cb.mean),
                           (ca.cov, cb.cov)):
                if any(abs(x - y) > eps for x, y in zip(ma.entries, mb.entries)):
                    return False
    return True


def reference_first_certificate_difference(a: NFTree, b: NFTree,
                                           tol: float = DEFAULT_TOLERANCE):
    """Human-readable location of the first differing certificate entry."""
    if (a.p, a.m, a.q, a.n) != (b.p, b.m, b.q, b.n):
        return f"shape {(a.p, a.m, a.q, a.n)} vs {(b.p, b.m, b.q, b.n)}"
    eps = 0 if reference_tree_is_exact(a) and reference_tree_is_exact(b) else tol
    for (bits_a, row_a), (_, row_b) in zip(a.bool_marginal.table,
                                           b.bool_marginal.table):
        da = {c.bool_out: c.weight for c in row_a}
        db = {c.bool_out: c.weight for c in row_b}
        if da != db:
            for out in sorted(set(da) | set(db)):
                wa, wb = da.get(out, Fraction(0)), db.get(out, Fraction(0))
                if abs(wa - wb) > eps:
                    return (f"marginal({bits_to_str(out)}|{bits_to_str(bits_a)}): "
                            f"{wa} vs {wb}")
    for (key, cell_a), (_, cell_b) in zip(a.leaves, b.leaves):
        label = f"leaf(a'={bits_to_str(key[0])}, a={bits_to_str(key[1])})"
        if len(cell_a) != len(cell_b):
            return (f"{label}: {len(cell_a)} vs "
                    f"{len(cell_b)} components")
        for idx, (ca, cb) in enumerate(zip(cell_a, cell_b)):
            if abs(ca.weight - cb.weight) > eps:
                return f"{label} component {idx}: weight {ca.weight} vs {cb.weight}"
            for field_name, ma, mb in (("A", ca.lin, cb.lin),
                                       ("mu", ca.mean, cb.mean),
                                       ("cov", ca.cov, cb.cov)):
                if any(abs(x - y) > eps
                       for x, y in zip(ma.entries, mb.entries)):
                    return f"{label} component {idx}: {field_name} differs"
    return None


def _floats(entries) -> list:
    return [x.numerator / x.denominator if type(x) is Fraction else x
            for x in entries]


def reference_sample_many(mix: CGMixture, bits, xs, count: int, seed: int):
    """`sample_many` with each entry converted in Python and each output
    coordinate's factor rows gathered on their own."""
    comps, x = _input_point(mix, bits, xs)
    x, n, m, size = x.entries, mix.n, mix.m, len(comps)
    rng = np.random.default_rng(seed)
    weights = np.array(_floats(c.weight for c in comps))
    idx = rng.choice(size, size=count, p=weights / weights.sum())
    lin = np.array([_floats(c.lin.entries) for c in comps]).reshape(size, n, m)
    mu = np.array([_floats(c.mean.entries) for c in comps]).reshape(size, n)
    width = max(c.cov.factor.cols for c in comps)
    fac = np.zeros((size, n, width))
    for ci, c in enumerate(comps):
        k = c.cov.factor.cols
        fac[ci, :, :k] = np.array(_floats(c.cov.factor.entries)).reshape(n, k)
    if width > n:
        fac = np.linalg.qr(fac.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)
    centres = lin @ np.array(_floats(x)) + mu
    z = rng.standard_normal((count, fac.shape[2]))
    reals_out = centres[idx]
    for i in range(n):
        reals_out[:, i] += np.einsum("dk,dk->d", fac[idx, i, :], z)
    outs = [c.bool_out for c in comps]
    return [outs[i] for i in idx.tolist()], reals_out


def reference_moments(mix: CGMixture, bits: BitVec = (), xs=()) -> Moments:
    """Exact Boolean marginal and real mean/covariance at one input point;
    each centre is computed once, the covariance over its upper half."""
    comps, x = _input_point(mix, bits, xs)
    x, n = x.entries, mix.n
    marg, centres, mean = {}, [], [_ZERO] * n
    for c in comps:
        marg[c.bool_out] = marg.get(c.bool_out, _ZERO) + c.weight
        centre = [sum([a * v for a, v in zip(c.lin.row(i), x) if a and v], _ZERO)
                  + mu for i, mu in enumerate(c.mean.entries)]
        mean = [acc + c.weight * v for acc, v in zip(mean, centre)]
        centres.append(centre)
    cov = [_ZERO] * (n * n)
    for c, centre in zip(comps, centres):
        w, g = c.weight, c.gram().entries
        dev = [v - mu for v, mu in zip(centre, mean)]
        for i, di in enumerate(dev):
            for j in range(i, n):
                dd = di * dev[j] if di and dev[j] else _ZERO
                cov[i * n + j] += w * (g[i * n + j] + dd)
    return Moments(tuple(sorted(marg.items())), Matrix(n, 1, tuple(mean)),
                   Matrix(n, n, tuple(cov[min(i, j) * n + max(i, j)]
                                      for i in range(n) for j in range(n))))


def is_trivial_kernel(mix: CGMixture) -> bool:
    """True for the weight-1 kernel into the unit object."""
    if len(mix.cod_word) != 0:
        return False
    for _, comps in mix.table:
        if len(comps) != 1 or comps[0].weight != 1:
            return False
    return True


def bool_prob(kernel, bits_out, bits_in):
    """The weight of `bits_out` given `bits_in` in a Boolean marginal kernel;
    0 if absent."""
    return next((c.weight for c in kernel.row(bits_in)
                 if c.bool_out == tuple(bits_out)), Fraction(0))


def matrix_from_json(obj: dict) -> Matrix:
    """Inverse of `linalg.matrix_to_json`."""
    def scalar(v):
        if isinstance(v, str):
            num, _, den = v.partition("/")
            return Fraction(int(num), int(den or 1))
        return as_scalar(v)

    return Matrix(obj["rows"], obj["cols"],
                  tuple(scalar(x) for x in obj["entries"]))
