"""Independent reference implementations used to cross-check evaluation.

The Boolean oracle enumerates stochastic tables directly and the affine
oracle propagates (A, b, Sigma) with plain matrix algebra, both avoiding
the CGMixture machinery; the reference fold uses the kernel algebra but
none of `evaluate`'s shortcuts.  All three recurse over the raw term
structure.
"""

import itertools

from cgm.diagram import Gen, GenKind, Id, Par, Seq, Swap
from cgm.linalg import Matrix, block_diag, vstack
from cgm.semantics import (DEFAULT_TOLERANCE, canonicalize, compose,
                           identity_kernel, interp_generator, swap_kernel,
                           tensor)


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


def reference_evaluate(t, tol=DEFAULT_TOLERANCE):
    """Kernel of a term by the plain fold: every leaf becomes a kernel and
    every node a general `compose` or `tensor`, with no wiring shortcuts and
    no caches.  Parameters are used as they are (no backend cast)."""
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
            out = tensor(fold(s.top), fold(s.bottom), tol)
        memo[id(s)] = out
        return out

    return fold(t)
