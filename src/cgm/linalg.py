"""Scalar and matrix substrate.

Scalars are either exact rationals (``fractions.Fraction``) or binary
floats; arithmetic between the two promotes to float, which is exactly
Python's own behaviour, so no wrapper type is needed.  A `Field` names one
of the two with its 0 and 1: the constructors that make entries of their
own (zeros, identities, block-diagonal padding, product accumulators) take
it, so a float kernel holds only floats.  Matrices are small, dense and
immutable.  Covariances are kept in factored form ``Sigma = L L^T``
so that kernel composition stays square-root free and exact whenever the
inputs are rational.

Exact products of more than two scalar terms are computed over integers: each
operand is put on the lcm of its denominators, each entry is one integer dot
product and one reduced ``Fraction``.  Smaller and float products loop entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence, Union

from .errors import DimensionMismatch, NotPSD

Scalar = Union[Fraction, float]


@dataclass(frozen=True, eq=False)
class Field:
    """The scalars of a kernel: `cast` turns a parameter into one.  Two
    instances, compared (and hashed, as cache keys) by identity."""
    cast: type
    zero: Scalar
    one: Scalar


# One shared 0 per field: padding costs a reference, not an object.
RATIONAL = Field(Fraction, Fraction(0), Fraction(1))
FLOAT = Field(float, 0.0, 1.0)
_ZERO = RATIONAL.zero


def as_scalar(x) -> Scalar:
    """Normalize a number: ints become exact rationals, floats stay floats."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError(f"not a scalar: {x!r}")


def format_scalar(x: Scalar) -> str:
    """Render ``2/3`` style rationals, plain ints, or round-trippable floats."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return repr(x)


def scalar_to_json(x: Scalar):
    return format_scalar(x) if isinstance(x, Fraction) else float(x)


def quantize_key(x: Scalar):
    """Sort key that is stable under float noise: 12 significant digits.
    Rationals and zeros (either sign) are their own keys."""
    if isinstance(x, Fraction) or x == 0:
        return x
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix, row-major.  0xn and nx0 shapes are legal."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(as_scalar(x) for r in rows for x in r)
        return Matrix(len(rows), cols, flat)

    @staticmethod
    @lru_cache(maxsize=1024)
    def zeros(rows: int, cols: int, field: Field = RATIONAL) -> "Matrix":
        return Matrix(rows, cols, (field.zero,) * (rows * cols))

    @staticmethod
    def identity(n: int, field: Field = RATIONAL) -> "Matrix":
        return Matrix(n, n, tuple(field.one if i == j else field.zero
                                  for i in range(n) for j in range(n)))

    @staticmethod
    def column(entries: Sequence) -> "Matrix":
        entries = tuple(as_scalar(x) for x in entries)
        return Matrix(len(entries), 1, entries)

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.at(i, j) for j in range(self.cols)
                            for i in range(self.rows)))

    def scale(self, k) -> "Matrix":
        k = as_scalar(k)
        return Matrix(self.rows, self.cols, tuple(k * x for x in self.entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"add {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __matmul__(self, other: "Matrix", field: Field = RATIONAL) -> "Matrix":
        """The product; its entries with no nonzero term are `field`'s 0."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"mul {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        if not (n and k and m):
            return Matrix.zeros(n, m, field)
        a = n * k * m > 2 and _over_common_den(self.entries)
        b = a and _over_common_den(other.entries)
        if b:
            den, cols = a[0] * b[0], [b[1][j::m] for j in range(m)]
            dots = (sum(map(mul, a[1][i:i + k], col))
                    for i in range(0, n * k, k) for col in cols)
            return Matrix(n, m, tuple(Fraction(d, den) if d else _ZERO for d in dots))
        out = [field.zero] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                a = self.entries[base + t]
                if a == 0:
                    continue
                ob = t * m
                for j in range(m):
                    b = other.entries[ob + j]
                    if b != 0:
                        out[i * m + j] += a * b
        return Matrix(n, m, tuple(out))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


def _over_common_den(entries):
    """``(lcm of denominators, numerators over it)``; None unless all are Fractions."""
    if not all(type(x) is Fraction for x in entries):
        return None
    ratios = [x.as_integer_ratio() for x in entries]
    den = math.lcm(*[d for _, d in ratios])
    return den, [num * (den // d) for num, d in ratios]


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise DimensionMismatch(f"hstack rows {a.rows} != {b.rows}")
    entries = tuple(x for i in range(a.rows) for x in (a.row(i) + b.row(i)))
    return Matrix(a.rows, a.cols + b.cols, entries)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise DimensionMismatch(f"vstack cols {a.cols} != {b.cols}")
    return Matrix(a.rows + b.rows, a.cols, a.entries + b.entries)


def block_diag(a: Matrix, b: Matrix, field: Field = RATIONAL) -> Matrix:
    """``[[a, 0], [0, b]]``, its entries built in one pass."""
    pad_a, pad_b = (field.zero,) * a.cols, (field.zero,) * b.cols
    entries = []
    for i in range(a.rows):
        entries += a.row(i) + pad_b
    for i in range(b.rows):
        entries += pad_a + b.row(i)
    return Matrix(a.rows + b.rows, a.cols + b.cols, tuple(entries))


@dataclass(frozen=True)
class CovFactor:
    """Covariance ``Sigma = L L^T`` held as its factor L (n x k, k may be 0)."""

    dim: int
    factor: Matrix

    def __post_init__(self):
        if self.factor.rows != self.dim:
            raise DimensionMismatch(
                f"factor has {self.factor.rows} rows for dimension {self.dim}")

    @staticmethod
    def zero(n: int) -> "CovFactor":
        return CovFactor(n, Matrix.zeros(n, 0))

    @staticmethod
    def of(factor: Matrix) -> "CovFactor":
        return CovFactor(factor.rows, factor)

    @property
    def width(self) -> int:
        return self.factor.cols

    def gram(self, field: Field = RATIONAL) -> Matrix:
        """``L L^T``; for an exact L, one integer dot product per pair i <= j."""
        f, n, k = self.factor, self.dim, self.width
        exact = n * n * k > 2 and _over_common_den(f.entries)
        if not exact:
            return f.__matmul__(f.transpose(), field)
        den, nums = exact
        rows = [nums[i * k:(i + 1) * k] for i in range(n)]
        low = [[Fraction(d, den * den) if d else _ZERO
                for d in (sum(map(mul, r, s)) for s in rows[:i + 1])]
               for i, r in enumerate(rows)]
        return Matrix(n, n, tuple(low[max(i, j)][min(i, j)]
                                  for i in range(n) for j in range(n)))


def cov_compose(b: Matrix, sigma: CovFactor, theta: CovFactor,
                field: Field = RATIONAL) -> CovFactor:
    """Factor of ``B Sigma B^T + Theta`` without leaving factored form."""
    if b.cols != sigma.dim:
        raise DimensionMismatch(f"B has {b.cols} cols, sigma dim {sigma.dim}")
    if b.rows != theta.dim:
        raise DimensionMismatch(f"B has {b.rows} rows, theta dim {theta.dim}")
    return CovFactor(b.rows,
                     hstack(b.__matmul__(sigma.factor, field), theta.factor))


def cov_block(sigma: CovFactor, theta: CovFactor,
              field: Field = RATIONAL) -> CovFactor:
    return CovFactor(sigma.dim + theta.dim,
                     block_diag(sigma.factor, theta.factor, field))


def ldlt(sigma: Matrix, tol: float = 0.0):
    """Square-root-free Cholesky: ``Sigma = L D L^T``.

    Natural pivot order, no row exchanges, so the factorization is a
    deterministic function of the input.  A zero pivot forces the rest of
    its column to (near) zero; otherwise the matrix was not PSD.  The
    factors hold the input's field: floats, compared within `tol`, if any
    entry is a float; otherwise exact rationals, compared exactly.
    """
    n = sigma.rows
    if sigma.cols != n:
        raise DimensionMismatch("ldlt needs a square matrix")
    field = FLOAT if any(isinstance(x, float) for x in sigma.entries) else RATIONAL
    tol = tol if field is FLOAT else 0
    for i in range(n):
        for j in range(i):
            if abs(sigma.at(i, j) - sigma.at(j, i)) > tol:
                raise NotPSD(f"asymmetric at ({i},{j})")
    lower = [[field.zero] * n for _ in range(n)]
    diag = [field.zero] * n
    for j in range(n):
        d = sigma.at(j, j) - sum(lower[j][k] * lower[j][k] * diag[k]
                                 for k in range(j))
        if d < -tol:
            raise NotPSD(f"negative pivot {float(d)} at {j}")
        lower[j][j] = field.one
        if d <= tol:
            for i in range(j + 1, n):
                c = sigma.at(i, j) - sum(lower[i][k] * lower[j][k] * diag[k]
                                         for k in range(j))
                if abs(c) > tol:
                    raise NotPSD(f"zero pivot with nonzero column at ({i},{j})")
        else:
            diag[j] = d
            for i in range(j + 1, n):
                c = sigma.at(i, j) - sum(lower[i][k] * lower[j][k] * diag[k]
                                         for k in range(j))
                lower[i][j] = c / d
    l_mat = Matrix.from_rows(lower, cols=n)
    return l_mat, tuple(diag)


def _is_three_square(n: int) -> bool:
    # Legendre: representable unless n = 4^a (8b + 7).
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 != 7


@lru_cache(maxsize=4096)
def four_squares(n: int):
    """Deterministic ``n = a^2 + b^2 + c^2 + d^2`` with a >= b >= c >= d >= 0."""
    if n < 0:
        raise ValueError("negative input")
    if n == 0:
        return (0, 0, 0, 0)
    a0 = math.isqrt(n)
    for a in range(a0, -1, -1):
        m = n - a * a
        if not _is_three_square(m):
            continue
        for b in range(min(a, math.isqrt(m)), -1, -1):
            r = m - b * b
            c0 = math.isqrt(r)
            for c in range(min(b, c0), -1, -1):
                s = r - c * c
                d = math.isqrt(s)
                if d * d == s and d <= c:
                    return (a, b, c, d)
    raise AssertionError("unreachable by Lagrange's theorem")


def sum_square_scales(d: Scalar) -> tuple:
    """Scalars ``r_1..r_k`` (k <= 4) with ``sum r_i^2 = d``, exactly for rationals.

    For floats a single ``sqrt(d)`` is returned; exactness is meaningless there.
    """
    if isinstance(d, Fraction):
        if d < 0:
            raise ValueError("negative variance")
        if d == 0:
            return ()
        num, den = d.numerator, d.denominator
        parts = four_squares(num * den)
        return tuple(Fraction(a, den) for a in parts if a != 0)
    if d < 0:
        raise ValueError("negative variance")
    return (math.sqrt(d),) if d > 0 else ()


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [scalar_to_json(x) for x in m.entries]}
