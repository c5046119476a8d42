"""Scalar and matrix substrate.

Scalars are either exact rationals (``fractions.Fraction``) or binary
floats; arithmetic between the two promotes to float, which is exactly
Python's own behaviour, so no wrapper type is needed.  A `Field` names one
of the two with its 0 and 1: the constructors that make entries of their
own (zeros, identities, block-diagonal padding, product accumulators) take
it, so a float kernel holds only floats.  Covariances are kept in factored
form ``Sigma = L L^T``, square-root free and exact for rational inputs; a
factor that composition or a wiring builds holds no all-zero column.

Matrices are small, dense and immutable.  A rational one holds integer
`nums` over one positive `den`, reduced (a zero matrix is over 1), so equal
values are equal matrices and its arithmetic is on integers with one
reduction per result; a float one holds its floats, `den` None, and a sum,
scaling or stack with one is float.  `entries` makes `Fraction`s; `floats`
divides as ``n / den``, correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
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


@dataclass(frozen=True, init=False, slots=True)
class Matrix:
    """Immutable dense matrix, row-major.  0xn and nx0 shapes are legal.

    Built from scalars, it holds floats if some entry is a nonzero float or
    all are floats; otherwise it is rational, float zeros read as 0."""

    rows: int
    cols: int
    nums: tuple
    den: int | None   # None: a float matrix, its entries in `nums`

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"entry count {len(entries)} != {rows}x{cols}")
        floats = [x for x in entries if isinstance(x, float)]
        if floats and (len(floats) == len(entries) or any(floats)):
            nums, den = tuple(map(float, entries)), None
        else:   # over the lcm of reduced denominators: in reduced form
            ratios = [(0, 1) if isinstance(x, float)
                      else (int(x.numerator), int(x.denominator)) for x in entries]
            den = math.lcm(*[d for _, d in ratios])
            nums = tuple(n * (den // d) for n, d in ratios)
        _matrix(rows, cols, nums, den, self)

    @staticmethod
    def over(rows: int, cols: int, nums, den) -> "Matrix":
        """The matrix of integer `nums` over a positive `den`, reduced here,
        or of float `nums` if `den` is None; unchecked."""
        nums = tuple(nums)
        if den is not None and (g := math.gcd(den, *nums)) > 1:
            nums, den = tuple(x // g for x in nums), den // g
        return _matrix(rows, cols, nums, den)

    @property
    def entries(self) -> tuple:   # the scalars, row-major, made on each call
        den = self.den
        return self.nums if den is None else tuple(Fraction(x, den) for x in self.nums)

    @property
    def exact(self) -> bool:   # rational, as is a matrix with no entries
        return self.den is not None

    def floats(self) -> tuple:
        return self.nums if self.den is None else tuple(x / self.den for x in self.nums)

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
        x, den = self.nums[i * self.cols + j], self.den
        return x if den is None else Fraction(x, den)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def transpose(self) -> "Matrix":
        nums, cols = self.nums, self.cols
        return _matrix(cols, self.rows,
                       tuple(x for j in range(cols) for x in nums[j::cols]), self.den)

    def scale(self, k) -> "Matrix":
        k = as_scalar(k)
        if self.exact and isinstance(k, Fraction):
            return Matrix.over(self.rows, self.cols,
                               (k.numerator * x for x in self.nums),
                               k.denominator * self.den)
        return _matrix(self.rows, self.cols, tuple(k * x for x in self.floats()), None)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"add {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        den, x, y, _ = _aligned(self, other)
        return Matrix.over(self.rows, self.cols, map(add, x, y), den)

    def __matmul__(self, other: "Matrix", field: Field = RATIONAL) -> "Matrix":
        """The product; its entries with no nonzero term are `field`'s 0.
        Over the rationals, one integer dot product per entry; otherwise
        entrywise, skipping zero terms."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"mul {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        if not (n and k and m):
            return Matrix.zeros(n, m, field)
        if field is RATIONAL and self.exact and other.exact:
            a, b = self.nums, other.nums
            cols = [b[j::m] for j in range(m)]
            return Matrix.over(n, m, [sum(map(mul, a[i:i + k], col))
                                      for i in range(0, n * k, k) for col in cols],
                               self.den * other.den)
        a, b = self.entries, other.entries
        out = [field.zero] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                x = a[base + t]
                if x == 0:
                    continue
                ob = t * m
                for j in range(m):
                    y = b[ob + j]
                    if y != 0:
                        out[i * m + j] += x * y
        return Matrix(n, m, out)

    def is_zero(self) -> bool:
        return not any(self.nums)


def _matrix(rows: int, cols: int, nums: tuple, den, m=None) -> Matrix:
    """`m`, or a new matrix, holding `nums` over `den` as they are; one with
    no entries is rational, over 1.  It sets the slots through their own
    descriptors, twice as fast as `object.__setattr__`."""
    m = object.__new__(Matrix) if m is None else m
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_nums(m, nums)
    _set_den(m, den if nums else 1)
    return m


_set_rows, _set_cols, _set_nums, _set_den = (
    getattr(Matrix, name).__set__ for name in ("rows", "cols", "nums", "den"))


def _over(m: Matrix, den: int) -> tuple:
    """The numerators of rational `m` over `den`, a multiple of its own."""
    return m.nums if m.den == den else tuple(x * (den // m.den) for x in m.nums)


def common_denominator(mats) -> tuple:
    """``(den, nums)``: the lcm of the rational matrices' denominators, and
    each one's numerators over it."""
    den = math.lcm(*[m.den for m in mats])
    return den, [_over(m, den) for m in mats]


def _aligned(a: Matrix, b: Matrix, field: Field = RATIONAL) -> tuple:
    """``(den, x, y, zero)``: the numerators x of `a` and y of `b` over one
    `den`, and `field`'s 0 for padding; floats over None if either is float.
    Stacks of reduced matrices over the lcm of their denominators are reduced."""
    if a.den is None or b.den is None or field is FLOAT:
        return None, a.floats(), b.floats(), FLOAT.zero
    den = math.lcm(a.den, b.den)
    return den, _over(a, den), _over(b, den), 0


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise DimensionMismatch(f"hstack rows {a.rows} != {b.rows}")
    den, x, y, _ = _aligned(a, b)
    ca, cb = a.cols, b.cols
    rows = (x[i * ca:(i + 1) * ca] + y[i * cb:(i + 1) * cb] for i in range(a.rows))
    return _matrix(a.rows, ca + cb, tuple(v for row in rows for v in row), den)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise DimensionMismatch(f"vstack cols {a.cols} != {b.cols}")
    den, x, y, _ = _aligned(a, b)
    return _matrix(a.rows + b.rows, a.cols, x + y, den)


def block_diag(a: Matrix, b: Matrix, field: Field = RATIONAL) -> Matrix:
    """``[[a, 0], [0, b]]``, its entries built in one pass."""
    den, x, y, zero = _aligned(a, b, field)
    ca, cb = a.cols, b.cols
    pad_a, pad_b, entries = (zero,) * ca, (zero,) * cb, []
    for i in range(a.rows):
        entries += x[i * ca:(i + 1) * ca] + pad_b
    for i in range(b.rows):
        entries += pad_a + y[i * cb:(i + 1) * cb]
    return _matrix(a.rows + b.rows, ca + cb, tuple(entries), den)


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
        """``L L^T``."""
        return self.factor.__matmul__(self.factor.transpose(), field)


def drop_zero_columns(factor: Matrix) -> Matrix:
    """`factor` without its all-zero columns, which add nothing to ``L L^T``.

    Gram matrices are unchanged bit for bit: a zero numerator adds nothing
    to an integer dot product, and the float product skips zero terms."""
    k, nums = factor.cols, factor.nums
    if not k:
        return factor
    keep = [j for j in range(k) if any(nums[j::k])]
    if len(keep) == k:
        return factor
    return _matrix(factor.rows, len(keep), tuple(
        nums[i + j] for i in range(0, len(nums), k) for j in keep), factor.den)


def cov_compose(b: Matrix, sigma: CovFactor, theta: CovFactor,
                field: Field = RATIONAL) -> CovFactor:
    """Factor of ``B Sigma B^T + Theta`` without leaving factored form, less
    its all-zero columns (those of Sigma's that ``B`` maps to zero)."""
    if b.cols != sigma.dim:
        raise DimensionMismatch(f"B has {b.cols} cols, sigma dim {sigma.dim}")
    if b.rows != theta.dim:
        raise DimensionMismatch(f"B has {b.rows} rows, theta dim {theta.dim}")
    return CovFactor(b.rows, drop_zero_columns(
        hstack(b.__matmul__(sigma.factor, field), theta.factor)))


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
    field = RATIONAL if sigma.exact else FLOAT
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
        lower[j][j], zero_pivot = field.one, d <= tol
        if not zero_pivot:
            diag[j] = d
        for i in range(j + 1, n):
            c = sigma.at(i, j) - sum(lower[i][k] * lower[j][k] * diag[k]
                                     for k in range(j))
            if not zero_pivot:
                lower[i][j] = c / d
            elif abs(c) > tol:
                raise NotPSD(f"zero pivot with nonzero column at ({i},{j})")
    return Matrix.from_rows(lower, cols=n), tuple(diag)


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
