"""Scalar and matrix substrate.

Scalars are either exact rationals (``fractions.Fraction``) or binary
floats; arithmetic between the two promotes to float, which is exactly
Python's own behaviour, so no wrapper type is needed.  A field is its
scalar type, `Fraction` or `float`.  Only the constructors that make
scalars of their own, zeros and identities, take one; every operation
reads it off its operands, a result being float exactly when an operand
is, so a float kernel holds only floats.  A covariance ``Sigma = L L^T`` is
kept as its factor L, one matrix, square-root free and exact for rational
inputs; a factor that composition or a wiring builds holds no all-zero
column.

Matrices are small, dense and immutable.  A rational one holds integer
`nums` over one positive `den`, reduced (a zero matrix is over 1), so equal
values are equal matrices and its arithmetic is on integers with one
reduction per result; a float one, empty ones included, holds its floats
over `den` None.  `entries` makes `Fraction`s; `floats` divides as
``n / den``, correctly rounded.  A product has one body for both: a dot
product per entry, of numerators or of floats.  A float sum or product
that leaves the float range raises `NonFiniteResult`.
An empty operand contributes nothing: `hstack`, `vstack`, `block_diag`,
`+` and `cov_block` return the other operand itself if both are in one
field (`den` None on both or on neither); across fields the result is
float, as ever.  A factor with no columns has the cached zero Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Sequence, Union

from .errors import DimensionMismatch, NonFiniteResult, NotPSD

Scalar = Union[Fraction, float]


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
    def exact(self) -> bool:   # rational; an empty float matrix has `den` None
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
    def zeros(rows: int, cols: int, field: type = Fraction) -> "Matrix":
        # The literal 0.0 is one object in this module: float padding costs
        # a reference, not an object.
        exact = field is Fraction
        return _matrix(rows, cols, (0 if exact else 0.0,) * (rows * cols),
                       1 if exact else None)

    @staticmethod
    def identity(n: int, field: type = Fraction) -> "Matrix":
        zero = Matrix.zeros(n, n, field)
        nums = list(zero.nums)
        nums[::n + 1] = [1 if zero.exact else 1.0] * n
        return _matrix(n, n, tuple(nums), zero.den)

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

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"add {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        if (kept := _kept(self, other, self.rows, self.cols)) is not None:
            return kept
        den, x, y, _ = _aligned(self, other)
        nums = map(add, x, y)
        return Matrix.over(self.rows, self.cols,
                           nums if den is not None else _finite(nums), den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, float if an operand is: one dot product per entry,
        of both operands' integer numerators when both are rational, with
        one reduction, otherwise of their floats.  A float sum starts at +0,
        so adding a zero term (either sign) leaves it as it is: zero columns
        and 0/1 maps change no bit of a finite result (Python 3.12+
        compensates float `sum`, so there the last bits may differ).
        Raises `NonFiniteResult` if a float entry is infinite or NaN."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"mul {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        exact = self.den is not None and other.den is not None
        if not (n and k and m):
            return Matrix.zeros(n, m, Fraction if exact else float)
        a, b = (self.nums, other.nums) if exact else (self.floats(), other.floats())
        nums = [sum(map(mul, a[i:i + k], b[j::m]))
                for i in range(0, n * k, k) for j in range(m)]
        if exact:
            return Matrix.over(n, m, nums, self.den * other.den)
        return _matrix(n, m, _finite(nums), None)

    def is_zero(self) -> bool:
        return not any(self.nums)


def _matrix(rows: int, cols: int, nums: tuple, den, m=None) -> Matrix:
    """`m`, or a new matrix, holding `nums` over `den` as they are, `den`
    None for floats at every shape, empty ones included.  It sets the slots
    through their own descriptors, twice as fast as `object.__setattr__`."""
    m = object.__new__(Matrix) if m is None else m
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_nums(m, nums)
    _set_den(m, den)
    return m


_set_rows, _set_cols, _set_nums, _set_den = (
    getattr(Matrix, name).__set__ for name in ("rows", "cols", "nums", "den"))


def _finite(nums) -> tuple:
    """Float `nums` as a tuple; `NonFiniteResult` if one is inf or NaN."""
    nums = tuple(nums)
    if not all(map(math.isfinite, nums)):
        bad = next(x for x in nums if not math.isfinite(x))
        raise NonFiniteResult(
            f"float arithmetic gave {bad}: a value left the float range")
    return nums


def _over(m: Matrix, den: int) -> tuple:
    """The numerators of rational `m` over `den`, a multiple of its own."""
    return m.nums if m.den == den else tuple(x * (den // m.den) for x in m.nums)


def common_denominator(mats) -> tuple:
    """``(den, nums)``: the lcm of the rational matrices' denominators, and
    each one's numerators over it."""
    den = math.lcm(*[m.den for m in mats])
    return den, [_over(m, den) for m in mats]


def _aligned(a: Matrix, b: Matrix) -> tuple:
    """``(den, x, y, zero)``: the numerators x of `a` and y of `b` over one
    `den`, and the 0 for padding; floats over None if either is float.
    Stacks of reduced matrices over the lcm of their denominators are reduced."""
    if a.den is None or b.den is None:
        return None, a.floats(), b.floats(), 0.0
    den = math.lcm(a.den, b.den)
    return den, _over(a, den), _over(b, den), 0


def _kept(a: Matrix, b: Matrix, rows: int, cols: int):
    """The operand that is the rows x cols result of combining `a` and `b`,
    the other having no entries, if both are in one field; else None."""
    if (a.den is None) is (b.den is None):
        if not a.nums and (b.rows, b.cols) == (rows, cols):
            return b
        if not b.nums and (a.rows, a.cols) == (rows, cols):
            return a
    return None


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise DimensionMismatch(f"hstack rows {a.rows} != {b.rows}")
    if (kept := _kept(a, b, a.rows, a.cols + b.cols)) is not None:
        return kept
    den, x, y, _ = _aligned(a, b)
    ca, cb = a.cols, b.cols
    rows = (x[i * ca:(i + 1) * ca] + y[i * cb:(i + 1) * cb] for i in range(a.rows))
    return _matrix(a.rows, ca + cb, tuple(v for row in rows for v in row), den)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise DimensionMismatch(f"vstack cols {a.cols} != {b.cols}")
    if (kept := _kept(a, b, a.rows + b.rows, a.cols)) is not None:
        return kept
    den, x, y, _ = _aligned(a, b)
    return _matrix(a.rows + b.rows, a.cols, x + y, den)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """``[[a, 0], [0, b]]``, its entries built in one pass."""
    if (kept := _kept(a, b, a.rows + b.rows, a.cols + b.cols)) is not None:
        return kept
    den, x, y, zero = _aligned(a, b)
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

    factor: Matrix

    def gram(self) -> Matrix:
        """``L L^T``; the cached zero matrix if L has no columns."""
        f = self.factor
        if f.cols:
            return f @ f.transpose()
        return Matrix.zeros(f.rows, f.rows, Fraction if f.exact else float)


def drop_zero_columns(factor: Matrix) -> Matrix:
    """`factor` without its all-zero columns, which add nothing to ``L L^T``.

    Gram matrices are unchanged bit for bit: a zero term adds nothing to a
    dot product, of integers or of floats (see `Matrix.__matmul__`)."""
    k, nums = factor.cols, factor.nums
    keep = [j for j in range(k) if any(nums[j::k])]
    if len(keep) == k:
        return factor
    return _matrix(factor.rows, len(keep), tuple(
        nums[i + j] for i in range(0, len(nums), k) for j in keep), factor.den)


def cov_compose(b: Matrix, sigma: CovFactor, theta: CovFactor) -> CovFactor:
    """Factor of ``B Sigma B^T + Theta`` without leaving factored form, less
    its all-zero columns (those of Sigma's that ``B`` maps to zero).  `@`
    and `hstack` check the shapes."""
    return CovFactor(drop_zero_columns(hstack(b @ sigma.factor, theta.factor)))


def cov_block(sigma: CovFactor, theta: CovFactor) -> CovFactor:
    """The block-diagonal factor; an empty one gives the other factor itself."""
    factor = block_diag(sigma.factor, theta.factor)
    return theta if factor is theta.factor else \
        sigma if factor is sigma.factor else CovFactor(factor)


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
    field = Fraction if sigma.exact else float
    tol = tol if field is float else 0
    zero = field(0)
    for i in range(n):
        for j in range(i):
            if abs(sigma.at(i, j) - sigma.at(j, i)) > tol:
                raise NotPSD(f"asymmetric at ({i},{j})")
    lower = [[zero] * n for _ in range(n)]
    diag = [zero] * n
    for j in range(n):
        d = sigma.at(j, j) - sum(lower[j][k] * lower[j][k] * diag[k]
                                 for k in range(j))
        if d < -tol:
            raise NotPSD(f"negative pivot {float(d)} at {j}")
        lower[j][j], zero_pivot = field(1), d <= tol
        if not zero_pivot:
            diag[j] = d
        for i in range(j + 1, n):
            c = sigma.at(i, j) - sum(lower[i][k] * lower[j][k] * diag[k]
                                     for k in range(j))
            if not zero_pivot:
                lower[i][j] = c / d
            elif abs(c) > tol:
                raise NotPSD(f"zero pivot with nonzero column at ({i},{j})")
    flat = [x for row in lower for x in row]
    return (Matrix.over(n, n, flat, None) if field is float
            else Matrix(n, n, flat)), tuple(diag)


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
