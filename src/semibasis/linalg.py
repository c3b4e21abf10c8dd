"""Exact linear algebra over prime fields, the integers and the rationals.

Everything here is elementary and exact: Gaussian elimination mod p,
echelon enumeration of subspaces, back substitution for unitriangular
integer matrices, and Lagrange interpolation.  The linear systems in
unknown matrices that the package eliminates (the preprojective
relations, Hom between representations) are written down by one
builder, matrix_equation_rows; End of a point needs none, since
nilpotent's End template writes it over a closed-form basis.  Every coefficient the package
computes is an integer; this is the one module that touches Fraction,
inside rank_exact and the interpolation fit, and both hand back ints.
Matrices are tuples (or lists) of row tuples; functions that must
cope with a matrix that has no rows take the column count explicitly,
because a 0 x c matrix carries no shape information of its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InterpolationError

__all__ = [
    "is_prime",
    "gaussian_binomial",
    "matrix_equation_rows",
    "rref_ff",
    "rank_ff",
    "rank_sparse_ff",
    "kernel_basis_ff",
    "matmul_ff",
    "subspaces_ff",
    "complete_basis_ff",
    "row_space_basis_ff",
    "rank_exact",
    "matmul_exact",
    "identity_exact",
    "invert_unitriangular",
    "interpolate_eval_one",
]

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def gaussian_binomial(t: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of a t-dimensional space over F_q."""
    if k < 0 or k > t:
        return 0
    num = 1
    den = 1
    for j in range(1, k + 1):
        num *= q ** (t - k + j) - 1
        den *= q**j - 1
    assert num % den == 0
    return num // den


def matrix_equation_rows(
    shapes: Sequence[tuple[int, int]],
    equations: Sequence[tuple[int, int, Sequence[tuple], Sequence[tuple]]],
) -> tuple[list[list[int]], int]:
    """The linear system of matrix equations in unknown matrices X_k.

    X_k has shape shapes[k], and the unknowns are the entries of X_0,
    X_1, ... in row-major order.  Each equation (rows, cols, right, left)
    asks that the rows x cols matrix  sum s X_k f + sum s g X_k  vanish,
    where right holds its terms (k, f, s), X_k f, and left its terms
    (k, g, s), g X_k, with signs s.  Returns one row per entry of each
    equation, in order, those that are identically zero left out, and
    the number of unknowns.  The commutant of a nilpotent Jordan block
    J, the solutions of X J - J X = 0, has dimension 2:

    >>> J = ((0, 1), (0, 0))
    >>> rows, unknowns = matrix_equation_rows([(2, 2)], [(2, 2, [(0, J, 1)], [(0, J, -1)])])
    >>> rows
    [[0, 0, -1, 0], [1, 0, 0, -1], [0, 0, 1, 0]]
    >>> unknowns - rank_exact(rows)
    2

    Each term reads its coefficient matrix once, and only the nonzero
    coefficients touch the rows.
    """
    offsets = [0]
    for r, c in shapes:
        offsets.append(offsets[-1] + r * c)
    # entry (r, c) of an equation is row at + r ncols + c, with `at` its
    # first row; X_k[i][j] is unknown offsets[k] + i w + j, w its width
    rows = [[0] * offsets[-1] for _ in range(sum(r * c for r, c, _, _ in equations))]
    at = 0
    for nrows, ncols, right, left in equations:
        for k, f, s in right:
            # f[j][c] weighs X_k[r][j] in (X_k f)[r][c]
            o, w = offsets[k], shapes[k][1]
            for j, f_j in enumerate(f):
                for c, x in enumerate(f_j):
                    if x:
                        for r in range(nrows):
                            rows[at + r * ncols + c][o + r * w + j] += s * x
        for k, g, s in left:
            # g[r][j] weighs X_k[j][c] in (g X_k)[r][c]
            o, w = offsets[k], shapes[k][1]
            for r, g_r in enumerate(g):
                for j, x in enumerate(g_r):
                    if x:
                        for c in range(ncols):
                            rows[at + r * ncols + c][o + j * w + c] += s * x
        at += nrows * ncols
    return list(filter(any, rows)), offsets[-1]


# ---------------------------------------------------------------------------
# prime field elimination


def rref_ff(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p.  Returns (rows, pivot column list).

    The rows come back in full, the pivot rows first.  Each elimination
    step reads the pivot row's nonzero entries once, from the pivot
    column on (the entries before it are zero), and touches only those
    columns of the rows it clears: the systems solved here are mostly
    zeros, so a step costs the nonzeros of its pivot row, not the width.
    """
    mat = [[x % p for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        row = mat[r]
        inv = pow(row[c], -1, p)
        terms = []
        for j in range(c, ncols):
            if row[j]:
                row[j] = row[j] * inv % p
                terms.append((j, row[j]))
        for i in range(nrows):
            other = mat[i]
            f = other[c]
            if f and i != r:
                for j, y in terms:
                    other[j] = (other[j] - f * y) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank_ff(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(rref_ff(rows, p)[1])


def rank_sparse_ff(rows: Iterable[Mapping[int, int]], p: int) -> int:
    """Rank mod p of rows given as {column: entry}, absent entries zero.

    Each row is cleared at its least column by the pivot row there, until
    it is zero or no pivot row holds that column, where it becomes one.
    A step costs the nonzeros of the pivot row, never the width.
    """
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        row = {c: v % p for c, v in given.items() if v % p}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[c]
            for j, v in pivot.items():
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return len(pivots)


def kernel_basis_ff(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[Vector]:
    """Basis of the right kernel of a matrix with `ncols` columns."""
    if ncols == 0:
        return []
    if not rows:
        return [tuple(1 if j == c else 0 for j in range(ncols)) for c in range(ncols)]
    red, pivots = rref_ff(rows, p)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-red[r][free]) % p
        basis.append(tuple(vec))
    return basis


def random_span_point_ff(
    basis: Sequence[Sequence[int]], width: int, p: int, rng: random.Random
) -> Vector:
    """A uniformly random combination mod p of basis, whose vectors have
    length width; the zero vector of that length when basis is empty.

    One coefficient is drawn from rng per basis vector, in order, so a
    seeded rng draws the same point every time.
    """
    x = [0] * width
    for vec in basis:
        c = rng.randrange(p)
        if c:
            x = [(xi + c * vi) % p for xi, vi in zip(x, vec)]
    return tuple(x)


def matmul_ff(
    a: Sequence[Sequence[int]],
    b: Sequence[Sequence[int]],
    p: int,
    bcols: int | None = None,
) -> Matrix:
    """Matrix product mod p.  `bcols` is required when b has no rows.

    Each row of the product sums the rows of b that the row of a weights
    by a nonzero factor; a zero factor costs nothing.
    """
    if b:
        bcols = len(b[0])
    elif bcols is None:
        raise ValueError("column count needed for a matrix with no rows")
    out = []
    for row in a:
        acc = [0] * bcols
        for x, b_row in zip(row, b):
            if x:
                acc = [u + x * y for u, y in zip(acc, b_row)]
        out.append(tuple(u % p for u in acc))
    return tuple(out)


def row_space_basis_ff(rows: Sequence[Sequence[int]], p: int) -> list[Vector]:
    """Canonical (echelon) basis of the row space."""
    red, pivots = rref_ff(rows, p)
    return [tuple(red[i]) for i in range(len(pivots))]


def complete_basis_ff(vectors: Sequence[Sequence[int]], dim: int, p: int) -> list[Vector]:
    """Extend independent vectors to a basis of F_p^dim by standard vectors."""
    red, pivots = rref_ff(vectors, p) if vectors else ([], [])
    if len(pivots) != len(vectors):
        raise ValueError("vectors are not independent")
    extension = []
    pivot_set = set(pivots)
    for c in range(dim):
        if c not in pivot_set:
            extension.append(tuple(1 if j == c else 0 for j in range(dim)))
    return [tuple(v) for v in vectors] + extension


def subspaces_ff(basis: Sequence[Sequence[int]], k: int, p: int) -> Iterator[list[Vector]]:
    """All k-dimensional subspaces of the span of an independent family.

    Subspaces are enumerated exactly once via reduced echelon coordinate
    matrices relative to the given basis; each is yielded as a list of k
    spanning vectors in the ambient coordinates.
    """
    m = len(basis)
    if k < 0 or k > m:
        return
    if k == 0:
        yield []
        return
    for pivots in combinations(range(m), k):
        free_pos = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, m)
            if c not in pivots
        ]
        for values in product(range(p), repeat=len(free_pos)):
            # row r is basis[pivots[r]] plus its free coordinates' multiples
            rows = [list(basis[pivot]) for pivot in pivots]
            for (r, c), v in zip(free_pos, values):
                if v:
                    rows[r] = [x + v * y for x, y in zip(rows[r], basis[c])]
            yield [tuple(x % p for x in row) for row in rows]


# ---------------------------------------------------------------------------
# exact integer and rational matrices


def rank_exact(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-exact elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def matmul_exact(
    a: Sequence[Sequence[int]],
    b: Sequence[Sequence[int]],
    bcols: int | None = None,
) -> Matrix:
    if b:
        bcols = len(b[0])
    elif bcols is None:
        raise ValueError("column count needed for a matrix with no rows")
    bt = list(zip(*b)) if b else []
    out = []
    for row in a:
        if bt:
            out.append(tuple(sum(x * y for x, y in zip(row, col)) for col in bt))
        else:
            out.append(tuple([0] * bcols))
    return tuple(out)


def identity_exact(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def invert_unitriangular(rows: Sequence[Sequence[int]]) -> Matrix:
    """Exact inverse of an upper unitriangular matrix by back substitution.

    Raises ValueError unless the diagonal is all ones and everything below
    it vanishes; the inverse is again upper unitriangular.  No step
    divides, so an integer matrix has an integer inverse.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("matrix is not square")
        if row[i] != 1:
            raise ValueError(f"diagonal entry at {i} is {row[i]}, not 1")
        for j in range(i):
            if row[j] != 0:
                raise ValueError(f"nonzero entry below the diagonal at ({i},{j})")
    inv = [list(row) for row in identity_exact(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            c = rows[i][j]
            if c:
                inv[i] = [x - c * y for x, y in zip(inv[i], inv[j])]
    return tuple(tuple(row) for row in inv)


# ---------------------------------------------------------------------------
# Euler characteristic extraction


def interpolate_eval_one(points: Iterable[tuple[int, int]], bound: int) -> int:
    """Value at 1 of the degree <= bound polynomial through counted points.

    `points` are (prime, count) pairs with distinct primes; at least
    bound + 2 are required.  The polynomial is fitted through the first
    bound + 1 points and must reproduce every remaining point exactly,
    otherwise InterpolationError is raised.  The value at 1 must be an
    integer (it is an Euler characteristic in every use here).
    """
    pts = [(int(x), int(y)) for x, y in points]
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("sample points must be distinct")
    if bound < 0:
        raise ValueError("degree bound must be non-negative")
    if len(pts) < bound + 2:
        raise InterpolationError(
            f"need at least {bound + 2} points for degree bound {bound}, got {len(pts)}"
        )
    fit = pts[: bound + 1]
    # the Lagrange form over one integer denominator: term j is
    # y_j prod_{k != j} (x - x_k) / dens[j], and den, the least common
    # multiple of the dens[j], makes each weight y_j den / dens[j] an integer
    dens = [
        prod(xj - xk for k, (xk, _) in enumerate(fit) if k != j)
        for j, (xj, _) in enumerate(fit)
    ]
    den = lcm(*dens)
    weights = [yj * (den // dj) for (_, yj), dj in zip(fit, dens)]

    def eval_at(x: int) -> Fraction:
        num = 0
        for j, w in enumerate(weights):
            if w:
                num += w * prod(x - xk for k, (xk, _) in enumerate(fit) if k != j)
        return Fraction(num, den)

    for x, y in pts[bound + 1 :]:
        got = eval_at(x)
        if got != y:
            raise InterpolationError(
                f"degree {bound} fit predicts {got} at {x}, observed {y}; "
                f"series {pts}"
            )
    value = eval_at(1)
    if value.denominator != 1:
        raise InterpolationError(f"value at 1 is not an integer: {value}")
    return int(value)
