"""Independent reference implementations used to check the package.

Everything here recomputes a quantity along a route the library does not
take: brute-force enumeration where the library uses a formula, literal
matrix ranks where the library uses segment combinatorics, a full scan
of the target grade where the library generates candidates.  Agreement
between the two routes is the point; none of this code is imported by
the package itself.  The helpers at the top (primes, solve_ff,
mat_inverse_ff) serve these oracles and the tests; the package runs none
of them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from math import comb
from pathlib import Path

from semibasis.hall import Rep, hall_counts_simple_top, iso_class, realize
from semibasis.linalg import (
    complete_basis_ff,
    gaussian_binomial,
    interpolate_eval_one,
    is_prime,
    kernel_basis_ff,
    matmul_ff,
    rank_exact,
    rank_ff,
    rref_ff,
    row_space_basis_ff,
    subspaces_ff,
)
from semibasis import nilpotent
from semibasis.errors import ConsensusError, InterpolationError
from semibasis.hall import PBWVector
from semibasis.nilpotent import RETRY_BUDGET, LambdaPoint, RhoEvaluator
from semibasis.quiver import Multisegment, Quiver, Segment, enumerate_multisegments, t_top


def primes(count: int, start: int = 2) -> tuple[int, ...]:
    """The first `count` primes that are >= start, by trial division
    (nilpotent.prime_pool is the package's own pool, from 2)."""
    out: list[int] = []
    cand = max(2, start)
    while len(out) < count:
        if is_prime(cand):
            out.append(cand)
        cand += 1
    return tuple(out)


def solve_ff(
    rows: Sequence[Sequence[int]], b: Sequence[int], ncols: int, p: int
) -> tuple[int, ...] | None:
    """One solution of A x = b, or None when the system is inconsistent."""
    if not rows:
        return tuple([0] * ncols)
    aug = [list(row) + [bi] for row, bi in zip(rows, b)]
    red, pivots = rref_ff(aug, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return tuple(x)


def mat_inverse_ff(rows: Sequence[Sequence[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """Inverse of a square matrix mod p (raises on a singular input)."""
    n = len(rows)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = rref_ff(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def brute_multisegments(n: int, d: tuple[int, ...]) -> set[Multisegment]:
    """All multisegments of dimension vector d by direct multiplicity search."""
    segs = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    found: set[Multisegment] = set()

    def rec(idx: int, remaining: list[int], chosen: list[Segment]) -> None:
        if idx == len(segs):
            if all(x == 0 for x in remaining):
                found.add(Multisegment(tuple(chosen)))
            return
        a, b = segs[idx]
        cap = min(remaining[v - 1] for v in range(a, b + 1))
        for mult in range(cap + 1):
            rec(
                idx + 1,
                [
                    x - mult if a <= v <= b else x
                    for v, x in enumerate(remaining, start=1)
                ],
                chosen + [(a, b)] * mult,
            )

    rec(0, list(d), [])
    return found


def _matmul_int(a, b, bcols):
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        if bt
        else tuple([0] * bcols)
        for row in a
    )


def composite_ranks(m: Multisegment, n: int) -> dict[tuple[int, int], int]:
    """Ranks of every composite map V_a -> V_b of the realization,
    computed from the actual matrices over Z."""
    rep = realize(m, n)
    out: dict[tuple[int, int], int] = {}
    for a in range(1, n + 1):
        cur = tuple(
            tuple(1 if r == c else 0 for c in range(rep.dims[a - 1]))
            for r in range(rep.dims[a - 1])
        )
        for b in range(a + 1, n + 1):
            cur = _matmul_int(rep.maps[b - 2], cur, rep.dims[a - 1])
            out[(a, b)] = rank_exact([tuple(Fraction(x) for x in row) for row in cur])
    return out


def deg_leq_ranks(m: Multisegment, w: Multisegment, n: int) -> bool:
    """Degeneration order via composite-rank dominance: the orbit of W
    lies in the closure of the orbit of M iff every composite rank of M
    is at least the corresponding rank of W."""
    if m.dim_vector(n) != w.dim_vector(n):
        return False
    rm = composite_ranks(m, n)
    rw = composite_ranks(w, n)
    return all(rm[key] >= rw[key] for key in rm)


def brute_hall_counts(
    m: Multisegment, i: int, a: int, p: int, n: int
) -> dict[Multisegment, int]:
    """Submodule counts by walking the actual Grassmannian over F_p.

    Enumerates every codimension-a subspace W of V_i containing the
    incoming image (those are exactly the submodules with quotient
    S_i^a), restricts the realization to it, and tallies iso classes.
    """
    rep = realize(m, n)
    di = rep.dims[i - 1]
    incoming: list[tuple[int, ...]] = []
    if i >= 2:
        mat = rep.maps[i - 2]
        incoming = [tuple(row[c] for row in mat) for c in range(rep.dims[i - 2])]
    image = row_space_basis_ff(incoming, p)
    t = di - len(image)
    if a > t:
        return {}
    basis = complete_basis_ff(image, di, p)
    complement = basis[len(image) :]
    counts: dict[Multisegment, int] = {}
    for extra in subspaces_ff(complement, t - a, p):
        w_basis = image + [tuple(v) for v in extra]
        r = len(w_basis)
        w_cols = tuple(zip(*w_basis)) if w_basis else tuple(() for _ in range(di))
        dims = tuple(r if v == i else rep.dims[v - 1] for v in range(1, n + 1))
        maps = []
        for v in range(1, n):
            mat = rep.maps[v - 1]
            if v + 1 == i:
                cols = []
                for c in range(rep.dims[v - 1]):
                    u = tuple(row[c] for row in mat)
                    coords = solve_ff(w_cols, u, r, p)
                    assert coords is not None
                    cols.append(coords)
                maps.append(tuple(tuple(col[k] for col in cols) for k in range(r)))
            elif v == i:
                maps.append(matmul_ff(mat, w_cols, p, bcols=r))
            else:
                maps.append(mat)
        cls = iso_class(Rep(n, dims, tuple(maps)), p)
        counts[cls] = counts.get(cls, 0) + 1
    return counts


def counts_at_one_by_interpolation(
    m: Multisegment, i: int, a: int
) -> dict[Multisegment, int]:
    """q = 1 submodule counts with quotient S_i^a, through the primes.

    Counts over F_p at a(t - a) + 2 primes (t = t_top(m, i), a <= t),
    fits each class's series with a polynomial of degree a(t - a), which
    the spare prime checks, and evaluates it at 1.
    """
    bound = a * (t_top(m, i) - a)
    pool = primes(bound + 2, 2)
    per_prime = [hall_counts_simple_top(m, i, a, p) for p in pool]
    return {
        sub: interpolate_eval_one(
            [(p, counts.get(sub, 0)) for p, counts in zip(pool, per_prime)], bound
        )
        for sub in per_prime[0]
    }


def brute_left_mul(i: int, a: int, vec: PBWVector, n: int) -> PBWVector:
    """Left multiplication by the full scan: every class of the target
    grade is interpolated, with no candidate generation at all."""
    d = list(vec.grade)
    d[i - 1] += a
    d = tuple(d)
    out: dict[Multisegment, int] = {}
    for big in enumerate_multisegments(Quiver(n), d):
        total = 0
        bound = a * t_top(big, i)
        pool = primes(bound + 2, 2)
        for small, coeff in vec.items():
            series = [
                (p, hall_counts_simple_top(big, i, a, p).get(small, 0)) for p in pool
            ]
            total += coeff * interpolate_eval_one(series, bound)
        if total:
            out[big] = total
    return PBWVector(n, d, out)


def extensions_by_removal(src: Multisegment, i: int, a: int) -> Counter:
    """The (class, count) pairs of the q = 1 product e_i^(a) P_src, each L
    built from a copy of src's segments by list.remove and a sort.

    L promotes k_b of src's [i+1, b] to [i, b] and adds a - sum k_b heads
    [i, i]; the count is prod_b C(n_b + k_b, k_b), n_b the number of
    src's [i, b].
    """
    have = Counter(b for s, b in src.segments if s == i)
    promotable = Counter(b for s, b in src.segments if s == i + 1)
    ends = sorted(promotable)
    out: Counter = Counter()
    for pick in itertools.product(*(range(promotable[b] + 1) for b in ends)):
        heads = a - sum(pick)
        if heads < 0:
            continue
        segs = list(src.segments)
        count = comb(have[i] + heads, heads)
        for end, k in zip(ends, pick):
            for _ in range(k):
                segs.remove((i + 1, end))
            segs.extend([(i, end)] * k)
            count *= comb(have[end] + k, k)
        segs.extend([(i, i)] * heads)
        out[Multisegment(segs), count] += 1
    return out


def semisimple(n: int, d: tuple[int, ...]) -> Multisegment:
    segs = []
    for v, mult in enumerate(d, start=1):
        segs.extend([(v, v)] * mult)
    return Multisegment(tuple(segs))


def grades_upto(n: int, total: int):
    """Dimension vectors over n vertices with entry sum at most total."""
    for d in itertools.product(range(total + 1), repeat=n):
        if sum(d) <= total:
            yield d


def quotient_by_change_of_basis(x: LambdaPoint, i: int, sub) -> LambdaPoint:
    """The quotient of x by the subspace sub of V_i (which every map
    leaving i kills), through an explicit change of basis: P has sub
    and then standard vectors as columns, maps into V_i are multiplied
    by P^-1 and keep their last rows, maps out of V_i are multiplied by
    P and keep their last columns."""
    a = len(sub)
    di = x.dims[i - 1]
    basis = complete_basis_ff(sub, di, x.p)
    p_mat = tuple(tuple(basis[c][r] for c in range(di)) for r in range(di))
    p_inv = mat_inverse_ff(p_mat, x.p)

    def into(mat, src_dim):
        return tuple(matmul_ff(p_inv, mat, x.p, bcols=src_dim)[a:])

    def out_of(mat):
        moved = matmul_ff(mat, p_mat, x.p, bcols=di)
        assert not any(any(row[:a]) for row in moved), "non-invariant subspace"
        return tuple(row[a:] for row in moved)

    arrows = list(x.arrows)
    stars = list(x.stars)
    if i >= 2:
        arrows[i - 2] = into(arrows[i - 2], x.dims[i - 2])
        stars[i - 2] = out_of(stars[i - 2])
    if i <= x.n - 1:
        arrows[i - 1] = out_of(arrows[i - 1])
        stars[i - 1] = into(stars[i - 1], x.dims[i])
    dims = tuple(d - a if v == i else d for v, d in enumerate(x.dims, start=1))
    return LambdaPoint(x.n, x.p, dims, tuple(arrows), tuple(stars), x.seed)


def end_dim_by_images(x: LambdaPoint) -> int:
    """dim End(x) over F_p as the kernel dimension of the commutator map
    phi -> (phi_v f - f phi_u) over every map f : V_u -> V_v of the double
    quiver, built by applying it to each matrix unit in turn rather than
    equation by equation."""
    p = x.p
    maps = [(i, i + 1, x.arrows[i - 1]) for i in range(1, x.n)]
    maps += [(i + 1, i, x.stars[i - 1]) for i in range(1, x.n)]
    images = []
    for w, dw in enumerate(x.dims, start=1):
        for r in range(dw):
            for c in range(dw):
                # phi is the (r, c) matrix unit at vertex w, zero elsewhere
                image = []
                for u, v, f in maps:
                    for a in range(x.dims[v - 1]):
                        for b in range(x.dims[u - 1]):
                            val = f[c][b] if v == w and a == r else 0
                            if u == w and b == c:
                                val -= f[a][r]
                            image.append(val % p)
                images.append(image)
    return len(images) - rank_ff(images, p)


def end_dim_dense(x: LambdaPoint, template) -> int:
    """dim End(x) from the End template's rows filled densely, one
    column per star entry, and reduced by rref_ff."""
    flat = [e for s in x.stars for row in s for e in row]
    rows = []
    for terms in template.terms:
        row = [0] * len(flat)
        for at, star, sign in terms:
            row[at] += sign * flat[star]
        rows.append(row)
    return len(rows) - rank_ff(rows, x.p)


GOLDEN = Path(__file__).parent / "golden"


def golden_grades() -> list[tuple[int, ...]]:
    """The grades pinned in tests/golden, read from the file names
    n<N>_<d_1>_..._<d_N>.json."""
    return [
        tuple(int(x) for x in path.stem.split("_")[1:])
        for path in sorted(GOLDEN.glob("n*.json"))
    ]


def _incoming_columns(x: LambdaPoint, i: int) -> list[tuple[int, ...]]:
    # the columns of the arrow and the star landing in V_i
    cols: list[tuple[int, ...]] = []
    if i >= 2:
        mat = x.arrows[i - 2]
        cols += [tuple(row[c] for row in mat) for c in range(x.dims[i - 2])]
    if i <= x.n - 1:
        mat = x.stars[i - 1]
        cols += [tuple(row[c] for row in mat) for c in range(x.dims[i])]
    return cols


def t_at_point(x: LambdaPoint, i: int) -> int:
    """Codimension in V_i of the sum of the incoming images at the point."""
    return x.dims[i - 1] - rank_ff(_incoming_columns(x, i), x.p)


def peeled_class(x: LambdaPoint, i: int) -> Multisegment:
    """Arrow class of the submodule whose space at i is the sum of the
    incoming images, rewriting the maps in a basis of that sum."""
    di = x.dims[i - 1]
    basis = row_space_basis_ff(_incoming_columns(x, i), x.p)
    r = len(basis)
    basis_cols = tuple(zip(*basis)) if basis else tuple(() for _ in range(di))
    dims = tuple(r if v == i else x.dims[v - 1] for v in range(1, x.n + 1))
    maps = []
    for v in range(1, x.n):
        mat = x.arrows[v - 1]
        if v + 1 == i:
            # codomain shrinks: each column in coordinates of the basis
            cols = []
            for c in range(x.dims[v - 1]):
                coords = solve_ff(basis_cols, tuple(row[c] for row in mat), r, x.p)
                assert coords is not None, "an incoming image escapes its own span"
                cols.append(coords)
            maps.append(tuple(tuple(col[k] for col in cols) for k in range(r)))
        elif v == i:
            # domain shrinks: feed the basis through the map
            maps.append(matmul_ff(mat, basis_cols, x.p, bcols=r))
        else:
            maps.append(mat)
    return iso_class(Rep(x.n, dims, tuple(maps)), x.p)


def rho_by_chi(ev: RhoEvaluator, label: Multisegment, combos) -> tuple[int, ...]:
    """The values on Z_label of word combinations, each the sum of
    ev.chi over its words: one word read at a time, where the package
    reads a combination's words together and applies sparse columns to
    their values (nilpotent._WordColumns)."""
    return tuple(sum(c * ev.chi(label, w) for w, c in combo.items()) for combo in combos)


def sampled_top(m: Multisegment, i: int, ev: RhoEvaluator) -> tuple[int, Multisegment]:
    """t and the peeled class at vertex i of Z_m, read off sampled points.

    Each prime the evaluator reads m at (RhoEvaluator._read_primes) reads
    its draws (RhoEvaluator._draws_for) as the word counts read them: a
    draw with dim End = q(d) alone, else the strict majority of the draws
    of least End.  Two primes must agree; an attempt without a majority
    or without agreement is retried with fresh draws.  A point with t = 0
    peels to its whole arrow part, whose class is m.
    """
    readings = []
    for salt in range(RETRY_BUDGET):
        values = []
        for p in ev._read_primes(m, salt, 2):
            points, ends = ev._draws_for(m, p, salt)
            votes = Counter()
            for x in points:
                t = t_at_point(x, i)
                votes[t, peeled_class(x, i) if t else m] += 1
            value, count = votes.most_common(1)[0]
            values.append(value if 2 * count > len(points) else None)
            readings.append((salt, p, ends, dict(votes)))
        if None not in values and len(set(values)) == 1:
            return values[0]
    raise ConsensusError(f"no sampled reading of t at vertex {i} of Z({m}): {readings}")


def rref_dense(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p by whole-row operations: every
    step scales and subtracts full rows, zeros included."""
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
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def matmul_dense(a, b, p: int, bcols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Matrix product mod p as dot products of rows of a with columns of
    b, every factor summed, zero or not."""
    if b:
        bcols = len(b[0])
    elif bcols is None:
        raise ValueError("column count needed for a matrix with no rows")
    bt = list(zip(*b)) if b else []
    out = []
    for row in a:
        if bt:
            out.append(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt))
        else:
            out.append(tuple([0] * bcols))
    return tuple(out)


def interpolate_by_fractions(points, bound: int) -> int:
    """interpolate_eval_one with each Lagrange term a product of
    Fractions, one per factor, re-derived at every point evaluated."""
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

    def eval_at(x: int) -> Fraction:
        total = Fraction(0)
        for j, (xj, yj) in enumerate(fit):
            term = Fraction(yj)
            for k, (xk, _) in enumerate(fit):
                if k != j:
                    term *= Fraction(x - xk, xj - xk)
            total += term
        return total

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


def joint_kernel(x: LambdaPoint, i: int) -> list[tuple[int, ...]]:
    """A basis of the kernel of every map leaving vertex i of x."""
    rows: list[tuple[int, ...]] = []
    if i <= x.n - 1:
        rows.extend(x.arrows[i - 1])
    if i >= 2:
        rows.extend(x.stars[i - 2])
    return kernel_basis_ff(rows, x.dims[i - 1], x.p)


def expand_by_split(x: LambdaPoint, i: int, a: int) -> list[tuple[int, LambdaPoint]]:
    """The (orbit weight, quotient) pairs of the last letter (i, a) at x,
    always through the split of the joint kernel as T + F, even where the
    kernel itself is the one a-dimensional choice."""
    kernel = joint_kernel(x, i)
    if len(kernel) < a:
        return []
    t_basis, f_basis = nilpotent._kernel_split(x, i, kernel)
    t, c = len(t_basis), len(f_basis)
    pairs = []
    for e in range(min(a, t) + 1):
        g = a - e
        if g > c:
            continue
        orbit = pow(x.p, g * (t - e)) * gaussian_binomial(c, g, x.p)
        for u1 in subspaces_ff(t_basis, e, x.p):
            pairs.append((orbit, nilpotent._quotient_point(x, i, u1 + f_basis[:g])))
    return pairs


def full_walk_count(x: LambdaPoint, w) -> int:
    """The flags of type w at x over F_p, walking every subspace of every
    joint kernel, with no grouping of subspaces into automorphism orbits
    and no pruning of quotients."""
    if not w:
        return 1
    i, a = w[-1]
    return sum(
        full_walk_count(nilpotent._quotient_point(x, i, sub), w[:-1])
        for sub in subspaces_ff(joint_kernel(x, i), a, x.p)
    )


def split_walk_count(x: LambdaPoint, w) -> int:
    """The flags of type w at x over F_p, expanding every letter by
    expand_by_split, with no pruning of quotients."""
    if not w:
        return 1
    i, a = w[-1]
    return sum(orbit * split_walk_count(z, w[:-1]) for orbit, z in expand_by_split(x, i, a))
