"""Generic points of nilpotent-variety components and flag counting.

The double quiver of linear A_n has the arrows a_i : V_i -> V_{i+1} and
their stars s_i : V_{i+1} -> V_i, subject to the signless relations
a_{i-1} s_{i-1} + s_i a_i = 0 at every vertex.  For a fixed class M the
component Z_M is the closure of the points whose arrow part lies in the
orbit of M; such points are sampled by realizing M and solving the
relations, which are linear in the stars, for a random solution.

Component-level data (the codimension t_i of the incoming image sum,
and the peeled class it spans) and word counts are read off sampled
points.  For n <= 4 the preprojective algebra is representation-finite
(Geiss-Leclerc-Schroer), so each component Z_M is the closure of one
orbit, and a point x of Z_M lies in that orbit iff dim End(x) = q(d),
the Tits form: an orbit has dimension sum d_i^2 - dim End and a
component sum d_i d_{i+1}.  Each prime then reads one accepted point,
the first of up to samples_per_prime draws that passes this test; the
automorphism group of x is connected, so by Lang's theorem every F_p-point
of the orbit is isomorphic to x and its values are exactly the generic
ones.  For n >= 5 no such orbit need exist and sampling falls back to a
vote: t is an upper-semicontinuous integer, so its generic value is the
minimum over samples, the peeled class is the modal value over the
samples that attain that minimum, and a word count is the value holding
a strict majority of the samples.  Every rule requires agreement across
at least two primes and fails loudly otherwise.

Word monomials are evaluated at a point by the flag recursion: the last
letter (i, a) picks an a-dimensional subspace W of the joint kernel of
the maps leaving i (such W are exactly the submodules isomorphic to
S_i^a), and the rest of the word is evaluated on the quotient.  The
counts over F_p of a word w are modeled as a polynomial in p of degree
at most word_degree_bound(w, d), the dimension of the product of the
partial flag varieties its letters cut out of the V_i, and converted to
Euler characteristics through verified interpolation at 1; non-polynomial
behaviour or a consensus failure is surfaced, never averaged away.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ConsensusError, InternalCheckError, InterpolationError
from .hall import Rep, _as_combo, iso_class, realize
from .linalg import (
    complete_basis_ff,
    gaussian_binomial,
    interpolate_eval_one,
    kernel_basis_ff,
    matmul_ff,
    primes,
    rank_ff,
    row_space_basis_ff,
    rref_ff,
    solve_affine_ff,
    solve_ff,
    subspaces_ff,
)
from .quiver import (
    Multisegment,
    Quiver,
    Word,
    euler_form,
    format_word,
    peel_top,
    t_top,
    word_weight,
)

__all__ = [
    "SampleConfig",
    "LambdaPoint",
    "derive_seed",
    "lift_generic",
    "t_at_point",
    "t_component",
    "peel_component",
    "evaluate_word_at_point",
    "flag_degree_bound",
    "word_degree_bound",
    "RhoEvaluator",
    "rho_evaluate",
]

Matrix = tuple[tuple[int, ...], ...]

# Up to this many vertices the preprojective algebra is representation-
# finite, so sampled points are accepted by dim End = q(d), not voted on.
CERTIFIED_MAX_N = 4


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from a tuple of task coordinates."""
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class SampleConfig:
    """Knobs for genericity sampling and Euler-characteristic extraction.

    prime_pool, when given, overrides the default pool (consecutive
    primes from prime_start).  A word w at grade d is counted at the
    first min(b_w + 3, B + 2) primes of the pool, where b_w is
    word_degree_bound(w, d) and B is flag_degree_bound(d), so the pool
    must hold that many primes for every word in play.

    samples_per_prime caps the draws per prime and attempt: for n <= 4
    the first draw with dim End = q(d) is the prime's accepted point, and
    for n >= 5 it is the size of the vote.  An attempt that finds no
    accepted point, or whose vote ties, is retried with fresh draws up to
    retry_budget attempts in all.  force_sampling disables the proven
    combinatorial shortcuts for t and peel, which is only useful for
    cross-checking.
    """

    root_seed: int = 0
    samples_per_prime: int = 5
    retry_budget: int = 3
    consensus_primes: int = 2
    prime_start: int = 5
    prime_pool: tuple[int, ...] | None = None
    force_sampling: bool = False

    def sampling_primes(self, count: int) -> tuple[int, ...]:
        if self.prime_pool is not None:
            if len(self.prime_pool) < count:
                raise ValueError(
                    f"prime pool {self.prime_pool} has fewer than {count} primes"
                )
            return tuple(self.prime_pool[:count])
        return primes(count, self.prime_start)


@dataclass(frozen=True)
class LambdaPoint:
    """Explicit matrices of a double-quiver module over a prime field.

    arrows[k] is a_{k+1} with shape d_{k+2} x d_{k+1}; stars[k] is
    s_{k+1} with the transposed shape.  label records the class whose
    orbit the arrow part was realized from (None for derived points).
    """

    n: int
    p: int
    dims: tuple[int, ...]
    arrows: tuple[Matrix, ...]
    stars: tuple[Matrix, ...]
    label: Multisegment | None
    seed: int


def _relation_rows(rep: Rep) -> tuple[list[list[int]], list[tuple[int, int]]]:
    # the preprojective relations as a linear system in the star entries;
    # unknowns are the entries of s_1, ..., s_{n-1} in row-major order
    n = rep.n
    dims = rep.dims
    shapes = [(dims[v - 1], dims[v]) for v in range(1, n)]
    offsets = [0]
    for rows_, cols_ in shapes:
        offsets.append(offsets[-1] + rows_ * cols_)
    unknowns = offsets[-1]

    def star_slot(v: int, r: int, c: int) -> int:
        # entry (r, c) of s_v, shape d_v x d_{v+1}
        return offsets[v - 1] + r * shapes[v - 1][1] + c

    rows: list[list[int]] = []
    for i in range(1, n + 1):
        di = dims[i - 1]
        for r in range(di):
            for c in range(di):
                row = [0] * unknowns
                if i >= 2:
                    # (a_{i-1} @ s_{i-1})[r][c]
                    a_prev = rep.maps[i - 2]
                    for k in range(dims[i - 2]):
                        if a_prev[r][k]:
                            row[star_slot(i - 1, k, c)] += a_prev[r][k]
                if i <= n - 1:
                    # (s_i @ a_i)[r][c]
                    a_next = rep.maps[i - 1]
                    for k in range(dims[i]):
                        if a_next[k][c]:
                            row[star_slot(i, r, k)] += a_next[k][c]
                if any(row):
                    rows.append(row)
    return rows, shapes


def lift_generic(m: Multisegment, n: int, p: int, seed: int) -> LambdaPoint:
    """A random point over the canonical orbit point of m.

    The arrow part is realize(m, n); the stars solve the preprojective
    relations, which are linear in them, with a seed-determined random
    element of the solution space.  The relations are re-checked exactly
    before the point is returned.
    """
    rep = realize(m, n)
    rows, shapes = _relation_rows(rep)
    unknowns = sum(r * c for r, c in shapes)
    rng = random.Random(seed)
    flat = solve_affine_ff(rows, [0] * len(rows), unknowns, p, rng)
    if flat is None:
        raise InternalCheckError("homogeneous star system reported inconsistent")
    stars: list[Matrix] = []
    pos = 0
    for r, c in shapes:
        stars.append(
            tuple(tuple(flat[pos + row * c + col] for col in range(c)) for row in range(r))
        )
        pos += r * c
    point = LambdaPoint(n, p, rep.dims, rep.maps, tuple(stars), m, seed)
    _check_relations(point)
    return point


def _end_dim(x: LambdaPoint) -> int:
    # dim End(x) over F_p: the families phi_v in End(V_v) with
    # phi_v f = f phi_u for every map f : V_u -> V_v of the double quiver;
    # unknowns are the entries of phi_1, ..., phi_n in row-major order
    dims = x.dims
    offsets = [0]
    for dv in dims:
        offsets.append(offsets[-1] + dv * dv)
    unknowns = offsets[-1]
    maps = [(i, i + 1, x.arrows[i - 1]) for i in range(1, x.n)]
    maps += [(i + 1, i, x.stars[i - 1]) for i in range(1, x.n)]
    rows: list[list[int]] = []
    for u, v, f in maps:
        du, dv = dims[u - 1], dims[v - 1]
        ou, ov = offsets[u - 1], offsets[v - 1]
        for r in range(dv):
            for c in range(du):
                # (phi_v f - f phi_u)[r][c]
                row = [0] * unknowns
                for k in range(dv):
                    if f[k][c]:
                        row[ov + r * dv + k] += f[k][c]
                for k in range(du):
                    if f[r][k]:
                        row[ou + k * du + c] -= f[r][k]
                if any(row):
                    rows.append(row)
    return unknowns - rank_ff(rows, x.p)


def _tits_form(m: Multisegment, n: int) -> int:
    d = m.dim_vector(n)
    return euler_form(Quiver(n), d, d)


def _first_accepted(
    m: Multisegment, n: int, p: int, seeds: Iterable[int]
) -> tuple[LambdaPoint | None, list[int]]:
    # the first point lifted from seeds whose End has dimension q(d), and
    # the End dimensions of the points drawn up to it
    q = _tits_form(m, n)
    ends: list[int] = []
    for seed in seeds:
        x = lift_generic(m, n, p, seed)
        ends.append(_end_dim(x))
        if ends[-1] == q:
            return x, ends
    return None, ends


def _draws_text(headline: str, q: int, history: list[tuple[int, dict[int, str]]]) -> str:
    lines = [f"{headline}; a point is accepted iff dim End = q(d) = {q}; draws:"]
    for salt, per_prime in history:
        for p, seen in per_prime.items():
            lines.append(f"  attempt {salt}, p={p}: {seen}")
    return "\n".join(lines)


def _check_relations(x: LambdaPoint) -> None:
    for i in range(1, x.n + 1):
        di = x.dims[i - 1]
        total = [[0] * di for _ in range(di)]
        if i >= 2:
            prod = matmul_ff(x.arrows[i - 2], x.stars[i - 2], x.p, bcols=di)
            for r in range(di):
                for c in range(di):
                    total[r][c] += prod[r][c] if prod else 0
        if i <= x.n - 1:
            prod = matmul_ff(x.stars[i - 1], x.arrows[i - 1], x.p, bcols=di)
            for r in range(di):
                for c in range(di):
                    total[r][c] += prod[r][c] if prod else 0
        if any(v % x.p for row in total for v in row):
            raise InternalCheckError(f"preprojective relation fails at vertex {i}")


def _columns(mat: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    if not mat:
        return [()] * ncols if ncols else []
    return [tuple(row[c] for row in mat) for c in range(ncols)]


def _incoming_vectors(x: LambdaPoint, i: int) -> list[tuple[int, ...]]:
    # columns of every double-quiver map landing in V_i
    vecs: list[tuple[int, ...]] = []
    if i >= 2:
        vecs.extend(_columns(x.arrows[i - 2], x.dims[i - 2]))
    if i <= x.n - 1:
        vecs.extend(_columns(x.stars[i - 1], x.dims[i]))
    return vecs


def t_at_point(x: LambdaPoint, i: int) -> int:
    """Codimension in V_i of the sum of all incoming images at this point."""
    if not 1 <= i <= x.n:
        raise ValueError(f"vertex {i} out of range 1..{x.n}")
    return x.dims[i - 1] - rank_ff(_incoming_vectors(x, i), x.p)


def _peeled_class(x: LambdaPoint, i: int) -> Multisegment:
    # arrow part of the submodule with V'_i = sum of incoming images
    di = x.dims[i - 1]
    basis = row_space_basis_ff(_incoming_vectors(x, i), x.p)
    r = len(basis)
    basis_cols = tuple(zip(*basis)) if basis else tuple(() for _ in range(di))
    solver_rows = [tuple(vec[k] for vec in basis) for k in range(di)]
    new_dims = tuple(r if v == i else x.dims[v - 1] for v in range(1, x.n + 1))
    new_maps: list[Matrix] = []
    for v in range(1, x.n):
        mat = x.arrows[v - 1]
        if v + 1 == i:
            # codomain shrinks: rewrite each column in the image basis
            cols = []
            for u in _columns(mat, x.dims[v - 1]):
                coords = solve_ff(solver_rows, u, r, x.p)
                if coords is None:
                    raise InternalCheckError(
                        f"incoming image at vertex {i} escapes its own span"
                    )
                cols.append(coords)
            new_maps.append(tuple(tuple(col[k] for col in cols) for k in range(r)))
        elif v == i:
            # domain shrinks: feed the basis vectors through the map
            new_maps.append(matmul_ff(mat, basis_cols, x.p, bcols=r))
        else:
            new_maps.append(mat)
    return iso_class(Rep(x.n, new_dims, tuple(new_maps)), x.p)


def _histogram_text(tag: str, history: list[tuple[int, dict[int, Counter]]]) -> str:
    lines = [f"no consensus for {tag}; per-prime histograms:"]
    for salt, per_prime in history:
        for p in sorted(per_prime):
            counts = ", ".join(f"{v}: {c}" for v, c in sorted(per_prime[p].items(), key=str))
            lines.append(f"  attempt {salt}, p={p}: {{{counts}}}")
    return "\n".join(lines)


def _ambient(m: Multisegment, i: int, n: int | None) -> int:
    if n is None:
        n = max(m.max_end(), i, 1)
    elif m.max_end() > n:
        raise ValueError(f"{m} does not fit in {n} vertices")
    return n


def _certified_reading(
    m: Multisegment, n: int, i: int, cfg: SampleConfig, tag: str, what: str, read
):
    # read one accepted point per prime (n <= CERTIFIED_MAX_N); the
    # readings must agree across primes
    pool = cfg.sampling_primes(max(cfg.consensus_primes, 2))
    history: list[tuple[int, dict[int, str]]] = []
    for salt in range(cfg.retry_budget):
        per_prime: dict[int, str] = {}
        values = []
        for p in pool:
            seeds = (
                derive_seed(cfg.root_seed, tag, n, m.text(), i, p, k, salt)
                for k in range(cfg.samples_per_prime)
            )
            x, ends = _first_accepted(m, n, p, seeds)
            per_prime[p] = f"End dimensions {ends}"
            if x is not None:
                values.append(read(x))
                per_prime[p] += f", read {values[-1]}"
        history.append((salt, per_prime))
        if len(values) == len(pool) and len(set(values)) == 1:
            return values[0]
    raise ConsensusError(_draws_text(f"no certified {what}", _tits_form(m, n), history))


def t_component(
    m: Multisegment, i: int, config: SampleConfig | None = None, n: int | None = None
) -> int:
    """Generic codimension of the incoming image sum at vertex i on Z_m.

    When no segment of m starts at i+1 (in particular at i = n) the
    value provably equals t_top(m, i) and no sampling happens; otherwise
    it is read off one accepted point per prime for n <= 4, and is the
    minimum over sampled points per prime for n >= 5; either way it must
    agree across primes.
    """
    cfg = config or SampleConfig()
    if i < 1:
        raise ValueError(f"vertex {i} must be positive")
    n = _ambient(m, i, n)
    if i >= n or t_top(m, i + 1) == 0:
        if not cfg.force_sampling:
            return t_top(m, i)
    if n <= CERTIFIED_MAX_N:
        return _certified_reading(
            m, n, i, cfg, "t", f"t at vertex {i} of Z({m})", lambda x: t_at_point(x, i)
        )
    pool = cfg.sampling_primes(max(cfg.consensus_primes, 2))
    history: list[tuple[int, dict[int, Counter]]] = []
    for salt in range(cfg.retry_budget):
        per_prime: dict[int, Counter] = {}
        for p in pool:
            vals = Counter()
            for k in range(cfg.samples_per_prime):
                seed = derive_seed(cfg.root_seed, "t", n, m.text(), i, p, k, salt)
                vals[t_at_point(lift_generic(m, n, p, seed), i)] += 1
            per_prime[p] = vals
        history.append((salt, per_prime))
        minima = {p: min(vals) for p, vals in per_prime.items()}
        if len(set(minima.values())) == 1:
            return next(iter(minima.values()))
    raise ConsensusError(_histogram_text(f"t at vertex {i} of Z({m})", history))


def peel_component(
    m: Multisegment, i: int, config: SampleConfig | None = None, n: int | None = None
) -> Multisegment:
    """The class spanned by the incoming images at a generic point of Z_m.

    Requires t_component(m, i) > 0.  In the no-segment-starts-at-i+1
    regime this is exactly peel_top; otherwise it is read off one
    accepted point per prime for n <= 4, and is the modal class over the
    samples attaining the generic t for n >= 5, with cross-prime
    agreement either way.
    """
    cfg = config or SampleConfig()
    if i < 1:
        raise ValueError(f"vertex {i} must be positive")
    n = _ambient(m, i, n)
    t = t_component(m, i, cfg, n)
    if t == 0:
        raise ValueError(f"Z({m}) has nothing to peel at vertex {i}")
    if i >= n or t_top(m, i + 1) == 0:
        if not cfg.force_sampling:
            return peel_top(m, i)
    if n <= CERTIFIED_MAX_N:

        def peeled(x: LambdaPoint) -> Multisegment:
            if t_at_point(x, i) != t:
                raise InternalCheckError(
                    f"certified points of Z({m}) disagree on t at vertex {i}"
                )
            return _peeled_class(x, i)

        return _certified_reading(m, n, i, cfg, "peel", f"peel at vertex {i} of Z({m})", peeled)
    pool = cfg.sampling_primes(max(cfg.consensus_primes, 2))
    history: list[tuple[int, dict[int, Counter]]] = []
    for salt in range(cfg.retry_budget):
        per_prime: dict[int, Counter] = {}
        choices: list[Multisegment] = []
        conclusive = True
        for p in pool:
            classes = Counter()
            for k in range(cfg.samples_per_prime):
                seed = derive_seed(cfg.root_seed, "peel", n, m.text(), i, p, k, salt)
                x = lift_generic(m, n, p, seed)
                if t_at_point(x, i) != t:
                    continue
                classes[_peeled_class(x, i)] += 1
            per_prime[p] = Counter({cls.text(): c for cls, c in classes.items()})
            ranked = classes.most_common(2)
            if not ranked or (len(ranked) == 2 and ranked[0][1] == ranked[1][1]):
                conclusive = False
                continue
            choices.append(ranked[0][0])
        history.append((salt, per_prime))
        if conclusive and len(set(choices)) == 1 and len(choices) == len(pool):
            return choices[0]
    raise ConsensusError(_histogram_text(f"peel at vertex {i} of Z({m})", history))


# ---------------------------------------------------------------------------
# flag counting


def _quotient_point(x: LambdaPoint, i: int, sub: list[tuple[int, ...]]) -> LambdaPoint:
    # quotient by the submodule spanned by sub at vertex i; sub must lie
    # in the kernel of every map leaving i.  With sub in reduced echelon
    # form R, the standard vectors off the pivots map to a basis of
    # V_i / sub, and v projects to v[c] - sum_r R[r][c] v[pivot_r] there.
    p = x.p
    di = x.dims[i - 1]
    red, pivots = rref_ff(sub, p)
    if len(pivots) != len(sub):
        raise ValueError("vectors are not independent")
    pivot_set = set(pivots)
    keep = [c for c in range(di) if c not in pivot_set]
    echelon = [(pivot, red[r]) for r, pivot in enumerate(pivots)]

    def into(mat: Matrix) -> Matrix:
        out = []
        for c in keep:
            row = list(mat[c])
            for pivot, r_row in echelon:
                f = r_row[c]
                if f:
                    row = [u - f * v for u, v in zip(row, mat[pivot])]
            out.append(tuple(u % p for u in row))
        return tuple(out)

    def out_of(mat: Matrix) -> Matrix:
        for row in mat:
            for vec in sub:
                if sum(u * v for u, v in zip(row, vec)) % p:
                    raise InternalCheckError(
                        f"quotient at vertex {i} by a non-invariant subspace"
                    )
        return tuple(tuple(row[c] for c in keep) for row in mat)

    new_dims = tuple(d - len(sub) if v == i else d for v, d in enumerate(x.dims, start=1))
    arrows = list(x.arrows)
    stars = list(x.stars)
    if i >= 2:
        arrows[i - 2] = into(arrows[i - 2])
        stars[i - 2] = out_of(stars[i - 2])
    if i <= x.n - 1:
        arrows[i - 1] = out_of(arrows[i - 1])
        stars[i - 1] = into(stars[i - 1])
    return LambdaPoint(x.n, p, new_dims, tuple(arrows), tuple(stars), None, x.seed)


def _kernel_split(
    x: LambdaPoint, i: int, kernel: list[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    # split the joint kernel at vertex i as T + F, where T is its
    # intersection with the span of the incoming images and F is a
    # complement; F spans free S_i summands of the point
    p = x.p
    di = x.dims[i - 1]
    k = len(kernel)
    incoming = row_space_basis_ff(_incoming_vectors(x, i), p)
    if not incoming or not kernel:
        return [], list(kernel)

    def back(coord_rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        return [
            tuple(sum(cf * vec[c] for cf, vec in zip(co, kernel)) % p for c in range(di))
            for co in coord_rows
        ]

    # lambda with kernel . lambda = incoming . mu picks out the intersection;
    # both families are independent, so lambda alone determines the vector
    r = len(incoming)
    rows = [
        tuple(kernel[j][c] for j in range(k))
        + tuple((p - incoming[l][c]) % p for l in range(r))
        for c in range(di)
    ]
    t_coords = row_space_basis_ff(
        [v[:k] for v in kernel_basis_ff(rows, k + r, p)], p
    )
    f_coords = complete_basis_ff(t_coords, k, p)[len(t_coords):]
    return back(t_coords), back(f_coords)


def _flag_count(x: LambdaPoint, w: Word) -> int:
    if not w:
        return 1
    i, a = w[-1]
    di = x.dims[i - 1]
    rows: list[tuple[int, ...]] = []
    if i <= x.n - 1:
        rows.extend(x.arrows[i - 1])
    if i >= 2:
        rows.extend(x.stars[i - 2])
    kernel = kernel_basis_ff(rows, di, x.p)
    if len(kernel) < a:
        return 0
    shorter = w[:-1]
    # Candidate subspaces U decompose against the split kernel T + F as
    # U cap T plus a graph over a subspace of F.  Maps F -> T extend to
    # point automorphisms (F spans free S_i summands and T is exactly the
    # socle of the complementary summand at i), so the quotient class
    # depends only on U cap T and dim of the F part.  Summing orbit sizes
    # instead of enumerating all of U keeps the recursion polynomial in
    # the multiplicity directions; the q-Vandermonde identity recovers
    # the full Grassmannian count.
    t_basis, f_basis = _kernel_split(x, i, kernel)
    t, c = len(t_basis), len(f_basis)
    total = 0
    for e in range(min(a, t) + 1):
        g = a - e
        if g > c:
            continue
        orbit = pow(x.p, g * (t - e)) * gaussian_binomial(c, g, x.p)
        graph_part = f_basis[:g]
        for u1 in subspaces_ff(t_basis, e, x.p):
            total += orbit * _flag_count(
                _quotient_point(x, i, u1 + graph_part), shorter
            )
    return total


def evaluate_word_at_point(x: LambdaPoint, w: Word) -> int:
    """Number of flags of type w on the point: chains of submodules with
    semisimple layers prescribed by the letters, counted over F_p.

    The last letter (i, a) ranges over a-dimensional subspaces of the
    joint kernel of the maps leaving i (the submodules isomorphic to
    S_i^a); the remainder of the word is counted on the quotient.
    """
    if word_weight(w, x.n) != x.dims:
        raise ValueError(
            f"word weight {word_weight(w, x.n)} does not match dimensions {x.dims}"
        )
    return _flag_count(x, w)


def flag_degree_bound(d: Iterable[int]) -> int:
    """Degree bound shared by every word of dimension vector d.

    The product of the full flag varieties of the V_i, of dimension
    sum d_i (d_i - 1) / 2, dominates every composition-series variety.
    It is the largest word_degree_bound at grade d, attained by words
    whose letters all have a = 1, and it sizes the grade's prime pool.
    """
    return sum(x * (x - 1) // 2 for x in d)


def word_degree_bound(word: Word, d: Sequence[int]) -> int:
    """Degree bound for the flag-count polynomial of word at grade d.

    The flags of type w embed in the product over i of the partial flag
    varieties of V_i whose steps are the letters of w at i, in order.
    That product has dimension sum_i (d_i^2 - sum_{(i, a) in w} a^2) / 2,
    never more than flag_degree_bound(d).
    """
    d = tuple(d)
    if word_weight(word, len(d)) != d:
        raise ValueError(
            f"word weight {word_weight(word, len(d))} does not match grade {d}"
        )
    return (sum(x * x for x in d) - sum(a * a for _, a in word)) // 2


class RhoEvaluator:
    """Evaluates word combinations at generic points of components.

    One evaluator owns one quiver size and one sampling config.  Sampled
    points are shared across words, and the interpolated value of each
    (component, word) pair is computed once; this is what makes whole
    evaluation matrices affordable.
    """

    def __init__(self, n: int, config: SampleConfig | None = None):
        self.n = n
        self.config = config or SampleConfig()
        self._points: dict[tuple, LambdaPoint] = {}
        self._accepted: dict[tuple, tuple[LambdaPoint | None, list[int]]] = {}
        self._chi: dict[tuple, int] = {}

    def fresh(self, namespace: str) -> "RhoEvaluator":
        """An evaluator with seeds disjoint from this one's."""
        cfg = replace(self.config, root_seed=derive_seed(self.config.root_seed, namespace))
        return RhoEvaluator(self.n, cfg)

    def _seed(self, label: Multisegment, p: int, k: int, salt: int) -> int:
        return derive_seed(self.config.root_seed, "rho", self.n, label.text(), p, k, salt)

    def _point(self, label: Multisegment, p: int, k: int, salt: int) -> LambdaPoint:
        key = (label.segments, p, k, salt)
        point = self._points.get(key)
        if point is None:
            point = lift_generic(label, self.n, p, self._seed(label, p, k, salt))
            self._points[key] = point
        return point

    def _accepted_point(
        self, label: Multisegment, p: int, salt: int
    ) -> tuple[LambdaPoint | None, list[int]]:
        # the first of samples_per_prime draws with dim End = q(d), shared
        # by every word, and the End dimensions drawn
        key = (label.segments, p, salt)
        found = self._accepted.get(key)
        if found is None:
            seeds = (
                self._seed(label, p, k, salt) for k in range(self.config.samples_per_prime)
            )
            found = self._accepted[key] = _first_accepted(label, self.n, p, seeds)
        return found

    def _certified_series(
        self, label: Multisegment, word: Word, pool: Sequence[int], salt: int, history: list
    ) -> list[tuple[int, int]] | None:
        # every prime is drawn, so that a failure records all of them
        per_prime: dict[int, str] = {}
        history.append((salt, per_prime))
        points = []
        for p in pool:
            x, ends = self._accepted_point(label, p, salt)
            per_prime[p] = f"End dimensions {ends}"
            points.append(x)
        if any(x is None for x in points):
            return None
        return [(x.p, evaluate_word_at_point(x, word)) for x in points]

    def _voted_series(
        self, label: Multisegment, word: Word, pool: Sequence[int], salt: int, history: list
    ) -> list[tuple[int, int]] | None:
        majority = self.config.samples_per_prime // 2 + 1
        per_prime: dict[int, Counter] = {}
        history.append((salt, per_prime))
        series = []
        for p in pool:
            counts = Counter()
            for k in range(self.config.samples_per_prime):
                count = evaluate_word_at_point(self._point(label, p, k, salt), word)
                counts[count] += 1
                if counts[count] >= majority:
                    break
            per_prime[p] = counts
            ranked = counts.most_common(2)
            if len(ranked) == 2 and ranked[0][1] == ranked[1][1]:
                return None
            series.append((p, ranked[0][0]))
        return series

    def chi(self, label: Multisegment, word: Word) -> int:
        """Generic Euler-characteristic value of the word count on Z_label.

        The count is taken at each prime and fitted with degree
        word_degree_bound(word, d) through the first min(b_w + 3, B + 2)
        primes of the grade's pool, B being flag_degree_bound(d).  For
        n <= 4 it is evaluated once per prime, at the prime's accepted
        point (dim End = q(d)), which is exactly generic.  For n >= 5 it
        is voted over up to samples_per_prime sampled points, stopping
        once one value holds a strict majority.  A degree-b fit through N
        primes exposes any N - b - 1 wrong values: two when b_w < B, one
        (as with the grade bound) when b_w = B.
        """
        key = (label.segments, word)
        if key in self._chi:
            return self._chi[key]
        d = label.dim_vector(self.n)
        bound = word_degree_bound(word, d)
        cfg = self.config
        pool = cfg.sampling_primes(min(bound + 3, flag_degree_bound(d) + 2))
        certified = self.n <= CERTIFIED_MAX_N
        series_at = self._certified_series if certified else self._voted_series
        history: list = []
        failure: Exception | None = None
        for salt in range(cfg.retry_budget):
            series = series_at(label, word, pool, salt, history)
            if series is None:
                if certified:
                    text = _draws_text(
                        "no accepted point at some prime", _tits_form(label, self.n), history
                    )
                else:
                    text = (
                        _histogram_text("the vote", history)
                        + "\n  (a prime lists only the samples drawn; its vote"
                        " stops once one count holds a strict majority)"
                    )
                failure = ConsensusError(text)
                continue
            try:
                value = interpolate_eval_one(series, bound)
            except InterpolationError as exc:
                failure = exc
                continue
            self._chi[key] = value
            return value
        assert failure is not None
        raise type(failure)(
            f"count of {format_word(word)} on Z({label}), degree bound {bound}, "
            f"primes {list(pool)}: {failure}"
        ) from failure

    def rho(self, label: Multisegment, combo: Mapping[Word, Fraction | int] | Word) -> Fraction:
        """The generic value on Z_label of a rational word combination."""
        total = Fraction(0)
        for word, coeff in _as_combo(combo).items():
            total += coeff * self.chi(label, word)
        return total


def rho_evaluate(
    m: Multisegment,
    w: Mapping[Word, Fraction | int] | Word,
    config: SampleConfig | None = None,
    n: int | None = None,
) -> Fraction:
    """One-shot evaluation of a word combination at the component of m."""
    combo = _as_combo(w)
    if n is None:
        letters = [i for word in combo for i, _ in word]
        n = max([m.max_end(), 1] + letters)
    return RhoEvaluator(n, config).rho(m, combo)
