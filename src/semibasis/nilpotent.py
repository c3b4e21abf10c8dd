"""Generic points of nilpotent-variety components and flag counting.

The double quiver of linear A_n has the arrows a_i : V_i -> V_{i+1} and
their stars s_i : V_{i+1} -> V_i, subject to the signless relations
a_{i-1} s_{i-1} + s_i a_i = 0 at every vertex.  For a fixed class M the
component Z_M is the closure of the points whose arrow part lies in the
orbit of M; such points are sampled by realizing M and solving the
relations, which are linear in the stars, for a random solution.

Word counts at a component with a graded point are the torus-fixed
flags there (torus.graded_point and torus.fixed_flag_counts), which are
exact and read no prime; every other word count is read off sampled
points over prime fields, the F_p route below, which also serves the
diagonal recount of semican's delta check.  RhoEvaluator is the one
place that picks between the two, and _WordColumns the one read of word
combinations, which every read of semican goes through.  (The
component-level top at a vertex needs no points: it is the crystal
signature rule of quiver.t_component, which semican reads to pick the
recursion's corrections.)

The F_p route reads the consecutive primes from 2, prime_pool, in
order.  A point x of Z_M lies in a dense orbit of the component iff
dim End(x) = q(d), the Tits form: an orbit has dimension
sum d_i^2 - dim End and every component sum d_i d_{i+1}.  For n <= 4 the
preprojective algebra is representation-finite (Geiss-Leclerc-Schroer),
so every component has such an orbit; for n >= 5 some need not.
dim End(x) is computed one way only, from the End template of the
component (_end_template): End(x) is the commutant of x's stars inside
End of the arrow module realize(M), which has a closed-form basis of
segment maps.  The template, built once per component, lists the terms
of each basis map's commutator with the stars, so a point fills that
integral matrix from its stars alone, as sparse rows, and takes one
rank.  Each
(component, prime, attempt) draws up to SAMPLES_PER_PRIME points, once
per evaluator: every word count reads the same draws, and the star
relations of each (component, prime) are solved once, each draw only
combining their kernel basis.  The first draw with dim End = q(d) is
read alone: its automorphism group is connected, so by Lang's theorem
every F_p-point of its orbit is isomorphic to it, and its values are
exactly the generic ones over every prime field, F_2 included.  When no
draw reaches q(d), at most VOTE_SIZE draws of least End vote, and the
reading is the value held by a strict majority of them; such votes are
logged, and RhoEvaluator.voted reports them.  Votes are read only at
primes from VOTE_PRIME_START up: over F_2 and F_3 the points off the
dense orbit are common enough to carry a vote, so there a
(component, prime) without a draw at q(d) is passed over, logged, and
the component reads the next primes of the pool in its place.  A vote
without a majority, or a fit its spare primes reject, makes the attempt
inconclusive; after RETRY_BUDGET attempts sampling fails loudly.

Word monomials are evaluated at a point by the flag recursion: the last
letter (i, a) picks an a-dimensional subspace W of the joint kernel of
the maps leaving i (such W are exactly the submodules isomorphic to
S_i^a), and the rest of the word is evaluated on the quotient.  The
words counted at one point are counted together, in one walk of the
trie of their reversed letters: words ending in the same letters expand
each (point, letter) on their shared suffix once, and nothing outlives
the walk.  _expand proposes the candidates W with the sizes of their
orbits: the kernel itself when it has dimension exactly a, and
otherwise one W per orbit of a split of the kernel.  The walk builds a
quotient y / W only where a next letter (j, b) may fit, that is where
the joint kernel of y / W at j may have dimension b or more, and that
is read off y and W (see _Kernels): it is dim ker_y(i) - a at j = i,
dim ker_y(j) at |j - i| >= 2, which the quotient leaves alone, and at a
neighbour j, with h : V_j -> V_i and g the other map leaving j,
dim ker g - (dim(h(ker g) + W) - a); only the one candidate of a kernel
of dimension a is built for a neighbour's letter unread.  A candidate
where no letter fits adds its orbit only to the words that end there,
as the flags it would be expanded for do not exist, so every count is
that of the full recursion.  The counts over F_p of a word w are
modeled as a polynomial in p of degree at most word_degree_bound(w, d), the dimension
of the product of the partial flag varieties its letters cut out of the
V_i, and converted to Euler characteristics through verified
interpolation at 1; non-polynomial behaviour or a consensus failure is
surfaced, never averaged away.  At a component with a graded point,
which only the evaluators of RhoEvaluator.fresh count by primes, the
degree is at most the tangent-space bound of torus.tangent_bounds, the
dimension of the flag variety there, and a fit takes the smaller of the
two.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import torus
from .errors import ConsensusError, InternalCheckError, InterpolationError
from .hall import Rep, _as_combo, _suffix_trie, realize
from .linalg import (
    complete_basis_ff,
    gaussian_binomial,
    interpolate_eval_one,
    is_prime,
    kernel_basis_ff,
    matmul_ff,
    matrix_equation_rows,
    random_span_point_ff,
    rank_ff,
    rank_sparse_ff,
    row_space_basis_ff,
    rref_ff,
    subspaces_ff,
)
from .quiver import (
    Multisegment,
    Quiver,
    Word,
    euler_form,
    format_word,
    word_weight,
)

__all__ = [
    "LambdaPoint",
    "derive_seed",
    "prime_pool",
    "lift_generic",
    "flag_degree_bound",
    "word_degree_bound",
    "RhoEvaluator",
]

Matrix = tuple[tuple[int, ...], ...]

log = logging.getLogger(__name__)

# attempts, each with fresh draws, before sampling gives up
RETRY_BUDGET = 3
# a vote reads at most this many draws of least End
VOTE_SIZE = 5
# votes are read only at primes from this one up; a smaller prime is read
# only at a draw with dim End = q(d)
VOTE_PRIME_START = 5
# draws per (component, prime, attempt); the first at dim End = q(d) is read
# alone, else at most VOTE_SIZE of least End vote, so more draws add no count
SAMPLES_PER_PRIME = 40


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from a tuple of task coordinates."""
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def prime_pool() -> Iterator[int]:
    """The consecutive primes from 2, in order: the pool every F_p count reads.

    Each word reads a prefix of the primes at which its component is read
    (see RhoEvaluator.chi), at most flag_degree_bound(d) + 2 of them.
    """
    return filter(is_prime, itertools.count(2))


@dataclass(frozen=True)
class LambdaPoint:
    """Explicit matrices of a double-quiver module over a prime field.

    arrows[k] is a_{k+1} with shape d_{k+2} x d_{k+1}; stars[k] is
    s_{k+1} with the transposed shape.
    """

    n: int
    p: int
    dims: tuple[int, ...]
    arrows: tuple[Matrix, ...]
    stars: tuple[Matrix, ...]
    seed: int

    def maps(self) -> list[tuple[int, int, Matrix]]:
        """(source vertex, target vertex, matrix) of every arrow, then every star."""
        return [(i, i + 1, f) for i, f in enumerate(self.arrows, start=1)] + [
            (i + 1, i, f) for i, f in enumerate(self.stars, start=1)
        ]


def _relation_rows(rep: Rep) -> list[list[int]]:
    # the rows of a_{i-1} s_{i-1} + s_i a_i = 0 at every vertex i, linear
    # in the entries of the stars s_i : V_{i+1} -> V_i, taken in order
    shapes = list(zip(rep.dims, rep.dims[1:]))
    # s_i a_i is absent at i = n, and a_{i-1} s_{i-1} at i = 1
    terms = [((k, a, 1),) for k, a in enumerate(rep.maps)]
    equations = list(zip(rep.dims, rep.dims, terms + [()], [()] + terms))
    return matrix_equation_rows(shapes, equations)[0]


def _star_space(template: "_EndTemplate", p: int) -> tuple[Rep, list[tuple[int, int]], list]:
    # the arrow module the template was built on, the shapes of its
    # stars, and a kernel basis over F_p of the template's relation rows
    rep = template.rep
    shapes = list(zip(rep.dims, rep.dims[1:]))
    return rep, shapes, kernel_basis_ff(template.relations, sum(r * c for r, c in shapes), p)


def lift_generic(
    m: Multisegment, n: int, p: int, seed: int, space: tuple | None = None
) -> LambdaPoint:
    """A random point over the canonical orbit point of m.

    The arrow part is realize(m, n); the stars solve the preprojective
    relations, which are linear in them, with a seed-determined random
    combination of a kernel basis of the relations (random_span_point_ff).
    space, when given, is _star_space(_end_template(m, n), p), solved
    once by a caller that lifts many seeds; the point is the same either
    way.  The relations are re-checked exactly before the point is
    returned.
    """
    rep, shapes, kernel = space or _star_space(_end_template(m, n), p)
    unknowns = sum(r * c for r, c in shapes)
    flat = random_span_point_ff(kernel, unknowns, p, random.Random(seed))
    stars: list[Matrix] = []
    pos = 0
    for r, c in shapes:
        stars.append(
            tuple(tuple(flat[pos + row * c + col] for col in range(c)) for row in range(r))
        )
        pos += r * c
    point = LambdaPoint(n, p, rep.dims, rep.maps, tuple(stars), seed)
    _check_relations(point)
    return point


@dataclass(frozen=True)
class _EndTemplate:
    """End(x) for every point x over one arrow module M = realize(m, n).

    End(x) is the commutant of x's stars inside End(M), and End(M) has
    the basis of segment maps B_kl: one for each pair of m's segments
    k = [a, b], l = [c, e] with c <= a <= e <= b, sending k's coordinate
    to l's at every vertex of [a, e]; there are hom_dim(m, m) of them.
    Number the entries of the s_v : V_(v+1) -> V_v, and so of the
    d_v x d_(v+1) matrices phi_v s_v - s_v phi_(v+1), row-major in star
    order.  terms[B] lists (entry, star entry, sign): the entry of that
    matrix at phi = B is the sum of sign * s[star entry] over its terms.
    The h x sum d_v d_(v+1) matrix so filled is integral, and
    dim End(x) = h - its rank.  q is dim End at a point of a dense
    orbit of Z_m, the Tits form q(d).  relations are the integer rows of
    the star relations over M (_relation_rows), which the star space of
    every prime solves mod p.
    """

    rep: Rep
    q: int
    terms: tuple[tuple[tuple[int, int, int], ...], ...]
    relations: list[list[int]]


def _end_template(m: Multisegment, n: int) -> _EndTemplate:
    rep = realize(m, n)
    d = (0,) + rep.dims
    # position[v][k]: the coordinate realize gives segment k at vertex v
    position: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for k, (a, b) in enumerate(m.segments):
        for v in range(a, b + 1):
            position[v][k] = len(position[v])
    # s_v's entries start at offset[v]
    offset = [0] * (n + 1)
    for v in range(1, n):
        offset[v + 1] = offset[v] + d[v] * d[v + 1]
    terms = []
    for k, (a, b) in enumerate(m.segments):
        for l, (c, e) in enumerate(m.segments):
            if not c <= a <= e <= b:
                continue
            signs: dict[tuple[int, int], int] = {}
            for v in range(max(a - 1, 1), min(e, n - 1) + 1):
                o, w = offset[v], d[v + 1]
                if v >= a:
                    # (B s_v)[l(v)][col] = s_v[k(v)][col]
                    row, star = o + position[v][l] * w, o + position[v][k] * w
                    for col in range(w):
                        signs[row + col, star + col] = 1
                if v + 1 <= e:
                    # (s_v B)[r][k(v+1)] = s_v[r][l(v+1)], which cancels
                    # the term above at r = k(v) when l = k
                    col, star = position[v + 1][k], position[v + 1][l]
                    for r in range(d[v]):
                        key = (o + r * w + col, o + r * w + star)
                        signs[key] = signs.get(key, 0) - 1
            terms.append(tuple((at, star, s) for (at, star), s in signs.items() if s))
    q = euler_form(Quiver(n), rep.dims, rep.dims)
    return _EndTemplate(rep, q, tuple(terms), _relation_rows(rep))


def _end_dim(x: LambdaPoint, template: _EndTemplate) -> int:
    # dim End(x) over F_p: the phi in End(M) with phi_v s_v - s_v phi_(v+1) = 0
    # at every star, M the arrow module template was built on.  Each row
    # holds only the terms of nonzero star entries, as {column: entry},
    # and rank_sparse_ff never fills the zeros in
    if x.arrows != template.rep.maps or x.dims != template.rep.dims:
        raise InternalCheckError("End template built on other arrows than the point's")
    flat = [e for s in x.stars for row in s for e in row]
    rows = []
    for terms in template.terms:
        row: dict[int, int] = {}
        for at, star, sign in terms:
            if flat[star]:
                row[at] = row.get(at, 0) + sign * flat[star]
        rows.append(row)
    return len(rows) - rank_sparse_ff(rows, x.p)


def _generic_draws(
    m: Multisegment, n: int, p: int, seeds: Iterable[int], space: tuple, template: _EndTemplate
) -> tuple[list[LambdaPoint], list[int]]:
    # the first point lifted from seeds whose End has dimension q(d),
    # alone, or failing that the first VOTE_SIZE draws of least End; and
    # the End dimensions drawn, one per draw and computed once per
    # distinct point.  space is as for lift_generic, template is
    # _end_template(m, n)
    q = template.q
    draws: list[tuple[int, LambdaPoint]] = []
    # End of each distinct point drawn: the arrows and p are fixed here,
    # so the stars tell points apart, and small star spaces repeat points
    seen: dict[tuple[Matrix, ...], int] = {}
    for seed in seeds:
        x = lift_generic(m, n, p, seed, space)
        e = seen.get(x.stars)
        if e is None:
            e = seen[x.stars] = _end_dim(x, template)
        if e == q:
            return [x], [e for e, _ in draws] + [e]
        draws.append((e, x))
    ends = [e for e, _ in draws]
    return [x for e, x in draws if e == min(ends)][:VOTE_SIZE], ends


def _majority(
    points: Sequence[LambdaPoint], words: Sequence[Word]
) -> tuple[dict[Word, int], dict[Word, Counter]]:
    # per word, the value read at a strict majority of points, reading them
    # in turn and counting at each the words that no value holds a strict
    # majority for yet; and the readings taken of each word
    need = len(points) // 2 + 1
    values: dict[Word, int] = {}
    votes = {w: Counter() for w in words}
    for x in points:
        todo = [w for w in words if w not in values]
        if not todo:
            break
        counted = _count_words(x, todo)
        for w in todo:
            votes[w][counted[w]] += 1
            if votes[w][counted[w]] >= need:
                values[w] = counted[w]
    return values, votes


def _failure_text(headline: str, q: int, history: list) -> str:
    # history holds (attempt, prime, End dimensions drawn, readings taken)
    lines = [
        f"{headline}; a draw with dim End = q(d) = {q} is read alone, "
        "else the draws of least End vote; draws:"
    ]
    for salt, p, ends, votes in history:
        line = f"  attempt {salt}, p={p}: End dimensions {ends}"
        if q in ends:
            line += f", read {next(iter(votes))}"
        else:
            tally = ", ".join(f"{v}: {c}" for v, c in sorted(votes.items(), key=str))
            line += f", votes {{{tally}}}"
        lines.append(line)
    lines.append(
        f"  (a vote reads at most {VOTE_SIZE} draws of least End, lists only the"
        " samples drawn into it, and stops once one value holds a strict majority)"
    )
    return "\n".join(lines)


def _log_vote(what: str, p: int, q: int, points: list[LambdaPoint], ends: list[int]) -> None:
    if p < VOTE_PRIME_START:
        log.warning(
            "%s at p=%d passed over: no draw of %d reached dim End = q(d) = %d, "
            "and votes are read only from p=%d",
            what, p, len(ends), q, VOTE_PRIME_START,
        )
        return
    log.warning(
        "%s at p=%d voted: no draw of %d reached dim End = q(d) = %d; "
        "%d draws of least End %s vote",
        what, p, len(ends), q, len(points), min(ends, default=None),
    )


def _check_relations(x: LambdaPoint) -> None:
    # each entry of a_{i-1} s_{i-1} + s_i a_i, a sum over the products
    # f g present at i of row r of f against column c of g
    for i in range(1, x.n + 1):
        products = []
        if i >= 2:
            products.append((x.arrows[i - 2], x.stars[i - 2]))
        if i <= x.n - 1:
            products.append((x.stars[i - 1], x.arrows[i - 1]))
        for r in range(x.dims[i - 1]):
            for c in range(x.dims[i - 1]):
                if sum(f[r][j] * g_j[c] for f, g in products for j, g_j in enumerate(g)) % x.p:
                    raise InternalCheckError(f"preprojective relation fails at vertex {i}")


def _incoming_vectors(x: LambdaPoint, i: int) -> list[tuple[int, ...]]:
    # columns of every double-quiver map landing in V_i
    return [vec for u, v, f in x.maps() if v == i for vec in zip(*f)]


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
    return LambdaPoint(x.n, p, new_dims, tuple(arrows), tuple(stars), x.seed)


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
    # coordinates over the kernel basis back to vectors of V_i
    return list(matmul_ff(t_coords, kernel, p)), list(matmul_ff(f_coords, kernel, p))


def _joint_kernel(x: LambdaPoint, i: int) -> list[tuple[int, ...]]:
    # a basis of the joint kernel at vertex i of the maps leaving i
    rows: list[tuple[int, ...]] = []
    if i <= x.n - 1:
        rows.extend(x.arrows[i - 1])
    if i >= 2:
        rows.extend(x.stars[i - 2])
    return kernel_basis_ff(rows, x.dims[i - 1], x.p)


def _expand(
    x: LambdaPoint, i: int, a: int, kernel: list[tuple[int, ...]]
) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    # the choices for the last letter (i, a) of a word counted at x, as
    # (orbit weight, U) pairs, one candidate a-dimensional subspace U of
    # kernel = _joint_kernel(x, i) per orbit: the count of a word is the
    # weighted sum of the counts of its shorter word at the quotients x / U
    if len(kernel) < a:
        return
    if len(kernel) == a:
        # the kernel itself is the one candidate: the split below would
        # give e = t and g = c, orbit 1, and the span of T + F, which is
        # the kernel, so there is nothing to split
        yield 1, kernel
        return
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
    for e in range(min(a, t) + 1):
        g = a - e
        if g > c:
            continue
        orbit = pow(x.p, g * (t - e)) * gaussian_binomial(c, g, x.p)
        graph_part = f_basis[:g]
        for u1 in subspaces_ff(t_basis, e, x.p):
            yield orbit, u1 + graph_part


class _Kernels:
    """The joint kernels of one point y of the flag walk, and whether a
    letter fits at a quotient y / U, read off y and U alone.

    U is a candidate of the last letter (i, a): an a-dimensional subspace
    of ker_y(i), the joint kernel of y at i.  The next letter (j, b) fits
    when dim ker_(y/U)(j) >= b.  The quotient changes V_i and the maps at
    i only, so:
      * at j = i, dim ker_(y/U)(i) = dim ker_y(i) - a;
      * at |j - i| >= 2, ker_(y/U)(j) = ker_y(j);
      * at a neighbour j, with h : V_j -> V_i and g the other map leaving
        j (if any), ker_(y/U)(j) holds the v in ker g with h(v) in U, of
        dimension dim ker g - (dim(h(ker g) + U) - a), which is
        dim ker_y(j) + dim(h(ker g) cap U).
    The kernels of y and h(ker g) are computed once per vertex, so each U
    costs at most one small rank, and none where dim ker_y(j) >= b or
    dim ker_y(j) + min(a, dim h(ker g)) < b settles the letter.  known
    holds the joint kernels of y already read, which the point y is a
    quotient of hands on at |j - i| >= 2.
    """

    def __init__(self, y: LambdaPoint, known: dict[int, list[tuple[int, ...]]]):
        self.y = y
        self._joint = known
        self._images: dict[tuple[int, int], tuple[list[list[int]], list[int]]] = {}

    def joint(self, j: int) -> list[tuple[int, ...]]:
        # ker_y(j), as _joint_kernel gives it
        if j not in self._joint:
            self._joint[j] = _joint_kernel(self.y, j)
        return self._joint[j]

    def fits(self, i: int, a: int, u: list[tuple[int, ...]], j: int, b: int) -> bool:
        # whether dim ker_(y/U)(j) >= b, for U = span(u) of dimension a
        low = len(self.joint(j))
        if j == i:
            return low - a >= b
        if abs(j - i) >= 2 or low >= b:
            return low >= b
        rows, pivots = self._image(j, i)
        if low + min(a, len(pivots)) < b:
            return False
        # dim(h(ker g) + U) - dim h(ker g) is the rank of U reduced
        # against the reduced echelon rows of h(ker g)
        p = self.y.p
        reduced = []
        for vec in u:
            vec = list(vec)
            for row, c in zip(rows, pivots):
                f = vec[c]
                if f:
                    vec = [(x - f * r) % p for x, r in zip(vec, row)]
            reduced.append(vec)
        return low + a - rank_ff(reduced, p) >= b

    def _image(self, j: int, i: int) -> tuple[list[list[int]], list[int]]:
        # h(ker g) in reduced echelon form, as rows and their pivots, for
        # h : V_j -> V_i and g the other map leaving j, if any
        if (j, i) not in self._images:
            y, p = self.y, self.y.p
            if j == i + 1:
                h, g = y.stars[i - 1], y.arrows[j - 1] if j <= y.n - 1 else ()
            else:
                h, g = y.arrows[j - 1], y.stars[j - 2] if j >= 2 else ()
            images = [
                tuple(sum(e * v for e, v in zip(row, vec)) % p for row in h)
                for vec in kernel_basis_ff(g, y.dims[j - 1], p)
            ]
            red, pivots = rref_ff(images, p)
            self._images[j, i] = red[: len(pivots)], pivots
        return self._images[j, i]


# expansions, quotients built and quotients pruned by every walk so far;
# each counted batch logs its share
_walked: Counter = Counter()


def _count_words(x: LambdaPoint, words: Iterable[Word]) -> dict[Word, int]:
    # the flag counts at x of words of x's weight, in one depth-first walk
    # of their hall._suffix_trie past each first letter: a walk from the
    # bottom that arrives where a word is held has only its first letter
    # left, which has the quotient's own dimension vector, so its one flag
    # is the whole space.  The walk carries the product of the orbit
    # weights on its path and adds it to every word held where it arrives.
    # _expand proposes the candidates U of the letter (i, a) at y, and the
    # walk builds y / U only where a next letter (j, b) fits,
    # dim ker_(y/U)(j) >= b, which _Kernels reads off y and U:
    # dim ker_y(i) - a at j = i, dim ker_y(j) at |j - i| >= 2, and at a
    # neighbour one small rank against h(ker g).  Elsewhere the words held
    # below get the orbit weight and nothing is built: _expand would
    # propose nothing at y / U, so no count changes.  The one candidate of
    # a kernel of dimension a, which shares h(ker g) with no sibling, is
    # built whenever a neighbour's letter follows: deciding that letter
    # would cost about what building does
    counts = dict.fromkeys(words, 0)

    def walk(y: LambdaPoint, node: tuple[list[Word], dict], weight: int, known: dict) -> None:
        held, children = node
        for w in held:
            counts[w] += weight
        kernels = _Kernels(y, known)
        for (i, a), (below, after) in children.items():
            kernel = kernels.joint(i)
            _walked["expansions"] += 1
            whole = len(kernel) == a
            for orbit, u in _expand(y, i, a, kernel):
                # the next letters that fit at y / U, and the joint kernels
                # of y / U known
                fit, kept = {}, {}
                for (j, b), grandchild in after.items():
                    if (whole and abs(j - i) == 1) or kernels.fits(i, a, u, j, b):
                        fit[j, b] = grandchild
                        if abs(j - i) >= 2:
                            kept[j] = kernels.joint(j)
                if fit:
                    _walked["built"] += 1
                    walk(_quotient_point(y, i, u), (below, fit), weight * orbit, kept)
                else:
                    _walked["pruned"] += 1
                    for w in below:
                        counts[w] += weight * orbit

    walk(x, _suffix_trie(counts, skip=1), 1, {})
    return counts


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

    One evaluator owns one quiver size and one root seed, and it alone
    picks how a label is counted: at a graded point (see graded) by
    torus-fixed flags, elsewhere by the F_p route, which the evaluators
    that fresh hands out use for every label.  On that route sampled
    points are shared across words; the star space of each (component,
    prime) is solved once, the End template and q(d) of each component
    are built once, and the interpolated value of each (component,
    word) pair is computed once; this is what makes whole
    evaluation matrices affordable.  It has two reads: chi, of one word,
    and rho, of one combination.  Combinations are read through
    _WordColumns, whose row counts the distinct words of its
    combinations together: each draw is read once for all of them, in
    one walk of their shared suffixes, and nothing of the walk is kept.
    At DEBUG
    each counted batch logs its label, how many words it counted
    together, how many expansions it made, how many quotients it built
    and how many candidates it pruned unbuilt, how many fits a tangent
    bound lowered and the largest prime it read.
    """

    def __init__(self, n: int, root_seed: int = 0):
        self.n = n
        self.root_seed = root_seed
        self._draws: dict[tuple, tuple[list[LambdaPoint], list[int]]] = {}
        self._spaces: dict[tuple, tuple] = {}
        self._templates: dict[tuple, _EndTemplate] = {}
        # (component, prime) pairs with a draw set that missed q(d): each
        # is logged once, and those from VOTE_PRIME_START up make voted
        self._voted: set[tuple] = set()
        self._chi: dict[tuple, int] = {}
        # graded points by label (None where the search finds none), and
        # whether words are counted there by torus-fixed flags
        self._points: dict[tuple, LambdaPoint | None] = {}
        self._by_torus = True

    def fresh(self) -> "RhoEvaluator":
        """An evaluator at root seed derive_seed(root_seed, "verify-delta"),
        so with seeds disjoint from this one's.

        It shares this one's star spaces, End templates and graded
        points, which no seed enters, and none of its draws or counts,
        and it counts every label by the F_p route; no other evaluator
        does.  At a label with a graded point it fits each word at the
        tangent bound where that undercuts word_degree_bound (see chi).
        The delta check of semican recounts every diagonal entry with
        one, which like any evaluator reads a prime below
        VOTE_PRIME_START only at a draw with dim End = q(d), and whose
        draws must vote at none of the primes it reads (see voted); at a
        graded component, the torus-fixed flags of the construction then
        meet a count by the other method.
        """
        ev = RhoEvaluator(self.n, derive_seed(self.root_seed, "verify-delta"))
        ev._spaces, ev._templates, ev._points = self._spaces, self._templates, self._points
        ev._by_torus = False
        return ev

    def _template(self, label: Multisegment) -> _EndTemplate:
        # _end_template, built once per label and evaluator family
        if label.segments not in self._templates:
            self._templates[label.segments] = _end_template(label, self.n)
        return self._templates[label.segments]

    def _seed(self, label: Multisegment, p: int, k: int, salt: int) -> int:
        return derive_seed(self.root_seed, "rho", self.n, label.text(), p, k, salt)

    def _draws_for(
        self, label: Multisegment, p: int, salt: int
    ) -> tuple[list[LambdaPoint], list[int]]:
        # _generic_draws of up to SAMPLES_PER_PRIME seeds, read by every
        # word; the star relations of a (component, prime) are solved
        # once, and its vote, or its passing over, logged once
        key = (label.segments, p, salt)
        found = self._draws.get(key)
        if found is None:
            template = self._template(label)
            space = self._spaces.get(key[:2])
            if space is None:
                space = self._spaces[key[:2]] = _star_space(template, p)
            seeds = (self._seed(label, p, k, salt) for k in range(SAMPLES_PER_PRIME))
            found = self._draws[key] = _generic_draws(label, self.n, p, seeds, space, template)
            q = template.q
            if q not in found[1] and key[:2] not in self._voted:
                self._voted.add(key[:2])
                _log_vote(f"draws on Z({label})", p, q, *found)
        return found

    def _read_primes(self, label: Multisegment, salt: int, count: int) -> tuple[int, ...]:
        # the first count primes of the pool at which attempt salt reads
        # label: those from VOTE_PRIME_START up, and the smaller ones with
        # a draw at dim End = q(d)
        q = self._template(label).q
        readable = (
            p
            for p in prime_pool()
            if p >= VOTE_PRIME_START or q in self._draws_for(label, p, salt)[1]
        )
        return tuple(itertools.islice(readable, count))

    def voted(self, label: Multisegment) -> bool:
        """Whether some draw set read at label so far votes.

        A draw set is read when it holds a draw with dim End = q(d), or,
        from VOTE_PRIME_START up, when it votes; a smaller prime without
        such a draw is passed over and not read.  While this is False,
        every value read at label is exactly its generic one by Lang's
        theorem.
        """
        return any(
            segments == label.segments and p >= VOTE_PRIME_START
            for segments, p in self._voted
        )

    def graded(self, label: Multisegment) -> LambdaPoint | None:
        """The graded point at which label's words are counted, if any.

        torus.graded_point, searched once per label for an evaluator and
        the evaluators its fresh hands out; always None for one of those,
        which count by the F_p route alone and read the point only for
        its tangent bounds.
        """
        return self._graded_point(label) if self._by_torus else None

    def _graded_point(self, label: Multisegment) -> LambdaPoint | None:
        # torus.graded_point, searched once per label and evaluator family
        # on the family's End template
        if label.segments not in self._points:
            self._points[label.segments] = torus.graded_point(
                label, self.n, self._template(label)
            )
        return self._points[label.segments]

    def _count(self, label: Multisegment, words: Iterable[Word]) -> None:
        # count together the words not yet memoised at label, as chi says
        todo = [w for w in dict.fromkeys(words) if (label.segments, w) not in self._chi]
        if not todo:
            return
        x = self._graded_point(label)
        if x is not None and self._by_torus:
            for w, count in torus.fixed_flag_counts(x, todo).items():
                self._chi[label.segments, w] = count
            return
        d, q = label.dim_vector(self.n), self._template(label).q
        bounds = {w: word_degree_bound(w, d) for w in todo}
        lowered = 0
        if x is not None:
            fitted = [w for w in todo if bounds[w] >= 1]
            for w, tangent in torus.tangent_bounds(x, fitted).items():
                if max(tangent, 0) < bounds[w]:
                    bounds[w] = max(tangent, 0)
                    lowered += 1
        counts = {w: min(b + 3, flag_degree_bound(d) + 2) for w, b in bounds.items()}
        history: dict[Word, list] = {w: [] for w in todo}
        failures: dict[Word, Exception] = {}
        batch, walked, largest = len(todo), _walked.copy(), 0
        for salt in range(RETRY_BUDGET):
            # every prime a word reads is read, so that a failure records all
            # of them; each word reads a prefix of pool
            series: dict[Word, list] = {w: [] for w in todo}
            pool = self._read_primes(label, salt, max(counts[w] for w in todo))
            largest = max(largest, pool[-1])
            for k, p in enumerate(pool):
                reading = [w for w in todo if k < counts[w]]
                points, ends = self._draws_for(label, p, salt)
                values, votes = _majority(points, reading)
                for w in reading:
                    history[w].append((salt, p, ends, votes[w]))
                    series[w].append((p, values.get(w)))
            retry = []
            for w in todo:
                try:
                    if any(value is None for _, value in series[w]):
                        text = _failure_text("no majority at some prime", q, history[w])
                        raise ConsensusError(text)
                    self._chi[label.segments, w] = interpolate_eval_one(series[w], bounds[w])
                except (ConsensusError, InterpolationError) as exc:
                    failures[w] = exc
                    retry.append(w)
            todo = retry
            if not todo:
                break
        log.debug(
            "batch on Z(%s): %d words counted together, %d expansions, "
            "%d quotients built, %d pruned, %d fits lowered by tangent bounds, "
            "largest prime %d",
            label, batch, *(_walked[k] - walked[k] for k in ("expansions", "built", "pruned")),
            lowered, largest,
        )
        if todo:
            word, failure = todo[0], failures[todo[0]]
            raise type(failure)(
                f"count of {format_word(word)} on Z({label}), degree bound {bounds[word]}, "
                f"primes {list(pool[:counts[word]])}: {failure}"
            ) from failure

    def chi(self, label: Multisegment, word: Word) -> int:
        """Generic Euler-characteristic value of the word count on Z_label.

        At a label with a graded point (see graded) it is the number of
        torus-fixed flags there, torus.fixed_flag_counts, which is exact.
        Elsewhere the count is taken at each prime and fitted with degree
        b through the first min(b + 3, B + 2) primes of prime_pool at
        which the label is read, B being flag_degree_bound(d).  b is
        b_w = word_degree_bound(word, d), except at a label with a graded
        point counted by a fresh evaluator: there a word with b_w >= 1 is
        fitted at min(b_w, max(t, 0)), t its torus.tangent_bounds, an
        upper bound on the dimension of its flag variety (-1 when that is
        empty); a word with b_w = 0 reads no tangent bound.  Each prime
        evaluates the word once at its draw with dim End = q(d), which
        is exactly generic, or else votes over its draws of least End,
        stopping once one count holds a strict majority.  A degree-b
        fit through N primes exposes any N - b - 1 wrong values: two when
        b < B, one (as with the grade bound) when b = B; those spare
        primes check a fit at a tangent bound as they check any other.
        """
        key = (label.segments, word)
        if key not in self._chi:
            self._count(label, [word])
        return self._chi[key]

    def rho(self, label: Multisegment, combo: Mapping[Word, int] | Word) -> int:
        """The generic value on Z_label of an integer word combination, or
        of one word: a one-combination _WordColumns row."""
        return _WordColumns([_as_combo(combo)]).row(self, label)[0]


class _WordColumns:
    """Word combinations split once into their distinct words: the one
    read of word combinations at a component.

    words holds the distinct words with a nonzero coefficient, in the
    order the combinations name them, and uses[c] the (combination,
    coefficient) pairs of words[c]: the sparse columns of the matrix of
    coefficients.  row counts words together at a label and applies
    those columns to their values, so each word is looked up once per
    row, however many combinations hold it.
    """

    def __init__(self, combos: Sequence[Mapping[Word, int]]):
        uses: dict[Word, list[tuple[int, int]]] = {}
        for k, combo in enumerate(combos):
            for word, c in combo.items():
                if c:
                    uses.setdefault(word, []).append((k, c))
        self.size = len(combos)
        self.words = tuple(uses)
        self.uses = tuple(uses.values())

    def row(self, ev: RhoEvaluator, label: Multisegment) -> tuple[int, ...]:
        """The generic values on Z_label of the combinations, in order.

        The words are counted together, in one batch of ev (see
        RhoEvaluator._count), and each value is read from ev's memo
        once.  The first word in the order of words that no attempt
        certifies raises chi's error.
        """
        ev._count(label, self.words)
        key = label.segments
        row = [0] * self.size
        for word, held in zip(self.words, self.uses):
            value = ev._chi[key, word]
            if value:
                for k, c in held:
                    row[k] += c * value
        return tuple(row)
