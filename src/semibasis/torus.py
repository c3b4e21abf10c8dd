"""Exact word counts at graded points, by counting torus-fixed flags.

A point x of the double quiver is graded when two things hold:

  * it is monomial: every arrow and star sends each basis vector to a
    multiple of at most one basis vector;
  * the weights it admits separate the basis at every vertex.  These are
    the integer w on basis vectors with w(b') - w(b) = deg(f) at every
    nonzero entry f[b'][b], for one degree deg(f) per map f.

The torus of such weights acts on the variety Fl_w(x) of flags of
submodules of type w: it rescales every map as a whole, which keeps the
submodules.  Its fixed flags are the chains of map-closed basis subsets
whose layers are the word's letters, and they are finitely many, so by
Bialynicki-Birula their number is the Euler characteristic of Fl_w(x)
(Cerulli Irelli, "Quiver Grassmannians associated with string modules",
2011; Haupt 2012).  Counting them needs no prime, no interpolation, no
degree bound and no vote.  The tangent spaces at the same flags bound
dim Fl_w(x) (tangent_bounds, one sparse rank of linalg per flag), which
is the degree that the F_p route fits when it recounts such a component
for the delta check.

That number is the generic value rho_M(w) once x lies in the dense orbit
of the component Z_M, which the search certifies: x has arrow part
realize(M) and satisfies the preprojective relations over Z, so
dim End(x) >= q(d), as at every point of Z_M.  dim End(x) is h minus the
rank of the matrix of nilpotent's End template, h = hom_dim(M, M), over
whichever field; that matrix is integral, each entry a signed sum of
star entries, and its rank mod p is at most its rank over Q.  So
dim End(x) over F_p = q(d) at one prime proves dim End(x) over Q = q(d),
and the orbit of x then has the dimension of Z_M.

graded_point finds such a point by a deterministic search that draws no
seed: the arrows are realize(m, n), each star column has at most one
entry, +1 or -1, and the columns are chosen one at a time, in star order,
each trying its entries before zero, pruned on the relations.  A
component may have no graded point on realize's basis, or none within
LEAF_CAP candidates; it is then read by the F_p route of
nilpotent.RhoEvaluator.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from . import nilpotent
from .errors import InternalCheckError
from .hall import Rep, _suffix_trie
from .linalg import rank_exact, rank_sparse_ff
from .quiver import Multisegment, Word, word_weight

__all__ = ["GRADED_PRIME", "LEAF_CAP", "graded_point", "fixed_flag_counts", "tangent_bounds"]

log = logging.getLogger(__name__)

# the prime at which a candidate's End is computed; any prime proves
# dim End = q(d), and a large one rarely undercounts a rank
GRADED_PRIME = 2**31 - 1
# candidates, each satisfying the relations, read per component
LEAF_CAP = 64

Matrix = tuple[tuple[int, ...], ...]


def _candidates(rep: Rep) -> Iterator[tuple[Matrix, ...]]:
    # star tuples over rep = realize(m, n), one entry of +1 or -1 per column at
    # most, that satisfy the relations over Z, in depth-first order of
    # their columns (s_1's first), at most LEAF_CAP of them.  Each column
    # tries its entries before zero: the stars at a point of a dense orbit
    # are as large as the relations allow (zero first finds, among others,
    # 4 of the 6 components of (5,5) and 23 of the 35 of (2,2,2,2), where
    # this order finds 6 and 33).  The relation
    # a_{i-1} s_{i-1} + s_i a_i = 0 at column c of vertex i reads column c
    # of s_{i-1} and column a_i(c) of s_i only, so it is checked when the
    # later of the two is chosen.  Two entries in one row of a star give
    # their columns equal weights, so no such row is tried
    n, dims = rep.n, rep.dims
    # image[v][c]: the row of a_v's entry in column c, or None
    image = [
        [next((r for r, row in enumerate(f) if row[c]), None) for c in range(dims[v - 1])]
        for v, f in enumerate(rep.maps, start=1)
    ]
    columns = [(v, c) for v in range(1, n) for c in range(dims[v])]
    position = {col: k for k, col in enumerate(columns)}
    # the relation columns (i, c) whose later star column is columns[k]
    checks: list[list[tuple[int, int]]] = [[] for _ in columns]
    for i in range(1, n + 1):
        for c in range(dims[i - 1]):
            reads = [(i - 1, c)] if i >= 2 else []
            if i <= n - 1 and image[i - 1][c] is not None:
                reads.append((i, image[i - 1][c]))
            if reads:
                checks[max(position[col] for col in reads)].append((i, c))
    chosen: dict[tuple[int, int], tuple[int, int] | None] = {}

    def holds(i: int, c: int) -> bool:
        # (a_{i-1} s_{i-1} + s_i a_i) e_c = 0, as a vector over V_i
        total: dict[int, int] = {}
        if i >= 2 and chosen[i - 1, c] is not None:
            r, sign = chosen[i - 1, c]
            if image[i - 2][r] is not None:
                total[image[i - 2][r]] = sign
        if i <= n - 1 and image[i - 1][c] is not None and chosen[i, image[i - 1][c]]:
            r, sign = chosen[i, image[i - 1][c]]
            total[r] = total.get(r, 0) + sign
        return not any(total.values())

    def stars() -> tuple[Matrix, ...]:
        out = []
        for v in range(1, n):
            mat = [[0] * dims[v] for _ in range(dims[v - 1])]
            for c in range(dims[v]):
                if chosen[v, c] is not None:
                    r, sign = chosen[v, c]
                    mat[r][c] = sign
            out.append(tuple(map(tuple, mat)))
        return tuple(out)

    leaves = 0

    def walk(k: int) -> Iterator[tuple[Matrix, ...]]:
        nonlocal leaves
        if k == len(columns):
            leaves += 1
            yield stars()
            return
        v, c = columns[k]
        used = {entry[0] for (u, _), entry in chosen.items() if u == v and entry}
        options = [(r, sign) for r in range(dims[v - 1]) if r not in used for sign in (1, -1)]
        for option in options + [None]:
            chosen[v, c] = option
            if all(holds(i, col) for i, col in checks[k]):
                yield from walk(k + 1)
                if leaves >= LEAF_CAP:
                    break
            del chosen[v, c]

    yield from walk(0)


def _separated(x: nilpotent.LambdaPoint) -> bool:
    # whether the weights x admits separate its basis at every vertex.  A
    # walk of each connected piece of the support from a root b0 writes
    # w(b) = w(b0) + c_b . deg for every b it reaches, c_b an integer vector
    # over the maps; every other edge b -> b' of a map f asks
    # (c_b + e_f - c_b') . deg = 0.  Two basis vectors at one vertex are
    # then tied iff they lie in one piece and c_b - c_b' is in the span of
    # those asks, decided by exact rank (a rank mod p may drop, which
    # would wrongly separate them)
    offsets, edges = _edges(x)
    # per basis vector, (neighbour, map, +1 along the map or -1 against it)
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in range(offsets[-1])]
    for j, f in enumerate(edges):
        for source, target, _ in f:
            adjacent[source].append((target, j, 1))
            adjacent[target].append((source, j, -1))
    unit = [tuple(int(j == k) for k in range(len(edges))) for j in range(len(edges))]
    potential: dict[int, tuple[tuple[int, ...], int]] = {}
    asks: list[tuple[int, ...]] = []
    for b in range(offsets[-1]):
        if b in potential:
            continue
        potential[b] = ((0,) * len(edges), b)
        todo = [b]
        while todo:
            here = todo.pop()
            c_here, root = potential[here]
            for there, j, sign in adjacent[here]:
                reach = tuple(a + sign * e for a, e in zip(c_here, unit[j]))
                if there not in potential:
                    potential[there] = (reach, root)
                    todo.append(there)
                elif potential[there][0] != reach:
                    asks.append(tuple(a - e for a, e in zip(reach, potential[there][0])))
    base = rank_exact(asks)
    for start, stop in zip(offsets, offsets[1:]):
        for b, b2 in combinations(range(start, stop), 2):
            (c, root), (c2, root2) = potential[b], potential[b2]
            if root != root2:
                continue
            diff = tuple(a - e for a, e in zip(c, c2))
            if not any(diff) or rank_exact(asks + [diff]) == base:
                return False
    return True


@lru_cache(maxsize=None)
def graded_point(m: Multisegment, n: int) -> nilpotent.LambdaPoint | None:
    """A graded point of the dense orbit of Z_m, or None if the search finds none.

    The candidates are the monomial points over realize(m, n) described
    in the module docstring, read in a fixed order, at most LEAF_CAP of
    them, each satisfying the relations over Z.  The first is returned
    that has dim End = q(d) at GRADED_PRIME and whose weights separate
    the basis at every vertex.  End is read by nilpotent._end_dim from
    nilpotent._end_template(m, n); the template's matrix is integral and
    a rank mod p is at most the rank over Q, so End = q(d) at
    GRADED_PRIME certifies the dense orbit over Q.  The point's entries
    are stored mod GRADED_PRIME, where the relations are checked again;
    a candidate that fails there raises InternalCheckError.  The flag
    counts read only which entries are nonzero.  No seed enters the
    search, so it is memoized per (m, n), process-wide: every evaluator,
    and the coverage line, reads one search per label.
    """
    template = nilpotent._end_template(m, n)
    rep = template.rep
    p = GRADED_PRIME
    for stars in _candidates(rep):
        reduced = tuple(tuple(tuple(e % p for e in row) for row in f) for f in stars)
        x = nilpotent.LambdaPoint(n, p, rep.dims, rep.maps, reduced, 0)
        # _candidates checks every relation over Z; an entry of a relation
        # sums far fewer than p terms of size at most 1, so it vanishes
        # mod p iff it vanishes over Z, and a failure here is a fault
        nilpotent._check_relations(x)
        if nilpotent._end_dim(x, template) == template.q and _separated(x):
            return x
    return None


def _edges(x: nilpotent.LambdaPoint) -> tuple[list[int], list[list[tuple[int, int, int]]]]:
    # the offset of each vertex's basis in one numbering of x's basis, and
    # per map the (source, target, entry) of its nonzero entries there
    offsets = [0]
    for dv in x.dims:
        offsets.append(offsets[-1] + dv)
    edges = [
        [
            (offsets[u - 1] + c, offsets[v - 1] + r, entry)
            for r, row in enumerate(f)
            for c, entry in enumerate(row)
            if entry
        ]
        for u, v, f in x.maps()
    ]
    return offsets, edges


def _chains(
    x: nilpotent.LambdaPoint, words: Iterable[Word], whole: bool
) -> Iterator[tuple[list[Word], dict[tuple[int, ...], int]]]:
    # the torus-fixed flags of the words, walked from the bottom along
    # hall._suffix_trie past each first letter: the last letter (i, a)
    # adds a basis vectors at vertex i whose images all lie in the subset
    # so far.  Yields, per trie node with words, those words and the
    # chains of subsets that reach it, from the empty one up to the last
    # below the whole basis, with their number: each chain whole, mapped
    # to 1, or else only its last subset, so that a subset reached along
    # several chains is expanded once.  A word whose weight is not x's
    # raises ValueError
    words = list(words)
    for w in words:
        if word_weight(w, x.n) != x.dims:
            raise ValueError(
                f"word weight {word_weight(w, x.n)} does not match dimensions {x.dims}"
            )
    offsets, edges = _edges(x)
    # targets[b]: the basis vectors that the maps leaving b's vertex send
    # b to, as a bit mask
    targets = [0] * offsets[-1]
    for source, target, _ in (edge for f in edges for edge in f):
        targets[source] |= 1 << target

    def walk(node: tuple[list[Word], dict], reached: dict) -> Iterator:
        held, children = node
        if held:
            yield held, reached
        for (i, a), child in children.items():
            after: dict[tuple[int, ...], int] = {}
            for chain, number in reached.items():
                sub = chain[-1]
                free = [
                    b
                    for b in range(offsets[i - 1], offsets[i])
                    if not sub >> b & 1 and not targets[b] & ~sub
                ]
                for pick in combinations(free, a):
                    grown = sub | sum(1 << b for b in pick)
                    key = (chain if whole else ()) + (grown,)
                    after[key] = after.get(key, 0) + number
            if after:
                yield from walk(child, after)

    yield from walk(_suffix_trie(words, skip=1), {(0,): 1})


def fixed_flag_counts(x: nilpotent.LambdaPoint, words: Iterable[Word]) -> dict[Word, int]:
    """The torus-fixed flags of each word of x's weight at the graded point x.

    A fixed flag is a chain of map-closed subsets of x's basis, built
    from the bottom: the last letter (i, a) adds a basis vectors at
    vertex i whose images all lie in the subset so far.  The words are
    counted together in one walk of the trie of their reversed letters,
    hall._suffix_trie, which nilpotent._count_words walks too; each
    level of this walk holds the closed subsets it reached with their
    number of chains, so a subset reached along several chains is
    expanded once.  Nothing of the walk is kept.  A word whose weight is
    not x's raises ValueError.
    """
    counts = dict.fromkeys(words, 0)
    for held, reached in _chains(x, counts, whole=False):
        for w in held:
            counts[w] += sum(reached.values())
    return counts


def tangent_bounds(x: nilpotent.LambdaPoint, words: Iterable[Word]) -> dict[Word, int]:
    """Per word of x's weight, an upper bound on dim Fl_w(x), or -1 if it is empty.

    A generic one-parameter subgroup of x's torus has the fixed flags of
    fixed_flag_counts as its fixed points, and every point of the
    projective Fl_w(x) flows to one of them, into a cell that the
    tangent space there bounds (Bialynicki-Birula); with no fixed flag,
    Fl_w(x) is empty.  At a flag U_1 < ... < U_(k-1) of submodules of
    the module M of x, that tangent space holds the tuples (phi_j),
    phi_j in Hom_Lambda(U_j, M/U_j), with phi_(j+1) restricted to U_j
    equal to phi_j taken mod U_(j+1): the quiver-Grassmannian tangent
    space Hom_Lambda(U, M/U) of Cerulli Irelli (2011) on every step.
    Its dimension is the number of unknowns minus the rank of its
    equations, linalg.rank_sparse_ff at GRADED_PRIME, which can only
    overstate it (rank mod p is at most rank over Q); the bound is the
    largest over the fixed flags, and it never exceeds word_degree_bound,
    the dimension of the space of all flags of vector spaces of type w,
    at which the walk over a word's flags stops.  Every map of a graded
    point is a partial injection on the basis (separating weights
    forbid two entries in a row), so each equation ties at most two
    unknowns and is written as a sparse row.  A word whose weight is not
    x's raises ValueError.
    """
    p = GRADED_PRIME
    offsets, edges = _edges(x)
    size = offsets[-1]
    # per map, source -> (target, entry) and target -> (source, entry)
    forward = [{s: (t, e) for s, t, e in f} for f in edges]
    backward = [{t: (s, e) for s, t, e in f} for f in edges]
    if any(len(g) < len(f) or len(h) < len(f) for f, g, h in zip(edges, forward, backward)):
        raise InternalCheckError("a map of a graded point is not a partial injection")
    ends = [(u - 1, v - 1) for u, v, _ in x.maps()]

    def slot(j: int, t: int, b: int) -> int:
        # the unknown phi_j(b) at t, for b in U_j and t off U_j at one vertex
        return (j * size + t) * size + b

    def dimension(chain: tuple[int, ...]) -> int:
        # chain[0] is the empty subset, which carries no unknown
        inside, outside = (
            [
                [[b for b in range(offsets[v], offsets[v + 1]) if (sub >> b & 1) == keep]
                 for v in range(x.n)]
                for sub in chain
            ]
            for keep in (1, 0)
        )
        unknowns = sum(
            len(ins) * len(outs) for j in range(len(chain))
            for ins, outs in zip(inside[j], outside[j])
        )
        # each equation as {unknown: coefficient}: its two terms never
        # name one unknown, as every map joins two different vertices
        equations: list[dict[int, int]] = []
        for j, sub in enumerate(chain):
            # phi_j f = f phi_j at (t, b), for b in U_j and t off U_j
            for f, g, (u, v) in zip(forward, backward, ends):
                for b in inside[j][u]:
                    for t in outside[j][v]:
                        terms = {}
                        if b in f:
                            image, entry = f[b]
                            terms[slot(j, t, image)] = entry
                        if t in g and not sub >> g[t][0] & 1:
                            source, entry = g[t]
                            terms[slot(j, source, b)] = -entry
                        if terms:
                            equations.append(terms)
            if j + 1 < len(chain):
                # phi_(j+1) on U_j is phi_j mod U_(j+1)
                for ins, outs in zip(inside[j], outside[j + 1]):
                    for b in ins:
                        for t in outs:
                            equations.append({slot(j + 1, t, b): 1, slot(j, t, b): -1})
        return unknowns - rank_sparse_ff(equations, p)

    bounds = dict.fromkeys(words, -1)
    for held, reached in _chains(x, bounds, whole=True):
        cap = nilpotent.word_degree_bound(held[0], x.dims)
        best = -1
        for chain in reached:
            best = max(best, dimension(chain))
            if best >= cap:
                break
        for w in held:
            bounds[w] = best
    return bounds


def log_coverage(points: Mapping[Multisegment, nilpotent.LambdaPoint | None]) -> None:
    """Log, at INFO, how many of a grade's components have a graded point."""
    missed = [m for m, x in points.items() if x is None]
    log.info(
        "graded points: %d of %d components read by torus-fixed flags%s",
        len(points) - len(missed),
        len(points),
        "; F_p: " + ", ".join(f"Z({m})" for m in missed) if missed else "",
    )
