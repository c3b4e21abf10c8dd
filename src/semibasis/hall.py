"""The degenerate Hall algebra of the linear A_n quiver at q = 1.

PBW basis elements are indexed by multisegments.  The only product ever
needed is left multiplication by 1_{S_i^a}, the characteristic function
of the semisimple class S_i^a, which acts as the divided power e_i^{(a)}
of the Chevalley generator.  Orientation, fixed once for the whole
package: the product (f * g)(x) integrates f over the quotient and g
over the submodule, so

    1_{S_i^a} * P_N  =  sum over L of  #{ U <= L : U = N, L/U = S_i^a } * P_L

with the count taken at q = 1.

Submodules U with semisimple quotient S_i^a correspond to codimension-a
subspaces of the top of L at vertex i.  Filtering that top by how far
each top segment survives splits them into profiles (e_b), one class of
U each; over F_q a profile counts q^s prod_b [m_b choose e_b]_q, and
`hall_counts_simple_top` checks that these total [t_top(L, i) choose a]_q.
At q = 1 this is a closed form: each L comes from N by promoting k_b of
N's segments [i+1, b] to [i, b] and adding k_i = a - sum k_b heads
[i, i], and its one profile yielding N has m_b = n_b + k_b, e_b = n_b
with n_b the number of N's [i, b], so the count is

    prod over b >= i of C(n_b + k_b, k_b),

exact, with no prime.  L is written straight in canonical form: N's
segments run head (start < i), the [i, .] block, the [i+1, .] block and
tail (start > i + 1), so L is head, then its [i, .] block written from
the counts n_b + k_b (ends descending, the heads last), then the [i+1, .]
segments not promoted, then tail.  The test suite checks the count
against prime interpolation, a full grade scan and its column sums
C(t_top(L, i), a), and the tuples against sorting.
Every product runs on segment tuples through one core, `_product`,
which grade-checks each class it yields; `left_mul_divided_power`,
`word_to_pbw` and `check_serre` all call it, and the first two wrap
their result in one PBWVector per call.  Words fold in batches: `_fold`
walks the trie of the batch's reversed letters depth first, so a suffix
shared by several words is multiplied once, and it holds only the
products on its current path and the results, nothing past the call.
`word_to_pbw`, `flag_word_matrix` and the recursion rows of
semican.transition_matrix (`_pbw_rows`) fold this way.  The middle
blocks and their counts depend only on N's [i, .] and [i+1, .]
segments, so `_block_extensions` keeps them in a process-wide table
keyed by (block, i, a), 1,637 keys for the whole of
`check_serre(Quiver(5), 6)`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InternalCheckError
from .linalg import (
    gaussian_binomial,
    invert_unitriangular,
    matmul_ff,
    matrix_equation_rows,
    rank_exact,
    rank_ff,
)
from .quiver import (
    Multisegment,
    Quiver,
    Segment,
    Word,
    deg_leq,
    enumerate_multisegments,
    refine_order,
    t_top,
    total_generic_flag,
    word_weight,
)

__all__ = [
    "Rep",
    "realize",
    "hom_rank",
    "iso_class",
    "hall_counts_simple_top",
    "PBWVector",
    "WordCombo",
    "left_mul_divided_power",
    "word_to_pbw",
    "flag_word_matrix",
    "pbw_to_words",
    "SerreReport",
    "check_serre",
    "iter_dim_vectors",
]

# A word combination is a plain mapping word -> integer coefficient.
WordCombo = dict[Word, int]


@dataclass(frozen=True)
class Rep:
    """Matrices of a representation: maps[k] is x_{k+1 -> k+2}.

    Column convention: the matrix of V_i -> V_{i+1} has shape
    d_{i+1} x d_i and acts on column vectors.
    """

    n: int
    dims: tuple[int, ...]
    maps: tuple[tuple[tuple[int, ...], ...], ...]


def realize(m: Multisegment, n: int) -> Rep:
    """The canonical point of the orbit of m: a direct sum of intervals.

    The basis of V_v is indexed by the segments of m containing v, in
    canonical order; each arrow matrix is 0/1 (a segment keeps its own
    coordinate while it lives).
    """
    dims = m.dim_vector(n)
    index = {
        v: [k for k, (a, b) in enumerate(m.segments) if a <= v <= b]
        for v in range(1, n + 1)
    }
    maps = []
    for v in range(1, n):
        rows = [
            tuple(1 if src == dst else 0 for src in index[v])
            for dst in index[v + 1]
        ]
        maps.append(tuple(rows))
    return Rep(n, dims, tuple(maps))


def hom_rank(m: Multisegment, w: Multisegment, n: int) -> int:
    """dim Hom(M, W) as the solution-space dimension of the intertwiner
    system phi_{v+1} x^M_v - x^W_v phi_v = 0 between the canonical
    realizations, solved exactly over Q.

    An oracle for quiver.hom_dim, which takes the segment formula.
    """
    src = realize(m, n)
    dst = realize(w, n)
    # phi_v : M_v -> W_v
    equations = [
        (dst.dims[v + 1], src.dims[v], ((v + 1, x_m, 1),), ((v, x_w, -1),))
        for v, (x_m, x_w) in enumerate(zip(src.maps, dst.maps))
    ]
    rows, unknowns = matrix_equation_rows(list(zip(dst.dims, src.dims)), equations)
    return unknowns - rank_exact(rows)


def _path_ranks(rep: Rep, p: int) -> dict[tuple[int, int], int]:
    # ranks of all composites V_a -> V_b, 1 <= a <= b <= n
    ranks: dict[tuple[int, int], int] = {}
    for a in range(1, rep.n + 1):
        da = rep.dims[a - 1]
        ranks[a, a] = da
        cur: tuple[tuple[int, ...], ...] = tuple(
            tuple(1 if i == j else 0 for j in range(da)) for i in range(da)
        )
        for b in range(a + 1, rep.n + 1):
            cur = matmul_ff(rep.maps[b - 2], cur, p, bcols=da)
            ranks[a, b] = rank_ff(cur, p)
    return ranks


def iso_class(rep: Rep, p: int) -> Multisegment:
    """Recover the multisegment of a representation from path ranks.

    The multiplicity of [a, b] is r(a,b) - r(a-1,b) - r(a,b+1) + r(a-1,b+1)
    where r(a, b) is the rank of the composite V_a -> V_b, r(a, a) = d_a,
    and out-of-range r is zero.
    """
    ranks = _path_ranks(rep, p)

    def r(a: int, b: int) -> int:
        if a < 1 or b > rep.n:
            return 0
        return ranks[a, b]

    segs: list[Segment] = []
    for a in range(1, rep.n + 1):
        for b in range(a, rep.n + 1):
            mult = r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)
            if mult < 0:
                raise InternalCheckError(
                    f"negative multiplicity {mult} for segment [{a},{b}]"
                )
            segs.extend([(a, b)] * mult)
    return Multisegment(segs)


# ---------------------------------------------------------------------------
# submodule counts


def _bounded_compositions(bounds: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
    # all (e_1, ..., e_r) with 0 <= e_j <= bounds[j] and sum e_j = total
    if not bounds:
        if total == 0:
            yield ()
        return
    for e in range(min(bounds[0], total) + 1):
        for tail in _bounded_compositions(bounds[1:], total - e):
            yield (e,) + tail


def _simple_top_terms(
    segs: tuple[Segment, ...], i: int, a: int
) -> tuple[tuple[Multisegment, tuple[tuple[int, int], ...], int], ...]:
    """Profile decomposition of the codimension-a subspace count.

    The top of L at i is filtered by how far each top segment survives;
    a subspace with profile (e_j) keeps e_j of the m_j segments ending at
    the j-th level.  Returns (resulting class, ((m_j, e_j), ...), power
    of q) per profile; the count over F_q is q^power times the product
    of Gaussian binomials [m_j choose e_j]_q.
    """
    tops = sorted(b for s, b in segs if s == i)
    rest = [s for s in segs if s[0] != i]
    u = len(tops) - a
    if a < 0 or u < 0:
        return ()
    levels = sorted(Counter(tops).items())
    bounds = tuple(mult for _, mult in levels)
    terms = []
    for evec in _bounded_compositions(bounds, u):
        shift = 0
        seen = kept = 0
        new = list(rest)
        for (end, mult), e in zip(levels, evec):
            shift += e * (seen - kept)
            seen += mult
            kept += e
            new.extend([(i, end)] * e)
            if end > i:
                # segments losing their top at i survive as [i+1, end]
                new.extend([(i + 1, end)] * (mult - e))
        factors = tuple((mult, e) for (_, mult), e in zip(levels, evec))
        terms.append((Multisegment(new), factors, shift))
    return tuple(terms)


def hall_counts_simple_top(
    m: Multisegment, i: int, a: int, p: int
) -> dict[Multisegment, int]:
    """Count submodules of m over F_p with quotient the semisimple S_i^a.

    Keys are the isomorphism classes of the submodules; InternalCheckError
    unless they total [t_top(m, i) choose a]_p, the number of
    codimension-a subspaces of the top.  Empty when a > t_top(m, i).
    """
    want = gaussian_binomial(t_top(m, i), a, p)
    counts: dict[Multisegment, int] = {}
    for cls, factors, shift in _simple_top_terms(m.segments, i, a):
        c = p**shift
        for mult, e in factors:
            c *= gaussian_binomial(mult, e, p)
        counts[cls] = counts.get(cls, 0) + c
    total = sum(counts.values())
    if total != want:
        raise InternalCheckError(
            f"submodule counts of {m} over F_{p} with quotient S_{i}^{a} "
            f"total {total}, expected {want}"
        )
    return counts


# ---------------------------------------------------------------------------
# PBW vectors


def _check_grade(cls: Multisegment, n: int, grade: tuple[int, ...]) -> None:
    if cls.dim_vector(n) != grade:
        raise ValueError(f"class {cls} is not of grade {grade}")


class PBWVector:
    """An integer combination of PBW classes sharing one dimension vector."""

    __slots__ = ("n", "grade", "coeffs")

    def __init__(
        self,
        n: int,
        grade: Iterable[int],
        coeffs: Mapping[Multisegment, int] | None = None,
    ):
        self.n = n
        self.grade = tuple(int(x) for x in grade)
        if len(self.grade) != n:
            raise ValueError(f"grade {self.grade} has length {len(self.grade)}, expected {n}")
        clean: dict[Multisegment, int] = {}
        for cls, c in (coeffs or {}).items():
            if not c:
                continue
            _check_grade(cls, n, self.grade)
            clean[cls] = c
        self.coeffs = clean

    @staticmethod
    def unit(n: int) -> "PBWVector":
        """The PBW class of the zero module, the algebra unit."""
        return PBWVector(n, (0,) * n, {Multisegment.zero(): 1})

    def get(self, cls: Multisegment) -> int:
        return self.coeffs.get(cls, 0)

    def items(self) -> list[tuple[Multisegment, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PBWVector)
            and self.n == other.n
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for cls, c in self.items():
            parts.append(f"P({cls})" if c == 1 else f"{c}*P({cls})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<PBWVector {self}>"


# The tuple-level core: a combination keyed by canonical segment tuples.
Segs = tuple[Segment, ...]
SegmentCombo = dict[Segs, int]


@lru_cache(maxsize=None)
def _block_extensions(block: Segs, i: int, a: int) -> tuple[tuple[Segs, int], ...]:
    """The middles, segments starting at i or i + 1, of the extensions by
    S_i^a of a class whose middle is block, each with its q = 1 count,
    written from counts with no sort, the one with no promotion first.
    Entries are immutable tuples, so no reader can change one.
    """
    have: dict[int, int] = {}
    spare: dict[int, int] = {}
    for s, b in block:
        side = have if s == i else spare
        side[b] = side.get(b, 0) + 1
    ends = sorted(spare)
    tops = sorted(have.keys() | spare.keys() | {i}, reverse=True)
    out = []
    for total in range(a + 1):
        for pick in _bounded_compositions(tuple(spare[b] for b in ends), total):
            k = dict(zip(ends, pick))
            k[i] = a - total
            count = 1
            mid: list[Segment] = []
            for b in tops:
                m, e = have.get(b, 0), k.get(b, 0)
                count *= math.comb(m + e, e)
                mid += [(i, b)] * (m + e)
            for b in reversed(ends):
                mid += [(i + 1, b)] * (spare[b] - k[b])
            out.append((tuple(mid), count))
    return tuple(out)


def _extensions(segs: Segs, i: int, a: int) -> Iterator[tuple[Segs, int]]:
    """Every class L with a submodule U = segs and L/U = S_i^a, with the
    q = 1 count of such U, prod_b C(n_b + k_b, k_b) (module docstring).

    L comes as its canonical segment tuple, built without a sort: the
    head (start < i) and tail (start > i + 1) of the canonical tuple segs
    are kept as slices around each middle of _block_extensions, in its
    order.
    """
    # canonical order sorts by start first, and (s, 0) precedes every [s, .]
    lo = bisect_left(segs, (i, 0))
    hi = bisect_left(segs, (i + 2, 0), lo)
    head, tail = segs[:lo], segs[hi:]
    for middle, count in _block_extensions(segs[lo:hi], i, a):
        yield head + middle + tail, count


def _product(
    n: int,
    i: int,
    a: int,
    grade: tuple[int, ...],
    combo: Mapping[Segs, int],
    grades: dict[Segs, tuple[int, ...]],
) -> tuple[tuple[int, ...], SegmentCombo]:
    """e_i^{(a)}, a >= 1, on a combination of the given grade: the grade
    of the product and the product, keyed by segment tuples.

    The product of each class is read from _extensions.  Every class of
    the product is checked against the product's grade, by _check_grade,
    with its ValueError text.  Each distinct class is measured once per
    grade, and that is exact: a segment tuple fixes its own dimension
    vector, so a class that passed at a grade passes there every time.  grades, owned by the caller, keeps the grade each tuple
    passed at; a class asked at any other grade is measured again, and
    fails.
    """
    up = list(grade)
    up[i - 1] += a
    up = tuple(up)
    out: SegmentCombo = {}
    for src, coeff in combo.items():
        for segs, count in _extensions(src, i, a):
            out[segs] = out.get(segs, 0) + coeff * count
    for segs in out:
        if grades.get(segs) != up:
            _check_grade(Multisegment._canonical(segs), n, up)
            grades[segs] = up
    return up, out


def _as_pbw(n: int, grade: tuple[int, ...], combo: Mapping[Segs, int]) -> PBWVector:
    return PBWVector(n, grade, {Multisegment._canonical(s): c for s, c in combo.items()})


def left_mul_divided_power(i: int, a: int, vec: PBWVector) -> PBWVector:
    """Multiply a PBW vector on the left by 1_{S_i^a} = e_i^{(a)}.

    Each coefficient is the q = 1 closed form of the module docstring,
    read from the block table of _block_extensions through _product; the
    vector returned is new, and shares no state with the table.
    """
    n = vec.n
    if not 1 <= i <= n:
        raise ValueError(f"vertex {i} out of range 1..{n}")
    if a < 0:
        raise ValueError(f"power {a} must be non-negative")
    if a == 0:
        return PBWVector(n, vec.grade, vec.coeffs)
    combo = {cls.segments: c for cls, c in vec.coeffs.items()}
    return _as_pbw(n, *_product(n, i, a, vec.grade, combo, {}))


def _as_combo(w: Word | Mapping[Word, int]) -> WordCombo:
    if isinstance(w, tuple):
        return {w: 1}
    return {word: c for word, c in w.items() if c}


def _suffix_trie(words: Iterable[Word], skip: int = 0) -> tuple[list[Word], dict]:
    """The trie of the words' reversed letters, as (words held, children
    by letter) nodes, each word held by the node that its letters after
    the first skip lead to, in the order the words come."""
    root: tuple[list[Word], dict] = ([], {})
    for w in words:
        node = root
        for letter in reversed(w[skip:]):
            node = node[1].setdefault(letter, ([], {}))
        node[0].append(w)
    return root


def _fold(n: int, words: Iterable[Word]) -> dict[Word, SegmentCombo]:
    """Each word folded from the right onto the unit, keyed by segment
    tuples: the product of its letters' divided powers.

    The words fold together, depth first through their _suffix_trie, so
    a suffix shared by several words is multiplied once; only the
    products on the current path and the results are held, and the grade
    memo of _product lives for this call.  Each word's product is the
    one its own letter-by-letter fold gives, in the same key order.
    """
    out: dict[Word, SegmentCombo] = {}
    grades: dict[Segs, tuple[int, ...]] = {}

    def walk(node: tuple[list[Word], dict], grade: tuple[int, ...], vec: SegmentCombo) -> None:
        held, children = node
        for w in held:
            out[w] = vec
        for (i, a), child in children.items():
            walk(child, *_product(n, i, a, grade, vec, grades))

    walk(_suffix_trie(words), (0,) * n, {(): 1})
    return out


def word_to_pbw(quiver: Quiver, w: Word | Mapping[Word, int]) -> PBWVector:
    """Expand a word combination into PBW coordinates.

    A word (i_1,a_1)...(i_k,a_k) denotes 1_{S_{i_1}^{a_1}} * ... *
    1_{S_{i_k}^{a_k}}, applied to the unit by folding from the right.
    All words of a combination must share one weight.  The words fold
    together through _fold, and the sum becomes a PBWVector once, at the
    end.
    """
    combo = _as_combo(w)
    if not combo:
        raise ValueError("empty word combination has no grade")
    n = quiver.n
    weights = {word_weight(word, n) for word in combo}
    if len(weights) > 1:
        raise ValueError(f"mixed word weights {sorted(weights)}")
    return _as_pbw(n, weights.pop(), _pbw_rows(n, [combo])[0])


def _pbw_rows(n: int, combos: Sequence[Mapping[Word, int]]) -> list[SegmentCombo]:
    # each word combination in PBW coordinates, keyed by segment tuples:
    # the words of all of them fold together, each once, through _fold
    folded = _fold(n, dict.fromkeys(word for combo in combos for word in combo))
    rows = []
    for combo in combos:
        total: SegmentCombo = {}
        for word, c in combo.items():
            for segs, k in folded[word].items():
                total[segs] = total.get(segs, 0) + c * k
        rows.append(total)
    return rows


def flag_word_matrix(
    quiver: Quiver, d: Iterable[int]
) -> tuple[tuple[Multisegment, ...], tuple[Word, ...], tuple[tuple[int, ...], ...]]:
    """Expansion matrix of the generic flag words of one grade.

    Returns (classes, words, T): classes in refined degeneration order,
    words[r] the total generic flag of classes[r], and T[r][c] the
    coefficient of P_{classes[c]} in word_to_pbw(words[r]).  T is upper
    unitriangular: the word of a class hits the class itself once and
    otherwise only proper degenerations of it.  The words fold together,
    through _fold.
    """
    classes = tuple(refine_order(enumerate_multisegments(quiver, d)))
    words = tuple(
        () if cls.is_zero() else total_generic_flag(cls) for cls in classes
    )
    folded = _fold(quiver.n, words)
    rows = []
    for r, word in enumerate(words):
        vec = folded[word]
        for segs, c in vec.items():
            hit = Multisegment._canonical(segs)
            if c and not deg_leq(classes[r], hit):
                raise InternalCheckError(
                    f"word of {classes[r]} hits {hit}, not a degeneration of it"
                )
        rows.append(tuple(vec.get(cls.segments, 0) for cls in classes))
    return classes, words, tuple(rows)


def pbw_to_words(quiver: Quiver, d: Iterable[int]) -> dict[Multisegment, WordCombo]:
    """Express every PBW class of grade d in terms of generic flag words.

    Inverts the unitriangular expansion matrix of flag_word_matrix, so
    P_M = sum over classes N of T^{-1}[M][N] * word(N).  The keys run in
    flag_word_matrix's class order, refine_order of the grade: the
    refined degeneration order, generic classes first.
    """
    classes, words, t_mat = flag_word_matrix(quiver, d)
    try:
        t_inv = invert_unitriangular(t_mat)
    except ValueError as exc:
        raise InternalCheckError(
            f"flag word expansions at grade {tuple(d)} are not unitriangular: {exc}"
        ) from exc
    out: dict[Multisegment, WordCombo] = {}
    for r, cls in enumerate(classes):
        combo: WordCombo = {}
        for c, word in enumerate(words):
            if t_inv[r][c]:
                combo[word] = combo.get(word, 0) + t_inv[r][c]
        out[cls] = combo
    return out


# ---------------------------------------------------------------------------
# defining relations


def iter_dim_vectors(n: int, total_bound: int) -> Iterator[tuple[int, ...]]:
    """All dimension vectors of length n with entry sum at most total_bound."""
    for d in itertools.product(range(total_bound + 1), repeat=n):
        if sum(d) <= total_bound:
            yield d


@dataclass(frozen=True)
class SerreReport:
    n: int
    dim_bound: int
    relations_checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_serre(quiver: Quiver, dim_bound: int) -> SerreReport:
    """Verify the defining relations on every PBW class up to a grade bound.

    For each adjacent ordered pair (i, j) and each class N with |grade|
    <= dim_bound, the residual e_i^{(2)} e_j P_N - e_i e_j e_i P_N +
    e_j e_i^{(2)} P_N must vanish identically.  Vectors are keyed by
    segment tuples, and every product goes through _product, so every
    class of every product is grade-checked, each distinct class once per
    grade: `grades`, the memo _product reads, lives for this call only.
    No product is kept, only those grades (14,416 classes at n = 5, freed
    at return): a single-class product costs two bisects, one read of the
    block table and two tuple concatenations per class, and a table of
    whole products kept for the check more than doubled the peak memory
    at n = 5.  A residual becomes a PBWVector only when it fails, for
    the report.
    """
    n = quiver.n
    pairs = [(i, j) for i in quiver.vertices() for j in quiver.vertices() if abs(i - j) == 1]
    checked = 0
    failures: list[str] = []
    grades: dict[Segs, tuple[int, ...]] = {}

    for d in iter_dim_vectors(n, dim_bound):
        for cls in enumerate_multisegments(quiver, d):
            v = {cls.segments: 1}
            once = {k: _product(n, k, 1, d, v, grades) for k in quiver.vertices()}
            twice = {k: _product(n, k, 2, d, v, grades) for k in quiver.vertices()}
            for i, j in pairs:
                grade, residual = _product(n, i, 2, *once[j], grades)
                for sign, (_, term) in (
                    (-1, _product(n, i, 1, *_product(n, j, 1, *once[i], grades), grades)),
                    (1, _product(n, j, 1, *twice[i], grades)),
                ):
                    for segs, c in term.items():
                        residual[segs] = residual.get(segs, 0) + sign * c
                checked += 1
                if any(residual.values()):
                    shown = _as_pbw(n, grade, residual)
                    failures.append(f"(i={i}, j={j}) on P({cls}): residual {shown}")
    return SerreReport(n, dim_bound, checked, tuple(failures))
