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

exact, with no prime.  Inside the products a class is one int
(`_Packing`): one digit per segment type, in canonical order, wide
enough for the largest grade entry the call reaches.  N's [i, .] and
[i+1, .] digits are one contiguous block, and L is N with that block
replaced, by one mask and one int addition, with no sort.  The one core
`_product` grade-checks each class it yields by its digits, so a carry
between digits fails too; `left_mul_divided_power`, `word_to_pbw` and
`check_serre` call it, and keys become Multisegments only at the edges.
Words fold in batches: `_fold` walks the trie of the batch's reversed
letters depth first, so a shared suffix is multiplied once, holding
only the products on its current path and the results; `word_to_pbw`,
`flag_word_matrix` and the recursion rows of semican.transition_matrix
read their folds through `_pbw_matrix`.  The new middles and counts
depend only on N's block, so `_block_extensions` keeps them in a
process-wide table keyed by (block, i, a) and the packing, 1,637 keys
for `check_serre(Quiver(5), 6)`.  The test suite checks the counts
against prime interpolation, a full grade scan and their column sums
C(t_top(L, i), a), and the decoded classes against sorting.
"""

from __future__ import annotations

import itertools
import math
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
            if cls.dim_vector(n) != self.grade:
                raise ValueError(f"class {cls} is not of grade {self.grade}")
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


class _Packing:
    """Classes on n vertices as ints: the multiplicity of each segment
    type is one w-bit digit, in canonical order from the lowest bits, so
    blocks[i] masks the contiguous [i, .] and [i+1, .] digits and decode
    reads a canonical segment tuple with no sort."""

    __slots__ = ("n", "w", "digit", "segments", "shift", "blocks")

    def __init__(self, n: int, w: int):
        self.n, self.w, self.digit = n, w, (1 << w) - 1
        self.segments = tuple((s, b) for s in range(1, n + 1) for b in range(n, s - 1, -1))
        self.shift = {seg: k * w for k, seg in enumerate(self.segments)}
        self.blocks = [
            sum(self.digit << bit for (s, _), bit in self.shift.items() if s in (i, i + 1))
            for i in range(n + 1)
        ]

    def encode(self, cls: Multisegment) -> int:
        return sum(1 << self.shift[seg] for seg in cls.segments)

    def decode(self, key: int) -> Multisegment:
        segs: list[Segment] = []
        for seg in self.segments:
            segs += [seg] * (key >> self.shift[seg] & self.digit)
        return Multisegment._canonical(tuple(segs))

    def dims(self, key: int) -> tuple[int, ...] | None:
        # None if a digit carried past the last one
        diff = [0] * (self.n + 1)
        for a, b in self.segments:
            if not key:
                break
            m = key & self.digit
            diff[a - 1] += m
            diff[b] -= m
            key >>= self.w
        return None if key else tuple(itertools.accumulate(diff[: self.n]))


# one _Packing per (n, w), which _block_extensions keys its entries by
_layout = lru_cache(maxsize=None)(_Packing)


def _packing(n: int, top: int) -> _Packing:
    # the width of every class with no grade entry above top: a
    # multiplicity of [a, b] is at most d_a <= top
    return _layout(n, top.bit_length())


@lru_cache(maxsize=None)
def _block_extensions(block: int, i: int, a: int, pack: _Packing) -> tuple[tuple[int, int], ...]:
    """The middles (blocks[i] digits) of the extensions by S_i^a of a class
    whose middle is block, with their q = 1 counts, the one with no
    promotion first, as immutable tuples no reader can change."""
    shift, digit = pack.shift, pack.digit
    have = {b: block >> shift[i, b] & digit for b in range(i, pack.n + 1)}
    ends = [b for b in range(i + 1, pack.n + 1) if block >> shift[i + 1, b] & digit]
    spare = tuple(block >> shift[i + 1, b] & digit for b in ends)
    out = []
    # no more than the spare [i+1, .] segments can be promoted
    for total in range(min(a, sum(spare)) + 1):
        for pick in _bounded_compositions(spare, total):
            count = math.comb(have[i] + a - total, a - total)
            middle = block + ((a - total) << shift[i, i])
            for b, e in zip(ends, pick):
                count *= math.comb(have[b] + e, e)
                middle += (e << shift[i, b]) - (e << shift[i + 1, b])
            out.append((middle, count))
    return tuple(out)


def _product(
    pack: _Packing, i: int, a: int, grade: tuple[int, ...], combo: Mapping[int, int], grades: dict
) -> tuple[tuple[int, ...], dict[int, int]]:
    """e_i^{(a)}, a >= 1, on a combination of the given grade, keyed by
    packed classes: the grade of the product and the product.

    Each extension is a source's digits outside blocks[i] plus a middle
    of _block_extensions.  Each class is checked against the product's
    grade by its digits, with PBWVector's ValueError text, once per grade
    it is asked at: grades, owned by the caller, keeps the grade each key
    passed at, and a key fixes its dimension vector.
    """
    up = grade[: i - 1] + (grade[i - 1] + a,) + grade[i:]
    mask = pack.blocks[i]
    out: dict[int, int] = {}
    for src, coeff in combo.items():
        block = src & mask
        base = src - block
        for middle, count in _block_extensions(block, i, a, pack):
            key = base + middle
            out[key] = out.get(key, 0) + coeff * count
    for key in out:
        if grades.get(key) != up:
            if pack.dims(key) != up:
                raise ValueError(f"class {pack.decode(key)} is not of grade {up}")
            grades[key] = up
    return up, out


def _as_pbw(pack: _Packing, grade: tuple[int, ...], combo: Mapping[int, int]) -> PBWVector:
    return PBWVector(pack.n, grade, {pack.decode(k): c for k, c in combo.items()})


def left_mul_divided_power(i: int, a: int, vec: PBWVector) -> PBWVector:
    """Multiply a PBW vector on the left by 1_{S_i^a} = e_i^{(a)}.

    Each coefficient is the q = 1 closed form of the module docstring,
    read through _product; the vector returned shares no state with it.
    """
    n = vec.n
    if not 1 <= i <= n:
        raise ValueError(f"vertex {i} out of range 1..{n}")
    if a < 0:
        raise ValueError(f"power {a} must be non-negative")
    if a == 0:
        return PBWVector(n, vec.grade, vec.coeffs)
    pack = _packing(n, max(max(vec.grade), vec.grade[i - 1] + a))
    combo = {pack.encode(cls): c for cls, c in vec.coeffs.items()}
    return _as_pbw(pack, *_product(pack, i, a, vec.grade, combo, {}))


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


def _fold(pack: _Packing, words: Iterable[Word]) -> dict[Word, dict[int, int]]:
    """Each word folded from the right onto the unit, keyed by packed
    classes: the product of its letters' divided powers.

    The words fold together, depth first through their _suffix_trie, so
    a shared suffix is multiplied once, each word's product in the order
    its own letter-by-letter fold gives.
    """
    out: dict[Word, dict[int, int]] = {}
    grades: dict[int, tuple[int, ...]] = {}

    def walk(node: tuple[list[Word], dict], grade: tuple[int, ...], vec: dict[int, int]) -> None:
        held, children = node
        for w in held:
            out[w] = vec
        for (i, a), child in children.items():
            walk(child, *_product(pack, i, a, grade, vec, grades))

    walk(_suffix_trie(words), (0,) * pack.n, {0: 1})
    return out


def word_to_pbw(quiver: Quiver, w: Word | Mapping[Word, int]) -> PBWVector:
    """Expand a word combination into PBW coordinates.

    A word (i_1,a_1)...(i_k,a_k) denotes 1_{S_{i_1}^{a_1}} * ... *
    1_{S_{i_k}^{a_k}}, applied to the unit by folding from the right.
    All words of a combination must share one weight.  The words fold
    together through _fold, and the sum is read at the grade's classes.
    """
    combo = _as_combo(w)
    if not combo:
        raise ValueError("empty word combination has no grade")
    n = quiver.n
    weights = {word_weight(word, n) for word in combo}
    if len(weights) > 1:
        raise ValueError(f"mixed word weights {sorted(weights)}")
    grade = weights.pop()
    classes = enumerate_multisegments(quiver, grade)
    [row] = _pbw_matrix(n, grade, classes, [combo])
    return PBWVector(n, grade, dict(zip(classes, row)))


def _pbw_matrix(
    n: int, d: tuple[int, ...], classes: Sequence[Multisegment], combos: Sequence[Mapping[Word, int]]
) -> tuple[tuple[int, ...], ...]:
    # word combinations of grade d in PBW coordinates, read at the grade's
    # classes: every class a product yields passed its grade check, so it
    # is one of them.  The words of all of them fold together, each once
    pack = _packing(n, max(d))
    folded = _fold(pack, dict.fromkeys(word for combo in combos for word in combo))
    keys = [pack.encode(cls) for cls in classes]
    rows = []
    for combo in combos:
        row = dict.fromkeys(keys, 0)
        for word, c in combo.items():
            for key, k in folded[word].items():
                row[key] += c * k
        rows.append(tuple(row.values()))
    return tuple(rows)


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
    d = tuple(d)
    classes = tuple(refine_order(enumerate_multisegments(quiver, d)))
    words = tuple(() if cls.is_zero() else total_generic_flag(cls) for cls in classes)
    t_mat = _pbw_matrix(quiver.n, d, classes, [{word: 1} for word in words])
    for r, row in enumerate(t_mat):
        for c, coeff in enumerate(row):
            if coeff and not deg_leq(classes[r], classes[c]):
                raise InternalCheckError(
                    f"word of {classes[r]} hits {classes[c]}, not a degeneration of it"
                )
    return classes, words, t_mat


def pbw_to_words(quiver: Quiver, d: Iterable[int]) -> dict[Multisegment, WordCombo]:
    """Express every PBW class of grade d in terms of generic flag words.

    Inverts the unitriangular expansion matrix of flag_word_matrix, so
    P_M = sum over classes N of T^{-1}[M][N] * word(N).  The keys run in
    flag_word_matrix's class order, refine_order of the grade: the
    refined degeneration order, generic classes first.
    """
    d = tuple(d)
    classes, words, t_mat = flag_word_matrix(quiver, d)
    try:
        t_inv = invert_unitriangular(t_mat)
    except ValueError as exc:
        raise InternalCheckError(
            f"flag word expansions at grade {d} are not unitriangular: {exc}"
        ) from exc
    # the words are distinct, as T is invertible
    return {
        cls: {word: c for word, c in zip(words, t_inv[r]) if c} for r, cls in enumerate(classes)
    }


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
    e_j e_i^{(2)} P_N must vanish identically.  Every product goes
    through _product, at one width for the call, with one grade memo
    (14,416 keys at n = 5, freed at return).  No product is kept: one
    costs a mask, a table read and an int addition per class, and a table
    of whole products more than doubled the peak memory at n = 5.  A
    residual becomes a PBWVector only when it fails, for the report.
    """
    n = quiver.n
    pairs = [(i, j) for i in quiver.vertices() for j in quiver.vertices() if abs(i - j) == 1]
    checked = 0
    failures: list[str] = []
    grades: dict[int, tuple[int, ...]] = {}
    # a grade entry of at most dim_bound gains 2 at most, from e_i^{(2)}
    pack = _packing(n, dim_bound + 2)

    for d in iter_dim_vectors(n, dim_bound):
        for cls in enumerate_multisegments(quiver, d):
            v = {pack.encode(cls): 1}
            once = {k: _product(pack, k, 1, d, v, grades) for k in quiver.vertices()}
            twice = {k: _product(pack, k, 2, d, v, grades) for k in quiver.vertices()}
            for i, j in pairs:
                grade, residual = _product(pack, i, 2, *once[j], grades)
                for sign, (_, term) in (
                    (-1, _product(pack, i, 1, *_product(pack, j, 1, *once[i], grades), grades)),
                    (1, _product(pack, j, 1, *twice[i], grades)),
                ):
                    for key, c in term.items():
                        residual[key] = residual.get(key, 0) + sign * c
                checked += 1
                if any(residual.values()):
                    shown = _as_pbw(pack, grade, residual)
                    failures.append(f"(i={i}, j={j}) on P({cls}): residual {shown}")
    return SerreReport(n, dim_bound, checked, tuple(failures))
