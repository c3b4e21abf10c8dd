"""Combinatorics of the linearly oriented type A quiver.

The quiver has vertices 1, ..., n and one arrow i -> i+1 for each i < n.
Every finite-dimensional representation decomposes into interval modules,
one for each segment [a, b] with 1 <= a <= b <= n, so an isomorphism class
is a multiset of segments (a multisegment).  This module implements the
multisegment calculus: enumeration by dimension vector, Hom dimensions,
the degeneration (orbit closure) order, top-peeling at a vertex (of the
module, and at a generic point of its component of the nilpotent variety
by the crystal signature rule), generic extensions by simples, and the
generic composition word of a class.

Conventions used throughout:

* a segment is a pair ``(a, b)`` of vertices with ``a <= b``;
* the canonical order on segments is start ascending, end descending,
  so ``1[1,2]+1[1,1]+1[2,2]`` is in canonical form;
* ``M <= N`` in the degeneration order means the orbit of ``N`` lies in
  the closure of the orbit of ``M``; generic classes are small.

>>> m = Multisegment("1[1,2]+1[1,1]+1[2,2]")
>>> m.dim_vector(2)
(2, 2)
>>> t_top(m, 1), t_top(m, 2), t_top(m, 3)
(2, 1, 0)
>>> format_word(total_generic_flag(m))
'(2,1)(1,2)(2,1)'
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import InternalCheckError, ParseError

__all__ = [
    "Quiver",
    "Multisegment",
    "Word",
    "enumerate_multisegments",
    "hom_dim",
    "ext_dim",
    "euler_form",
    "deg_leq",
    "refine_order",
    "t_top",
    "peel_top",
    "t_component",
    "peel_component",
    "generic_ext_simple",
    "total_generic_flag",
    "flag_vertex",
    "word_weight",
    "format_word",
    "parse_word",
]

Segment = tuple[int, int]
Word = tuple[tuple[int, int], ...]

_TERM_RE = re.compile(r"^(?:(\d+)\s*)?\[\s*(\d+)\s*,\s*(\d+)\s*\]$")
_LETTER_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def _seg_key(seg: Segment) -> tuple[int, int]:
    # canonical order: start ascending, end descending
    return (seg[0], -seg[1])


@dataclass(frozen=True)
class Quiver:
    """The linearly oriented A_n quiver, determined by its vertex count."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")

    def vertices(self) -> range:
        return range(1, self.n + 1)


class Multisegment:
    """A multiset of segments, kept in canonical sorted form.

    Accepts an iterable of ``(a, b)`` pairs or a textual form such as
    ``"2[1,2]"`` or ``"1[1,1]+1[2,2]"`` (multiplicity prefix optional,
    ``"0"`` for the zero module).
    """

    __slots__ = ("segments",)

    segments: tuple[Segment, ...]

    def __init__(self, segments: Iterable[Segment] | str = ()):
        if isinstance(segments, str):
            segs = _parse_segments(segments)
        else:
            segs = []
            for seg in segments:
                a, b = int(seg[0]), int(seg[1])
                if not 1 <= a <= b:
                    raise ValueError(f"bad segment [{a},{b}]")
                segs.append((a, b))
        object.__setattr__(self, "segments", tuple(sorted(segs, key=_seg_key)))

    @classmethod
    def _canonical(cls, segments: tuple[Segment, ...]) -> "Multisegment":
        # wraps a tuple that is already valid and in canonical order, such
        # as one derived from a class by an order-keeping rule
        m = object.__new__(cls)
        object.__setattr__(m, "segments", segments)
        return m

    @staticmethod
    def zero() -> "Multisegment":
        return Multisegment(())

    @staticmethod
    def parse(text: str) -> "Multisegment":
        return Multisegment(text)

    def text(self) -> str:
        """Canonical textual form, e.g. ``1[1,2]+1[1,1]+1[2,2]``."""
        if not self.segments:
            return "0"
        parts = []
        for seg, group in itertools.groupby(self.segments):
            parts.append(f"{len(tuple(group))}[{seg[0]},{seg[1]}]")
        return "+".join(parts)

    def max_end(self) -> int:
        return max((b for _, b in self.segments), default=0)

    def dim_vector(self, n: int | None = None) -> tuple[int, ...]:
        if n is None:
            n = self.max_end()
        # difference array: each segment [a, b] adds 1 from vertex a to b;
        # a segment past n indexes past its end
        diff = [0] * (n + 1)
        try:
            for a, b in self.segments:
                diff[a - 1] += 1
                diff[b] -= 1
        except IndexError:
            raise ValueError(f"{self} does not fit in {n} vertices") from None
        return tuple(itertools.accumulate(diff[:n]))

    def is_zero(self) -> bool:
        return not self.segments

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(_seg_key(s) for s in self.segments)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multisegment) and self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Multisegment({self.text()!r})"


def _parse_segments(text: str) -> list[Segment]:
    text = text.strip()
    if text in ("", "0"):
        return []
    segs: list[Segment] = []
    for term in text.split("+"):
        m = _TERM_RE.match(term.strip())
        if m is None:
            raise ParseError(f"bad multisegment term {term!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        if mult > sys.maxsize:
            raise ParseError(f"multiplicity above {sys.maxsize} in {text!r}")
        a, b = int(m.group(2)), int(m.group(3))
        if not 1 <= a <= b:
            raise ParseError(f"bad segment [{a},{b}] in {text!r}")
        if b > sys.maxsize:
            raise ParseError(f"segment end above {sys.maxsize} in {text!r}")
        segs.extend([(a, b)] * mult)
    return segs


@lru_cache(maxsize=None)
def _enumerate_cached(n: int, d: tuple[int, ...]) -> tuple[Multisegment, ...]:
    found: list[Multisegment] = []

    def walk(a: int, open_ends: tuple[int, ...], acc: list[Segment]) -> None:
        if a > n:
            found.append(Multisegment(acc))
            return
        carried = len(open_ends)
        fresh = d[a - 1] - carried
        if fresh < 0:
            return
        for ends in itertools.combinations_with_replacement(range(a, n + 1), fresh):
            new_acc = acc + [(a, b) for b in ends]
            nxt = tuple(b for b in open_ends + ends if b >= a + 1)
            walk(a + 1, nxt, new_acc)

    walk(1, (), [])
    return tuple(sorted(found, key=Multisegment.sort_key))


def enumerate_multisegments(quiver: Quiver, d: Iterable[int]) -> tuple[Multisegment, ...]:
    """All isomorphism classes with dimension vector d, deterministically ordered."""
    dv = tuple(int(x) for x in d)
    if len(dv) != quiver.n:
        raise ValueError(f"dimension vector {dv} has length {len(dv)}, expected {quiver.n}")
    if any(x < 0 for x in dv):
        raise ValueError(f"negative entry in dimension vector {dv}")
    return _enumerate_cached(quiver.n, dv)


@lru_cache(maxsize=None)
def _hom_profile(m: Multisegment) -> dict[tuple[int, int], int]:
    # the nonzero dim Hom(m, [c, d]) by interval: a segment [a, b] maps
    # onto [c, d] exactly when c <= a <= d <= b.  Memoized per class, as
    # deg_leq is per pair; hom_dim and deg_leq only read it
    profile: dict[tuple[int, int], int] = {}
    for a, b in m.segments:
        for c in range(1, a + 1):
            for d in range(a, b + 1):
                profile[c, d] = profile.get((c, d), 0) + 1
    return profile


def hom_dim(m: Multisegment, n: Multisegment) -> int:
    """dim Hom(M, N), additively over the interval decompositions."""
    profile = _hom_profile(m)
    return sum(profile.get(seg, 0) for seg in n.segments)


def ext_dim(m: Multisegment, n: Multisegment) -> int:
    """dim Ext^1(M, N) from the two-step projective resolution of intervals.

    For a segment [a, b] the resolution is 0 -> P(b+1) -> P(a) -> [a,b] -> 0
    with P(v) = [v, top]; applying Hom(-, N) leaves
    dim Ext^1([a,b], N) = dim N_{b+1} - dim N_a + dim Hom([a,b], N).
    """
    top = max(m.max_end(), n.max_end())
    dv = n.dim_vector(top + 1)
    total = 0
    for a, b in m.segments:
        hom_ab = sum(1 for c, d in n.segments if c <= a <= d <= b)
        total += dv[b] - dv[a - 1] + hom_ab
    return total


def euler_form(quiver: Quiver, d: Iterable[int], e: Iterable[int]) -> int:
    """The Euler form sum_i d_i e_i - sum_{i<n} d_i e_{i+1}."""
    dv, ev = tuple(d), tuple(e)
    if len(dv) != quiver.n or len(ev) != quiver.n:
        raise ValueError("dimension vectors must have length n")
    val = sum(di * ei for di, ei in zip(dv, ev))
    val -= sum(dv[i] * ev[i + 1] for i in range(quiver.n - 1))
    return val


@lru_cache(maxsize=None)
def deg_leq(m: Multisegment, n: Multisegment) -> bool:
    """Degeneration order: the orbit of n lies in the orbit closure of m.

    Equivalent to dim Hom(m, L) <= dim Hom(n, L) for every interval L,
    once the dimension vectors agree; an interval that m does not map to
    holds trivially, so only m's nonzero Hom profile is compared.
    Memoized per pair, process-wide: refine_order, the support checks
    and the CLI all ask it.
    """
    if m == n:
        return True
    top = max(m.max_end(), n.max_end())
    if m.dim_vector(top) != n.dim_vector(top):
        return False
    theirs = _hom_profile(n)
    return all(h <= theirs.get(key, 0) for key, h in _hom_profile(m).items())


def refine_order(classes: Iterable[Multisegment]) -> list[Multisegment]:
    """Total order refining the degeneration order, ties by canonical form.

    Kahn's algorithm, always picking the canonically smallest class whose
    predecessors are all placed.  Generic (minimal) classes come first.
    """
    pool = sorted(set(classes), key=Multisegment.sort_key)
    placed: list[Multisegment] = []
    remaining = list(pool)
    while remaining:
        pick = None
        for cand in remaining:
            if all(other == cand or not deg_leq(other, cand) for other in remaining):
                pick = cand
                break
        if pick is None:
            raise InternalCheckError("degeneration order contains a cycle")
        placed.append(pick)
        remaining.remove(pick)
    return placed


def t_top(m: Multisegment, i: int) -> int:
    """Number of segments of m starting exactly at vertex i.

    Equals the codimension in V_i of the image of the incoming quiver
    arrow.  Vacuously zero beyond the support (t at n+1 is always 0).
    """
    if i < 1:
        raise ValueError(f"vertex {i} must be positive")
    return sum(1 for a, _ in m.segments if a == i)


def peel_top(m: Multisegment, i: int) -> Multisegment:
    """Remove the top simple isotypic part at vertex i.

    Every segment [i, b] becomes [i+1, b] (it disappears when b = i);
    all other segments are untouched.
    """
    if i < 1:
        raise ValueError(f"vertex {i} must be positive")
    segs: list[Segment] = []
    for a, b in m.segments:
        if a == i:
            if b > i:
                segs.append((i + 1, b))
        else:
            segs.append((a, b))
    return Multisegment(segs)


def _unmatched_tops(m: Multisegment, i: int) -> list[int]:
    # ends b of the segments [i, b] that the signature rule leaves
    # unmatched: longest first, each [i, b] is matched to the unmatched
    # [i+1, b'] with the least b' > b, if there is one
    if i < 1:
        raise ValueError(f"vertex {i} must be positive")
    below = sorted(b for a, b in m.segments if a == i + 1)
    free = []
    for b in sorted((b for a, b in m.segments if a == i), reverse=True):
        k = next((k for k, end in enumerate(below) if end > b), None)
        if k is None:
            free.append(b)
        else:
            del below[k]
    return free


def t_component(m: Multisegment, i: int) -> int:
    """Codimension at vertex i of the incoming images at a generic point of Z_m.

    Z_m is the component of the nilpotent variety of the doubled quiver
    over the orbit of m; its incoming images at i are those of the arrow
    and of the star landing there.  Kashiwara-Saito identify this t with
    the crystal function epsilon_i, which on multisegments is the number
    of segments [i, b] left unmatched by the signature rule: taken in
    decreasing b, each [i, b] is matched to the unmatched [i+1, b'] with
    the least b' > b, if there is one.  It is at most t_top(m, i), with
    equality when no segment starts at i+1.

    >>> m = Multisegment("2[1,1]+1[2,2]")
    >>> t_component(m, 1), t_top(m, 1)
    (1, 2)
    """
    return len(_unmatched_tops(m, i))


def peel_component(m: Multisegment, i: int) -> Multisegment:
    """The class spanned by the incoming images at a generic point of Z_m.

    Every segment [i, b] that the signature rule of t_component leaves
    unmatched becomes [i+1, b] (it disappears when b = i); all other
    segments are untouched.  This is peel_top when no segment starts at
    i+1.  Raises ValueError when t_component(m, i) is 0.

    >>> peel_component(Multisegment("2[1,1]+1[2,2]"), 1)
    Multisegment('1[1,1]+1[2,2]')
    """
    free = _unmatched_tops(m, i)
    if not free:
        raise ValueError(f"Z({m}) has nothing to peel at vertex {i}")
    segs = list(m.segments)
    for b in free:
        segs.remove((i, b))
        if b > i:
            segs.append((i + 1, b))
    return Multisegment(segs)


def generic_ext_simple(msub: Multisegment, i: int, m: int) -> Multisegment:
    """The generic extension of m copies of the simple at i by msub.

    Attach a head at vertex i to the m longest segments of msub starting
    at i+1; any heads left over become new segments [i, i].
    """
    if m < 1:
        raise ValueError(f"multiplicity {m} must be positive")
    if i < 1:
        raise ValueError(f"vertex {i} must be positive")
    next_ends = sorted((b for a, b in msub.segments if a == i + 1), reverse=True)
    rest = [(a, b) for a, b in msub.segments if a != i + 1]
    heads = min(m, len(next_ends))
    segs = rest
    segs += [(i, b) for b in next_ends[:heads]]
    segs += [(i + 1, b) for b in next_ends[heads:]]
    segs += [(i, i)] * (m - heads)
    return Multisegment(segs)


def flag_vertex(m: Multisegment) -> tuple[int, int]:
    """The scan vertex for the generic flag: the largest start of m.

    Returns (i, t_top(m, i)); this is the largest i with t_top(m, i) > 0
    and t_top(m, i+1) = 0, since no segment starts beyond the largest start.
    """
    if m.is_zero():
        raise ValueError("zero module has no flag vertex")
    i = max(a for a, _ in m.segments)
    return i, t_top(m, i)


def total_generic_flag(m: Multisegment) -> Word:
    """The composition word of the generic flag of m.

    Repeatedly peel the top simple part at the largest admissible vertex,
    emitting one letter (vertex, multiplicity) per step.

    >>> format_word(total_generic_flag(Multisegment("2[1,1]+2[2,2]")))
    '(2,2)(1,2)'
    """
    if m.is_zero():
        raise ValueError("zero module has no composition word")
    word: list[tuple[int, int]] = []
    cur = m
    while not cur.is_zero():
        i, t = flag_vertex(cur)
        word.append((i, t))
        cur = peel_top(cur, i)
    return tuple(word)


def word_weight(word: Word, n: int) -> tuple[int, ...]:
    """Dimension vector of a word: each letter (i, a) contributes a at i."""
    d = [0] * n
    for i, a in word:
        if not 1 <= i <= n:
            raise ValueError(f"letter vertex {i} out of range 1..{n}")
        if a < 1:
            raise ValueError(f"letter multiplicity {a} must be positive")
        d[i - 1] += a
    return tuple(d)


def format_word(word: Word) -> str:
    if not word:
        return "()"
    return "".join(f"({i},{a})" for i, a in word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text in ("", "()"):
        return ()
    cleaned = _LETTER_RE.sub("", text)
    if cleaned.strip():
        raise ParseError(f"bad word {text!r}")
    out = []
    for m in _LETTER_RE.finditer(text):
        i, a = int(m.group(1)), int(m.group(2))
        if i < 1 or a < 1:
            raise ParseError(f"bad letter ({i},{a}) in {text!r}")
        out.append((i, a))
    return tuple(out)
