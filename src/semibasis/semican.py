"""Semicanonical elements in PBW coordinates, built two ways and certified.

Each irreducible component Z of the nilpotent variety carries a unique
element f_Z with rho_{Z'}(f_Z) = delta_{Z,Z'} over the components Z' of
the same grade.  Two independent routes compute the matrix expressing
the f_Z in the PBW basis:

  * inversion: evaluate every PBW element at every component (the
    evaluation matrix E) and invert its transpose;

  * recursion: peel the module's simple top at its largest start,
    multiply the smaller element back, and subtract the elements of the
    classes whose components have a strictly larger top there
    (quiver.t_component, read from a table kept per basis, grade and
    vertex), which restores the delta-conditions.  Elements are kept as
    word combinations, the form that can be evaluated at points; an
    element's row of the matrix is word_to_pbw of it, and the rows of a
    grade fold all their distinct words together, once each
    (hall._pbw_matrix).

Both must produce the same unitriangular matrix, and a delta-check must
reproduce the identity; any mismatch is an error, never papered over.
transition_matrix is the one entry point that runs all three; the
grade's classes come once, in the key order of pbw_to_words, and every
support check asks the one order predicate, quiver.deg_leq.

Every value of a word combination at a component is read through
nilpotent._WordColumns.  E and the delta matrix split the grade's
combinations into their distinct words once per grade, in the order
the combinations name them; a row at component K counts those words
together and applies the sparse columns of the coefficient matrix to
their values, so each word is counted and looked up once per row.  The
recursion's corrections and the fresh diagonal are RhoEvaluator.rho,
a read of one combination the same way.

The delta-check evaluates every element at every component, by one rule.
A component whose values were all read at draws with dim End = q(d), or
at its graded point (torus-fixed flags, see torus), which reads no prime
at all, has exact values: Lang's theorem makes a count at such a draw the
generic one, and the same at any other draw at q(d).  Its row is read
from the construction's counts, and its diagonal entry, which must be 1,
is recounted by the F_p route at fresh seeds; at a graded component this
is a check across two methods, whose fits take the degree of each word
from the tangent space at the point's torus-fixed flags
(torus.tangent_bounds) where that undercuts word_degree_bound.  The
fresh recount, like the construction, reads a prime below 5 only at a
draw with dim End = q(d).
A component read at a vote in the construction, or whose fresh draws
vote at some prime from 5 up, is recounted in full at fresh seeds.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import nilpotent, torus
from .errors import CertificationError, DeltaCheckError, RouteDisagreementError
from .hall import WordCombo, _pbw_matrix, pbw_to_words
from .linalg import identity_exact, invert_unitriangular, matmul_exact
from .nilpotent import RhoEvaluator, _WordColumns, flag_degree_bound
from .quiver import (
    Multisegment,
    Quiver,
    deg_leq,
    enumerate_multisegments,
    flag_vertex,
    peel_top,
    t_component,
)

__all__ = [
    "SemicanBasis",
    "CertifiedTransition",
    "transition_via_inversion",
    "transition_matrix",
]

Matrix = tuple[tuple[int, ...], ...]

log = logging.getLogger(__name__)


def _combine_words(base: WordCombo, other: WordCombo, coeff: int) -> WordCombo:
    out = dict(base)
    for word, c in other.items():
        val = out.get(word, 0) + coeff * c
        if val:
            out[word] = val
        else:
            out.pop(word, None)
    return out


class SemicanBasis:
    """Recursive construction of semicanonical elements over one quiver.

    Shares one rho evaluator, one write-once memo of elements, one word
    combination per class, and one table of t_component per grade and
    vertex, so a full transition matrix touches each expensive quantity
    once.
    """

    def __init__(self, quiver: Quiver, root_seed: int = 0):
        self.quiver = quiver
        self.evaluator = RhoEvaluator(quiver.n, root_seed)
        self._elements: dict[tuple, WordCombo] = {}
        self._tops: dict[tuple, tuple[tuple[Multisegment, int], ...]] = {}

    def _tops_at(self, grade: tuple[int, ...], i: int) -> tuple[tuple[Multisegment, int], ...]:
        # every class of the grade with its t_component at i, computed
        # once per basis, grade and vertex
        key = (grade, i)
        found = self._tops.get(key)
        if found is None:
            classes = enumerate_multisegments(self.quiver, grade)
            found = self._tops[key] = tuple((cls, t_component(cls, i)) for cls in classes)
        return found

    def element(self, m: Multisegment) -> WordCombo:
        """The semicanonical element of the component over the orbit of m,
        as a combination of words: only word monomials can be evaluated
        at points, and its PBW coordinates are word_to_pbw of it.

        The zero class is the unit.  Any other m is peeled at its flag
        vertex i, its largest start, with t = t_top(m, i): no segment
        starts at i + 1, so the peeled class is peel_top(m, i).  Every
        class cls of the grade with t_component(cls, i) > t is then
        subtracted at its rho-value, which restores the delta-conditions.
        The recursion ends: peeling lowers the grade, and along a
        correction the pair (flag vertex, t_top there) rises strictly in
        lexicographic order within the grade, since cls keeps an
        unmatched [i, b], so its flag vertex j is at least i, and
        t_top(cls, i) >= t_component(cls, i) > t when j = i.
        """
        found = self._elements.get(m.segments)
        if found is not None:
            return found
        if m.is_zero():
            words: WordCombo = {(): 1}
        else:
            i, t = flag_vertex(m)
            words = {((i, t),) + w: c for w, c in self.element(peel_top(m, i)).items()}
            for cls, top in self._tops_at(m.dim_vector(self.quiver.n), i):
                if top <= t:
                    continue
                coeff = self.evaluator.rho(cls, words)
                if coeff:
                    words = _combine_words(words, self.element(cls), -coeff)
        self._elements[m.segments] = words
        return words


def _certify_support(
    classes: tuple[Multisegment, ...], mat: Matrix, lower: bool, what: str
) -> None:
    # lower: nonzero (r, c) needs classes[c] <=deg classes[r]; upper is
    # the transpose condition.  diagonal must be exactly 1 either way
    for r, row in enumerate(mat):
        if row[r] != 1:
            raise CertificationError(
                f"{what} has diagonal entry {row[r]} at {classes[r]}"
            )
        for c, val in enumerate(row):
            if not val or r == c:
                continue
            small, big = (classes[c], classes[r]) if lower else (classes[r], classes[c])
            if not deg_leq(small, big):
                raise CertificationError(
                    f"{what} entry at row {classes[r]}, column {classes[c]} is "
                    f"{val}, outside the degeneration order"
                )


def transition_via_inversion(
    quiver: Quiver, d: Iterable[int], evaluator: RhoEvaluator | None = None
) -> tuple[tuple[Multisegment, ...], Matrix, Matrix]:
    """The transition matrix A with f_M = sum_N A[M][N] P_N, by inversion.

    Returns (classes, A, E).  E is the evaluation matrix: row K, column N
    holds the generic value of P_N on Z_K, read by evaluator, by default
    a RhoEvaluator at root seed 0.  Rows and columns of both run
    in the key order of pbw_to_words, the refined degeneration order.
    The delta-conditions say A is the inverse transpose of E.  E is
    certified lower unitriangular and A upper unitriangular with respect
    to the degeneration order before returning; A times E-transposed is
    re-checked to be the identity.

    pbw_to_words inverts the grade's flag word matrix T once; its
    combinations are the sparse rows of T^{-1} over the flag words.  Row
    K of E is then one _WordColumns row of them at Z_K: the flag words
    counted together there, with the sparse columns of T^{-1} applied
    to their values.
    """
    combos = pbw_to_words(quiver, d)
    classes = tuple(combos)
    ev = evaluator or RhoEvaluator(quiver.n)
    columns = _WordColumns(list(combos.values()))
    e_mat = tuple(columns.row(ev, k_cls) for k_cls in classes)
    _certify_support(classes, e_mat, lower=True, what="evaluation matrix")
    e_t = tuple(zip(*e_mat))
    try:
        a_mat = invert_unitriangular(e_t)
    except ValueError as exc:
        raise CertificationError(f"evaluation matrix not invertible: {exc}") from exc
    _certify_support(classes, a_mat, lower=False, what="transition matrix")
    if matmul_exact(a_mat, e_t) != identity_exact(len(classes)):
        raise CertificationError("A times E^T is not the identity")
    return classes, a_mat, e_mat


def _delta_report(
    basis: SemicanBasis,
    classes: tuple[Multisegment, ...],
    elements: Mapping[Multisegment, WordCombo],
) -> Matrix:
    # row K holds rho_K(f_M) over the elements f_M, by the rule of the
    # module docstring
    ev = basis.evaluator
    fresh = ev.fresh()
    columns = _WordColumns([elements[m_cls] for m_cls in classes])
    rows = []
    recounted: dict[Multisegment, str] = {}
    for r, k_cls in enumerate(classes):
        # read the row first: a count missing from the memo can read
        # further primes, which the certificate must cover
        row = list(columns.row(ev, k_cls))
        if ev.voted(k_cls):
            recounted[k_cls] = "voted in the construction"
        elif row[r] == 1:
            # the diagonal must come out 1 at the fresh points too, which
            # at a graded component is a count by the other method
            row[r] = fresh.rho(k_cls, elements[k_cls])
            if fresh.voted(k_cls):
                recounted[k_cls] = "fresh draws voted"
        if k_cls in recounted:
            row = columns.row(fresh, k_cls)
        rows.append(tuple(row))
    log.info(
        "delta check: %d of %d components read from the construction's counts, "
        "%d recounted in full at fresh seeds%s",
        len(classes) - len(recounted),
        len(classes),
        len(recounted),
        "".join(f"; Z({cls}): {why}" for cls, why in recounted.items()),
    )
    return tuple(rows)


@dataclass(frozen=True)
class CertifiedTransition:
    """A transition matrix together with everything that certifies it."""

    n: int
    dim: tuple[int, ...]
    classes: tuple[Multisegment, ...]
    matrix: Matrix
    recursion_matrix: Matrix
    evaluation: Matrix
    delta: Matrix
    root_seed: int
    interpolation_primes: tuple[int, ...]
    elapsed: float

    @property
    def routes_agree(self) -> bool:
        return self.matrix == self.recursion_matrix

    @property
    def delta_ok(self) -> bool:
        return self.delta == identity_exact(len(self.classes))

    def to_payload(self) -> dict:
        """Report as plain data; deliberately excludes timing so equal
        inputs and seeds serialize byte-identically."""
        return {
            "n": self.n,
            "dim": list(self.dim),
            "order": [cls.text() for cls in self.classes],
            "matrix": [list(row) for row in self.matrix],
            "recursion_matrix": [list(row) for row in self.recursion_matrix],
            "evaluation_matrix": [list(row) for row in self.evaluation],
            "routes_agree": self.routes_agree,
            "delta_identity": self.delta_ok,
            "root_seed": self.root_seed,
            "interpolation_primes": list(self.interpolation_primes),
        }


def transition_matrix(
    quiver: Quiver, d: Iterable[int], root_seed: int = 0
) -> CertifiedTransition:
    """Both routes, the delta-check, and the certified result for grade d.

    Raises RouteDisagreementError if the recursion and the inversion
    differ anywhere, DeltaCheckError if the delta-check is not the
    identity, CertificationError on an order violation.  The delta-check
    reads every component read at no vote from the counts both routes
    shared, and re-verifies at fresh seeds, by the F_p route, that its
    diagonal entry is 1; a row whose fresh draws vote is recounted in
    full.  How many of the grade's components have a graded point is
    logged once, at INFO.
    """
    started = time.perf_counter()
    d = tuple(d)
    basis = SemicanBasis(quiver, root_seed)
    classes, a_mat, e_mat = transition_via_inversion(quiver, d, basis.evaluator)
    torus.log_coverage({cls: torus.graded_point(cls, quiver.n) for cls in classes})
    elements = {cls: basis.element(cls) for cls in classes}
    rec_mat = _pbw_matrix(quiver.n, d, classes, [elements[m_cls] for m_cls in classes])
    if rec_mat != a_mat:
        diffs = [
            f"({classes[r]} : {classes[c]}) inversion={a_mat[r][c]} recursion={rec_mat[r][c]}"
            for r in range(len(classes))
            for c in range(len(classes))
            if a_mat[r][c] != rec_mat[r][c]
        ]
        raise RouteDisagreementError(
            "inversion and recursion disagree at " + "; ".join(diffs[:5])
        )
    delta = _delta_report(basis, classes, elements)
    if delta != identity_exact(len(classes)):
        raise DeltaCheckError(f"delta-check of grade {d} is not the identity: {delta}")
    # the most primes any word of the grade reads
    pool = itertools.islice(nilpotent.prime_pool(), flag_degree_bound(d) + 2)
    return CertifiedTransition(
        n=quiver.n,
        dim=d,
        classes=classes,
        matrix=a_mat,
        recursion_matrix=rec_mat,
        evaluation=e_mat,
        delta=delta,
        root_seed=root_seed,
        interpolation_primes=tuple(pool),
        elapsed=time.perf_counter() - started,
    )
