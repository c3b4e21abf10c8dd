"""Graded points and torus-fixed flag counts.

A graded point is monomial over realize(m, n), lies in the dense orbit
of Z_m (dim End = q(d)) and admits weights that separate its basis at
every vertex; its torus-fixed flags then number the generic Euler
characteristic.  Worked case, n = 2, m = 2[1,1]+2[2,2]: the arrows are
zero, q(d) = 4, and the star s_1 : V_2 -> V_1 must be invertible at a
point of the dense orbit.  The zero star has End of dimension 8; a star
with both entries in one row has rank 1, and forces w(b_1) = w(b_2) on
the two basis vectors of V_2 that it sends to the same vector.
"""

import logging
import re

import pytest

from semibasis import (
    InternalCheckError,
    InterpolationError,
    Multisegment,
    Quiver,
    RhoEvaluator,
    enumerate_multisegments,
    nilpotent,
)
from semibasis import torus
from semibasis.hall import pbw_to_words, realize
from semibasis.linalg import interpolate_eval_one
from semibasis.quiver import euler_form
from semibasis.semican import SemicanBasis

M = Multisegment
SQUARE = M("2[1,1]+2[2,2]")
ZERO_ARROW = (((0, 0), (0, 0)),)


def tits_form(x):
    return euler_form(Quiver(x.n), x.dims, x.dims)


def fixed_flags(x, word):
    # the torus-fixed flags of one word at x
    return torus.fixed_flag_counts(x, [word])[word]


def planted(monkeypatch, *candidates):
    # the search reads exactly these star tuples
    monkeypatch.setattr(torus, "_candidates", lambda rep: iter(candidates))


class TestGradedPoint:
    def test_square_components_all_have_one(self):
        for m in enumerate_multisegments(Quiver(2), (2, 2)):
            x = torus.graded_point(m, 2)
            assert x is not None and x.arrows == realize(m, 2).maps
            assert nilpotent._end_dim(x, nilpotent._end_template(m, 2)) == tits_form(x)

    def test_search_is_deterministic(self):
        for m in enumerate_multisegments(Quiver(3), (2, 3, 1)):
            assert torus.graded_point(m, 3) == torus.graded_point(m, 3)

    def test_end_above_q_is_rejected(self, monkeypatch):
        # the zero star: its weights separate (no constraint binds them),
        # but dim End = 8 > q(d) = 4, so it is off the dense orbit
        zero = (((0, 0), (0, 0)),)
        planted(monkeypatch, zero)
        assert torus.graded_point(SQUARE, 2) is None
        x = nilpotent.LambdaPoint(2, torus.GRADED_PRIME, (2, 2), ZERO_ARROW, zero, 0)
        template = nilpotent._end_template(SQUARE, 2)
        assert torus._separated(x) and nilpotent._end_dim(x, template) == 8

    def test_weights_that_merge_a_vertex_are_rejected(self, monkeypatch):
        # both columns in row 0: w(b_1) - w(t) = w(b_2) - w(t) fixes
        # w(b_1) = w(b_2); End is taken as q(d) so only the weights decide
        merged = (((1, -1), (0, 0)),)
        planted(monkeypatch, merged)
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x))
        assert torus.graded_point(SQUARE, 2) is None
        x = nilpotent.LambdaPoint(2, torus.GRADED_PRIME, (2, 2), ZERO_ARROW, merged, 0)
        assert not torus._separated(x)

    def test_a_cycle_of_the_support_can_tie_weights(self):
        # identity arrow u_k -> v_k and star v_1 -> u_2, v_2 -> u_1: the
        # cycle u_1 v_1 u_2 v_2 forces 2 (deg a + deg s) = 0, hence
        # w(u_1) = w(u_2), though no row of a map holds two entries.  The
        # diagonal star closes two shorter cycles and ties nothing
        arrows = (((1, 0), (0, 1)),)
        crossed = nilpotent.LambdaPoint(2, 7, (2, 2), arrows, (((0, 1), (1, 0)),), 0)
        straight = nilpotent.LambdaPoint(2, 7, (2, 2), arrows, (((1, 0), (0, 1)),), 0)
        assert not torus._separated(crossed)
        assert torus._separated(straight)

    def test_relations_must_hold_over_z(self, monkeypatch):
        # 1[1,2]+1[2,2]: the star column of the segment [1,2] must vanish.
        # _candidates checks every relation over Z, so a candidate that
        # breaks one is a fault of the search, raised, not passed over
        m = M("1[1,2]+1[2,2]")
        assert (((1, 0),),) not in list(torus._candidates(realize(m, 2)))
        planted(monkeypatch, (((1, 0),),))
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x))
        with pytest.raises(InternalCheckError, match="preprojective relation fails"):
            torus.graded_point(m, 2)

    def test_first_accepted_candidate_is_returned(self, monkeypatch):
        zero, merged, swap = (((0, 0), (0, 0)),), (((1, 1), (0, 0)),), (((0, 1), (-1, 0)),)
        planted(monkeypatch, zero, merged, swap)
        x = torus.graded_point(SQUARE, 2)
        assert x is not None and x.stars == (((0, 1), (torus.GRADED_PRIME - 1, 0)),)

    def test_search_reads_at_most_the_leaf_cap(self, monkeypatch):
        # with End above q(d) everywhere no candidate is accepted, and the
        # search stops after LEAF_CAP of them
        read = []
        candidates = torus._candidates

        def counted(rep):
            for stars in candidates(rep):
                read.append(stars)
                yield stars

        monkeypatch.setattr(torus, "_candidates", counted)
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x) + 1)
        assert torus.graded_point(M("3[1,1]+3[2,2]"), 2) is None
        assert len(read) == torus.LEAF_CAP
        assert len(set(read)) == len(read)

    def test_some_components_have_none(self):
        # on realize's basis, Z(1[1,3]+1[2,2]+1[3,4]) of (1,2,2,1) has no
        # graded point: the pruned tree is exhausted below the leaf cap
        assert torus.graded_point(M("1[1,3]+1[2,2]+1[3,4]"), 4) is None


class TestFixedFlags:
    def test_square_values(self):
        # the semisimple square: the flags of S_2^2 then S_1^2 are one
        # chain, and those of S_1^2 then S_2^2 need a zero star
        x = torus.graded_point(SQUARE, 2)
        assert fixed_flags(x, ((2, 2), (1, 2))) == 1
        assert fixed_flags(x, ((1, 2), (2, 2))) == 0
        # one line of V_2 at a time: 2 fixed lines, then 1
        assert fixed_flags(x, ((2, 1), (2, 1), (1, 2))) == 2

    def test_row_equals_one_word_at_a_time(self):
        x = torus.graded_point(M("1[1,2]+2[1,1]+2[2,2]"), 2)
        words = [((2, 1), (1, 1), (1, 2), (2, 2)), ((1, 1), (2, 1), (1, 2), (2, 2)),
                 ((2, 3), (1, 3)), ((2, 1), (1, 3), (2, 2))]
        row = torus.fixed_flag_counts(x, words)
        assert row == {w: fixed_flags(x, w) for w in words}

    def test_weight_mismatch_rejected(self):
        x = torus.graded_point(SQUARE, 2)
        with pytest.raises(ValueError, match="does not match"):
            fixed_flags(x, ((1, 1), (2, 2)))


class TestEvaluator:
    def test_points_memoised_per_evaluator(self, monkeypatch):
        searched = []
        search = torus.graded_point

        def counted(m, n, template=None):
            searched.append(m)
            return search(m, n, template)

        monkeypatch.setattr(torus, "graded_point", counted)
        w = ((2, 2), (1, 2))
        ev = RhoEvaluator(2)
        assert ev.chi(SQUARE, w) == 1 and ev.chi(SQUARE, ((1, 2), (2, 2))) == 0
        assert searched == [SQUARE]
        assert RhoEvaluator(2).chi(SQUARE, w) == 1
        assert searched == [SQUARE, SQUARE]

    def test_graded_label_draws_nothing(self):
        ev = RhoEvaluator(2)
        assert ev.chi(SQUARE, ((2, 2), (1, 2))) == 1
        assert ev._draws == {} and ev.graded(SQUARE) is not None

    def test_fresh_evaluator_counts_by_primes_only(self):
        ev = RhoEvaluator(2).fresh()
        assert ev.graded(SQUARE) is None
        assert ev.chi(SQUARE, ((2, 2), (1, 2))) == 1
        assert ev._draws

    def test_end_patched_above_q_reaches_the_prime_route(self, monkeypatch, caplog):
        # patching _end_dim, as the vote tests do, leaves no graded point
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x) + 1)
        ev = RhoEvaluator(2)
        with caplog.at_level(logging.WARNING, logger="semibasis.nilpotent"):
            assert ev.chi(SQUARE, ((2, 2), (1, 2))) == 1
        assert ev.graded(SQUARE) is None and ev._draws
        assert any("voted" in r.getMessage() for r in caplog.records)


# at (1,3,2): the tangent bound of this word is 1, its word_degree_bound 3,
# and both routes count 2
LOWERED = M("1[1,1]+2[2,3]+1[2,2]")
LOWERED_WORD = ((2, 2), (3, 1), (1, 1), (2, 1), (3, 1))


def grade_words(n, d):
    # every word the pipeline reads at grade d: the PBW elements' and the
    # recursion's elements'
    quiver = Quiver(n)
    basis = SemicanBasis(quiver)
    words = {w for combo in pbw_to_words(quiver, d).values() for w in combo}
    words |= {w for m in enumerate_multisegments(quiver, d) for w in basis.element(m)}
    return sorted(words)


def prime_series(ev, label, words, count):
    # each word's F_p counts at the first count primes at which ev reads
    # label, as (prime, count) pairs
    series = {w: [] for w in words}
    for p in ev._read_primes(label, 0, count):
        points, _ = ev._draws_for(label, p, 0)
        values, _ = nilpotent._majority(points, words)
        for w in words:
            series[w].append((p, values[w]))
    return series


def fitted(monkeypatch):
    # (number of (prime, count) pairs, degree) of every fit the evaluators make
    fits = []
    real = nilpotent.interpolate_eval_one

    def recorded(points, bound):
        points = list(points)
        fits.append((len(points), bound))
        return real(points, bound)

    monkeypatch.setattr(nilpotent, "interpolate_eval_one", recorded)
    return fits


class TestTangentBounds:
    def test_square_values(self):
        # one line of V_2 at a time is a P^1 of flags; the flags of S_2^2
        # then S_1^2 are one point, and those of S_1^2 then S_2^2 none
        x = torus.graded_point(SQUARE, 2)
        words = [((2, 1), (2, 1), (1, 2)), ((2, 2), (1, 2)), ((1, 2), (2, 2))]
        assert torus.tangent_bounds(x, words) == dict(zip(words, (1, 0, -1)))

    def test_never_above_word_degree_bound(self):
        words = grade_words(3, (2, 3, 1))
        for m in enumerate_multisegments(Quiver(3), (2, 3, 1)):
            x = torus.graded_point(m, 3)
            bounds = torus.tangent_bounds(x, words)
            counts = torus.fixed_flag_counts(x, words)
            for w in words:
                assert bounds[w] <= nilpotent.word_degree_bound(w, (2, 3, 1))
                # no fixed flag iff the bound reads empty
                assert (bounds[w] == -1) == (counts[w] == 0)

    @pytest.mark.parametrize("d", [(1, 3, 2), (2, 3, 1)])
    def test_prime_counts_have_exactly_the_tangent_degree(self, d):
        # every graded pair whose tangent bound undercuts word_degree_bound:
        # its F_p counts through tangent + 4 primes fit at degree tangent,
        # not at tangent - 1, with the torus count as value at 1
        words = grade_words(3, d)
        ev = RhoEvaluator(3).fresh()
        pairs = 0
        for m in enumerate_multisegments(Quiver(3), d):
            x = torus.graded_point(m, 3)
            assert x is not None
            bounds = torus.tangent_bounds(x, words)
            lowered = [w for w in words if bounds[w] < nilpotent.word_degree_bound(w, d)]
            counts = torus.fixed_flag_counts(x, lowered)
            top = max((bounds[w] for w in lowered), default=-1)
            series = prime_series(ev, m, lowered, top + 4)
            for w in lowered:
                pairs += 1
                points = series[w][: bounds[w] + 4]
                if bounds[w] == -1:
                    assert all(count == 0 for _, count in points) and counts[w] == 0
                    continue
                assert interpolate_eval_one(points, bounds[w]) == counts[w] != 0
                if bounds[w] > 0:
                    with pytest.raises(InterpolationError):
                        interpolate_eval_one(points, bounds[w] - 1)
        assert pairs > 20

    def test_bound_one_too_small_raises(self, monkeypatch):
        x = torus.graded_point(LOWERED, 3)
        assert torus.tangent_bounds(x, [LOWERED_WORD]) == {LOWERED_WORD: 1}
        assert nilpotent.word_degree_bound(LOWERED_WORD, (1, 3, 2)) == 3
        assert fixed_flags(x, LOWERED_WORD) == 2
        assert RhoEvaluator(3).fresh().chi(LOWERED, LOWERED_WORD) == 2
        monkeypatch.setattr(
            torus, "tangent_bounds", lambda x, words: dict.fromkeys(words, 0)
        )
        ev = RhoEvaluator(3)
        assert ev.chi(LOWERED, LOWERED_WORD) == 2
        # the counts are p + 1, which a constant cannot fit
        with pytest.raises(
            InterpolationError,
            match=r"degree bound 0, primes \[2, 3, 5\]: degree 0 fit predicts 3 at 3, observed 4",
        ):
            ev.fresh().rho(LOWERED, LOWERED_WORD)

    def test_fresh_fit_reads_bound_plus_three_primes(self, monkeypatch):
        fits = fitted(monkeypatch)
        ev = RhoEvaluator(3)
        assert ev.chi(LOWERED, LOWERED_WORD) == 2 and not fits
        assert ev.fresh().chi(LOWERED, LOWERED_WORD) == 2
        assert fits == [(1 + 3, 1)]
        # no graded point: the fit is at word_degree_bound, through at most
        # flag_degree_bound + 2 primes
        m, d = M("1[1,3]+1[2,2]+1[3,4]"), (1, 2, 2, 1)
        assert torus.graded_point(m, 4) is None
        words = [((2, 1), (3, 1), (1, 1), (2, 1), (3, 1), (4, 1)),
                 ((3, 1), (4, 1), (2, 2), (3, 1), (1, 1)), ((4, 1), (3, 2), (2, 2), (1, 1))]
        fits.clear()
        RhoEvaluator(4).fresh().rho(m, dict.fromkeys(words, 1))
        top = nilpotent.flag_degree_bound(d) + 2
        expected = [
            (min(b + 3, top), b) for b in (nilpotent.word_degree_bound(w, d) for w in words)
        ]
        assert sorted(fits) == sorted(expected) == [(3, 0), (4, 1), (4, 2)]

    def test_fresh_evaluator_shares_the_graded_points(self, monkeypatch):
        searched = []
        search = torus.graded_point

        def counted(m, n, template=None):
            searched.append(m)
            return search(m, n, template)

        monkeypatch.setattr(torus, "graded_point", counted)
        ev = RhoEvaluator(3)
        ev.chi(LOWERED, LOWERED_WORD)
        fresh = ev.fresh()
        assert fresh.chi(LOWERED, LOWERED_WORD) == 2
        assert searched == [LOWERED] and fresh.graded(LOWERED) is None

    def test_debug_line_counts_lowered_fits(self, caplog):
        ev = RhoEvaluator(3)
        other = ((2, 3), (3, 2), (1, 1))
        assert nilpotent.word_degree_bound(other, (1, 3, 2)) == 0
        with caplog.at_level(logging.DEBUG, logger="semibasis.nilpotent"):
            ev.fresh().rho(LOWERED, {LOWERED_WORD: 1, other: 1})
        [line] = [r.getMessage() for r in caplog.records]
        # the word of bound 0 reads no tangent bound; the other reads
        # 1 + 3 primes, 2, 3, 5 and 7
        assert re.fullmatch(
            r"batch on Z\(1\[1,1\]\+2\[2,3\]\+1\[2,2\]\): 2 words counted together, "
            r"\d+ expansions, \d+ quotients built, \d+ pruned, "
            r"1 fits lowered by tangent bounds, largest prime 7",
            line,
        ), line
