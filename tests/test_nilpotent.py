"""Sampling on the doubled quiver: lifts, generic invariants, evaluations.

The peeling values asserted here for the sampled regime are forced by
the relations.  Worked case, n = 2, m = 2[1,1]+1[2,2]: a point of Z_m
has zero arrow part, the star s_1 : V_2 -> V_1 is unconstrained, so a
generic point has rank(s_1) = 1.  The top at vertex 1 then has
dimension 2 - 1 = 1 although t_top is 2, and the image line is killed
by the (zero) arrow, so the peeled class is 1[1,1]+1[2,2].

The tests of draws, votes, fits and their errors that read labels with a
graded point take the primes_only fixture, under which no label has one:
their evaluators then count every label by the F_p route, as the delta
check's fresh evaluator does, at the seeds a default evaluator draws.
"""

import itertools
import json
import logging
import os
import random
import re
import subprocess
import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

import oracles
from semibasis import (
    ConsensusError,
    InternalCheckError,
    InterpolationError,
    LambdaPoint,
    Multisegment,
    Quiver,
    RhoEvaluator,
    enumerate_multisegments,
    iso_class,
    lift_generic,
    peel_component,
    peel_top,
    t_component,
    t_top,
    total_generic_flag,
    transition_matrix,
)
from semibasis import nilpotent, semican, torus
from semibasis.cli import main
from semibasis.hall import Rep, pbw_to_words
from semibasis.linalg import (
    interpolate_eval_one,
    subspaces_ff,
)
from semibasis.quiver import euler_form, format_word, hom_dim, refine_order
from semibasis.semican import SemicanBasis
from semibasis.nilpotent import (
    _end_dim,
    _quotient_point,
    derive_seed,
    flag_degree_bound,
    word_degree_bound,
)

M = Multisegment


def classes_upto(n, total):
    for d in oracles.grades_upto(n, total):
        yield from enumerate_multisegments(Quiver(n), d)


def star_system_holds(x: LambdaPoint) -> bool:
    """a_{i-1} s_{i-1} + s_i a_i = 0 at every vertex, checked directly."""
    n, p = x.n, x.p

    def mul(a, b, rows, inner, cols):
        return [
            [
                sum(a[r][k] * b[k][c] for k in range(inner)) % p
                for c in range(cols)
            ]
            for r in range(rows)
        ]

    for v in range(1, n + 1):
        d_v = x.dims[v - 1]
        total = [[0] * d_v for _ in range(d_v)]
        if v >= 2:
            a_prev = x.arrows[v - 2]
            s_prev = x.stars[v - 2]
            prod = mul(a_prev, s_prev, d_v, x.dims[v - 2], d_v)
            total = [[(t + q) % p for t, q in zip(tr, pr)] for tr, pr in zip(total, prod)]
        if v <= n - 1:
            s_v = x.stars[v - 1]
            a_v = x.arrows[v - 1]
            prod = mul(s_v, a_v, d_v, x.dims[v], d_v)
            total = [[(t + q) % p for t, q in zip(tr, pr)] for tr, pr in zip(total, prod)]
        if any(any(row) for row in total):
            return False
    return True


def count_word(x: LambdaPoint, w) -> int:
    """The flags of type w at x over F_p, by the walk the evaluator counts with."""
    return nilpotent._count_words(x, [w])[w]


def ss_point(p: int, star: int) -> LambdaPoint:
    """A point over the unit square semisimple class with chosen star."""
    return LambdaPoint(
        n=2,
        p=p,
        dims=(1, 1),
        arrows=(((0,),),),
        stars=(((star,),),),
        seed=0,
    )


class TestLift:
    def test_relations_and_label_roundtrip(self):
        for n in (2, 3):
            for cls in classes_upto(n, 4):
                for p in (2, 5):
                    x = lift_generic(cls, n, p, derive_seed("lift-test", cls.text(), p))
                    assert star_system_holds(x)
                    assert iso_class(Rep(n, x.dims, x.arrows), p) == cls

    def test_interval_star_forced_to_zero(self):
        # for 1[1,2] the invertible arrow forces the star to vanish
        for seed in range(5):
            x = lift_generic(M("1[1,2]"), 2, 5, seed)
            assert x.stars[0] == ((0,),)

    def test_semisimple_star_varies(self):
        seen = {
            lift_generic(M("1[1,1]+1[2,2]"), 2, 5, seed).stars[0] for seed in range(12)
        }
        assert len(seen) > 1

    def test_lifts_reproducible(self):
        a = lift_generic(M("2[1,2]"), 2, 7, 42)
        b = lift_generic(M("2[1,2]"), 2, 7, 42)
        assert (a.arrows, a.stars) == (b.arrows, b.stars)

    def test_star_space_solved_once_draws_the_affine_points(self):
        # a kernel basis solved once per (component, prime) draws, at
        # each seed, the point a lift that solves its own basis draws
        for n in (2, 3):
            for cls in classes_upto(n, 4):
                for p in (2, 5):
                    nilpotent._star_space.cache_clear()
                    shared = [lift_generic(cls, n, p, seed) for seed in range(3)]
                    assert nilpotent._star_space.cache_info().misses == 1
                    for seed, x in enumerate(shared):
                        nilpotent._star_space.cache_clear()
                        assert lift_generic(cls, n, p, seed) == x

    def test_modulus_must_be_prime(self):
        # Z/p is no field at p = 0, 1, 4 or 9; at a prime the points are
        # those drawn before the check was added
        m = M("2[1,1]+2[2,2]")
        for p in (0, 1, 4, 9):
            with pytest.raises(ValueError, match=f"must be a prime, got {p}"):
                lift_generic(m, 2, p, 0)
        drawn = {p: [lift_generic(m, 2, p, seed).stars for seed in range(3)] for p in (2, 3, 5)}
        assert drawn == {
            2: [(((1, 1), (0, 1)),), (((0, 0), (1, 0)),), (((0, 0), (0, 1)),)],
            3: [(((1, 1), (0, 1)),), (((0, 2), (0, 1)),), (((0, 0), (0, 1)),)],
            5: [(((3, 3), (0, 2)),), (((1, 4), (0, 2)),), (((0, 0), (0, 2)),)],
        }

    def test_relation_check_raises_exactly_when_a_relation_fails(self):
        # _check_relations sums each entry of a_{i-1} s_{i-1} + s_i a_i
        # itself; against the matrix products of star_system_holds, at
        # every lifted point and at each single star entry moved by one
        failing = 0
        for n in (2, 3, 4):
            for cls in classes_upto(n, 4):
                x = lift_generic(cls, n, 5, derive_seed("relations", cls.text()))
                nilpotent._check_relations(x)
                for k, s in enumerate(x.stars):
                    for r, row in enumerate(s):
                        for c in range(len(row)):
                            moved = [list(map(list, t)) for t in x.stars]
                            moved[k][r][c] = (moved[k][r][c] + 1) % 5
                            y = replace(x, stars=tuple(tuple(map(tuple, t)) for t in moved))
                            if star_system_holds(y):
                                nilpotent._check_relations(y)
                                continue
                            failing += 1
                            with pytest.raises(InternalCheckError, match="relation fails"):
                                nilpotent._check_relations(y)
        assert failing > 100, failing


class TestGenericTop:
    """The closed t and peel (quiver.t_component, quiver.peel_component)
    against values forced by the relations and against the reading of
    sampled points in oracles.sampled_top."""

    def test_no_incoming_segment_shortcuts(self):
        assert t_component(M("2[1,2]"), 1) == 2
        assert t_component(M("1[1,2]"), 1) == 1
        assert t_component(M("2[1,2]"), 2) == 0

    def test_sampled_values(self):
        # generic star makes the semisimple top smaller than t_top
        ev = RhoEvaluator(2)
        for text, t in (("1[1,1]+1[2,2]", 0), ("2[1,1]+1[2,2]", 1), ("2[1,1]+2[2,2]", 0)):
            assert t_component(M(text), 1) == oracles.sampled_top(M(text), 1, ev)[0] == t

    def test_peel_shortcut_regime(self):
        assert peel_component(M("2[1,2]"), 1) == M("2[2,2]")
        assert peel_component(M("1[1,2]+1[1,1]"), 1) == M("1[2,2]")

    def test_peel_sampled(self):
        m = M("2[1,1]+1[2,2]")
        assert peel_component(m, 1) == M("1[1,1]+1[2,2]")
        assert oracles.sampled_top(m, 1, RhoEvaluator(2)) == (1, M("1[1,1]+1[2,2]"))

    def test_peel_requires_positive_top(self):
        with pytest.raises(ValueError):
            peel_component(M("1[1,1]+1[2,2]"), 1)

    def test_forced_sampling_matches_shortcut(self):
        # with no segment starting at i+1 the sampled reading, which has
        # no shortcut, must agree with the combinatorial top
        for n in (2, 3):
            ev = RhoEvaluator(n)
            for cls in classes_upto(n, 4):
                for i in range(1, n + 1):
                    if i < n and t_top(cls, i + 1) != 0:
                        continue
                    t, peeled = oracles.sampled_top(cls, i, ev)
                    assert t == t_top(cls, i), (cls, i)
                    if t > 0:
                        assert peeled == peel_top(cls, i), (cls, i)

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            t_component(M("1[1,1]"), 0)
        with pytest.raises(ValueError):
            peel_component(M("1[1,1]"), 0)


class TestEvaluate:
    def test_simple_power_single_flag(self):
        for i, m, n in ((1, 2, 2), (2, 1, 2), (3, 2, 3)):
            cls = M([(i, i)] * m)
            x = lift_generic(cls, n, 5, 99)
            assert count_word(x, ((i, m),)) == 1

    def test_generic_semisimple_point_word_order(self):
        x = ss_point(5, star=1)
        assert count_word(x, ((2, 1), (1, 1))) == 1
        assert count_word(x, ((1, 1), (2, 1))) == 0

    def test_degenerate_star_point_differs(self):
        x = ss_point(5, star=0)
        assert count_word(x, ((1, 1), (2, 1))) == 1

    def test_weight_mismatch_rejected(self):
        # by torus-fixed flags at the graded point, and by the F_p route
        # of a fresh evaluator, which sizes its fit by word_degree_bound
        m, w = M("1[1,1]+1[2,2]"), ((1, 2), (2, 1))
        ev = RhoEvaluator(2)
        assert torus.graded_point(m, 2) is not None
        for reader in (ev, ev.fresh()):
            with pytest.raises(ValueError, match="does not match"):
                reader.rho(m, w)

    def test_counts_word_flags_on_interval(self):
        x = lift_generic(M("1[1,2]"), 2, 3, 7)
        assert count_word(x, ((1, 1), (2, 1))) == 1
        assert count_word(x, ((2, 1), (1, 1))) == 0

    def test_conjugation_invariance(self):
        # counts only see the isomorphism class of the point
        x = lift_generic(M("1[1,2]+1[1,1]+1[2,2]"), 2, 5, 11)
        g1 = ((2, 1), (3, 2))  # invertible over F_5
        g2 = ((1, 4), (0, 3))
        g1_inv = oracles.mat_inverse_ff(g1, 5)
        g2_inv = oracles.mat_inverse_ff(g2, 5)

        def mul(a, b):
            return tuple(
                tuple(sum(x * y for x, y in zip(row, col)) % 5 for col in zip(*b))
                for row in a
            )
        y = LambdaPoint(
            n=2,
            p=5,
            dims=x.dims,
            arrows=(mul(mul(g2, x.arrows[0]), g1_inv),),
            stars=(mul(mul(g1, x.stars[0]), g2_inv),),
            seed=x.seed,
        )
        assert star_system_holds(y)
        for w in (((2, 1), (1, 2), (2, 1)), ((1, 2), (2, 2)), ((2, 2), (1, 2))):
            assert count_word(x, w) == count_word(y, w)

    def test_orbit_grouping_matches_full_walk(self):
        # the production recursion only enumerates subspaces of the part
        # of the kernel meeting the incoming images and accounts for the
        # free directions by orbit size; replaying every count with the
        # ungrouped walk must give identical numbers
        for n, bound, ps in ((2, 4, (2, 3)), (3, 3, (2,))):
            for d in oracles.grades_upto(n, bound):
                if sum(d) == 0:
                    continue
                classes = list(enumerate_multisegments(Quiver(n), d))
                words = [total_generic_flag(m) for m in classes]
                for m in classes:
                    for p in ps:
                        x = lift_generic(m, n, p, derive_seed("walk", m.text(), p))
                        for w in words:
                            assert count_word(x, w) == oracles.full_walk_count(x, w)


@pytest.fixture
def primes_only(monkeypatch):
    """No label has a graded point, so every evaluator counts by F_p."""
    monkeypatch.setattr(torus, "graded_point", lambda m, n: None)


def accepted_point(m: Multisegment, n: int, p: int) -> LambdaPoint:
    # the first draw with dim End = q(d), as the evaluator reads it
    points, ends = nilpotent._generic_draws(
        m, n, p, (derive_seed("accepted", m.text(), p, k) for k in range(40))
    )
    assert ends[-1] == tits_form(points[0]), (m, p, ends)
    return points[0]


def grade_words(d) -> list:
    # every word the grade evaluates: the PBW words of the evaluation
    # matrix and the words of the elements the recursion builds
    n = len(d)
    words = {w for combo in pbw_to_words(Quiver(n), d).values() for w in combo}
    basis = SemicanBasis(Quiver(n))
    for m in enumerate_multisegments(Quiver(n), d):
        words.update(basis.element(m))
    return sorted(words)


class TestSharedExpansions:
    """The words read at one point are counted in one walk of the trie of
    their reversed letters (nilpotent._count_words)."""

    def test_zero_map_points_count_partial_flags(self):
        # zero-map points of one vertex, all words of a point in one walk:
        # complete flags of F_p^2 and F_p^3 number p + 1 and
        # (p^2 + p + 1)(p + 1), and a line or a plane of F_p^3 has
        # p^2 + p + 1 choices
        for p in (2, 3, 5):
            for dims in ((2,), (3,)):
                x = LambdaPoint(n=1, p=p, dims=dims, arrows=(), stars=(), seed=0)
                if dims == (2,):
                    want = {((1, 1),) * 2: p + 1, ((1, 2),): 1}
                else:
                    plane = p * p + p + 1
                    want = {
                        ((1, 1),) * 3: plane * (p + 1),
                        ((1, 1), (1, 2)): plane,
                        ((1, 2), (1, 1)): plane,
                        ((1, 3),): 1,
                    }
                assert nilpotent._count_words(x, want) == want, (p, dims)
                for w, count in want.items():
                    assert count_word(x, w) == count, (p, dims, w)

    def test_shared_counts_equal_unshared_counts(self):
        rng = random.Random(0)
        for d in ((3, 3), (2, 3, 1)):
            n = len(d)
            words = grade_words(d)
            for m in enumerate_multisegments(Quiver(n), d):
                for p in (5, 7):
                    x = accepted_point(m, n, p)
                    order = words[:]
                    rng.shuffle(order)
                    got = nilpotent._count_words(x, order)
                    assert list(got) == order
                    assert got == {w: count_word(x, w) for w in words}, (m, p)

    def test_shared_counts_match_full_walk(self):
        rng = random.Random(1)
        d = (1, 2, 1)
        words = grade_words(d)
        for p in (2, 3):
            for m in enumerate_multisegments(Quiver(3), d):
                x = accepted_point(m, 3, p)
                order = words[:]
                rng.shuffle(order)
                got = nilpotent._count_words(x, order)
                for w in words:
                    assert got[w] == oracles.full_walk_count(x, w), (m, p, w)

    def test_shared_suffix_expanded_once_per_walk(self, monkeypatch, primes_only):
        # two words ending in the same letters: counted together they
        # expand each quotient on their shared suffix once, so they make
        # fewer expansions than counted one by one, with the same values
        m = M("1[1,2]+2[1,1]+2[2,2]")
        words = [((1, 1), (2, 1), (1, 2), (2, 2)), ((2, 1), (1, 1), (1, 2), (2, 2))]
        made: list[int] = []
        expand = nilpotent._expand

        def counted(x, i, a, kernel):
            made[-1] += 1
            return expand(x, i, a, kernel)

        monkeypatch.setattr(nilpotent, "_expand", counted)
        made.append(0)
        ev = RhoEvaluator(2)
        ev.rho(m, dict.fromkeys(words, 1))
        together = tuple(ev.rho(m, w) for w in words)
        made.append(0)
        alone = tuple(RhoEvaluator(2).rho(m, w) for w in words)
        assert together == alone
        assert 0 < made[0] < made[1], made
        # likewise at one point, where the walk is all there is
        x = accepted_point(m, 2, 5)
        made.append(0)
        together = nilpotent._count_words(x, words)
        made.append(0)
        alone = {w: nilpotent._count_words(x, [w])[w] for w in words}
        assert together == alone
        assert 0 < made[2] < made[3], made

    def test_expand_yields_its_quotients_lazily(self):
        # no level of the walk holds its candidates, or the quotients it
        # builds from them, in a list
        x = accepted_point(M("3[1,2]"), 2, 3)
        pairs = nilpotent._expand(x, 2, 1, nilpotent._joint_kernel(x, 2))
        assert isinstance(pairs, Iterator) and not isinstance(pairs, (list, tuple))
        lines = list(subspaces_ff(oracles.joint_kernel(x, 2), 1, 3))
        assert sum(orbit for orbit, _ in pairs) == len(lines) > 1

    def test_debug_log_counts_expansions_per_label(
        self, caplog, capsys, monkeypatch, primes_only
    ):
        # one line per counted batch: its component, how many words it
        # counted together, the expansions it made, how many fits a
        # tangent bound lowered and the largest prime read; with no graded
        # point, every count of the construction is such a batch, and no
        # tangent bound lowers a fit
        argv = ["transition", "--dim", "1,2,1", "--format", "json"]
        marks = []
        report = semican._delta_report

        def marked(*args):
            marks.append(len(caplog.records))
            return report(*args)

        monkeypatch.setattr(semican, "_delta_report", marked)
        with caplog.at_level(logging.DEBUG, logger="semibasis.nilpotent"):
            assert main(argv) == 0
        logged = capsys.readouterr().out
        lines = [r.getMessage() for r in caplog.records if r.name == "semibasis.nilpotent"]
        assert lines and all(
            re.fullmatch(
                r"batch on Z\(.+\): \d+ words counted together, \d+ expansions, "
                r"\d+ quotients built, \d+ pruned, "
                r"0 fits lowered by tangent bounds, largest prime [1-9]\d*",
                line,
            )
            for line in lines
        ), lines
        [start] = marks
        delta = [r.getMessage() for r in caplog.records[start:]]
        classes = list(enumerate_multisegments(Quiver(3), (1, 2, 1)))
        # the evaluation pass reads every label first, a row per label
        assert [line.split(":")[0] for line in lines[: len(classes)]] == [
            f"batch on Z({cls})" for cls in refine_order(classes)
        ]
        # and the delta check counts at every label again
        for cls in classes:
            assert any(line.startswith(f"batch on Z({cls}): ") for line in delta), cls
        assert any(int(line.split(": ")[1].split()[0]) > 1 for line in lines), lines
        assert main(argv) == 0
        assert capsys.readouterr().out == logged


class TestPrunedWalk:
    """The walk builds a quotient y / U only where a next letter may fit,
    deciding that from y and U (nilpotent._Kernels)."""

    def test_walk_matches_full_and_split_walks_on_diagonal_words(self):
        # every word of each diagonal element, the words the delta check
        # recounts, among them words with tangent bound -1 whose flags
        # die, at lifted draws: the pruned walk against the walk of every
        # subspace and the walk of every split, neither pruned
        dead = 0
        pruned = nilpotent._walked["pruned"]
        for d in ((2, 3, 1), (3, 3, 3), (1, 2, 2, 1)):
            n = len(d)
            basis = SemicanBasis(Quiver(n))
            for m in enumerate_multisegments(Quiver(n), d):
                words = sorted(basis.element(m))
                graded = torus.graded_point(m, n)
                if graded is not None:
                    dead += list(torus.tangent_bounds(graded, words).values()).count(-1)
                for p in (2, 3, 5):
                    x = lift_generic(m, n, p, derive_seed("pruned walk", m.text(), p))
                    got = nilpotent._count_words(x, words)
                    for w in words:
                        want = oracles.full_walk_count(x, w)
                        assert got[w] == want == oracles.split_walk_count(x, w), (m, p, w)
        assert dead > 20 and nilpotent._walked["pruned"] - pruned > 100, dead

    def test_no_quotient_is_built_where_no_letter_fits(self, monkeypatch):
        # every quotient built has a next letter whose kernel is large
        # enough, save the one candidate of a kernel of dimension a, which
        # is built for a neighbour's letter unread: at (4,4,4) draws on
        # the diagonal words, and at (2,3,1) draws on each word of unit
        # letters alone, so that some quotients have only a letter at
        # their own vertex or two vertices off to read.  The walk expands
        # at a quotient exactly the letters that fit there
        built, letters, yields = [], {}, Counter()
        expand, quotient = nilpotent._expand, nilpotent._quotient_point

        def recorded(x, i, a, kernel):
            pairs = list(expand(x, i, a, kernel))
            letters.setdefault(id(x), []).append((i, a))
            yields[id(x)] += len(pairs)
            return iter(pairs)

        def building(y, i, u):
            z = quotient(y, i, u)
            built.append((z, i, len(u) == len(nilpotent._joint_kernel(y, i))))
            return z

        def cases():
            basis = SemicanBasis(Quiver(3))
            for m in enumerate_multisegments(Quiver(3), (4, 4, 4)):
                for p in (2, 3):
                    yield m, p, sorted(basis.element(m))
            letters = [(1, 1)] * 2 + [(2, 1)] * 3 + [(3, 1)]
            for m in enumerate_multisegments(Quiver(3), (2, 3, 1)):
                for w in sorted(set(itertools.permutations(letters))):
                    yield m, 3, [w]

        monkeypatch.setattr(nilpotent, "_expand", recorded)
        monkeypatch.setattr(nilpotent, "_quotient_point", building)
        walked = Counter()
        split = unread = 0
        for m, p, words in cases():
            x = lift_generic(m, 3, p, derive_seed("pruned walk", m.text(), p))
            before = nilpotent._walked.copy()
            nilpotent._count_words(x, words)
            if sum(m.dim_vector(3)) == 12:
                walked += nilpotent._walked - before
            for z, i, whole in built:
                split += not whole
                if yields[id(z)] == 0:
                    fitting = letters[id(z)]
                    assert whole and all(abs(j - i) == 1 for j, _ in fitting), (m, p)
                    unread += 1
            built.clear()
            letters.clear()
            yields.clear()
        assert split > 50 and unread < split, (split, unread)
        # at (4,4,4), far more candidates are pruned than built
        assert walked["pruned"] > 3 * walked["built"], walked


class TestWholeKernel:
    """A letter (i, a) whose joint kernel has dimension a has one choice,
    the kernel itself: _expand proposes it without _kernel_split, and its
    candidates give the quotients of the split path
    (oracles.expand_by_split)."""

    @staticmethod
    def letters():
        # (point, vertex, a, kernel dimension) over accepted points of a
        # few grades, at every letter the kernel admits
        for n, d in ((2, (3, 3)), (3, (2, 3, 1)), (4, (1, 2, 2, 1))):
            for m in enumerate_multisegments(Quiver(n), d):
                for p in (2, 3):
                    x = accepted_point(m, n, p)
                    for i in range(1, n + 1):
                        k = len(oracles.joint_kernel(x, i))
                        for a in range(1, k + 1):
                            yield x, i, a, k

    def test_expand_matches_split_path(self, monkeypatch):
        split = nilpotent._kernel_split
        calls = []

        def counted(*args):
            calls.append(args[1])
            return split(*args)

        monkeypatch.setattr(nilpotent, "_kernel_split", counted)
        whole = proper = 0
        for x, i, a, k in self.letters():
            want = oracles.expand_by_split(x, i, a)
            calls.clear()
            got = [
                (orbit, _quotient_point(x, i, u))
                for orbit, u in nilpotent._expand(x, i, a, nilpotent._joint_kernel(x, i))
            ]
            assert got == want, (x, i, a)
            if a == k:
                # exactly one pair, of orbit weight 1, and no split
                assert len(got) == 1 and got[0][0] == 1 and calls == [], (x, i, a)
                whole += 1
            else:
                assert calls == [i], (x, i, a)
                proper += 1
        assert whole > 100 and proper > 30, (whole, proper)


class TestSharedDraws:
    def test_each_draw_lifted_once_and_each_star_space_solved_once(self, monkeypatch):
        # one transition: the word counts of both routes and the delta
        # check read one set of draws per (component, prime, attempt), and
        # the memo behind every lift solves each star space once
        lifts, spaces = Counter(), Counter()
        lift, space = nilpotent.lift_generic, nilpotent._star_space.__wrapped__

        def lift_counted(m, n, p, seed):
            lifts[n, m.segments, p, seed] += 1
            return lift(m, n, p, seed)

        def space_counted(m, n, p):
            spaces[n, m.segments, p] += 1
            return space(m, n, p)

        monkeypatch.setattr(nilpotent, "lift_generic", lift_counted)
        monkeypatch.setattr(nilpotent, "_star_space", lru_cache(maxsize=None)(space_counted))
        res = transition_matrix(Quiver(3), (2, 2, 2))
        assert res.routes_agree and res.delta_ok
        assert lifts and set(lifts.values()) == {1}
        assert spaces and set(spaces.values()) == {1}

    def test_one_template_and_one_set_of_relation_rows_per_label(self, monkeypatch):
        # one transition builds each label's End template once, for its
        # graded-point search and its draws alike, and the label's integer
        # relation rows once, although its star space is solved mod p at
        # several primes; the memos are spied on below their caches
        templates, rows, primes = Counter(), Counter(), {}
        template_of, rows_of, space_of = (
            nilpotent._end_template.__wrapped__,
            nilpotent._relation_rows,
            nilpotent._star_space.__wrapped__,
        )

        def template_counted(m, n):
            templates[m.segments] += 1
            return template_of(m, n)

        def rows_counted(rep):
            rows[rep] += 1
            return rows_of(rep)

        def space_counted(m, n, p):
            primes.setdefault(m.segments, set()).add(p)
            return space_of(m, n, p)

        monkeypatch.setattr(nilpotent, "_end_template", lru_cache(maxsize=None)(template_counted))
        monkeypatch.setattr(nilpotent, "_relation_rows", rows_counted)
        monkeypatch.setattr(nilpotent, "_star_space", lru_cache(maxsize=None)(space_counted))
        res = transition_matrix(Quiver(4), (1, 2, 2, 1))
        assert res.routes_agree and res.delta_ok
        classes = list(enumerate_multisegments(Quiver(4), (1, 2, 2, 1)))
        assert {m.segments for m in classes} <= set(templates)
        assert set(templates.values()) == set(rows.values()) == {1}
        assert len(rows) == len(templates) and set(primes) <= set(templates)
        assert max(len(ps) for ps in primes.values()) > 1

    def test_vote_reads_at_most_five_of_forty_draws(self, monkeypatch):
        # End is q + 1 at every draw, so p = 2 and 3 are passed over and
        # every other prime votes; the values 0, 1, 0, 1, 2 tie each vote,
        # which therefore reads all it may
        m, w = M("2[1,2]"), ((1, 2), (2, 2))
        cycle = itertools.cycle((0, 1, 0, 1, 2))
        read = []

        def counted(x, words):
            read.append((x.p, x.seed))
            return {word: next(cycle) for word in words}

        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x) + 1)
        monkeypatch.setattr(nilpotent, "_count_words", counted)
        ev = RhoEvaluator(2)
        assert nilpotent.SAMPLES_PER_PRIME == 40 and nilpotent.VOTE_SIZE == 5
        with pytest.raises(ConsensusError):
            ev.rho(m, w)
        assert read == [
            (p, ev._seed(m, p, k, salt))
            for salt in range(3)
            for p in (5, 7, 11)
            for k in range(5)
        ]
        assert sorted(ev._draws) == [
            (m.segments, p, salt) for p in (2, 3, 5, 7, 11) for salt in range(3)
        ]
        assert all(len(ends) == 40 and len(points) == 5 for points, ends in ev._draws.values())


class TestRho:
    def test_unit_square_diagonal(self):
        # the generic component only pairs with the matching word order
        assert RhoEvaluator(2).rho(M("1[1,1]+1[2,2]"), ((1, 1), (2, 1))) == 0
        assert RhoEvaluator(2).rho(M("1[1,1]+1[2,2]"), ((2, 1), (1, 1))) == 1
        assert RhoEvaluator(2).rho(M("1[1,2]"), ((1, 1), (2, 1))) == 1
        assert RhoEvaluator(2).rho(M("1[1,2]"), ((2, 1), (1, 1))) == 0

    def test_square_grade_values(self):
        w1 = ((1, 2), (2, 2))
        w2 = ((2, 1), (1, 2), (2, 1))
        m1, m2 = M("2[1,2]"), M("1[1,2]+1[1,1]+1[2,2]")
        assert RhoEvaluator(2).rho(m1, w1) == 1
        assert RhoEvaluator(2).rho(m2, w2) == 1
        assert RhoEvaluator(2).rho(m1, w2) == 0

    def test_combination_linearity(self):
        w1 = ((1, 2), (2, 2))
        w2 = ((2, 1), (1, 2), (2, 1))
        m1 = M("2[1,2]")
        combo = {w1: 3, w2: -5}
        ev = RhoEvaluator(2)
        assert ev.rho(m1, combo) == 3 * ev.rho(m1, w1) - 5 * ev.rho(m1, w2)

    def test_seed_independent(self):
        w = ((2, 1), (1, 2), (2, 1))
        m = M("1[1,2]+1[1,1]+1[2,2]")
        for seed in (0, 1234, 987654321):
            assert RhoEvaluator(2, seed).rho(m, w) == 1

    def test_evaluator_caches_are_per_instance(self):
        ev = RhoEvaluator(2)
        w = ((1, 2), (2, 2))
        m = M("2[1,2]")
        assert ev.rho(m, {w: 1}) == 1
        fresh = ev.fresh()
        assert fresh.rho(m, {w: 1}) == 1

    def test_three_primes_serve_a_degree_zero_word(self, monkeypatch, primes_only):
        # b_w = 0 at grade (2,2), whose grade bound of 2 would want four:
        # a fit prime and two check primes
        counted = []
        count_words = nilpotent._count_words

        def recorded(x, words):
            counted.append(x.p)
            return count_words(x, words)

        monkeypatch.setattr(nilpotent, "_count_words", recorded)
        assert RhoEvaluator(2).rho(M("2[1,2]"), ((1, 2), (2, 2))) == 1
        assert counted == [2, 3, 5]

    def test_vote_stops_at_strict_majority(self, monkeypatch):
        # with no draw at dim End = q(d), all 40 draws are taken and the
        # first five of least End vote
        m, w = M("1[1,2]+1[1,1]+1[2,2]"), ((2, 1), (1, 2), (2, 1))
        calls = Counter()
        real = nilpotent._count_words

        def counted(x, words):
            calls[x.p] += 1
            return real(x, words)

        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x) + 1)
        monkeypatch.setattr(nilpotent, "_count_words", counted)
        ev = RhoEvaluator(2)
        value = ev.rho(m, w)
        monkeypatch.undo()
        # the full five-sample mode at the same points and primes
        series = []
        for p in sorted(calls):
            points, ends = ev._draws_for(m, p, 0)
            assert len(points) == nilpotent.VOTE_SIZE == 5 and len(ends) == 40
            votes = Counter(count_word(x, w) for x in points).most_common(2)
            assert len(votes) == 1 or votes[0][1] > votes[1][1]
            series.append((p, votes[0][0]))
        assert value == interpolate_eval_one(series, word_degree_bound(w, (2, 2))) == 1
        assert len(calls) == 4  # b_w = 1: two fit primes and two checks
        assert all(c <= 3 for c in calls.values()), calls

    def test_interpolation_error_names_component_and_word(self, monkeypatch, primes_only):
        # a count equal to p cannot fit the constant a degree-0 word allows
        monkeypatch.setattr(nilpotent, "_count_words", lambda x, words: dict.fromkeys(words, x.p))
        with pytest.raises(InterpolationError) as info:
            RhoEvaluator(2).rho(M("2[1,2]"), ((1, 2), (2, 2)))
        text = str(info.value)
        assert "Z(2[1,2])" in text and "(1,2)(2,2)" in text
        assert "degree bound 0" in text and "primes [2, 3, 5]" in text

    def test_consensus_error_names_component_and_word(self, monkeypatch):
        # every draw is voted, and values 0, 1, 0, 1, 2 at every prime tie
        cycle = itertools.cycle((0, 1, 0, 1, 2))
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x) + 1)
        monkeypatch.setattr(
            nilpotent, "_count_words", lambda x, words: {w: next(cycle) for w in words}
        )
        with pytest.raises(ConsensusError) as info:
            RhoEvaluator(2).rho(M("2[1,2]"), ((1, 2), (2, 2)))
        text = str(info.value)
        assert "Z(2[1,2])" in text and "(1,2)(2,2)" in text
        assert "only the samples drawn" in text

    def test_row_retries_only_its_failing_words(self, monkeypatch, primes_only):
        # a count equal to p fails the degree-0 fit of bad at every attempt;
        # good certifies at the first attempt, so only bad is counted again
        m = M("2[1,2]")
        bad, good = ((1, 2), (2, 2)), ((2, 1), (1, 2), (2, 1))
        count_words = nilpotent._count_words
        batches = []

        def faulty(x, words):
            batches.append(tuple(words))
            counts = count_words(x, words)
            if bad in counts:
                counts[bad] = x.p
            return counts

        monkeypatch.setattr(nilpotent, "_count_words", faulty)
        ev = RhoEvaluator(2)
        with pytest.raises(InterpolationError, match=r"count of \(1,2\)\(2,2\) on Z\(2\[1,2\]\)"):
            nilpotent._WordColumns([{good: 1}, {bad: 2, good: -1}]).row(ev, m)
        assert (m.segments, good) in ev._chi and (m.segments, bad) not in ev._chi
        first = max(k for k, words in enumerate(batches) if good in words) + 1
        assert batches[0] == (good, bad)
        assert first < len(batches) and set(batches[first:]) == {(bad,)}

    def test_row_raises_for_its_first_failing_word(self, monkeypatch, primes_only):
        # counts of p^3 fit neither word's degree (0 and 1); the error names
        # the first word in the order the row gives them
        m = M("2[1,2]")
        bad, good = ((1, 2), (2, 2)), ((2, 1), (1, 2), (2, 1))
        monkeypatch.setattr(
            nilpotent, "_count_words", lambda x, words: dict.fromkeys(words, x.p**3)
        )
        for order in ([bad, good], [good, bad]):
            with pytest.raises(InterpolationError) as info:
                nilpotent._WordColumns([{order[0]: 1}, {order[1]: 1}]).row(RhoEvaluator(2), m)
            text = str(info.value)
            assert text.startswith(f"count of {format_word(order[0])} on Z(2[1,2])"), text
            assert format_word(order[1]) not in text

    def test_seed_eight_certifies_on_1221(self):
        # under the vote with only b_w + 2 primes, a non-generic count at
        # p = 5 and p = 7 fitted a constant here and the routes disagreed
        res = transition_matrix(Quiver(4), (1, 2, 2, 1), 8)
        assert res.routes_agree and res.delta_ok


def tits_form(x: LambdaPoint) -> int:
    return euler_form(Quiver(x.n), x.dims, x.dims)


class TestEndCertificate:
    def test_zero_stars_give_hom_dim(self):
        # with the stars zeroed End_Lambda(x) is End of the quiver module
        for d in ((2, 2), (1, 2, 1), (1, 1, 1, 1)):
            n = len(d)
            for m in enumerate_multisegments(Quiver(n), d):
                for p in (2, 5):
                    x = lift_generic(m, n, p, derive_seed("end", m.text(), p))
                    zero = tuple(tuple((0,) * len(row) for row in s) for s in x.stars)
                    x = replace(x, stars=zero)
                    template = nilpotent._end_template(m, n)
                    assert _end_dim(x, template) == hom_dim(m, m) == oracles.end_dim_by_images(x)

    def test_template_end_equals_the_commutator_oracle(self):
        # the segment-basis template against the commutator map of every
        # matrix unit: on every class with n <= 4 and |d| <= 5 and the n = 5
        # and n = 6 all-ones grades, at lifted draws, at zero stars (End of
        # the arrow module, hom_dim(m, m)) and at every graded candidate
        grades = [d for n in (1, 2, 3, 4) for d in oracles.grades_upto(n, 5)]
        points = 0
        for d in grades + [(1,) * 5, (1,) * 6]:
            n = len(d)
            for m in enumerate_multisegments(Quiver(n), d):
                template = nilpotent._end_template(m, n)
                assert template.q == euler_form(Quiver(n), d, d)
                for p in (2, 3, 5, torus.GRADED_PRIME):
                    for seed in range(3):
                        x = lift_generic(m, n, p, derive_seed("template", m.text(), p, seed))
                        assert _end_dim(x, template) == oracles.end_dim_by_images(x), (m, p)
                        points += 1
                    zero = tuple(tuple((0,) * len(row) for row in s) for s in x.stars)
                    x = replace(x, stars=zero)
                    assert _end_dim(x, template) == hom_dim(m, m) == oracles.end_dim_by_images(x)
                    # the template never reads the relations, so it holds at
                    # stars off them too; there a wrong sign of its
                    # s_v phi_(v+1) terms shows, as it did at no point above
                    rng = random.Random(derive_seed("template", m.text(), p))
                    wild = tuple(
                        tuple(tuple(rng.randrange(p) for _ in row) for row in s) for s in zero
                    )
                    x = replace(x, stars=wild)
                    assert _end_dim(x, template) == oracles.end_dim_by_images(x), (m, p, wild)
                for stars in torus._candidates(template.rep):
                    p = torus.GRADED_PRIME
                    reduced = tuple(tuple(tuple(e % p for e in row) for row in f) for f in stars)
                    x = LambdaPoint(n, p, d, template.rep.maps, reduced, 0)
                    assert _end_dim(x, template) == oracles.end_dim_by_images(x), (m, stars)
                    points += 1
        assert points > 9000

    def test_sparse_elimination_equals_dense_rank(self):
        # _end_dim eliminates the template's rows sparsely; filled densely
        # and reduced by rref_ff they give the same End, at draws on the
        # star relations and at random stars off them, on every class of
        # the ten golden grades
        draws = 0
        for d in oracles.golden_grades():
            n = len(d)
            for m in enumerate_multisegments(Quiver(n), d):
                template = nilpotent._end_template(m, n)
                for p in (2, 3, 5, 7):
                    rng = random.Random(derive_seed("sparse-end", m.text(), p))
                    for seed in range(3):
                        x = lift_generic(m, n, p, derive_seed("sparse-end", m.text(), p, seed))
                        wild = tuple(
                            tuple(tuple(rng.randrange(p) for _ in row) for row in s)
                            for s in x.stars
                        )
                        for y in (x, replace(x, stars=wild)):
                            assert _end_dim(y, template) == oracles.end_dim_dense(y, template), (
                                m, p, y.stars,
                            )
                            draws += 1
        assert draws > 1500

    def test_template_of_other_arrows_raises(self):
        # 1[1,2] and 1[1,1]+1[2,2] share their dimensions, not their arrows;
        # 1[1,1] and 2[1,1] at n = 2 share their (empty) arrows, not their
        # dimensions
        for m, other, n in (
            (M("1[1,2]"), M("1[1,1]+1[2,2]"), 2),
            (M("1[1,1]"), M("2[1,1]"), 2),
        ):
            x = lift_generic(m, n, 5, 0)
            assert _end_dim(x, nilpotent._end_template(m, n)) >= 1
            with pytest.raises(InternalCheckError, match="other arrows"):
                _end_dim(x, nilpotent._end_template(other, n))

    def test_accepted_points_attain_tits_form(self, monkeypatch):
        draws = []
        real = nilpotent._generic_draws

        def recorded(m, n, p, seeds):
            found = real(m, n, p, seeds)
            draws.append(found)
            return found

        monkeypatch.setattr(nilpotent, "_generic_draws", recorded)
        for d in ((2, 2), (1, 1, 1, 1), (1, 2, 1, 1), (1, 2, 2, 1)):
            res = transition_matrix(Quiver(len(d)), d)
            assert res.routes_agree and res.delta_ok
        accepted = 0
        for points, ends in draws:
            q = tits_form(points[0])
            if q in ends:
                [x] = points
                assert ends[-1] == oracles.end_dim_by_images(x) == q
                assert all(e > q for e in ends[:-1])
                accepted += 1
            else:
                # a voted prime keeps its first draws of least End, at
                # most VOTE_SIZE of them
                assert len(points) == min(ends.count(min(ends)), nilpotent.VOTE_SIZE)
                for x in points:
                    assert oracles.end_dim_by_images(x) == min(ends) > q
        assert accepted > 100

    def test_planted_degenerate_point_rejected(self, monkeypatch):
        # at p = 5, points of Z(1[1,2]+1[3,3]+1[4,4]) with s_3 = 0 once
        # carried the vote for a non-generic count; q(1,1,1,1) = 1
        m = M("1[1,2]+1[3,3]+1[4,4]")
        x = next(
            y for y in (lift_generic(m, 4, 5, seed) for seed in range(20))
            if y.stars[2] != ((0,),)
        )
        template = nilpotent._end_template(m, 4)
        assert _end_dim(x, template) == tits_form(x) == 1
        planted = replace(x, stars=x.stars[:2] + (((0,),),))
        assert star_system_holds(planted)
        assert _end_dim(planted, template) == oracles.end_dim_by_images(planted) > 1
        monkeypatch.setattr(nilpotent, "lift_generic", lambda *args: planted)
        points, ends = nilpotent._generic_draws(m, 4, 5, range(5))
        # not read alone: all five draws are kept for a vote
        assert len(ends) == 5 and 1 not in ends and points == [planted] * 5
        with monkeypatch.context() as patched:
            # the generic point drawn fourth is read alone
            patched.setattr(
                nilpotent, "lift_generic", lambda *args: x if args[3] == 3 else planted
            )
            points, ends = nilpotent._generic_draws(m, 4, 5, range(5))
        assert points == [x] and ends == [ends[0]] * 3 + [1] and ends[0] > 1

    def test_vote_keeps_draws_of_least_end(self, monkeypatch):
        # q = 1 on Z(1[1,2]+1[3,3]+1[4,4]); no planted End reaches it
        m = M("1[1,2]+1[3,3]+1[4,4]")
        planted = {0: 5, 1: 3, 2: 4, 3: 3, 4: 6}
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: planted[x.seed])
        points, ends = nilpotent._generic_draws(m, 4, 5, range(5))
        assert ends == [5, 3, 4, 3, 6]
        assert [x.seed for x in points] == [1, 3]

    def test_small_prime_is_read_only_at_a_certified_draw(self, monkeypatch, primes_only):
        # no draw at p = 3 reaches q(d), so the degree-0 word is counted at
        # 2, 5 and 7; p = 2 still reads its certified draw
        m, w = M("2[1,2]"), ((1, 2), (2, 2))
        real_end = nilpotent._end_dim
        monkeypatch.setattr(
            nilpotent, "_end_dim", lambda x, template: real_end(x, template) + (x.p == 3)
        )
        counted = []
        count_words = nilpotent._count_words

        def recorded(x, words):
            counted.append(x.p)
            return count_words(x, words)

        monkeypatch.setattr(nilpotent, "_count_words", recorded)
        assert RhoEvaluator(2).rho(m, w) == 1
        assert counted == [2, 5, 7]

    def test_voted_only_from_the_vote_primes(self, monkeypatch, primes_only):
        # a pass-over at p = 2 or 3 reads nothing, so it leaves the label
        # certified; a draw set from p = 5 up without a draw at q(d) votes,
        # in whichever attempt it was drawn
        m, w = M("2[1,2]"), ((1, 2), (2, 2))
        ev = RhoEvaluator(2)
        assert not ev.voted(m)
        ev.rho(m, w)
        assert not ev.voted(m)
        real_end = nilpotent._end_dim
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: real_end(x, template) + (x.p in (2, 3, 13)))
        ev = RhoEvaluator(2)
        ev.rho(m, w)
        ev._draws_for(m, 2, 1)
        assert sorted(ev._voted) == [(m.segments, 2), (m.segments, 3)]
        assert not ev.voted(m)
        ev._draws_for(m, 13, 1)
        assert ev.voted(m) and not ev.voted(M("1[1,2]+1[1,1]+1[2,2]"))
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: real_end(x, template) + (x.p == 5))
        ev = RhoEvaluator(2)
        ev.rho(m, w)
        assert ev.voted(m)

    def test_vote_logged_once_per_component_and_prime(self, monkeypatch, caplog):
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x) + 1)
        ev = RhoEvaluator(2)
        with caplog.at_level(logging.WARNING, logger="semibasis.nilpotent"):
            for salt in range(3):
                for p in (5, 7):
                    ev._draws_for(M("2[1,2]"), p, salt)
            # reading two primes passes over p = 2 and 3 and reads p = 5
            # and 7, each logged once; word counts on these draws would
            # log nothing more
            assert ev._read_primes(M("2[1,1]+1[2,2]"), 0, 2) == (5, 7)
            for p in (2, 3, 5, 7):
                ev._draws_for(M("2[1,1]+1[2,2]"), p, 0)
            # a fresh evaluator reports its own votes
            ev.fresh()._draws_for(M("2[1,2]"), 5, 0)
        assert [r.getMessage() for r in caplog.records] == [
            f"draws on Z(2[1,2]) at p={p} voted: no draw of 40 reached"
            " dim End = q(d) = 4; 5 draws of least End 5 vote"
            for p in (5, 7)
        ] + [
            f"draws on Z(2[1,1]+1[2,2]) at p={p} passed over: no draw of 40 reached"
            " dim End = q(d) = 3, and votes are read only from p=5"
            for p in (2, 3)
        ] + [
            f"draws on Z(2[1,1]+1[2,2]) at p={p} voted: no draw of 40 reached"
            " dim End = q(d) = 3; 5 draws of least End 4 vote"
            for p in (5, 7)
        ] + [
            "draws on Z(2[1,2]) at p=5 voted: no draw of 40 reached"
            " dim End = q(d) = 4; 5 draws of least End 5 vote"
        ]

    def test_no_accepted_point_names_every_draw(self, monkeypatch, capsys):
        # End is q + 1 at every draw, so every prime votes, and values
        # 0, 1, 0, 1, 2 tie each vote
        cycle = itertools.cycle((0, 1, 0, 1, 2))
        monkeypatch.setattr(nilpotent, "_end_dim", lambda x, template: tits_form(x) + 1)
        monkeypatch.setattr(
            nilpotent, "_count_words", lambda x, words: {w: next(cycle) for w in words}
        )
        with pytest.raises(ConsensusError) as info:
            RhoEvaluator(2).rho(M("2[1,2]"), ((1, 2), (2, 2)))
        text = str(info.value)
        assert "Z(2[1,2])" in text and "(1,2)(2,2)" in text
        assert "dim End = q(d) = 4" in text
        # every draw of the 40 is named, and five of them vote; p = 2
        # and 3 are passed over
        for salt in range(3):
            for p in (5, 7, 11):
                assert (
                    f"attempt {salt}, p={p}: End dimensions {[5] * 40}, "
                    "votes {0: 2, 1: 2, 2: 1}"
                ) in text
        assert "p=2:" not in text and "p=3:" not in text
        assert main(["transition", "--dim", "1,1"]) == 20
        assert f"End dimensions {[2] * 40}" in capsys.readouterr().err

    def test_voted_components_certify_and_are_logged(self):
        # with End at q + 1 everywhere every count is voted; the matrix is
        # the README's, and standard error names each voted component,
        # which passes over p = 2 and 3 and votes from p = 5 up
        script = (
            "import sys\n"
            "from semibasis import nilpotent\n"
            "from semibasis.cli import main\n"
            "from semibasis.quiver import Quiver, euler_form\n"
            "nilpotent._end_dim = lambda x, template: euler_form(Quiver(x.n), x.dims, x.dims) + 1\n"
            "sys.exit(main(['transition', '--dim', '2,2', '--format', 'json']))\n"
        )
        src = str(Path(nilpotent.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        order = ["2[1,2]", "1[1,2]+1[1,1]+1[2,2]", "2[1,1]+2[2,2]"]
        assert payload["order"] == order
        assert payload["matrix"] == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
        for cls in order:
            for p in (2, 3):
                assert f"draws on Z({cls}) at p={p} passed over" in proc.stderr, proc.stderr
            assert f"draws on Z({cls}) at p=5 voted" in proc.stderr, proc.stderr


class TestDegreeBound:
    def test_values(self):
        assert flag_degree_bound((2, 2)) == 2
        assert flag_degree_bound((1, 1, 1)) == 0
        assert flag_degree_bound((3, 2)) == 4

    def test_worst_case_count_attains_bound(self):
        # splitting one letter (1,2) into (1,1)(1,1) on a 2-dim simple
        # counts complete flags: p + 1 of them, a degree-1 polynomial,
        # matching flag_degree_bound((2,)) = 1
        for p in (2, 3, 5):
            x = lift_generic(M("2[1,1]"), 1, p, 3)
            assert count_word(x, ((1, 1), (1, 1))) == p + 1
            assert count_word(x, ((1, 2),)) == 1
        assert flag_degree_bound((2,)) == 1
        assert word_degree_bound(((1, 1), (1, 1)), (2,)) == 1
        assert word_degree_bound(((1, 2),), (2,)) == 0

    def test_word_bound_with_unit_letters_is_grade_bound(self):
        for d in ((2, 2), (3, 2), (1, 3, 2), (2, 1, 1, 2)):
            word = tuple((i, 1) for i, di in enumerate(d, start=1) for _ in range(di))
            assert word_degree_bound(word, d) == flag_degree_bound(d)
            assert word_degree_bound(word[::-1], d) == flag_degree_bound(d)

    def test_word_bound_zero_for_one_letter_per_vertex(self):
        for d in ((2, 2), (3, 1, 2), (1, 2, 2, 1)):
            word = tuple((i, di) for i, di in enumerate(d, start=1))
            assert word_degree_bound(word, d) == 0
            assert word_degree_bound(word[::-1], d) == 0

    def test_word_bound_within_grade_bound(self):
        for d in ((3, 3), (2, 3, 1)):
            words = {
                w
                for combo in pbw_to_words(Quiver(len(d)), d).values()
                for w in combo
            }
            assert any(word_degree_bound(w, d) < flag_degree_bound(d) for w in words)
            for w in words:
                assert 0 <= word_degree_bound(w, d) <= flag_degree_bound(d), w

    def test_word_bound_rejects_weight_mismatch(self):
        with pytest.raises(ValueError):
            word_degree_bound(((1, 2),), (1,))
        with pytest.raises(ValueError):
            word_degree_bound(((3, 1),), (1, 1))


class TestQuotient:
    def test_echelon_quotient_matches_change_of_basis(self):
        cases = 0
        for n, d in ((2, (3, 3)), (4, (1, 2, 2, 1))):
            for m in list(enumerate_multisegments(Quiver(n), d))[::3]:
                for p in (2, 3):
                    x = lift_generic(m, n, p, derive_seed("quotient", m.text(), p))
                    for i in range(1, n + 1):
                        kernel = oracles.joint_kernel(x, i)
                        for a in range(1, len(kernel) + 1):
                            for sub in subspaces_ff(kernel, a, p):
                                got = _quotient_point(x, i, sub)
                                want = oracles.quotient_by_change_of_basis(x, i, sub)
                                assert got == want, (m, p, i, sub)
                                cases += 1
        assert cases > 100

    def test_non_invariant_subspace_raises(self):
        # the arrow of 1[1,2] is invertible, so no line at vertex 1 is
        # killed by it
        x = lift_generic(M("1[1,2]"), 2, 5, 7)
        assert x.arrows[0] != ((0,),)
        with pytest.raises(InternalCheckError):
            _quotient_point(x, 1, [(1,)])


class TestShortcutIdentities:
    def test_top_identity_full_range(self):
        # the closed forms reduce to the combinatorial top when no segment
        # starts at i+1, at i = n in particular
        for n in (2, 3):
            for cls in classes_upto(n, 4):
                for i in range(1, n + 1):
                    if i < n and t_top(cls, i + 1) != 0:
                        continue
                    assert t_component(cls, i) == t_top(cls, i), (cls, i)
                    if t_top(cls, i):
                        assert peel_component(cls, i) == peel_top(cls, i), (cls, i)
