"""Multisegment combinatorics against brute-force oracles."""

import itertools

import pytest

import oracles
from semibasis import (
    Multisegment,
    ParseError,
    Quiver,
    deg_leq,
    enumerate_multisegments,
    euler_form,
    ext_dim,
    flag_vertex,
    format_word,
    generic_ext_simple,
    hom_dim,
    parse_word,
    peel_component,
    peel_top,
    refine_order,
    t_component,
    t_top,
    total_generic_flag,
    word_weight,
)
from semibasis.hall import hom_rank

M = Multisegment


class TestParseFormat:
    def test_roundtrip_canonical(self):
        for text in ("2[1,2]", "1[1,2]+1[1,1]+1[2,2]", "2[1,1]+2[2,2]", "0", "1[1,3]"):
            assert M.parse(text).text() == text

    def test_segments_sorted_start_ascending_end_descending(self):
        m = M([(2, 2), (1, 1), (1, 3), (1, 2)])
        assert m.segments == ((1, 3), (1, 2), (1, 1), (2, 2))

    def test_multiplicity_prefix_optional(self):
        assert M.parse("[1,2]+[1,2]") == M.parse("2[1,2]")

    def test_parse_rejects_garbage(self):
        for bad in ("junk", "[2,1]", "1,2", "[1]", "2[", "[0,1]"):
            with pytest.raises(ParseError):
                M.parse(bad)

    def test_constructor_rejects_reversed_segment(self):
        with pytest.raises(ValueError):
            M([(3, 1)])

    def test_zero(self):
        assert M.zero().is_zero()
        assert M.zero().text() == "0"
        assert M.parse("0") == M.zero()

    def test_dim_vector(self):
        assert M("1[1,2]+1[1,1]+1[2,2]").dim_vector(2) == (2, 2)
        assert M("1[1,3]").dim_vector(3) == (1, 1, 1)
        assert M.zero().dim_vector(2) == (0, 0)
        with pytest.raises(ValueError):
            M("1[1,3]").dim_vector(2)
        with pytest.raises(ValueError, match="does not fit in 2 vertices"):
            M("1[1,1]+1[3,3]").dim_vector(2)

    def test_dim_vector_counts_covering_segments(self):
        cases = 0
        for n in range(1, 6):
            for d in oracles.grades_upto(n, 5):
                for cls in enumerate_multisegments(Quiver(n), d):
                    want = tuple(
                        sum(1 for a, b in cls.segments if a <= v <= b)
                        for v in range(1, n + 1)
                    )
                    assert cls.dim_vector(n) == want == d, cls
                    assert cls.dim_vector() == want[: cls.max_end()], cls
                    cases += 1
        assert cases == 1086

    def test_dim_vector_without_n_stops_at_the_last_end(self):
        assert M.zero().dim_vector() == ()
        assert M("1[2,2]").dim_vector() == (0, 1)
        assert M("1[1,3]+1[2,2]").dim_vector() == (1, 2, 1)


class TestEnumeration:
    def test_two_vertex_square(self):
        classes = enumerate_multisegments(Quiver(2), (2, 2))
        assert {c.text() for c in classes} == {
            "2[1,2]",
            "1[1,2]+1[1,1]+1[2,2]",
            "2[1,1]+2[2,2]",
        }

    def test_single_vertex(self):
        classes = enumerate_multisegments(Quiver(1), (3,))
        assert [c.text() for c in classes] == ["3[1,1]"]

    def test_three_vertex_unit_cube(self):
        classes = enumerate_multisegments(Quiver(3), (1, 1, 1))
        assert {c.text() for c in classes} == {
            "1[1,3]",
            "1[1,2]+1[3,3]",
            "1[1,1]+1[2,3]",
            "1[1,1]+1[2,2]+1[3,3]",
        }

    def test_matches_brute_force(self):
        for n in (1, 2, 3):
            for d in oracles.grades_upto(n, 5):
                got = set(enumerate_multisegments(Quiver(n), d))
                assert got == oracles.brute_multisegments(n, d), (n, d)

    def test_every_class_has_right_grade(self):
        for d in oracles.grades_upto(4, 4):
            for cls in enumerate_multisegments(Quiver(4), d):
                assert cls.dim_vector(4) == d


class TestHomExt:
    def test_known_values(self):
        assert hom_dim(M("1[1,2]"), M("1[1,1]")) == 1
        assert hom_dim(M("1[1,1]"), M("1[1,2]")) == 0
        assert hom_dim(M("2[1,1]+2[2,2]"), M("1[1,1]")) == 2

    def test_hom_matches_intertwiner_rank(self):
        for n in (2, 3):
            pool = [
                cls
                for d in oracles.grades_upto(n, 4)
                for cls in enumerate_multisegments(Quiver(n), d)
            ]
            for m, w in itertools.product(pool, repeat=2):
                assert hom_dim(m, w) == hom_rank(m, w, n), (m, w)

    def test_euler_form_values(self):
        q2 = Quiver(2)
        assert euler_form(q2, (1, 1), (1, 1)) == 1
        assert euler_form(q2, (1, 0), (0, 1)) == -1
        assert euler_form(q2, (2, 2), (2, 2)) == 4

    def test_hom_minus_ext_is_euler_form(self):
        for n in (2, 3):
            quiver = Quiver(n)
            pool = [
                cls
                for d in oracles.grades_upto(n, 4)
                for cls in enumerate_multisegments(Quiver(n), d)
            ]
            for m, w in itertools.product(pool, repeat=2):
                lhs = hom_dim(m, w) - ext_dim(m, w)
                rhs = euler_form(quiver, m.dim_vector(n), w.dim_vector(n))
                assert lhs == rhs, (m, w)

    def test_simple_extensions(self):
        # the arrow points 1 -> 2, so S_1 extends S_2 but not conversely
        assert ext_dim(M("1[1,1]"), M("1[2,2]")) == 1
        assert ext_dim(M("1[2,2]"), M("1[1,1]")) == 0


class TestDegenerationOrder:
    def test_square_chain(self):
        generic = M("2[1,2]")
        middle = M("1[1,2]+1[1,1]+1[2,2]")
        split = M("2[1,1]+2[2,2]")
        assert deg_leq(generic, middle)
        assert deg_leq(middle, split)
        assert deg_leq(generic, split)
        assert not deg_leq(split, generic)
        assert not deg_leq(middle, generic)

    def test_different_grades_incomparable(self):
        assert not deg_leq(M("1[1,1]"), M("1[2,2]"))
        assert not deg_leq(M("1[1,2]"), M("1[1,1]"))

    def test_matches_composite_rank_oracle(self):
        # deg_leq compares Hom profiles; the oracle compares composite ranks
        for n, total in ((2, 4), (3, 4), (4, 5), (5, 5)):
            for d in oracles.grades_upto(n, total):
                classes = enumerate_multisegments(Quiver(n), d)
                for m, w in itertools.product(classes, repeat=2):
                    assert deg_leq(m, w) == oracles.deg_leq_ranks(m, w, n), (m, w)

    def test_partial_order_axioms(self):
        for n in (2, 3):
            for d in oracles.grades_upto(n, 4):
                classes = enumerate_multisegments(Quiver(n), d)
                for a in classes:
                    assert deg_leq(a, a)
                for a, b in itertools.combinations(classes, 2):
                    assert not (deg_leq(a, b) and deg_leq(b, a))
                for a, b, c in itertools.product(classes, repeat=3):
                    if deg_leq(a, b) and deg_leq(b, c):
                        assert deg_leq(a, c)


class TestRefineOrder:
    def test_square_order(self):
        classes = enumerate_multisegments(Quiver(2), (2, 2))
        ordered = refine_order(classes)
        assert [c.text() for c in ordered] == [
            "2[1,2]",
            "1[1,2]+1[1,1]+1[2,2]",
            "2[1,1]+2[2,2]",
        ]

    def test_unit_cube_endpoints(self):
        ordered = refine_order(enumerate_multisegments(Quiver(3), (1, 1, 1)))
        assert ordered[0].text() == "1[1,3]"
        assert ordered[-1].text() == "1[1,1]+1[2,2]+1[3,3]"

    def test_topological(self):
        # a class never precedes one that strictly degenerates to it
        for n in (2, 3):
            for d in oracles.grades_upto(n, 5):
                ordered = refine_order(enumerate_multisegments(Quiver(n), d))
                for i, m in enumerate(ordered):
                    for w in ordered[i + 1 :]:
                        assert not (deg_leq(w, m) and w != m), (m, w)

    def test_permutation_of_input(self):
        classes = list(enumerate_multisegments(Quiver(2), (3, 2)))
        assert sorted(refine_order(reversed(classes)), key=M.sort_key) == sorted(
            classes, key=M.sort_key
        )


class TestTopPeel:
    def test_t_top_values(self):
        assert t_top(M("1[1,2]+1[1,1]"), 1) == 2
        assert t_top(M("1[1,2]+1[1,1]"), 2) == 0
        assert t_top(M("2[2,2]"), 2) == 2

    def test_peel_top_values(self):
        assert peel_top(M("2[1,2]"), 1) == M("2[2,2]")
        assert peel_top(M("1[1,2]+1[1,1]+1[2,2]"), 2) == M("1[1,2]+1[1,1]")
        assert peel_top(M("2[1,1]"), 1) == M.zero()

    def test_peel_drops_t_boxes_at_vertex(self):
        for d in oracles.grades_upto(3, 5):
            for cls in enumerate_multisegments(Quiver(3), d):
                for i in (1, 2, 3):
                    t = t_top(cls, i)
                    if t == 0:
                        continue
                    peeled = peel_top(cls, i)
                    dv = list(cls.dim_vector(3))
                    dv[i - 1] -= t
                    assert peeled.dim_vector(3) == tuple(dv)
                    assert t_top(peeled, i) == 0

    def test_component_signature_rule(self):
        # each case fails under a variant of the rule: matching [i, b] to
        # [i+1, b'] with b' >= b would give t = 0 at the first; taking the
        # [i, b] in increasing b would peel [1,2] instead of [1,1] at the
        # second, giving 1[1,1]+1[2,3]+1[2,2]
        cases = [
            ("1[1,2]+1[2,2]", 1, 1, "2[2,2]"),
            ("1[1,2]+1[1,1]+1[2,3]", 1, 1, "1[1,2]+1[2,3]"),
            ("1[2,3]+1[2,2]+1[3,4]", 2, 1, "1[2,3]+1[3,4]"),
            ("2[1,1]+1[2,2]", 1, 1, "1[1,1]+1[2,2]"),
            ("1[1,1]+1[2,3]+1[2,2]", 1, 0, None),
            ("1[1,3]+1[1,1]+1[2,2]", 1, 1, "1[1,1]+1[2,3]+1[2,2]"),
        ]
        for text, i, t, peeled in cases:
            assert t_component(M(text), i) == t, text
            if peeled is None:
                with pytest.raises(ValueError, match="nothing to peel"):
                    peel_component(M(text), i)
            else:
                assert peel_component(M(text), i) == M(peeled), text

    def test_component_peel_clears_the_top(self):
        for n in (2, 3, 4):
            for d in oracles.grades_upto(n, 5):
                for cls in enumerate_multisegments(Quiver(n), d):
                    for i in range(1, n + 1):
                        t = t_component(cls, i)
                        assert t <= t_top(cls, i)
                        if t == 0:
                            continue
                        peeled = peel_component(cls, i)
                        dv = list(cls.dim_vector(n))
                        dv[i - 1] -= t
                        assert peeled.dim_vector(n) == tuple(dv)
                        assert t_component(peeled, i) == 0, (cls, i)

    def test_generic_ext_values(self):
        assert generic_ext_simple(M("2[2,2]"), 1, 2) == M("2[1,2]")
        assert generic_ext_simple(M("1[2,3]+1[2,2]"), 1, 1) == M("1[1,3]+1[2,2]")
        assert generic_ext_simple(M.zero(), 3, 2) == M("2[3,3]")

    def test_generic_ext_dominates_every_extension(self):
        # cls is one extension of S_i^t by its peel; the generic one
        # must sit weakly above it in the degeneration order
        for n in (2, 3):
            for d in oracles.grades_upto(n, 5):
                for cls in enumerate_multisegments(Quiver(n), d):
                    for i in range(1, n + 1):
                        t = t_top(cls, i)
                        if t == 0:
                            continue
                        generic = generic_ext_simple(peel_top(cls, i), i, t)
                        assert deg_leq(generic, cls), (cls, i)

    def test_ext_then_peel_restores(self):
        for n in (2, 3):
            for d in oracles.grades_upto(n, 4):
                for cls in enumerate_multisegments(Quiver(n), d):
                    for i in range(1, n + 1):
                        if t_top(cls, i) > 0:
                            continue  # extension would merge with existing tops
                        for m in (1, 2):
                            grown = generic_ext_simple(cls, i, m)
                            assert peel_top(grown, i) == cls


class TestFlagWords:
    def test_flag_vertex(self):
        assert flag_vertex(M("2[1,2]")) == (1, 2)
        assert flag_vertex(M("1[1,2]+1[1,1]+1[2,2]")) == (2, 1)
        assert flag_vertex(M("2[1,1]+2[2,2]")) == (2, 2)

    def test_square_words(self):
        assert format_word(total_generic_flag(M("2[1,2]"))) == "(1,2)(2,2)"
        assert (
            format_word(total_generic_flag(M("1[1,2]+1[1,1]+1[2,2]")))
            == "(2,1)(1,2)(2,1)"
        )
        assert format_word(total_generic_flag(M("2[1,1]+2[2,2]"))) == "(2,2)(1,2)"

    def test_word_weight_telescopes(self):
        for n in (2, 3):
            for d in oracles.grades_upto(n, 5):
                for cls in enumerate_multisegments(Quiver(n), d):
                    if cls.is_zero():
                        continue
                    word = total_generic_flag(cls)
                    assert word_weight(word, n) == d
                    assert sum(a for _, a in word) == sum(d)

    def test_parse_format_word_roundtrip(self):
        for text in ("(1,2)(2,2)", "(2,1)(1,2)(2,1)", "(3,1)(1,1)"):
            assert format_word(parse_word(text)) == text
        with pytest.raises(ParseError):
            parse_word("(1,2")
        with pytest.raises(ParseError):
            parse_word("1,2")
