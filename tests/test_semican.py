"""The dual basis construction and its certification machinery."""

from fractions import Fraction

import pytest

import oracles
from semibasis.linalg import primes
from semibasis.semican import SemicanBasis
from semibasis import (
    Multisegment,
    PBWVector,
    Quiver,
    RhoEvaluator,
    SampleConfig,
    enumerate_multisegments,
    deg_leq,
    evaluation_matrix,
    pbw_to_words,
    refine_order,
    semican_recursive,
    transition_matrix,
    transition_via_inversion,
    verify_delta,
)

M = Multisegment

Q2 = Quiver(2)
Q3 = Quiver(3)


def F(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class TestEvaluationMatrix:
    def test_unit_square(self):
        classes, rows = evaluation_matrix(Q2, (1, 1))
        assert [c.text() for c in classes] == ["1[1,2]", "1[1,1]+1[2,2]"]
        # the semisimple component pairs against the interval class with
        # sign -1: its word contributes nothing and the correction term
        # P(interval) = w_interval - w_split evaluates to 0 - 1
        assert rows == F([[1, 0], [-1, 1]])

    def test_square(self):
        classes, rows = evaluation_matrix(Q2, (2, 2))
        assert rows == F([[1, 0, 0], [-1, 1, 0], [1, -2, 1]])

    def test_lower_unitriangular_small_range(self):
        for n, bound in ((2, 4), (3, 3)):
            for d in oracles.grades_upto(n, bound):
                classes, rows = evaluation_matrix(Quiver(n), d)
                for r in range(len(classes)):
                    assert rows[r][r] == 1
                    for c in range(r + 1, len(classes)):
                        assert rows[r][c] == 0


class TestInversionRoute:
    def test_square(self):
        classes, a_mat, e_mat = transition_via_inversion(Q2, (2, 2))
        assert [c.text() for c in classes] == [
            "2[1,2]",
            "1[1,2]+1[1,1]+1[2,2]",
            "2[1,1]+2[2,2]",
        ]
        assert e_mat == F([[1, 0, 0], [-1, 1, 0], [1, -2, 1]])
        assert a_mat == F([[1, 1, 1], [0, 1, 2], [0, 0, 1]])

    def test_unit_square(self):
        _, a_mat, _ = transition_via_inversion(Q2, (1, 1))
        assert a_mat == F([[1, 1], [0, 1]])

    def test_one_two_differs_from_word_matrix(self):
        # the correction step changes the corner entry from the word
        # expansion's 2 to the dual basis value 1
        from semibasis import flag_word_matrix

        _, _, t_mat = flag_word_matrix(Q2, (1, 2))
        assert t_mat == F([[1, 2], [0, 1]])
        _, a_mat, _ = transition_via_inversion(Q2, (1, 2))
        assert a_mat == F([[1, 1], [0, 1]])

    def test_zero_grade(self):
        classes, a_mat, e_mat = transition_via_inversion(Q2, (0, 0))
        assert [c.text() for c in classes] == ["0"]
        assert a_mat == F([[1]])


class TestRecursionRoute:
    def test_square_elements(self):
        m1, m2, m3 = M("2[1,2]"), M("1[1,2]+1[1,1]+1[2,2]"), M("2[1,1]+2[2,2]")
        assert semican_recursive(Q2, m3) == PBWVector(2, (2, 2), {m3: 1})
        assert semican_recursive(Q2, m2) == PBWVector(2, (2, 2), {m2: 1, m3: 2})
        assert semican_recursive(Q2, m1) == PBWVector(2, (2, 2), {m1: 1, m2: 1, m3: 1})

    def test_semisimple_is_pbw_class(self):
        for n in (2, 3):
            for d in oracles.grades_upto(n, 4):
                cls = oracles.semisimple(n, d)
                got = semican_recursive(Quiver(n), cls)
                assert got == PBWVector(n, d, {cls: 1}), cls

    def test_interval_element(self):
        got = semican_recursive(Q2, M("1[1,2]"))
        assert got == PBWVector(2, (1, 1), {M("1[1,2]"): 1, M("1[1,1]+1[2,2]"): 1})

    def test_agrees_with_inversion(self):
        for n, bound in ((2, 4), (3, 3)):
            quiver = Quiver(n)
            for d in oracles.grades_upto(n, bound):
                classes, a_mat, _ = transition_via_inversion(quiver, d)
                for r, cls in enumerate(classes):
                    vec = semican_recursive(quiver, cls)
                    assert tuple(vec.get(c) for c in classes) == a_mat[r], cls

    def test_basis_takes_the_config_of_its_evaluator(self):
        ev = RhoEvaluator(2, SampleConfig(root_seed=3))
        assert SemicanBasis(Q2, ev.config, ev).evaluator is ev
        with pytest.raises(ValueError, match="config must be the evaluator's"):
            SemicanBasis(Q2, SampleConfig(root_seed=4), ev)


class TestDelta:
    def test_identity_on_small_grades(self):
        for d in ((1, 1), (2, 2), (2, 0), (0, 2)):
            report = verify_delta(Q2, d)
            assert report.ok
            k = len(report.classes)
            assert report.matrix == tuple(
                tuple(Fraction(1 if r == c else 0) for c in range(k)) for r in range(k)
            )

    def test_unit_cube(self):
        assert verify_delta(Q3, (1, 1, 1)).ok


class TestCertifiedTransition:
    def test_square_run(self, certified):
        res = certified(2, (2, 2))
        assert res.matrix == F([[1, 1, 1], [0, 1, 2], [0, 0, 1]])
        assert res.routes_agree
        assert res.delta_ok
        assert res.interpolation_primes == (2, 3, 5, 7)

    def test_payload_shape_and_determinism(self, certified):
        res = certified(2, (2, 2))
        payload = res.to_payload()
        assert payload["n"] == 2
        assert payload["dim"] == [2, 2]
        assert payload["order"] == [
            "2[1,2]",
            "1[1,2]+1[1,1]+1[2,2]",
            "2[1,1]+2[2,2]",
        ]
        assert payload["matrix"] == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
        assert payload["routes_agree"] is True
        assert payload["delta_identity"] is True
        assert "elapsed" not in payload
        # a second run with the same seed serializes identically
        again = transition_matrix(Q2, (2, 2)).to_payload()
        assert again == payload

    @pytest.mark.parametrize("d", [(3, 3), (2, 3, 1), (2, 2, 2)])
    def test_default_pool_and_pool_from_five_agree(self, certified, d):
        # a point with dim End = q(d) is exactly generic over every F_p,
        # so the default pool from 2 and the pool from 5 certify the same
        # matrices
        res = certified(len(d), d)
        used = len(res.interpolation_primes)
        assert res.interpolation_primes == primes(used)
        other = transition_matrix(
            Quiver(len(d)), d, SampleConfig(prime_pool=primes(used + 3, 5))
        )
        assert other.interpolation_primes == primes(used, 5)
        assert other.classes == res.classes
        assert other.matrix == res.matrix
        assert other.evaluation == res.evaluation

    def test_matrix_is_integral_here(self, certified):
        for d in ((1, 1), (1, 2), (2, 2)):
            res = certified(2, d)
            for row in res.matrix:
                for x in row:
                    assert Fraction(x).denominator == 1

    @pytest.mark.parametrize("d", [(2, 2), (2, 3, 1), (1, 2, 2, 1)])
    def test_every_coefficient_is_an_int(self, certified, d):
        quiver = Quiver(len(d))
        res = certified(len(d), d)
        for mat in (res.matrix, res.recursion_matrix, res.evaluation, res.delta.matrix):
            assert all(type(x) is int for row in mat for x in row)
        combos = pbw_to_words(quiver, d)
        ev = RhoEvaluator(quiver.n)
        for m in res.classes:
            elem = semican_recursive(quiver, m)
            assert all(type(c) is int for c in elem.coeffs.values())
            assert all(type(c) is int for c in combos[m].values())
            assert all(type(ev.rho(k, combos[m])) is int for k in res.classes)

    def test_support_respects_order(self, certified):
        res = certified(3, (1, 1, 1))
        classes = res.classes
        for r in range(len(classes)):
            assert res.matrix[r][r] == 1
            for c in range(len(classes)):
                if res.matrix[r][c] != 0:
                    assert deg_leq(classes[r], classes[c])

    def test_custom_seed_same_matrix(self):
        base = transition_matrix(Q2, (1, 2))
        other = transition_matrix(Q2, (1, 2), SampleConfig(root_seed=314159))
        assert base.matrix == other.matrix
        assert other.root_seed == 314159
