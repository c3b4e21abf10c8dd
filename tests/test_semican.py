"""The dual basis construction and its certification machinery."""

import itertools
import logging
import sys

import pytest

import oracles
from semibasis import hall, nilpotent, semican, torus
from semibasis.cli import main
from semibasis.errors import CertificationError, DeltaCheckError
from semibasis.quiver import euler_form, flag_vertex, t_component, total_generic_flag
from semibasis.semican import SemicanBasis
from semibasis import (
    Multisegment,
    PBWVector,
    Quiver,
    RhoEvaluator,
    enumerate_multisegments,
    deg_leq,
    left_mul_divided_power,
    pbw_to_words,
    refine_order,
    transition_matrix,
    transition_via_inversion,
    word_to_pbw,
)

M = Multisegment

Q2 = Quiver(2)
Q3 = Quiver(3)


def F(rows):
    return tuple(tuple(row) for row in rows)


class TestEvaluationMatrix:
    def test_unit_square(self):
        classes, _, rows = transition_via_inversion(Q2, (1, 1))
        assert [c.text() for c in classes] == ["1[1,2]", "1[1,1]+1[2,2]"]
        # the semisimple component pairs against the interval class with
        # sign -1: its word contributes nothing and the correction term
        # P(interval) = w_interval - w_split evaluates to 0 - 1
        assert rows == F([[1, 0], [-1, 1]])

    def test_square(self):
        rows = transition_via_inversion(Q2, (2, 2))[2]
        assert rows == F([[1, 0, 0], [-1, 1, 0], [1, -2, 1]])

    def test_lower_unitriangular_small_range(self):
        for n, bound in ((2, 4), (3, 3)):
            for d in oracles.grades_upto(n, bound):
                classes, _, rows = transition_via_inversion(Quiver(n), d)
                for r in range(len(classes)):
                    assert rows[r][r] == 1
                    for c in range(r + 1, len(classes)):
                        assert rows[r][c] == 0

    def test_value_outside_the_order_is_refused(self, monkeypatch):
        # 1[1,2]+1[3,3] and 1[1,1]+1[2,3] are incomparable, so a nonzero
        # value of P(1[1,2]+1[3,3]) on Z(1[1,1]+1[2,3]) sits below the
        # diagonal of E, where only the order check can refuse it
        # the fault is planted below the read, in the torus-fixed flags
        # at big's graded point: one more flag of small's generic flag
        # word, which adds T^-1[N][small] to every entry (big, N), that
        # is 1 at (big, small) and nothing at the columns after it
        small, big = M("1[1,2]+1[3,3]"), M("1[1,1]+1[2,3]")
        assert not deg_leq(small, big) and not deg_leq(big, small)
        word = total_generic_flag(small)
        at_big = torus.graded_point(big, 3)
        assert at_big is not None
        counts = torus.fixed_flag_counts

        def planted(x, words):
            got = counts(x, words)
            if x == at_big and word in got:
                got[word] += 1
            return got

        monkeypatch.setattr(torus, "fixed_flag_counts", planted)
        with pytest.raises(
            CertificationError,
            match=r"evaluation matrix entry at row 1\[1,1\]\+1\[2,3\], column "
            r"1\[1,2\]\+1\[3,3\] is 1, outside the degeneration order",
        ):
            transition_via_inversion(Q3, (1, 1, 1))


class TestOneClassOrder:
    def test_transition_refines_the_order_once(self, monkeypatch):
        # the classes come from pbw_to_words alone, whose keys are built
        # in the refined order, so no other caller orders the grade again
        calls = []

        def counted(classes):
            calls.append(1)
            return refine_order(classes)

        for name, mod in list(sys.modules.items()):
            if name.startswith("semibasis") and hasattr(mod, "refine_order"):
                monkeypatch.setattr(mod, "refine_order", counted)
        res = transition_matrix(Q3, (1, 2, 1))
        assert len(calls) == 1
        assert res.classes == tuple(refine_order(enumerate_multisegments(Q3, (1, 2, 1))))


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
        basis = SemicanBasis(Q2)
        assert word_to_pbw(Q2, basis.element(m3)) == PBWVector(2, (2, 2), {m3: 1})
        assert word_to_pbw(Q2, basis.element(m2)) == PBWVector(2, (2, 2), {m2: 1, m3: 2})
        assert word_to_pbw(Q2, basis.element(m1)) == PBWVector(
            2, (2, 2), {m1: 1, m2: 1, m3: 1}
        )

    def test_semisimple_is_pbw_class(self):
        for n in (2, 3):
            for d in oracles.grades_upto(n, 4):
                cls = oracles.semisimple(n, d)
                got = word_to_pbw(Quiver(n), SemicanBasis(Quiver(n)).element(cls))
                assert got == PBWVector(n, d, {cls: 1}), cls

    def test_interval_element(self):
        got = word_to_pbw(Q2, SemicanBasis(Q2).element(M("1[1,2]")))
        assert got == PBWVector(2, (1, 1), {M("1[1,2]"): 1, M("1[1,1]+1[2,2]"): 1})

    def test_agrees_with_inversion(self):
        # (2,3,1) holds corrections whose class has another flag vertex
        # than the class it corrects (see test_corrections_terminate)
        for n, grades in (
            (2, oracles.grades_upto(2, 4)),
            (3, [*oracles.grades_upto(3, 3), (2, 3, 1)]),
        ):
            quiver = Quiver(n)
            basis = SemicanBasis(quiver)
            for d in grades:
                classes, a_mat, _ = transition_via_inversion(quiver, d)
                for r, cls in enumerate(classes):
                    vec = word_to_pbw(quiver, basis.element(cls))
                    assert tuple(vec.get(c) for c in classes) == a_mat[r], cls

    def test_corrections_terminate(self):
        # element(m) peels at i, t = flag_vertex(m) and corrects by every
        # class cls of the grade with t_component(cls, i) > t; the pair
        # (flag vertex, t_top there) of cls is lexicographically larger,
        # so corrections within a grade cannot cycle
        pairs, elsewhere = 0, []
        for n in range(1, 6):
            for d in itertools.product(range(4), repeat=n):
                if not 0 < sum(d) <= 6:
                    continue
                classes = enumerate_multisegments(Quiver(n), d)
                for m in classes:
                    i, t = flag_vertex(m)
                    for cls in classes:
                        if t_component(cls, i) <= t:
                            continue
                        pairs += 1
                        j, u = flag_vertex(cls)
                        assert (j, u) > (i, t), (m, cls)
                        if j != i:
                            elsewhere.append((m, cls))
        assert pairs == 1266
        assert len(elsewhere) == 50
        assert (M("1[1,3]+1[1,2]+1[2,2]"), M("2[1,1]+3[2,2]+1[3,3]")) in elsewhere


class TestDelta:
    def test_identity_on_small_grades(self):
        for d in ((1, 1), (2, 2), (2, 0), (0, 2)):
            res = transition_matrix(Q2, d)
            assert res.delta_ok
            k = len(res.classes)
            assert res.delta == tuple(
                tuple(1 if r == c else 0 for c in range(k)) for r in range(k)
            )

    def test_unit_cube(self):
        assert transition_matrix(Q3, (1, 1, 1)).delta_ok


@pytest.fixture
def fresh_evaluators(monkeypatch):
    """Every evaluator RhoEvaluator.fresh hands out, with the seeds it drew."""
    made = []
    real = RhoEvaluator.fresh

    def recorded(self):
        ev = real(self)
        seed = ev._seed
        ev.seeds = set()

        def drawn(*args):
            value = seed(*args)
            ev.seeds.add(value)
            return value

        ev._seed = drawn
        made.append(ev)
        return ev

    monkeypatch.setattr(RhoEvaluator, "fresh", recorded)
    return made


def delta_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "semibasis.semican"]


def pairs(classes, words_of):
    # the (component, word) pairs counted when every word of words_of(K)
    # is evaluated at every component K
    return {(k.segments, w) for k in classes for w in words_of(k)}


class TestDeltaCheck:
    """Certified rows come from the construction's counts; these plant the
    faults that reading them must not hide."""

    def test_perturbed_word_at_a_certified_component_fails(self, monkeypatch, caplog):
        # one coefficient of f_M moves by 1, at a word counting 0 at Z_M
        # but not at Z_K: only the certified row K, read from the
        # construction's counts, can show it
        real = semican._delta_report

        def perturbed(basis, classes, elements):
            ev = basis.evaluator
            m, w = next(
                (m, w)
                for m in classes
                for w in elements[m]
                if ev.chi(m, w) == 0 and any(ev.chi(k, w) for k in classes)
            )
            words = dict(elements[m])
            words[w] += 1
            return real(basis, classes, {**elements, m: words})

        monkeypatch.setattr(semican, "_delta_report", perturbed)
        with caplog.at_level(logging.INFO, logger="semibasis.semican"):
            with pytest.raises(DeltaCheckError, match=r"delta-check of grade \(2, 3, 1\)"):
                transition_matrix(Q3, (2, 3, 1))
        assert delta_lines(caplog) == [
            "delta check: 8 of 8 components read from the construction's counts,"
            " 0 recounted in full at fresh seeds"
        ]

    def test_construction_count_off_at_the_diagonal_fails(self, monkeypatch):
        # a word of f_K alone, its count at Z_K off by 1 in the
        # construction's memo only: the fresh diagonal reads 1, so the
        # construction's own diagonal entry must be kept
        real = semican._delta_report

        def corrupted(basis, classes, elements):
            ev = basis.evaluator
            k, w = next(
                (k, w)
                for k in classes
                for w in elements[k]
                if all(w not in elements[m] for m in classes if m != k)
            )
            ev._chi[k.segments, w] = ev.chi(k, w) + 1
            return real(basis, classes, elements)

        monkeypatch.setattr(semican, "_delta_report", corrupted)
        with pytest.raises(DeltaCheckError):
            transition_matrix(Q3, (2, 3, 1))

    def test_fault_at_fresh_points_fails_through_the_diagonal(
        self, monkeypatch, caplog, fresh_evaluators
    ):
        # counts double, so every Euler characteristic doubles, but only at
        # points drawn from the verify-delta seeds, which certified rows
        # use only for the diagonal
        count_words = nilpotent._count_words

        def doubled(x, words):
            counts = count_words(x, words)
            if any(x.seed in ev.seeds for ev in fresh_evaluators):
                return {w: 2 * count for w, count in counts.items()}
            return counts

        monkeypatch.setattr(nilpotent, "_count_words", doubled)
        with caplog.at_level(logging.INFO, logger="semibasis.semican"):
            with pytest.raises(DeltaCheckError) as info:
                transition_matrix(Q3, (2, 3, 1))
        assert "8 of 8 components read from the construction's counts" in delta_lines(caplog)[0]
        [fresh] = fresh_evaluators
        assert fresh.seeds
        # the diagonal reads 2 everywhere, and nothing else moved
        assert str(tuple(tuple(2 * (r == c) for c in range(8)) for r in range(8))) in str(
            info.value
        )

    def test_voted_components_are_recounted_in_full(
        self, monkeypatch, caplog, fresh_evaluators
    ):
        # with End at q + 1 everywhere every draw votes, so no row may be
        # read from the construction's counts
        monkeypatch.setattr(
            nilpotent, "_end_dim", lambda x, template: euler_form(Quiver(x.n), x.dims, x.dims) + 1
        )
        with caplog.at_level(logging.INFO, logger="semibasis.semican"):
            res = transition_matrix(Q2, (2, 2))
        assert res.delta_ok
        basis = SemicanBasis(Q2)
        every_word = [w for m in res.classes for w in basis.element(m)]
        [fresh] = fresh_evaluators
        assert set(fresh._chi) == pairs(res.classes, lambda k: every_word)
        assert delta_lines(caplog) == [
            "delta check: 0 of 3 components read from the construction's counts,"
            " 3 recounted in full at fresh seeds"
            + "".join(f"; Z({m}): voted in the construction" for m in res.classes)
        ]

    def test_fresh_draws_off_q_force_a_full_recount(
        self, monkeypatch, caplog, fresh_evaluators
    ):
        # the construction certifies at primes (no graded point), the
        # fresh draws never reach q(d)
        monkeypatch.setattr(torus, "graded_point", lambda m, n, template=None: None)
        real_end = nilpotent._end_dim

        def end_dim(x, template):
            return real_end(x, template) + any(x.seed in ev.seeds for ev in fresh_evaluators)

        monkeypatch.setattr(nilpotent, "_end_dim", end_dim)
        with caplog.at_level(logging.INFO, logger="semibasis.semican"):
            res = transition_matrix(Q2, (2, 2))
        assert res.delta_ok
        basis = SemicanBasis(Q2)
        every_word = [w for m in res.classes for w in basis.element(m)]
        [fresh] = fresh_evaluators
        assert set(fresh._chi) == pairs(res.classes, lambda k: every_word)
        [line] = delta_lines(caplog)
        assert line.startswith(
            "delta check: 0 of 3 components read from the construction's counts,"
            " 3 recounted in full at fresh seeds"
        )
        assert line.count("fresh draws voted") == 3

    def test_fresh_draws_off_q_at_graded_components_force_a_full_recount(
        self, monkeypatch, caplog, fresh_evaluators
    ):
        # every component of (2,2) has a graded point and reads no prime in
        # the construction, but the fresh draws that recount its diagonal
        # vote, so its row is recounted in full, as at any other component
        real_end = nilpotent._end_dim

        def end_dim(x, template):
            return real_end(x, template) + any(x.seed in ev.seeds for ev in fresh_evaluators)

        monkeypatch.setattr(nilpotent, "_end_dim", end_dim)
        with caplog.at_level(logging.INFO, logger="semibasis.semican"):
            res = transition_matrix(Q2, (2, 2))
        assert res.delta_ok
        basis = SemicanBasis(Q2)
        every_word = [w for m in res.classes for w in basis.element(m)]
        assert all(basis.evaluator.graded(m) is not None for m in res.classes)
        [fresh] = fresh_evaluators
        assert set(fresh._chi) == pairs(res.classes, lambda k: every_word)
        assert delta_lines(caplog) == [
            "delta check: 0 of 3 components read from the construction's counts,"
            " 3 recounted in full at fresh seeds"
            + "".join(f"; Z({m}): fresh draws voted" for m in res.classes)
        ]

    def test_fresh_pass_overs_below_five_recount_only_the_diagonal(
        self, monkeypatch, caplog, fresh_evaluators
    ):
        # the construction certifies at primes from 2 (no graded point);
        # the fresh draws miss q(d) at p = 2 and 3 only, which passes those
        # primes over and reads the diagonal from p = 5 up, at no vote
        monkeypatch.setattr(torus, "graded_point", lambda m, n, template=None: None)
        real_end = nilpotent._end_dim

        def end_dim(x, template):
            fresh = any(x.seed in ev.seeds for ev in fresh_evaluators)
            return real_end(x, template) + (fresh and x.p < 5)

        monkeypatch.setattr(nilpotent, "_end_dim", end_dim)
        real = semican._delta_report
        rows = {}

        def report(basis, classes, elements):
            ev = basis.evaluator
            for k in classes:
                rows[k] = oracles.rho_by_chi(ev, k, [elements[m] for m in classes])
            return real(basis, classes, elements)

        monkeypatch.setattr(semican, "_delta_report", report)
        with caplog.at_level(logging.INFO, logger="semibasis.semican"):
            res = transition_matrix(Q2, (2, 2))
        assert res.delta_ok
        assert tuple(rows[k] for k in res.classes) == res.delta
        basis = SemicanBasis(Q2)
        [fresh] = fresh_evaluators
        assert set(fresh._chi) == pairs(res.classes, basis.element)
        assert {p for _, p in fresh._voted} == {2, 3}
        assert delta_lines(caplog) == [
            "delta check: 3 of 3 components read from the construction's counts,"
            " 0 recounted in full at fresh seeds"
        ]

    def test_torus_count_off_at_a_diagonal_word_fails(self, monkeypatch, caplog):
        # the torus count of a word of f_K at Z_K is one too many all
        # through the run.  The evaluation matrix still certifies and the
        # routes agree, and f_K comes out right, since the recursion never
        # reads Z_K's counts for it: the F_p route at fresh seeds reads its
        # diagonal as 1, the torus count does not, and the delta check
        # keeps the entry that misses 1
        k = M("1[1,3]+1[1,1]+1[2,3]")
        w = ((2, 1), (3, 2), (1, 2), (2, 1))
        counts = torus.fixed_flag_counts
        at_k = torus.graded_point(k, 3)

        def off_by_one(x, words):
            got = counts(x, words)
            if x == at_k and w in got:
                got[w] += 1
            return got

        monkeypatch.setattr(torus, "fixed_flag_counts", off_by_one)
        real = semican._delta_report
        seen = {}

        def report(basis, classes, elements):
            assert w in elements[k]
            seen["torus"] = basis.evaluator.rho(k, elements[k])
            seen["primes"] = basis.evaluator.fresh().rho(k, elements[k])
            return real(basis, classes, elements)

        monkeypatch.setattr(semican, "_delta_report", report)
        with caplog.at_level(logging.INFO, logger="semibasis.semican"):
            with pytest.raises(DeltaCheckError, match=r"grade \(2, 2, 2\)"):
                transition_matrix(Q3, (2, 2, 2))
        assert seen["torus"] != 1 and seen["primes"] == 1, seen
        assert delta_lines(caplog) == [
            "delta check: 10 of 10 components read from the construction's counts,"
            " 0 recounted in full at fresh seeds"
        ]

    def test_certified_grade_recounts_only_the_diagonal(
        self, capsys, caplog, fresh_evaluators
    ):
        argv = ["transition", "--n", "3", "--dim", "2,3,1", "--format", "json"]
        line = (
            "delta check: 8 of 8 components read from the construction's counts,"
            " 0 recounted in full at fresh seeds"
        )
        # main enables the package's INFO log on its own, one line per call
        assert main(argv) == 0
        quiet = capsys.readouterr().out
        assert delta_lines(caplog) == [line]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="semibasis.semican"):
            assert main(argv) == 0
        # the log goes to stderr only, and the payload does not move
        assert capsys.readouterr().out == quiet
        assert delta_lines(caplog) == [line]
        basis = SemicanBasis(Q3)
        classes = tuple(refine_order(enumerate_multisegments(Q3, (2, 3, 1))))
        assert set(fresh_evaluators[-1]._chi) == pairs(classes, basis.element)


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

    @pytest.mark.parametrize("d", [(3, 3), (2, 3, 1), (2, 2, 2), (1, 2, 2, 1)])
    def test_default_pool_and_pool_from_five_agree(self, certified, d, monkeypatch):
        # a point with dim End = q(d) is exactly generic over every F_p,
        # so the default pool from 2 and a pool from 5 certify the same
        # payload; only the primes it reports differ.  Both the counts
        # and interpolation_primes read nilpotent.prime_pool
        res = certified(len(d), d)
        used = len(res.interpolation_primes)
        assert res.interpolation_primes == oracles.primes(used)
        drawn = set()
        draws_for = RhoEvaluator._draws_for

        def recorded(self, label, p, salt):
            drawn.add(p)
            return draws_for(self, label, p, salt)

        monkeypatch.setattr(RhoEvaluator, "_draws_for", recorded)
        monkeypatch.setattr(nilpotent, "prime_pool", lambda: iter(oracles.primes(100, 5)))
        other = transition_matrix(Quiver(len(d)), d)
        assert min(drawn) == 5
        assert other.interpolation_primes == oracles.primes(used, 5)
        payload, other_payload = res.to_payload(), other.to_payload()
        del payload["interpolation_primes"], other_payload["interpolation_primes"]
        assert other_payload == payload

    def test_matrix_is_integral_here(self, certified):
        for d in ((1, 1), (1, 2), (2, 2)):
            res = certified(2, d)
            for row in res.matrix:
                for x in row:
                    assert type(x) is int

    @pytest.mark.parametrize("d", [(2, 2), (2, 3, 1), (1, 2, 2, 1)])
    def test_every_coefficient_is_an_int(self, certified, d):
        quiver = Quiver(len(d))
        res = certified(len(d), d)
        for mat in (res.matrix, res.recursion_matrix, res.evaluation, res.delta):
            assert all(type(x) is int for row in mat for x in row)
        combos = pbw_to_words(quiver, d)
        ev = RhoEvaluator(quiver.n)
        basis = SemicanBasis(quiver)
        for m in res.classes:
            elem = word_to_pbw(quiver, basis.element(m))
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
        other = transition_matrix(Q2, (1, 2), 314159)
        assert base.matrix == other.matrix
        assert other.root_seed == 314159


ORACLE_GRADES = oracles.golden_grades() + [(2, 2, 2, 2), (1, 2, 2, 2, 1)]


@pytest.fixture(scope="module")
def read_once():
    # one certified run per grade, with every row that _WordColumns reads
    # (E, the delta rows, and each rho of the recursion and the fresh
    # diagonal) recorded beside oracles.rho_by_chi of the same
    # combinations at the same evaluator, and the run's SemicanBasis kept
    runs = {}
    columns = nilpotent._WordColumns
    real_init, real_row = columns.__init__, columns.row

    def init(self, combos):
        real_init(self, combos)
        self.combos = list(combos)
        self.rows = []
        recorded.append(self)

    def row(self, ev, label):
        got = real_row(self, ev, label)
        self.rows.append((got, oracles.rho_by_chi(ev, label, self.combos)))
        return got

    class Kept(SemicanBasis):
        def __init__(self, *args):
            super().__init__(*args)
            bases.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(columns, "__init__", init)
        mp.setattr(columns, "row", row)
        mp.setattr(semican, "SemicanBasis", Kept)
        for d in ORACLE_GRADES:
            recorded, bases = [], []
            res = transition_matrix(Quiver(len(d)), d)
            [basis] = bases
            runs[d] = res, basis, recorded
    return runs


@pytest.mark.parametrize("d", ORACLE_GRADES, ids=str)
class TestReadOncePerWord:
    """The sparse-column reads and the trie fold against per-word routes
    (oracles.rho_by_chi, word_to_pbw), on the ten golden grades,
    (2,2,2,2) and (1,2,2,2,1)."""

    def test_vector_evaluation_equals_rho_rows(self, read_once, d):
        res, basis, recorded = read_once[d]
        quiver = Quiver(len(d))
        columns = list(pbw_to_words(quiver, d).values())
        e_cols = recorded[0]
        assert e_cols.combos == columns
        assert [got for got, _ in e_cols.rows] == list(res.evaluation)
        assert res.evaluation == tuple(
            oracles.rho_by_chi(basis.evaluator, k, columns) for k in res.classes
        )

    def test_every_read_equals_rho_by_chi(self, read_once, d):
        # E and the delta rows, and every one-combination read of the
        # recursion's corrections and the fresh diagonal
        _, _, recorded = read_once[d]
        assert any(len(cols.combos) == 1 for cols in recorded)
        for cols in recorded:
            for got, want in cols.rows:
                assert got == want, cols.combos

    def test_delta_rows_equal_rho_rows(self, read_once, d):
        res, basis, recorded = read_once[d]
        elements = [basis.element(m) for m in res.classes]
        [delta_cols] = [cols for cols in recorded if cols.combos == elements]
        assert len(delta_cols.rows) >= len(res.classes)
        for got, want in delta_cols.rows:
            assert got == want
        # the rows read from the construction's counts, before the fresh
        # diagonal, sum the construction evaluator's chi
        ev = basis.evaluator
        for r, k in enumerate(res.classes):
            row = oracles.rho_by_chi(ev, k, elements)
            assert row[:r] + row[r + 1 :] == res.delta[r][:r] + res.delta[r][r + 1 :] or ev.voted(k)

    def test_trie_fold_equals_word_to_pbw(self, read_once, d):
        res, basis, _ = read_once[d]
        quiver = Quiver(len(d))
        n = quiver.n
        elements = [basis.element(m) for m in res.classes]
        flag_words = [() if m.is_zero() else total_generic_flag(m) for m in res.classes]
        words = list(dict.fromkeys(flag_words + [w for e in elements for w in e]))
        folded = hall._fold(n, words)
        assert set(folded) == set(words)
        for w in words:
            want = word_to_pbw(quiver, w)
            assert hall._as_pbw(n, d, folded[w]) == want, w
            # and letter by letter through left_mul_divided_power
            vec = PBWVector.unit(n)
            for i, a in reversed(w):
                vec = left_mul_divided_power(i, a, vec)
            assert vec == want, w
        rows = hall._pbw_rows(n, elements)
        for m, e, row in zip(res.classes, elements, rows):
            assert hall._as_pbw(n, d, row) == word_to_pbw(quiver, e), m
        assert res.recursion_matrix == tuple(
            tuple(word_to_pbw(quiver, e).get(c) for c in res.classes) for e in elements
        )

    def test_t_component_table_equals_t_component(self, read_once, d):
        _, basis, _ = read_once[d]
        assert basis._tops
        for (grade, i), entries in basis._tops.items():
            assert [cls for cls, _ in entries] == list(
                enumerate_multisegments(basis.quiver, grade)
            )
            for cls, top in entries:
                assert top == t_component(cls, i), (cls, i)
