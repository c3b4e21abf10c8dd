"""Finite-field and exact rational linear algebra."""

import ast
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import oracles
from oracles import mat_inverse_ff, primes, solve_ff
from semibasis import InterpolationError, linalg
from semibasis.linalg import (
    complete_basis_ff,
    gaussian_binomial,
    identity_exact,
    interpolate_eval_one,
    invert_unitriangular,
    is_prime,
    kernel_basis_ff,
    matmul_exact,
    matmul_ff,
    matrix_equation_rows,
    rank_exact,
    rank_ff,
    row_space_basis_ff,
    rref_ff,
    subspaces_ff,
)
from semibasis.nilpotent import prime_pool


def random_matrix(rng, rows, cols, p):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


class TestPrimes:
    def test_first_few(self):
        pool = prime_pool()
        assert [next(pool) for _ in range(10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes(5) == (2, 3, 5, 7, 11)
        assert primes(3, start=5) == (5, 7, 11)
        assert primes(0) == ()

    def test_is_prime_matches_a_sieve(self):
        bound = 10**4
        sieve = [False, False] + [True] * (bound - 1)
        for k in range(2, isqrt(bound) + 1):
            if sieve[k]:
                sieve[k * k :: k] = [False] * len(sieve[k * k :: k])
        assert [k for k in range(-3, bound + 1) if is_prime(k)] == [
            k for k in range(bound + 1) if sieve[k]
        ]

    def test_is_prime_at_the_graded_prime(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31 + 1)


class TestGaussianBinomial:
    def test_values(self):
        assert gaussian_binomial(2, 1, 2) == 3
        assert gaussian_binomial(3, 1, 3) == 13
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(4, 0, 7) == 1
        assert gaussian_binomial(2, 3, 5) == 0

    def test_symmetry(self):
        for t in range(6):
            for k in range(t + 1):
                for q in (2, 3, 5):
                    assert gaussian_binomial(t, k, q) == gaussian_binomial(t, t - k, q)

    def test_pascal_style_recursion(self):
        # [t k]_q = q^k [t-1 k]_q + [t-1 k-1]_q
        for t in range(1, 6):
            for k in range(t + 1):
                for q in (2, 3, 5):
                    assert gaussian_binomial(t, k, q) == q**k * gaussian_binomial(
                        t - 1, k, q
                    ) + gaussian_binomial(t - 1, k - 1, q)


class TestRankFF:
    def test_known_values(self):
        assert rank_ff([[1, 0], [0, 1]], 2) == 2
        assert rank_ff([[1, 1], [1, 1]], 2) == 1
        assert rank_ff([[1, 2], [2, 1]], 3) == 1

    def test_empty(self):
        assert rank_ff([], 5) == 0
        assert rank_ff([[0, 0, 0]], 5) == 0

    def test_rank_bounds(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.choice((2, 3, 5))
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            m = random_matrix(rng, rows, cols, p)
            r = rank_ff(m, p)
            assert 0 <= r <= min(rows, cols)


class TestSolve:
    def test_unique_solution(self):
        x = solve_ff([[1, 0], [0, 1]], [3, 4], 2, 5)
        assert x == (3, 4)

    def test_inconsistent(self):
        assert solve_ff([[1, 1], [1, 1]], [0, 1], 2, 3) is None

    def test_underdetermined_satisfies(self):
        rng = random.Random(11)
        for _ in range(60):
            p = rng.choice((2, 3, 5))
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            a = random_matrix(rng, rows, cols, p)
            xs = [rng.randrange(p) for _ in range(cols)]
            b = [sum(r * x for r, x in zip(row, xs)) % p for row in a]
            got = solve_ff(a, b, cols, p)
            assert got is not None
            for row, bi in zip(a, b):
                assert sum(r * x for r, x in zip(row, got)) % p == bi


class TestKernelAndBases:
    def test_kernel_dimension(self):
        basis = kernel_basis_ff([[1, 1]], 2, 2)
        assert len(basis) == 1
        assert basis[0] == (1, 1)

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(40):
            p = rng.choice((2, 3, 5))
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
            a = random_matrix(rng, rows, cols, p)
            ker = kernel_basis_ff(a, cols, p)
            assert len(ker) == cols - rank_ff(a, p)
            for vec in ker:
                for row in a:
                    assert sum(r * v for r, v in zip(row, vec)) % p == 0

    def test_complete_basis(self):
        rng = random.Random(9)
        for _ in range(30):
            p = rng.choice((2, 3, 5))
            dim = rng.randrange(1, 5)
            vecs = row_space_basis_ff(random_matrix(rng, rng.randrange(dim + 1), dim, p), p)
            full = complete_basis_ff(vecs, dim, p)
            assert len(full) == dim
            assert full[: len(vecs)] == vecs
            assert rank_ff(full, p) == dim

    def test_complete_basis_rejects_dependent(self):
        with pytest.raises(ValueError):
            complete_basis_ff([(1, 0), (2, 0)], 2, 5)

    def test_mat_inverse(self):
        rng = random.Random(17)
        found = 0
        while found < 20:
            p = rng.choice((2, 3, 5))
            dim = rng.randrange(1, 5)
            a = random_matrix(rng, dim, dim, p)
            if rank_ff(a, p) < dim:
                continue
            found += 1
            inv = mat_inverse_ff(a, p)
            prod = matmul_ff(a, inv, p)
            assert prod == tuple(
                tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
            )

    def test_mat_inverse_singular(self):
        with pytest.raises(ValueError):
            mat_inverse_ff([[1, 1], [1, 1]], 3)


class TestSubspaces:
    def test_counts_match_gaussian_binomial(self):
        for p in (2, 3, 5):
            for dim in range(5):
                basis = [
                    tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
                ]
                for k in range(dim + 1):
                    if p == 5 and dim == 4 and k == 2:
                        continue  # 806 subspaces, covered at p=2,3
                    got = list(subspaces_ff(basis, k, p))
                    assert len(got) == gaussian_binomial(dim, k, p), (p, dim, k)

    def test_subspaces_distinct_and_right_dimension(self):
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for p in (2, 3):
            for k in (1, 2):
                canon = set()
                for vecs in subspaces_ff(basis, k, p):
                    assert rank_ff(vecs, p) == k
                    canon.add(tuple(row_space_basis_ff(vecs, p)))
                assert len(canon) == gaussian_binomial(3, k, p)

    def test_subspaces_of_proper_span(self):
        # ambient dimension 4, span dimension 2
        basis = [(1, 1, 0, 0), (0, 0, 1, 1)]
        spaces = list(subspaces_ff(basis, 1, 3))
        assert len(spaces) == gaussian_binomial(2, 1, 3)
        for vecs in spaces:
            for v in vecs:
                # stays inside the span
                assert rank_ff(list(basis) + [v], 3) == 2


class TestExactMatrices:
    def test_rank_exact(self):
        assert rank_exact([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]) == 1
        assert rank_exact([]) == 0
        assert rank_exact([(Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(5))]) == 2

    def test_matmul_and_identity(self):
        a = ((1, 2), (0, 1))
        assert matmul_exact(a, identity_exact(2)) == a
        assert matmul_exact(identity_exact(2), a) == a

    def test_invert_unitriangular_small(self):
        assert invert_unitriangular([[1]]) == ((1,),)
        inv = invert_unitriangular([[1, 1], [0, 1]])
        assert inv == ((1, -1), (0, 1))

    def test_invert_unitriangular_three(self):
        mat = [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
        inv = invert_unitriangular(mat)
        assert inv == ((1, -1, 1), (0, 1, -2), (0, 0, 1))
        assert matmul_exact(mat, inv) == identity_exact(3)

    def test_invert_unitriangular_random_roundtrip(self):
        rng = random.Random(23)
        for _ in range(20):
            dim = rng.randrange(1, 6)
            mat = [
                [
                    1 if i == j else (rng.randrange(-3, 4) if j > i else 0)
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
            inv = invert_unitriangular(mat)
            assert matmul_exact(mat, inv) == identity_exact(dim)
            assert matmul_exact(inv, mat) == identity_exact(dim)

    def test_invert_unitriangular_rejects(self):
        with pytest.raises(ValueError):
            invert_unitriangular([[1, 0], [1, 1]])
        with pytest.raises(ValueError):
            invert_unitriangular([[2, 0], [0, 1]])
        with pytest.raises(ValueError):
            invert_unitriangular([[1, 0, 0], [0, 1, 0]])


class TestMatrixEquationRows:
    def test_rows_are_the_coefficients_of_the_matrix_sums(self):
        # X_0 is 2 x 3 and X_1 is 4 x 1; the blocks are the 2 x 1 matrix
        # X_0 f - g X_1 and the 2 x 3 matrix X_0 h + 2 k X_0, whose entry
        # (1, 2) vanishes identically: column 2 of h and row 1 of k are zero
        shapes = [(2, 3), (4, 1)]
        rng = random.Random(11)
        for _ in range(20):
            f = random_matrix(rng, 3, 1, 5)
            g = random_matrix(rng, 2, 4, 5)
            h = [row[:2] + [0] for row in random_matrix(rng, 3, 3, 5)]
            k = [random_matrix(rng, 1, 2, 5)[0], [0, 0]]
            rows, unknowns = matrix_equation_rows(
                shapes, [(2, 1, [(0, f, 1)], [(1, g, -1)]), (2, 3, [(0, h, 1)], [(0, k, 2)])]
            )
            assert unknowns == 10

            def sums(flat):
                x0 = [flat[0:3], flat[3:6]]
                x1 = [[v] for v in flat[6:10]]
                first = [
                    [a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(matmul_exact(x0, f), matmul_exact(g, x1))
                ]
                second = [
                    [a + 2 * b for a, b in zip(ra, rb)]
                    for ra, rb in zip(matmul_exact(x0, h), matmul_exact(k, x0))
                ]
                return [v for block in (first, second) for row in block for v in row]

            # column u of the system is the sums at the u-th unit unknown
            columns = [sums([int(u == j) for j in range(unknowns)]) for u in range(unknowns)]
            coefficients = [list(row) for row in zip(*columns)]
            assert not any(coefficients[2 + 5])
            assert rows == [row for row in coefficients if any(row)]


class TestInterpolation:
    def test_linear(self):
        assert interpolate_eval_one([(2, 3), (3, 4), (5, 6)], 1) == 2

    def test_constant(self):
        assert interpolate_eval_one([(2, 1), (3, 1), (5, 1)], 0) == 1

    def test_quadratic(self):
        pts = [(2, 7), (3, 13), (5, 31), (7, 57)]
        assert interpolate_eval_one(pts, 2) == 3

    def test_order_invariant(self):
        pts = [(2, 7), (3, 13), (5, 31), (7, 57)]
        for perm in ([3, 1, 0, 2], [2, 3, 0, 1]):
            assert interpolate_eval_one([pts[i] for i in perm], 2) == 3

    def test_gaussian_binomial_series(self):
        # subspace counts are polynomial in q; their value at 1 is binomial
        from math import comb

        for t in range(1, 5):
            for k in range(t + 1):
                bound = k * (t - k)
                pool = primes(bound + 2)
                pts = [(q, gaussian_binomial(t, k, q)) for q in pool]
                assert interpolate_eval_one(pts, bound) == comb(t, k)

    def test_too_few_points(self):
        with pytest.raises(InterpolationError):
            interpolate_eval_one([(2, 3), (3, 4)], 1)

    def test_inconsistent_points(self):
        # (2,3),(3,4) fit q+1 but (5,99) does not
        with pytest.raises(InterpolationError):
            interpolate_eval_one([(2, 3), (3, 4), (5, 99)], 1)

    def test_duplicate_points(self):
        with pytest.raises(ValueError):
            interpolate_eval_one([(2, 3), (2, 3), (5, 6)], 1)

    def test_non_integer_prediction_is_reported_exactly(self):
        # the fit through (2, 0) and (4, 1) is (x - 2) / 2
        with pytest.raises(InterpolationError, match=r"fit predicts 3/2 at 5, observed 0;"):
            interpolate_eval_one([(2, 0), (4, 1), (5, 0)], 1)

    def test_matches_term_by_term_fractions(self):
        # values and error texts equal the Fraction-per-factor Lagrange form
        # on random fits, some with a planted wrong value
        rng = random.Random(7)
        for _ in range(300):
            bound = rng.randrange(11)
            xs = rng.sample(primes(20), bound + 2 + rng.randrange(3))
            coeffs = [rng.randrange(-5, 6) for _ in range(bound + 1)]
            pts = [(x, sum(c * x**k for k, c in enumerate(coeffs))) for x in xs]
            if rng.random() < 0.3:
                k = rng.randrange(len(pts))
                pts[k] = (pts[k][0], pts[k][1] + rng.choice((-1, 1)))
            outcomes = []
            for fn in (interpolate_eval_one, oracles.interpolate_by_fractions):
                try:
                    outcomes.append(fn(pts, bound))
                except InterpolationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (pts, bound)


class TestRref:
    def test_idempotent(self):
        rng = random.Random(31)
        for _ in range(40):
            p = rng.choice((2, 3, 5))
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5), p)
            red, pivots = rref_ff(m, p)
            again, pivots2 = rref_ff(red[: len(pivots)], p)
            assert again[: len(pivots)] == red[: len(pivots)]
            assert pivots2 == pivots

    def test_pivot_columns_are_unit(self):
        red, pivots = rref_ff([[2, 4, 1], [1, 2, 2]], 5)
        for r, c in enumerate(pivots):
            col = [red[i][c] for i in range(len(pivots))]
            assert col == [1 if i == r else 0 for i in range(len(pivots))]


SPARSE_PRIMES = (2, 3, 5, 7, 2**31 - 1)


def sparse_matrix(rng, rows, cols, p, density):
    return [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def shapes(rng):
    # no rows, rows of width 0, an all-zero block, wide, tall and square,
    # sparse and dense, with entries outside [0, p) left to the reduction
    yield [], 0
    yield [[], []], 0
    yield [[0, 0, 0], [0, 0, 0]], 3
    for _ in range(60):
        rows, cols = rng.choice(((2, 9), (9, 2), (5, 5), (1, 7), (7, 1), (12, 30)))
        density = rng.choice((0.1, 0.3, 1.0))
        yield [[rng.randrange(-40, 40) if rng.random() < density else 0 for _ in range(cols)]
               for _ in range(rows)], cols


class TestSparseRank:
    def test_kernel_of_tied_unknowns(self):
        # kernel dimensions of systems whose rows tie at most two unknowns,
        # the tangent-space equations of torus.tangent_bounds
        p = 7

        def kernel_dim(unknowns, rows):
            return unknowns - linalg.rank_sparse_ff(rows, p)

        # u0 = u1 = u2 leaves one free unknown; u2 = -u0 then closes a
        # cycle that forces it to 0
        assert kernel_dim(3, [{0: 1, 1: -1}, {1: 1, 2: -1}]) == 1
        assert kernel_dim(3, [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: 1}]) == 0
        # a single term zeroes its class; untouched unknowns stay free
        assert kernel_dim(4, [{0: 1, 1: 2}, {1: 3}]) == 2


class TestSparseMatchesDense:
    """rref_ff and matmul_ff skip zeros; the dense forms in oracles read
    every entry.  Both must return exactly the same values."""

    def test_rref_matches_dense(self):
        rng = random.Random(11)
        for p in SPARSE_PRIMES:
            for mat, _ in shapes(rng):
                assert rref_ff(mat, p) == oracles.rref_dense(mat, p), (p, mat)

    def test_rref_of_relation_like_systems(self):
        # mostly zeros, a few terms per row, as End and the star relations are
        rng = random.Random(12)
        for p in SPARSE_PRIMES:
            for _ in range(30):
                mat = sparse_matrix(rng, rng.randrange(1, 25), rng.randrange(1, 25), p, 0.08)
                assert rref_ff(mat, p) == oracles.rref_dense(mat, p), (p, mat)

    def test_sparse_rank_matches_dense(self):
        # rank_sparse_ff reads {column: entry} rows, which may hold zeros,
        # entries that vanish mod p and negative entries
        rng = random.Random(14)
        for p in SPARSE_PRIMES:
            mats = [mat for mat, _ in shapes(rng)]
            mats += [
                sparse_matrix(rng, rng.randrange(1, 25), rng.randrange(1, 25), p, 0.08)
                for _ in range(30)
            ]
            for mat in mats:
                rows = [{c: v for c, v in enumerate(row) if v or rng.random() < 0.1} for row in mat]
                assert linalg.rank_sparse_ff(rows, p) == len(oracles.rref_dense(mat, p)[1]), (p, mat)
        assert linalg.rank_sparse_ff([], 5) == linalg.rank_sparse_ff([{}, {0: 5}], 5) == 0

    def test_matmul_matches_dense(self):
        rng = random.Random(13)
        for p in SPARSE_PRIMES:
            for a, inner in shapes(rng):
                cols = rng.randrange(5)
                b = [[rng.randrange(-40, 40) if rng.random() < 0.4 else 0 for _ in range(cols)]
                     for _ in range(inner)]
                got = matmul_ff(a, b, p, bcols=cols)
                assert got == oracles.matmul_dense(a, b, p, bcols=cols), (p, a, b)

    def test_matmul_without_rows(self):
        assert matmul_ff([], [[1, 2]], 5) == oracles.matmul_dense([], [[1, 2]], 5) == ()
        assert matmul_ff([[], []], [], 5, bcols=3) == ((0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            matmul_ff([[1]], [], 5)


def test_every_exported_name_is_imported_by_the_package():
    # linalg keeps only what the package runs: each name it exports is
    # imported, by a `from ... import` statement, in another module
    imported = set()
    for path in Path(linalg.__file__).parent.glob("*.py"):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "linalg")
                or (node.level == 0 and node.module == "semibasis.linalg")
            ):
                imported.update(alias.name for alias in node.names)
    assert sorted(set(linalg.__all__) - imported) == []
