"""End-to-end acceptance gate over the documented ranges.

Every test prints one `criterion k (<name>): PASS/FAIL` line; run with
-s to see the lines on passing runs.  Failures carry the first few
offending cases in the assertion message.  Unit-level coverage lives in
the sibling files; this module only drives the public pipeline.
"""

import itertools
import time

import oracles
from semibasis import nilpotent, torus
from semibasis import (
    Multisegment,
    Quiver,
    RhoEvaluator,
    check_serre,
    deg_leq,
    enumerate_multisegments,
    generic_ext_simple,
    hall_counts_simple_top,
    hom_dim,
    peel_component,
    t_component,
    transition_matrix,
)
from semibasis.hall import hom_rank, pbw_to_words
from semibasis.semican import SemicanBasis

M = Multisegment

SQUARE_ORDER = ["2[1,2]", "1[1,2]+1[1,1]+1[2,2]", "2[1,1]+2[2,2]"]
SQUARE_MATRIX = ((1, 1, 1), (0, 1, 2), (0, 0, 1))


def acceptance_grades():
    """The certified sweep range: n=2 with |d| <= 6, n=3 below (2,2,2)."""
    for d in itertools.product(range(7), repeat=2):
        if sum(d) <= 6:
            yield 2, d
    for d in itertools.product(range(3), repeat=3):
        yield 3, d


# the transition grades of the benchmark (perfbench/run.py), by workload
BENCHMARK_GRADES = [
    (2, (3, 3)), (2, (2, 6)), (3, (2, 3, 1)), (3, (1, 3, 2)),
    (2, (2, 2)), (4, (1, 1, 1, 1)), (4, (1, 2, 1, 1)), (4, (1, 2, 2, 1)),
    (5, (1, 1, 1, 1, 1)), (6, (1, 1, 1, 1, 1, 1)),
]


def _finish(num: int, name: str, failures: list) -> None:
    ok = not failures
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {len(failures)} failures: " + "; ".join(
        str(f) for f in failures[:5]
    )


def test_01_square_regression():
    failures = []
    start = time.perf_counter()
    res = transition_matrix(Quiver(2), (2, 2))
    elapsed = time.perf_counter() - start
    if [cls.text() for cls in res.classes] != SQUARE_ORDER:
        failures.append(f"order {[cls.text() for cls in res.classes]}")
    if res.matrix != SQUARE_MATRIX:
        failures.append(f"matrix {res.matrix}")
    if not (res.routes_agree and res.delta_ok):
        failures.append("certificate flags not set")
    # same content by name: the element of the dense class collects all
    # three basis vectors, the middle one adds twice the semisimple, and
    # the semisimple element is a bare basis vector
    combos = {
        cls.text(): {
            res.classes[l].text(): val for l, val in enumerate(row) if val
        }
        for cls, row in zip(res.classes, res.matrix)
    }
    expected = {
        "2[1,2]": {SQUARE_ORDER[0]: 1, SQUARE_ORDER[1]: 1, SQUARE_ORDER[2]: 1},
        "1[1,2]+1[1,1]+1[2,2]": {SQUARE_ORDER[1]: 1, SQUARE_ORDER[2]: 2},
        "2[1,1]+2[2,2]": {SQUARE_ORDER[2]: 1},
    }
    if combos != expected:
        failures.append(f"combos {combos}")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _finish(1, "worked square example", failures)


def test_02_unitriangular_support(certified):
    failures = []
    for n, d in acceptance_grades():
        res = certified(n, d)
        cls = res.classes
        for k, row in enumerate(res.matrix):
            if row[k] != 1:
                failures.append(f"n={n} d={d} diagonal at {cls[k].text()}")
            for l, val in enumerate(row):
                if val and not deg_leq(cls[k], cls[l]):
                    failures.append(
                        f"n={n} d={d} support {cls[k].text()} -> {cls[l].text()}"
                    )
    _finish(2, "unitriangular with degeneration support", failures)


def test_03_delta_identity():
    failures = []
    for n, d in acceptance_grades():
        res = transition_matrix(Quiver(n), d, root_seed=271828)
        if not res.delta_ok:
            failures.append(f"n={n} d={d} matrix {res.delta}")
    _finish(3, "delta property with fresh seeds", failures)


def test_04_route_agreement(certified):
    failures = []
    for n, d in acceptance_grades():
        res = certified(n, d)
        if res.matrix != res.recursion_matrix or not res.routes_agree:
            failures.append(f"n={n} d={d}")
    _finish(4, "inversion and recursion routes agree", failures)


def test_05_serre_relations():
    failures = []
    for n in (1, 2, 3, 4):
        report = check_serre(Quiver(n), 6)
        if not report.ok:
            failures.append(f"n={n}: {report.failures[:2]}")
        if n >= 2 and report.relations_checked == 0:
            failures.append(f"n={n}: nothing checked")
    _finish(5, "Serre relations vanish", failures)


def test_06_hom_formula_oracle():
    failures = []
    for n in (1, 2, 3):
        classes = [
            cls
            for d in oracles.grades_upto(n, 5)
            for cls in enumerate_multisegments(Quiver(n), d)
        ]
        for a in classes:
            for b in classes:
                got = hom_dim(a, b)
                want = hom_rank(a, b, n)
                if got != want:
                    failures.append(f"n={n} {a.text()} {b.text()}: {got} != {want}")
    _finish(6, "hom formula equals intertwiner rank", failures)


def test_07_generic_extension_minimal():
    # every class appearing as a submodule with semisimple quotient
    # S_i^m must dominate the claimed generic extension, which itself
    # has to appear
    failures = []
    for n in (1, 2, 3):
        quiver = Quiver(n)
        for total in range(1, 7):
            for big in oracles.grades_upto(n, total):
                if sum(big) != total:
                    continue
                middles = list(enumerate_multisegments(quiver, big))
                for i in range(1, n + 1):
                    for m in range(1, big[i - 1] + 1):
                        sub_grade = tuple(
                            v - m if k == i - 1 else v for k, v in enumerate(big)
                        )
                        ext = {
                            msub: generic_ext_simple(msub, i, m)
                            for msub in enumerate_multisegments(quiver, sub_grade)
                        }
                        seen = {msub: set() for msub in ext}
                        for mid in middles:
                            keys = set()
                            for p in (2, 3):
                                counts = hall_counts_simple_top(mid, i, m, p)
                                keys.update(k for k, v in counts.items() if v)
                            for key in keys:
                                seen[key].add(mid)
                                if not deg_leq(ext[key], mid):
                                    failures.append(
                                        f"n={n} {key.text()} +{m}S_{i}: "
                                        f"{ext[key].text()} !<= {mid.text()}"
                                    )
                        for msub, mids in seen.items():
                            if ext[msub] not in mids:
                                failures.append(
                                    f"n={n} {msub.text()} +{m}S_{i}: "
                                    f"{ext[msub].text()} never appears"
                                )
    _finish(7, "generic extension is the minimal middle term", failures)


def test_08_t_identities_sampled():
    # the closed t and peel against the reading of sampled points, at
    # every vertex of every class in range and of every class of
    # (1,2,3,2,1), some of which are read at a vote
    failures = []
    pairs = voted = 0
    ranges = {2: 8, 3: 6, 4: 5, 5: 5}
    for n, total in ranges.items():
        ev = RhoEvaluator(n)
        classes = [
            cls
            for d in oracles.grades_upto(n, total)
            for cls in enumerate_multisegments(Quiver(n), d)
        ]
        if n == 5:
            classes += enumerate_multisegments(Quiver(n), (1, 2, 3, 2, 1))
        for cls in classes:
            for i in range(1, n + 1):
                t = t_component(cls, i)
                got = (t, peel_component(cls, i) if t else cls)
                want = oracles.sampled_top(cls, i, ev)
                if got != want:
                    failures.append(f"n={n} {cls.text()} at vertex {i}: {got} != {want}")
                pairs += 1
            voted += ev.voted(cls)
    print(f"{pairs} pairs, {voted} classes read at a vote")
    if not voted:
        failures.append("no class was read at a vote")
    _finish(8, "sampled t and peel equal the signature rule", failures)


def test_09_semisimple_base_case(certified):
    failures = []
    for n, d in acceptance_grades():
        res = certified(n, d)
        ss = oracles.semisimple(n, d)
        k = res.classes.index(ss)
        row = res.matrix[k]
        if row[k] != 1 or any(val for l, val in enumerate(row) if l != k):
            failures.append(f"n={n} d={d} row {row}")
    _finish(9, "semisimple elements are bare basis vectors", failures)


def test_10_performance_envelope():
    failures = []
    start = time.perf_counter()
    res = transition_matrix(Quiver(3), (2, 2, 2))
    elapsed = time.perf_counter() - start
    if not (res.routes_agree and res.delta_ok):
        failures.append("certificate flags not set")
    if len(res.classes) != 10:
        failures.append(f"{len(res.classes)} classes")
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, budget 300s")
    _finish(10, "full pipeline within budget", failures)


def test_11_torus_counts_equal_prime_counts():
    # at every component with a graded point, the torus-fixed flags of
    # every word the pipeline reads there (the evaluation matrix's and the
    # recursion's elements') equal the count interpolated from F_p
    failures = []
    pairs = 0
    for n, d in list(acceptance_grades()) + BENCHMARK_GRADES:
        quiver = Quiver(n)
        classes = enumerate_multisegments(quiver, d)
        combos = pbw_to_words(quiver, d)
        basis = SemicanBasis(quiver)
        words = {w for combo in combos.values() for w in combo}
        words |= {w for cls in classes for w in basis.element(cls)}
        primes_only = RhoEvaluator(n).fresh()
        graded = 0
        for cls in classes:
            x = torus.graded_point(cls, n)
            if x is None:
                continue
            graded += 1
            fixed = torus.fixed_flag_counts(x, words)
            counted = nilpotent._WordColumns([{w: 1} for w in sorted(words)]).row(
                primes_only, cls
            )
            for w, value in zip(sorted(words), counted):
                pairs += 1
                if fixed[w] != value:
                    failures.append(f"n={n} d={d} Z({cls}) {w}: {fixed[w]} != {value}")
        print(f"n={n} d={d}: {graded} of {len(classes)} components graded")
    print(f"{pairs} (component, word) pairs read both ways")
    _finish(11, "torus-fixed flags equal F_p counts", failures)
