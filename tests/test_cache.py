"""The memo of q = 1 Hall tables: hits, misses, clearing, audits, faults.

`hall._counts_at_one` keeps one table per (class, vertex, size), mapping
each submodule class to its exact q = 1 count; it is the one store of
Hall counts in the package, shared by every product in a process.
"""

import math

import pytest

import oracles
from semibasis import (
    InternalCheckError,
    Multisegment,
    PBWVector,
    Quiver,
    enumerate_multisegments,
    hall,
    left_mul_divided_power,
    t_top,
)

M = Multisegment
table = hall._counts_at_one


@pytest.fixture(autouse=True)
def empty_memo():
    table.cache_clear()
    yield
    table.cache_clear()


def as_classes(counts):
    return {M(segs): c for segs, c in counts.items()}


class TestRoundtrip:
    def test_put_get_same_instance(self):
        first = table(M("2[1,1]+2[2,2]").segments, 1, 1)
        assert as_classes(first) == {M("1[1,1]+2[2,2]"): 2}
        assert table(M("2[1,1]+2[2,2]").segments, 1, 1) is first

    def test_miss_returns_none(self):
        counts = table(M("2[1,2]").segments, 1, 1)
        assert as_classes(counts) == {M("1[1,2]+1[2,2]"): 2}
        # same grade (1, 2), but not a submodule with quotient S_1
        assert counts.get(M("1[1,1]+2[2,2]").segments) is None

    def test_get_returns_copy(self):
        # the product reads the table of its one class 1[1,2]+1[1,1]
        vec = PBWVector(2, (1, 1), {M("1[1,2]"): 1})
        counts = table(M("1[1,2]+1[1,1]").segments, 1, 1)
        before = dict(counts)
        out = left_mul_divided_power(1, 1, vec)
        for cls in out.coeffs:
            out.coeffs[cls] = 99
        assert counts == before
        assert left_mul_divided_power(1, 1, vec) != out

    def test_duplicate_put_writes_once(self, monkeypatch):
        calls = []
        terms = hall._simple_top_terms

        def spy(*key):
            calls.append(key)
            return terms(*key)

        monkeypatch.setattr(hall, "_simple_top_terms", spy)
        segs = M("1[1,2]").segments
        assert table(segs, 1, 1) == table(segs, 1, 1)
        assert calls == [(segs, 1, 1)]

    def test_empty_counts_roundtrip(self):
        # no segment starts at 1, so there is no quotient S_1 and C(0, 1) = 0
        assert table(M("1[2,2]").segments, 1, 1) == {}
        assert table(M("1[2,2]").segments, 1, 1) == {}
        assert table.cache_info().hits == 1


class TestMaintenance:
    def test_stats(self):
        assert table.cache_info().currsize == 0
        table(M("1[1,2]").segments, 1, 1)
        table(M("2[1,2]").segments, 1, 1)
        table(M("1[1,2]").segments, 1, 1)
        info = table.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 1)

    def test_clear(self):
        first = table(M("1[1,2]").segments, 1, 1)
        table.cache_clear()
        assert table.cache_info().currsize == 0
        again = table(M("1[1,2]").segments, 1, 1)
        assert again == first
        assert again is not first

    def test_verify_clean_store(self):
        checked = 0
        for n, total in ((2, 5), (3, 5), (4, 4)):
            for d in oracles.grades_upto(n, total):
                for cls in enumerate_multisegments(Quiver(n), d):
                    for i in range(1, n + 1):
                        t = t_top(cls, i)
                        for a in range(t + 2):
                            counts = table(cls.segments, i, a)
                            assert sum(counts.values()) == math.comb(t, a)
                            sub = list(d)
                            sub[i - 1] -= a
                            for segs, c in counts.items():
                                got = M(segs).dim_vector(n)
                                assert got == tuple(sub), (cls, i, a, segs)
                                assert c > 0, (cls, i, a, segs)
                            checked += 1
        assert checked > 1000

    def test_verify_catches_doctored_total(self, monkeypatch):
        terms = hall._simple_top_terms
        # count the first profile twice: 2[1,1]+2[2,2] at S_1 totals 4, not 2
        monkeypatch.setattr(
            hall, "_simple_top_terms", lambda *key: terms(*key)[:1] + terms(*key)
        )
        with pytest.raises(InternalCheckError, match="total 4, expected 2"):
            table(M("2[1,1]+2[2,2]").segments, 1, 1)


class TestCorruption:
    def test_corruption_is_sticky_until_cleared(self, dropped_profile, monkeypatch):
        # a failed table is never memoised: each call raises until the
        # fault is gone, and then the next call builds the right table
        vec = PBWVector(2, (1, 1), {M("1[1,2]"): 1})
        for _ in range(2):
            with pytest.raises(InternalCheckError):
                left_mul_divided_power(1, 1, vec)
        assert table.cache_info().currsize == 0
        monkeypatch.undo()
        out = left_mul_divided_power(1, 1, vec)
        assert out == PBWVector(2, (2, 1), {M("1[1,2]+1[1,1]"): 1})


class TestIntegration:
    def test_left_mul_uses_and_fills_cache(self):
        vec = PBWVector(2, (1, 1), {M("1[1,2]"): 1})
        first = left_mul_divided_power(1, 1, vec)
        filled = table.cache_info()
        assert filled.currsize > 0
        second = left_mul_divided_power(1, 1, vec)
        assert second == first
        info = table.cache_info()
        assert info.misses == filled.misses
        assert info.hits > filled.hits
        table.cache_clear()
        assert left_mul_divided_power(1, 1, vec) == first
