"""Shared fixtures.

Certified transition runs are the expensive objects in this suite; a
session-scoped memo lets the basis tests and the acceptance checks share
one run per dimension vector.
"""

from __future__ import annotations

import itertools

import pytest

from semibasis import Quiver, hall, nilpotent, torus, transition_matrix

# the process-wide memos of what no seed enters
SEEDLESS_MEMOS = (nilpotent._end_template, nilpotent._star_space, torus.graded_point)


def n2_grades() -> list[tuple[int, ...]]:
    """All dimension vectors on two vertices with total at most 6."""
    return [
        d for d in itertools.product(range(7), repeat=2) if sum(d) <= 6
    ]


def n3_grades() -> list[tuple[int, ...]]:
    """All dimension vectors on three vertices bounded by (2, 2, 2)."""
    return list(itertools.product(range(3), repeat=3))


@pytest.fixture(autouse=True)
def cleared_memos():
    """Empty the End template, star space and graded point memos before
    each test, so that a fault a test plants in what they are built from
    reaches every search and solve the test makes."""
    for memo in SEEDLESS_MEMOS:
        memo.cache_clear()


@pytest.fixture(scope="session")
def certified():
    """Memoized access to certified transition runs, keyed by (n, d)."""
    runs = {}

    def get(n: int, d: tuple[int, ...]):
        key = (n, tuple(d))
        if key not in runs:
            runs[key] = transition_matrix(Quiver(n), key[1])
        return runs[key]

    return get


@pytest.fixture
def dropped_profile(monkeypatch):
    """Plant a fault in the F_p submodule counts: every count misses a profile.

    No total can then match its Gaussian binomial, so every call of
    `hall_counts_simple_top` with a nonzero count raises InternalCheckError.
    """
    terms = hall._simple_top_terms
    monkeypatch.setattr(hall, "_simple_top_terms", lambda *key: terms(*key)[1:])


@pytest.fixture
def dropped_extension(monkeypatch):
    """Plant a fault in the q = 1 Hall products: each misses its first class.

    Every product `left_mul_divided_power` makes then drops the class with
    no promoted segment, all heads [i, i], and its closed-form count: the
    first entry `_block_extensions` holds for each block.
    """
    extensions = hall._block_extensions
    monkeypatch.setattr(hall, "_block_extensions", lambda *key: extensions(*key)[1:])
