"""Root seeds that failed certification under the majority vote.

Each pair below raised (routes disagreeing, a failed fit or a failed
fresh-seed delta check) when every prime's count was the majority value
of up to five sampled points, as it was at every n once and at n >= 5
until the last two pairs were added.  Now a prime reads its first draw
with dim End = q(d) alone, and votes only among its draws of least End
when none reaches q(d).  Every pair certifies, and every seed of a grade
gives the matrix of the default seed, as `--seed` promises.

n=5 (1,2,2,2,1) failed at root seeds 0-9 under the vote.  One of its
components, Z(1[1,2]+1[2,4]+1[3,3]+1[4,5]), has no dense orbit: no
draw there reaches dim End = q(d), so its counts are always voted.  The
grade certifies at the default seed all the same.
"""

import logging

import pytest

from semibasis import Quiver, RhoEvaluator, torus, transition_matrix
from semibasis.nilpotent import derive_seed

FAILED_UNDER_VOTE = {
    (1, 1, 1, 1): (0,),
    (1, 2, 2, 1): (3, 4, 15, 16),
    (1, 1, 2, 1): (8,),
    (2, 1, 1, 1): (17,),
    (0, 1, 1, 1): (9,),
    (0, 1, 2, 2): (3, 7, 13, 14, 16),
    (1, 2, 2, 0): (10, 13),
    (2, 2, 2, 2): (0,),
    (2, 2, 2): (19,),
    (1, 2, 2): (6,),
    (3, 1, 1): (13,),
    (1, 1, 1, 1, 1): (15, 16),
    (1, 1, 1, 1, 1, 1): (1, 4, 13, 17),
}

NO_DENSE_ORBIT = "Z(1[1,2]+1[2,4]+1[3,3]+1[4,5])"


@pytest.mark.parametrize(
    "d", list(FAILED_UNDER_VOTE), ids=lambda d: ",".join(map(str, d))
)
def test_seeds_certify_with_one_matrix(d, certified):
    # certified() is the default seed 0, and raises unless it certifies
    reference = certified(len(d), d)
    for seed in FAILED_UNDER_VOTE[d]:
        if seed == 0:
            continue
        res = transition_matrix(Quiver(len(d)), d, seed)
        assert res.routes_agree and res.delta_ok
        assert res.classes == reference.classes
        assert res.matrix == reference.matrix, seed


def test_component_without_dense_orbit_certifies(caplog):
    with caplog.at_level(logging.WARNING, logger="semibasis.nilpotent"):
        res = transition_matrix(Quiver(5), (1, 2, 2, 2, 1))
    assert res.routes_agree and res.delta_ok
    assert len(res.classes) == 65
    assert any(f"draws on {NO_DENSE_ORBIT}" in r.getMessage() for r in caplog.records)


# the flag-deep grades of the benchmark (perfbench/run.py)
FLAG_DEEP = [(3, 3), (2, 6), (2, 3, 1), (1, 3, 2)]


@pytest.mark.parametrize("d", FLAG_DEEP, ids=lambda d: ",".join(map(str, d)))
def test_flag_deep_seeds_give_one_matrix(d, certified, monkeypatch):
    # every component of these grades has a graded point, so the
    # construction draws nothing: the only seeds read are those of the
    # delta check's F_p recount of the diagonal
    reference = certified(len(d), d)
    roots = []
    draws_for = RhoEvaluator._draws_for

    def recorded(self, label, p, salt):
        roots.append(self.root_seed)
        return draws_for(self, label, p, salt)

    monkeypatch.setattr(RhoEvaluator, "_draws_for", recorded)
    for seed in range(20):
        roots.clear()
        res = transition_matrix(Quiver(len(d)), d, seed)
        assert res.routes_agree and res.delta_ok
        assert res.classes == reference.classes
        assert res.matrix == reference.matrix, seed
        assert roots and set(roots) == {derive_seed(seed, "verify-delta")}, seed


# the broad-small grades of the benchmark (perfbench/run.py), with the
# components that have no graded point, which the construction reads by
# the F_p route at its own root seed
BROAD_SMALL = {
    (2, 2): 0,
    (1, 1, 1, 1): 0,
    (1, 2, 1, 1): 0,
    (1, 2, 2, 1): 4,
    (1, 1, 1, 1, 1): 0,
    (1, 1, 1, 1, 1, 1): 0,
}


@pytest.mark.parametrize("d", list(BROAD_SMALL), ids=lambda d: ",".join(map(str, d)))
def test_broad_small_seeds_give_one_matrix(d, certified, monkeypatch):
    # (1,1,1,1,1,1)'s fresh recount passes over p = 2 at one component
    n = len(d)
    reference = certified(n, d)
    ungraded = [cls for cls in reference.classes if torus.graded_point(cls, n) is None]
    assert len(ungraded) == BROAD_SMALL[d]
    roots = []
    draws_for = RhoEvaluator._draws_for

    def recorded(self, label, p, salt):
        roots.append(self.root_seed)
        return draws_for(self, label, p, salt)

    monkeypatch.setattr(RhoEvaluator, "_draws_for", recorded)
    for seed in range(1, 20):
        roots.clear()
        res = transition_matrix(Quiver(n), d, seed)
        assert res.routes_agree and res.delta_ok
        assert res.classes == reference.classes
        assert res.matrix == reference.matrix, seed
        read = {derive_seed(seed, "verify-delta")} | ({seed} if ungraded else set())
        assert set(roots) == read, seed
