"""Tests of the benchmark's own reference checks.

    python3 perfbench/selfcheck.py

Each check in refs.py must accept the README's worked (2,2) matrix and
a correct Hall sum, and reject each planted fault; and BENCHMARK.json
must list the per-layer metrics of layers.py, with their units.  Prints
every case that goes the wrong way and exits 1 if there is one.  Needs
no semibasis import.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import calib
import layers
import refs

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# the worked example of the README: semibasis transition --n 2 --dim 2,2
GOOD = {
    "n": 2,
    "dim": [2, 2],
    "order": ["2[1,2]", "1[1,2]+1[1,1]+1[2,2]", "2[1,1]+2[2,2]"],
    "matrix": [[1, 1, 1], [0, 1, 2], [0, 0, 1]],
    "routes_agree": True,
    "delta_identity": True,
}


def planted(edit) -> dict:
    """GOOD with one edit; the recursion matrix follows the matrix unless
    the edit sets it."""
    bad = copy.deepcopy(GOOD)
    edit(bad)
    bad.setdefault("recursion_matrix", bad["matrix"])
    return bad


def set_entry(r, c, v):
    def edit(p):
        p["matrix"][r][c] = v

    return edit


def drop_last_class(p):
    p["order"].pop()
    p["matrix"] = [row[:-1] for row in p["matrix"][:-1]]


# fault -> (edit, words of the problem the check meant for it reports)
TRANSITION_FAULTS = {
    "missing class": (drop_last_class, "row classes"),
    "unknown class": (lambda p: p["order"].__setitem__(2, "1[1,1]+3[2,2]"), "row classes"),
    "diagonal entry 2": (set_entry(1, 1, 2), "diagonal entry"),
    "entry outside the degeneration order": (set_entry(2, 0, 1), "outside the degeneration order"),
    "non-integer entry": (set_entry(1, 2, "3/2"), "non-integer"),
    "generic row not all ones": (set_entry(0, 2, 0), "not all ones"),
    "n=2 binomial violated": (set_entry(1, 2, 3), "binomial"),
    "routes disagree": (lambda p: p.update(routes_agree=False), "certificates"),
    "recursion matrix differs": (
        lambda p: p.update(recursion_matrix=[[1, 1, 1], [0, 1, 1], [0, 0, 1]]),
        "recursion matrix",
    ),
}

# e_1 on grade (1,1): both targets of grade (2,1) have two segments
# starting at 1, and e_1 P_N summed over N = 1[1,2], 1[1,1]+1[2,2] hits
# each twice
HALL_SUMS = {"1[1,2]+1[1,1]": "2", "2[1,1]+1[2,2]": "2"}


def main() -> int:
    wrong = []

    def require(name, holds):
        if not holds:
            wrong.append(name)

    def reports(problems, words):
        return any(words in problem for problem in problems)

    for d, count in [((2, 2), 3), ((1, 1, 1), 4), ((1, 2, 2, 1), 18), ((1, 1, 1, 1, 1, 1), 32)]:
        require(f"{count} classes of grade {d}", len(refs.multisegments(d)) == count)
    generic, middle, low = (refs.parse_multisegment(t) for t in GOOD["order"])
    require("(2,2) degeneration chain", refs.degenerates_to(generic, middle, 2)
            and refs.degenerates_to(middle, low, 2) and not refs.degenerates_to(low, middle, 2))

    require("README (2,2) matrix accepted",
            not refs.check_transition(planted(lambda p: None), 2, (2, 2)))
    for name, (edit, words) in TRANSITION_FAULTS.items():
        require(f"{name} rejected", reports(refs.check_transition(planted(edit), 2, (2, 2)), words))

    # check_serre(Quiver(2), 6) reports 100 relations
    require("100 Serre relations at n=2", refs.serre_relation_count(2, 6) == 100)
    require("Serre report accepted",
            not refs.check_serre({"ok": True, "relations_checked": 100}, 2, 6))
    require("Serre failure rejected",
            reports(refs.check_serre({"ok": False, "relations_checked": 100}, 2, 6), "not ok"))
    require("Serre count off by one rejected",
            reports(refs.check_serre({"ok": True, "relations_checked": 99}, 2, 6), "expected 100"))

    def hall(sums):
        return refs.check_simple_top_sums(2, (1, 1), 1, 1, sums)

    require("Hall sum accepted", not hall(HALL_SUMS))
    require("wrong Hall sum rejected",
            reports(hall(HALL_SUMS | {"2[1,1]+1[2,2]": "1"}), "sum to 1"))
    require("missing Hall sum rejected", reports(hall({"1[1,2]+1[1,1]": "2"}), "sum to 0"))
    require("stray Hall class rejected",
            reports(hall(HALL_SUMS | {"1[1,2]+1[2,2]": "1"}), "reaches"))

    # a probe at the reference time is speed 1; one at half of it, 2.  An
    # op run half its time at each speed is scaled by their mean, 1.5
    ref = calib.PROBE_REF_S
    require("probe speed scaling", calib.speed([ref]) == 1.0
            and abs(calib.speed([ref, ref / 2]) - 1.5) < 1e-12)
    require("probe kernel rank", calib.kernel() == 40 * 6 + 12)

    listed = [(m["name"], m["unit"]) for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    require("BENCHMARK.json per_layer matches layers.PER_LAYER",
            listed == [(name, unit) for name, unit, _ in layers.PER_LAYER])

    for name in wrong:
        print("FAIL " + name)
    print(f"{'ok' if not wrong else 'FAILED'}: {len(TRANSITION_FAULTS)} planted "
          "transition faults, 4 Serre and 4 Hall cases, the probe, the per-layer list")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
