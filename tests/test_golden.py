"""Transition payloads pinned byte for byte.

Each file tests/golden/n<N>_<d_1>_..._<d_N>.json holds the stdout of
`semibasis transition --n N --dim d_1,...,d_N --format json` at the
default root seed 0, for the ten grades the benchmark's flag-deep and
broad-small workloads certify.  Beside it, n<N>_<d_1>_..._<d_N>.err
holds the same run's stderr without its `elapsed:` line: the coverage
line, the delta line and every vote or pass-over, each of which rests
on the End dimensions drawn.  A change that only makes the counts
cheaper must leave every byte of both as it is.  On every pinned
payload the transition matrix's support is exactly the degeneration
order and no entry is negative.
"""

import json
from pathlib import Path

import pytest

from semibasis import Multisegment, deg_leq
from semibasis.cli import main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("n*.json"))


def test_ten_grades_are_pinned():
    assert len(GOLDEN) == 10
    assert all(path.with_suffix(".err").is_file() for path in GOLDEN)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_transition_stdout_is_byte_identical(path, capsys):
    n, *dims = path.stem[1:].split("_")
    code = main(["transition", "--n", n, "--dim", ",".join(dims), "--format", "json"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == path.read_text()
    err = "".join(
        line for line in captured.err.splitlines(keepends=True) if not line.startswith("elapsed: ")
    )
    assert err == path.with_suffix(".err").read_text()


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_transition_support_is_the_order_and_its_sign_nonnegative(path):
    # on the pinned payloads A[r][c] is nonzero exactly when
    # order[r] <=deg order[c], the degeneration order the paper's
    # unitriangularity is stated in, and no entry is negative
    payload = json.loads(path.read_text())
    order = [Multisegment.parse(text) for text in payload["order"]]
    for r, row in enumerate(payload["matrix"]):
        for c, value in enumerate(row):
            assert (value != 0) == deg_leq(order[r], order[c]), (order[r], order[c], value)
            assert value >= 0, (order[r], order[c], value)
