"""Transition payloads pinned byte for byte.

Each file tests/golden/n<N>_<d_1>_..._<d_N>.json holds the stdout of
`semibasis transition --n N --dim d_1,...,d_N --format json` at the
default root seed 0, for the ten grades the benchmark's flag-deep and
broad-small workloads certify.  Beside it, n<N>_<d_1>_..._<d_N>.err
holds the same run's stderr without its `elapsed:` line: the coverage
line, the delta line and every vote or pass-over, each of which rests
on the End dimensions drawn.  A change that only makes the counts
cheaper must leave every byte of both as it is.
"""

from pathlib import Path

import pytest

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
