"""Command line interface: outputs, determinism, exit codes."""

import argparse
import json
import logging

import pytest

from semibasis import Quiver, cli, transition_matrix
from semibasis.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransition:
    def test_square_json(self, capsys):
        code, out, err = run(
            capsys, "transition", "--dim", "2,2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
        assert payload["order"] == [
            "2[1,2]",
            "1[1,2]+1[1,1]+1[2,2]",
            "2[1,1]+2[2,2]",
        ]
        assert payload["routes_agree"] is True
        assert payload["delta_identity"] is True

    def test_json_byte_identical_across_runs(self, capsys):
        _, one, _ = run(capsys, "transition", "--dim", "1,2", "--format", "json")
        _, two, _ = run(capsys, "transition", "--dim", "1,2", "--format", "json")
        assert one == two
        assert one.endswith("\n")
        # canonical form: sorted keys, two-space indent
        assert one == json.dumps(json.loads(one), sort_keys=True, indent=2) + "\n"

    def test_timing_goes_to_stderr_not_payload(self, capsys):
        _, out, err = run(capsys, "transition", "--dim", "1,1", "--format", "json")
        assert "elapsed" not in json.loads(out)
        assert "s" in err

    def test_graded_coverage_on_stderr_once_per_call(self, capsys):
        # one coverage line per transition, on stderr; stdout is the
        # payload's JSON alone
        for dim, line in [
            ("3,3", "graded points: 4 of 4 components read by torus-fixed flags"),
            ("1,2,2,1", "graded points: 14 of 18 components read by torus-fixed flags;"
             " F_p: Z(1[1,3]+1[2,2]+1[3,4]), Z(1[1,2]+1[2,4]+1[3,3]),"
             " Z(1[1,2]+1[2,3]+1[3,3]+1[4,4]), Z(1[1,1]+1[2,3]+1[2,2]+1[3,4])"),
        ]:
            code, out, err = run(capsys, "transition", "--dim", dim, "--format", "json")
            assert code == 0
            coverage = [text for text in err.splitlines() if text.startswith("graded points:")]
            assert coverage == [line]
            n = len(dim.split(","))
            payload = transition_matrix(Quiver(n), tuple(map(int, dim.split(",")))).to_payload()
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_csv_and_pretty_forms(self, capsys):
        code, out, _ = run(capsys, "transition", "--dim", "1,1", "--format", "csv")
        assert code == 0
        assert "1[1,2]" in out
        code, out, _ = run(capsys, "transition", "--dim", "1,1", "--format", "pretty")
        assert code == 0
        assert "1[1,2]" in out

    def test_explicit_n_must_match(self, capsys):
        code, _, err = run(capsys, "transition", "--n", "3", "--dim", "2,2")
        assert code == 10
        assert "entries" in err

    def test_bad_dim_exits_10(self, capsys):
        code, _, _ = run(capsys, "transition", "--dim", "2,x")
        assert code == 10
        code, _, _ = run(capsys, "transition", "--dim", "-1,2")
        assert code == 10

    def test_dim_entry_above_maxsize_exits_10(self, capsys):
        # no traceback from enumerating an entry no index can reach
        code, out, err = run(
            capsys, "transition", "--n", "2", "--dim", "99999999999999999999,0"
        )
        assert (code, out) == (10, "")
        assert "entry above" in err and "Traceback" not in err

    def test_seed_flag_changes_nothing_observable(self, capsys):
        _, one, _ = run(capsys, "transition", "--dim", "1,2", "--format", "json")
        _, two, _ = run(
            capsys,
            "transition",
            "--dim",
            "1,2",
            "--format",
            "json",
            "--seed",
            "271828",
        )
        a, b = json.loads(one), json.loads(two)
        assert a["matrix"] == b["matrix"]
        assert a["root_seed"] != b["root_seed"]

    def test_primes_reports_only_the_primes_used(self, capsys):
        # the pool is the consecutive primes from 2, and a grade reports
        # its first B + 2, the most any word reads: B = 2 at (2,2) and
        # B = 6 at (3,3)
        for dim, used in (("2,2", [2, 3, 5, 7]), ("3,3", [2, 3, 5, 7, 11, 13, 17, 19])):
            code, out, _ = run(capsys, "transition", "--dim", dim, "--format", "json")
            assert code == 0
            assert json.loads(out)["interpolation_primes"] == used

    def test_small_primes_certify(self, capsys):
        code, out, _ = run(capsys, "transition", "--dim", "2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
        assert payload["interpolation_primes"][:2] == [2, 3]


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["transition", "--dim", "2,2", "--seed", "x"], "'x'"),
        (["transition", "--dim", "2,x"], "'2,x'"),
        (["transition", "--dim", "2,-1"], "'2,-1'"),
        # the removed sampling flags
        (["transition", "--dim", "2,2", "--primes", "5,7"], "--primes"),
        (["transition", "--dim", "2,2", "--samples", "40"], "--samples"),
        (["selftest", "--seed", "1"], "--seed"),
        (["selftest", "--primes", "5,7"], "--primes"),
        (["selftest", "--dim-bound", "-1"], "-1"),
        (["inspect", "t", "--module", "1[1,2]", "--vertex", "5"], "5"),
        (["inspect", "peel", "--module", "1[1,2]", "--vertex", "5"], "5"),
        (["inspect", "t", "--module", "1[1,2]", "--vertex", "0", "--level", "component"], "0"),
        (["inspect", "peel", "--module", "1[1,2]", "--n", "3", "--vertex", "4",
          "--level", "component"], "4"),
    ],
)
def test_bad_sampling_input_exits_10(capsys, argv, bad):
    code, out, err = run(capsys, *argv)
    assert code == 10
    assert not out
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert bad in line.split()


@pytest.mark.parametrize(
    "flag, bad",
    [
        ("--prime", "1"),
        ("--prime", "0"),
        ("--prime", "6"),
        ("--size", "-1"),
        ("--vertex", "3"),
        # above 2^31 - 1, rejected before any primality test, so a prime
        # of 21 digits and a value of 401 digits fail at once
        ("--prime", "2147483648"),
        ("--prime", "100000000000000000039"),
        pytest.param("--prime", str(10**400 + 1), id="--prime-401-digits"),
    ],
)
def test_bad_hall_input_exits_10(capsys, flag, bad):
    args = {"--module": "2[1,1]+2[2,2]", "--vertex": "1", "--size": "1", "--prime": "3"}
    args[flag] = bad
    code, out, err = run(capsys, "inspect", "hall", *(x for kv in args.items() for x in kv))
    assert code == 10
    assert not out
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert bad in line.split()


class TestInspect:
    def test_deg_order(self, capsys):
        code, out, _ = run(
            capsys, "inspect", "deg-order", "--dim", "2,2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == [
            "2[1,2]",
            "1[1,2]+1[1,1]+1[2,2]",
            "2[1,1]+2[2,2]",
        ]
        pairs = {tuple(pair) for pair in payload["degenerations"]}
        assert ("2[1,2]", "2[1,1]+2[2,2]") in pairs

    def test_deg_order_dim_entry_above_maxsize_exits_10(self, capsys):
        code, out, err = run(capsys, "inspect", "deg-order", "--dim", "99999999999999999999")
        assert (code, out) == (10, "")
        assert "entry above" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["flag"], ["t", "--vertex", "1"], ["peel", "--vertex", "1"],
         ["hall", "--vertex", "1", "--size", "1", "--prime", "3"]],
        ids=lambda command: command[0],
    )
    def test_module_multiplicity_above_maxsize_exits_10(self, capsys, command):
        # no traceback from repeating a segment more times than a list holds
        code, out, err = run(
            capsys, "inspect", command[0], "--module", "99999999999999999999[1,1]", *command[1:]
        )
        assert (code, out) == (10, "")
        assert "multiplicity above" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["t", "--vertex", "1"], ["peel", "--vertex", "1"],
         ["hall", "--vertex", "1", "--size", "1", "--prime", "3"]],
        ids=lambda command: command[0],
    )
    def test_segment_end_above_maxsize_exits_10(self, capsys, command):
        # refused when parsed; inspect flag, which peels the module one
        # vertex at a time up to the segment's end, would never return
        code, out, err = run(
            capsys, "inspect", command[0], "--module", "1[1,99999999999999999999]", *command[1:]
        )
        assert (code, out) == (10, "")
        assert "segment end above" in err and "Traceback" not in err

    def test_flag_word(self, capsys):
        code, out, _ = run(
            capsys,
            "inspect",
            "flag",
            "--module",
            "1[1,2]+1[1,1]+1[2,2]",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["word"] == "(2,1)(1,2)(2,1)"

    def test_hall_counts(self, capsys):
        code, out, _ = run(
            capsys,
            "inspect",
            "hall",
            "--module",
            "2[1,1]+2[2,2]",
            "--vertex",
            "1",
            "--size",
            "1",
            "--prime",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {"1[1,1]+2[2,2]": 4}
        assert payload["total"] == 4

    def test_hall_counts_at_the_largest_prime(self, capsys):
        # 2^31 - 1, the largest prime the package reads, is accepted
        code, out, _ = run(
            capsys,
            "inspect",
            "hall",
            "--module",
            "1[1,1]",
            "--vertex",
            "1",
            "--size",
            "1",
            "--prime",
            "2147483647",
        )
        assert code == 0
        assert out == "0: 1\ntotal: 1\n"

    def test_t_top_and_component(self, capsys):
        code, out, _ = run(
            capsys,
            "inspect",
            "t",
            "--module",
            "2[1,1]+1[2,2]",
            "--vertex",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["t"] == 2
        code, out, _ = run(
            capsys,
            "inspect",
            "t",
            "--module",
            "2[1,1]+1[2,2]",
            "--vertex",
            "1",
            "--level",
            "component",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["t"] == 1

    def test_peel_component(self, capsys):
        code, out, _ = run(
            capsys,
            "inspect",
            "peel",
            "--module",
            "2[1,1]+1[2,2]",
            "--vertex",
            "1",
            "--level",
            "component",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["peeled"] == "1[1,1]+1[2,2]"

    def test_bad_module_text(self, capsys):
        code, _, err = run(
            capsys, "inspect", "flag", "--module", "nonsense"
        )
        assert code == 10
        assert err


class TestCache:
    """Planted faults in the Hall counts exit 40 (see conftest): in the q = 1
    closed form through `transition`, in the F_p profiles through
    `inspect hall`."""

    def test_corrupt_store_exits_40(self, capsys, dropped_extension, monkeypatch):
        code, out, err = run(capsys, "transition", "--dim", "2,2")
        assert code == 40
        assert not out
        assert "flag word expansions at grade (2, 2) are not unitriangular" in err
        monkeypatch.undo()
        code, _, _ = run(capsys, "transition", "--dim", "2,2")
        assert code == 0

    def test_dropped_profile_exits_40(self, capsys, dropped_profile, monkeypatch):
        argv = ["inspect", "hall", "--module", "2[1,1]+2[2,2]", "--vertex", "1"]
        argv += ["--size", "1", "--prime", "3"]
        code, out, err = run(capsys, *argv)
        assert code == 40
        assert not out
        assert "over F_3 with quotient S_1^1 total 0, expected 4" in err
        monkeypatch.undo()
        assert run(capsys, *argv)[:2] == (0, "1[1,1]+2[2,2]: 4\ntotal: 4\n")


class TestLog:
    def test_delta_check_line_reaches_stderr_once_per_call(self, capsys):
        logger = logging.getLogger("semibasis")
        before = (list(logger.handlers), logger.level)
        payload = transition_matrix(Quiver(2), (2, 2)).to_payload()
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        for _ in range(2):
            code, out, err = run(capsys, "transition", "--dim", "2,2", "--format", "json")
            assert code == 0
            assert out == want
            lines = [line for line in err.splitlines() if line.startswith("delta check:")]
            assert lines == [
                "delta check: 3 of 3 components read from the construction's counts,"
                " 0 recounted in full at fresh seeds"
            ]
            assert (list(logger.handlers), logger.level) == before


class TestSelftest:
    def test_passes_at_small_bound(self, capsys):
        code, out, err = run(capsys, "selftest", "--dim-bound", "3")
        assert code == 0
        lines = [line for line in out.splitlines() if ":" in line]
        assert lines
        assert all("PASS" in line for line in lines)

    def test_fails_on_corrupt_cache(self, capsys, dropped_extension):
        # the regression suite raises (exit 40); the Serre suite reports
        # the residuals the missing classes leave
        code, out, _ = run(capsys, "selftest", "--dim-bound", "3")
        assert code == 40
        assert "transition-regression: FAIL (InternalCheckError" in out
        [serre] = [line for line in out.splitlines() if line.startswith("serre-relations:")]
        assert serre.startswith("serre-relations: FAIL (") and ": residual P(" in serre


class TestParser:
    def test_no_command_exits_10(self, capsys):
        assert run(capsys, )[0] == 10

    def test_unknown_command_exits_10(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 10
        assert "invalid choice: 'frobnicate'" in err
        assert all(name in err for name in ("transition", "inspect", "selftest"))

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: semibasis [-h] {transition,inspect,selftest}")

    def test_inspect_help_names_its_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["inspect", "--help"])
        assert exit_.value.code == 0
        assert "{deg-order,flag,hall,t,peel}" in capsys.readouterr().out

    def test_only_the_command_run_gets_arguments(self):
        # every command is named, but the others are left empty
        def commands(argv):
            top = cli._build_parser(argv)
            [sub] = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
            return {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}

        built = commands(["selftest", "--dim-bound", "2"])
        assert built == {
            "transition": ["help"],
            "inspect": ["help"],
            "selftest": ["help", "dim_bound"],
        }
        for argv in (["--help"], ["frobnicate"], []):
            built = commands(argv)
            assert built["transition"] == ["help", "format", "n", "dim", "seed"]
            assert built["inspect"] == ["help", "what"]

    def test_unknown_flag_exits_10(self, capsys):
        assert run(capsys, "transition", "--dim", "1,1", "--bogus")[0] == 10
