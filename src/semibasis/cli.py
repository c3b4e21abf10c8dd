"""Command-line interface: transitions, inspections, selftests.

Exit codes separate the failure classes: 0 success, 10 bad input or
usage, 20 sampling consensus failure, 21 interpolation mismatch, 30
certification failure (route disagreement, delta-check, order
violation), 40 internal assertion.

JSON output is deterministic byte-for-byte for a fixed command line and
seed: keys are sorted, timing and the package's log (INFO and up) go to
standard error only, and every matrix entry is a plain integer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
import time

from .errors import (
    CertificationError,
    ConsensusError,
    InterpolationError,
    ParseError,
    SemibasisError,
)
from .hall import (
    PBWVector,
    check_serre,
    hall_counts_simple_top,
    hom_rank,
    iso_class,
    iter_dim_vectors,
    left_mul_divided_power,
    realize,
)
from .linalg import is_prime
from .quiver import (
    Multisegment,
    Quiver,
    deg_leq,
    enumerate_multisegments,
    format_word,
    generic_ext_simple,
    hom_dim,
    peel_component,
    peel_top,
    refine_order,
    t_component,
    t_top,
    total_generic_flag,
)
from .semican import transition_matrix
from .torus import GRADED_PRIME

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError (exit 10)."""

    def error(self, message):
        raise ParseError(message)


def _add_format(parser: _Parser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")


def _add_transition(tr: _Parser) -> None:
    _add_format(tr)
    tr.add_argument("--n", type=int, default=None, help="number of vertices")
    tr.add_argument("--dim", required=True, help="dimension vector, e.g. 2,2")
    tr.add_argument("--seed", type=int, default=0, help="root seed")
    tr.set_defaults(func=_cmd_transition)


def _add_inspect(ins: _Parser) -> None:
    ins_sub = ins.add_subparsers(dest="what", required=True)

    dg = ins_sub.add_parser("deg-order")
    _add_format(dg)
    dg.add_argument("--n", type=int, default=None)
    dg.add_argument("--dim", required=True)
    dg.set_defaults(func=_cmd_deg_order)

    fl = ins_sub.add_parser("flag")
    _add_format(fl)
    fl.add_argument("--n", type=int, default=None)
    fl.add_argument("--module", required=True)
    fl.set_defaults(func=_cmd_flag)

    ha = ins_sub.add_parser("hall")
    _add_format(ha)
    ha.add_argument("--n", type=int, default=None)
    ha.add_argument("--module", required=True)
    ha.add_argument("--vertex", type=int, required=True)
    ha.add_argument("--size", type=int, required=True, help="top multiplicity a")
    ha.add_argument("--prime", type=int, required=True)
    ha.set_defaults(func=_cmd_hall)

    tv = ins_sub.add_parser("t")
    _add_format(tv)
    tv.add_argument("--n", type=int, default=None)
    tv.add_argument("--module", required=True)
    tv.add_argument("--vertex", type=int, required=True)
    tv.add_argument("--level", choices=("top", "component"), default="top")
    tv.set_defaults(func=_cmd_t)

    pe = ins_sub.add_parser("peel")
    _add_format(pe)
    pe.add_argument("--n", type=int, default=None)
    pe.add_argument("--module", required=True)
    pe.add_argument("--vertex", type=int, required=True)
    pe.add_argument("--level", choices=("top", "component"), default="top")
    pe.set_defaults(func=_cmd_peel)


def _add_selftest(st: _Parser) -> None:
    st.add_argument("--dim-bound", type=int, default=5, help="grade bound for suites")
    st.set_defaults(func=_cmd_selftest)


def _build_parser(argv: list[str]) -> _Parser:
    # every command is named, so usage, help and errors read the same, but
    # only the command argv runs gets its arguments: all commands do for
    # --help, or when argv names none
    top = _Parser(prog="semibasis", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    commands = {"transition": _add_transition, "inspect": _add_inspect, "selftest": _add_selftest}
    command = argv[0] if argv else None
    for name, add in commands.items():
        parser = sub.add_parser(name)
        if command == name or command not in commands:
            add(parser)
    return top


# ---------------------------------------------------------------------------
# shared plumbing


def _parse_dim(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad dimension vector {text!r}") from exc
    if any(x < 0 for x in dims):
        raise ParseError(f"negative entry in dimension vector {text!r}")
    if any(x > sys.maxsize for x in dims):
        raise ParseError(f"entry above {sys.maxsize} in dimension vector {text!r}")
    return dims


def _quiver_dim(args) -> tuple[Quiver, tuple[int, ...]]:
    dims = _parse_dim(args.dim)
    n = args.n if args.n is not None else len(dims)
    if n != len(dims):
        raise ParseError(f"--dim has {len(dims)} entries but --n is {n}")
    return Quiver(n), dims


def _module_arg(args) -> tuple[Multisegment, int]:
    m = Multisegment.parse(args.module)
    n = args.n if args.n is not None else max(m.max_end(), 1)
    if m.max_end() > n:
        raise ParseError(f"module {m} does not fit in {n} vertices")
    return m, n


def _check_vertex(args, n: int) -> None:
    if not 1 <= args.vertex <= n:
        raise ParseError(f"--vertex must lie in 1..{n}, got {args.vertex}")


def _emit(args, payload: dict, csv_rows: list[list], pretty_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write("\n".join(pretty_lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_transition(args) -> int:
    quiver, dims = _quiver_dim(args)
    result = transition_matrix(quiver, dims, args.seed)
    print(f"elapsed: {result.elapsed:.2f}s", file=sys.stderr)
    payload = result.to_payload()
    csv_rows = [["class"] + [c.text() for c in result.classes]]
    for cls, row in zip(result.classes, result.matrix):
        csv_rows.append([cls.text()] + list(row))
    width = max((len(c.text()) for c in result.classes), default=1)
    pretty = [f"grade {dims} over A_{quiver.n}: {len(result.classes)} classes"]
    for cls, row in zip(result.classes, result.matrix):
        pretty.append(f"  {cls.text():<{width}}  " + " ".join(map(str, row)))
    pretty.append(f"routes agree: {result.routes_agree}")
    pretty.append(f"delta identity: {result.delta_ok}")
    _emit(args, payload, csv_rows, pretty)
    return 0


def _cmd_deg_order(args) -> int:
    quiver, dims = _quiver_dim(args)
    classes = refine_order(enumerate_multisegments(quiver, dims))
    relations = [
        [a.text(), b.text()]
        for idx, a in enumerate(classes)
        for b in classes[idx + 1 :]
        if deg_leq(a, b)
    ]
    payload = {
        "n": quiver.n,
        "dim": list(dims),
        "order": [c.text() for c in classes],
        "degenerations": relations,
    }
    csv_rows = [[c.text()] for c in classes]
    pretty = [f"{len(classes)} classes, most generic first:"]
    pretty += [f"  {c.text()}" for c in classes]
    pretty += [f"degenerations: {len(relations)} ordered pairs"]
    _emit(args, payload, csv_rows, pretty)
    return 0


def _cmd_flag(args) -> int:
    m, _ = _module_arg(args)
    word = () if m.is_zero() else total_generic_flag(m)
    payload = {
        "module": m.text(),
        "word": format_word(word),
        "letters": [list(letter) for letter in word],
    }
    _emit(args, payload, [[format_word(word)]], [format_word(word)])
    return 0


def _cmd_hall(args) -> int:
    m, n = _module_arg(args)
    # is_prime divides by trial, which up to GRADED_PRIME, the largest
    # prime the package reads itself, takes milliseconds
    if args.prime > GRADED_PRIME:
        raise ParseError(f"--prime must be at most {GRADED_PRIME}, got {args.prime}")
    if not is_prime(args.prime):
        raise ParseError(f"--prime must be a prime, got {args.prime}")
    if args.size < 0:
        raise ParseError(f"--size must be non-negative, got {args.size}")
    _check_vertex(args, n)
    # exits 40 unless the counts total [t_top choose size]_prime
    counts = hall_counts_simple_top(m, args.vertex, args.size, args.prime)
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda kv: kv[0].sort_key())
    payload = {
        "module": m.text(),
        "vertex": args.vertex,
        "size": args.size,
        "prime": args.prime,
        "counts": {cls.text(): c for cls, c in ordered},
        "total": total,
    }
    csv_rows = [[cls.text(), c] for cls, c in ordered]
    pretty = [f"{cls.text()}: {c}" for cls, c in ordered] or ["no submodules"]
    pretty.append(f"total: {total}")
    _emit(args, payload, csv_rows, pretty)
    return 0


def _cmd_t(args) -> int:
    m, n = _module_arg(args)
    _check_vertex(args, n)
    value = (t_top if args.level == "top" else t_component)(m, args.vertex)
    payload = {
        "module": m.text(),
        "vertex": args.vertex,
        "level": args.level,
        "t": value,
    }
    _emit(args, payload, [[value]], [str(value)])
    return 0


def _cmd_peel(args) -> int:
    m, n = _module_arg(args)
    _check_vertex(args, n)
    peeled = (peel_top if args.level == "top" else peel_component)(m, args.vertex)
    payload = {
        "module": m.text(),
        "vertex": args.vertex,
        "level": args.level,
        "peeled": peeled.text(),
    }
    _emit(args, payload, [[peeled.text()]], [peeled.text()])
    return 0


# ---------------------------------------------------------------------------
# selftest suites


def _suite_transition_regression() -> tuple[bool, str]:
    res = transition_matrix(Quiver(2), (2, 2))
    want = ((1, 1, 1), (0, 1, 2), (0, 0, 1))
    got = tuple(tuple(v for v in row) for row in res.matrix)
    if got != want:
        return False, f"grade (2,2) matrix {got}"
    order = [c.text() for c in res.classes]
    if order != ["2[1,2]", "1[1,2]+1[1,1]+1[2,2]", "2[1,1]+2[2,2]"]:
        return False, f"grade (2,2) order {order}"
    res3 = transition_matrix(Quiver(3), (1, 1, 1))
    if len(res3.classes) != 4:
        return False, f"grade (1,1,1) has {len(res3.classes)} classes, expected 4"
    return True, "grades (2,2) and (1,1,1) certified"


def _suite_serre(bound: int) -> tuple[bool, str]:
    report = check_serre(Quiver(3), bound)
    detail = f"{report.relations_checked} relations at n=3, grades to {bound}"
    if not report.ok:
        return False, detail + "; failures: " + "; ".join(report.failures[:3])
    return True, detail


def _suite_hom_oracle(bound: int) -> tuple[bool, str]:
    checked = 0
    for n in (2, 3):
        quiver = Quiver(n)
        mods = [
            m
            for d in iter_dim_vectors(n, min(bound, 4))
            for m in enumerate_multisegments(quiver, d)
        ]
        for m in mods:
            for w in mods:
                if hom_dim(m, w) != hom_rank(m, w, n):
                    return False, f"hom({m}, {w}) disagrees with intertwiner rank"
                checked += 1
    return True, f"{checked} hom dimensions match intertwiner ranks"


def _suite_realize_roundtrip(bound: int) -> tuple[bool, str]:
    checked = 0
    for n in (2, 3):
        quiver = Quiver(n)
        for d in iter_dim_vectors(n, min(bound, 4)):
            for m in enumerate_multisegments(quiver, d):
                if iso_class(realize(m, n), 5) != m:
                    return False, f"realize/iso round trip fails at {m}"
                checked += 1
    return True, f"{checked} classes round trip"


def _suite_generic_ext(bound: int) -> tuple[bool, str]:
    checked = 0
    for n in (2, 3):
        quiver = Quiver(n)
        for d in iter_dim_vectors(n, min(bound, 4)):
            for m in enumerate_multisegments(quiver, d):
                for i in quiver.vertices():
                    for a in (1, 2):
                        if sum(d) + a > bound + 2:
                            continue
                        vec = PBWVector(n, d, {m: 1})
                        support = [
                            cls for cls, _ in left_mul_divided_power(i, a, vec).items()
                        ]
                        generic = generic_ext_simple(m, i, a)
                        if generic not in support:
                            return False, f"generic extension of {m} by S_{i}^{a} missing"
                        if not all(deg_leq(generic, other) for other in support):
                            return False, f"generic extension of {m} by S_{i}^{a} not minimal"
                        checked += 1
    return True, f"{checked} generic extensions are degeneration-minimal"


def _cmd_selftest(args) -> int:
    bound = args.dim_bound
    if bound < 0:
        raise ParseError(f"--dim-bound must be non-negative, got {bound}")
    suites = [
        ("transition-regression", _suite_transition_regression),
        ("serre-relations", lambda: _suite_serre(bound)),
        ("hom-intertwiner-oracle", lambda: _suite_hom_oracle(bound)),
        ("realize-roundtrip", lambda: _suite_realize_roundtrip(bound)),
        ("generic-ext-minimality", lambda: _suite_generic_ext(bound)),
    ]
    started = time.perf_counter()
    exit_code = 0
    for name, run in suites:
        try:
            ok, detail = run()
        except SemibasisError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
            exit_code = exit_code or _exit_code_for(exc)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok and exit_code == 0:
            exit_code = 1
    print(f"elapsed: {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return exit_code


# ---------------------------------------------------------------------------
# entry point


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ParseError):
        return 10
    if isinstance(exc, ConsensusError):
        return 20
    if isinstance(exc, InterpolationError):
        return 21
    if isinstance(exc, CertificationError):
        return 30
    if isinstance(exc, AssertionError):
        return 40
    if isinstance(exc, ValueError):
        return 10
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    # the package's log at INFO and up (the delta check, votes) goes to
    # stderr for this call only, as bare messages (the default format)
    logger = logging.getLogger("semibasis")
    level = logger.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.INFO)
    logger.addHandler(handler)
    logger.setLevel(min(logger.getEffectiveLevel(), logging.INFO))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SemibasisError, ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
