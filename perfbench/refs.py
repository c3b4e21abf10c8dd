"""Reference computations the benchmark checks program outputs against.

Nothing here imports semibasis.  Multisegments are enumerated directly,
the degeneration order is decided by rank dominance (the rank of
V_a -> V_b in a multisegment is the number of its segments [s, e] with
s <= a <= b <= e, and N is a degeneration of M iff every rank of N is
at most the matching rank of M), and the closed forms below are the
identities the benchmark README gives with their provenance.

A multisegment is a sorted tuple of (start, end, multiplicity) triples.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb

_TERM = re.compile(r"^(\d+)\[(\d+),(\d+)\]$")


def parse_multisegment(text: str) -> tuple[tuple[int, int, int], ...]:
    """The triples of a text such as ``2[1,2]+1[1,1]``; ``0`` is empty."""
    if text.strip() == "0":
        return ()
    counts: dict[tuple[int, int], int] = {}
    for term in text.split("+"):
        match = _TERM.match(term.strip())
        if match is None:
            raise ValueError(f"bad multisegment term {term!r} in {text!r}")
        mult, s, e = (int(g) for g in match.groups())
        if mult < 1 or not 1 <= s <= e:
            raise ValueError(f"bad multisegment term {term!r} in {text!r}")
        counts[(s, e)] = counts.get((s, e), 0) + mult
    return tuple(sorted((s, e, m) for (s, e), m in counts.items()))


def format_multisegment(ms: tuple[tuple[int, int, int], ...]) -> str:
    return "+".join(f"{m}[{s},{e}]" for s, e, m in ms) or "0"


@lru_cache(maxsize=None)
def multisegments(d: tuple[int, ...]) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Every multisegment over len(d) vertices with dimension vector d."""
    n = len(d)
    segments = [(s, e) for s in range(1, n + 1) for e in range(s, n + 1)]
    out = []

    def walk(k: int, left: list[int], acc: list[tuple[int, int, int]]) -> None:
        if k == len(segments):
            if not any(left):
                out.append(tuple(acc))
            return
        s, e = segments[k]
        most = min(left[s - 1 : e])
        for m in range(most + 1):
            if m:
                for v in range(s - 1, e):
                    left[v] -= m
                acc.append((s, e, m))
            walk(k + 1, left, acc)
            if m:
                acc.pop()
                for v in range(s - 1, e):
                    left[v] += m

    walk(0, list(d), [])
    return tuple(sorted(out))


def ranks(ms: tuple[tuple[int, int, int], ...], n: int) -> tuple[int, ...]:
    """Ranks of V_a -> V_b for all 1 <= a <= b <= n, in a fixed order."""
    return tuple(
        sum(m for s, e, m in ms if s <= a and b <= e)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
    )


def degenerates_to(big, small, n: int) -> bool:
    """Whether the orbit of `small` lies in the orbit closure of `big`."""
    return all(x <= y for x, y in zip(ranks(small, n), ranks(big, n)))


def starts_at(ms, i: int) -> int:
    return sum(m for s, _, m in ms if s == i)


def check_transition(payload: dict, n: int, d: tuple[int, ...]) -> list[str]:
    """Problems with a ``semibasis transition --format json`` payload."""
    problems: list[str] = []
    if payload.get("n") != n or tuple(payload.get("dim", ())) != d:
        problems.append(f"payload is for n={payload.get('n')} dim={payload.get('dim')}")
    if payload.get("routes_agree") is not True or payload.get("delta_identity") is not True:
        problems.append("payload does not report both certificates as passed")
    try:
        classes = [parse_multisegment(t) for t in payload["order"]]
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"unreadable class order: {exc}"]
    if sorted(classes) != list(multisegments(d)):
        problems.append(
            f"{len(classes)} row classes, not the {len(multisegments(d))} multisegments of {d}"
        )
    matrix = payload.get("matrix")
    size = len(classes)
    if (
        not isinstance(matrix, list)
        or len(matrix) != size
        or any(not isinstance(row, list) or len(row) != size for row in matrix)
    ):
        return problems + ["matrix is not square over the row classes"]
    if payload.get("recursion_matrix") != matrix:
        problems.append("recursion matrix differs from the matrix")
    if any(type(v) is not int for row in matrix for v in row):
        return problems + ["matrix has a non-integer entry"]
    for r, row in enumerate(matrix):
        if row[r] != 1:
            problems.append(f"diagonal entry {row[r]} at {payload['order'][r]}")
        for c, v in enumerate(row):
            if v and r != c and not degenerates_to(classes[r], classes[c], n):
                problems.append(
                    f"entry {v} at ({payload['order'][r]}, {payload['order'][c]}) "
                    "outside the degeneration order"
                )
    generic = [
        r for r, m in enumerate(classes) if all(degenerates_to(m, o, n) for o in classes)
    ]
    if len(generic) != 1:
        problems.append(f"{len(generic)} most generic classes")
    elif any(v != 1 for v in matrix[generic[0]]):
        problems.append(f"row of the most generic class is {matrix[generic[0]]}, not all ones")
    if n == 2:
        top = min(d)
        for r, row in enumerate(matrix):
            k = sum(m for s, e, m in classes[r] if (s, e) == (1, 2))
            for c, v in enumerate(row):
                j = sum(m for s, e, m in classes[c] if (s, e) == (1, 2))
                want = comb(top - j, k - j) if k >= j else 0
                if v != want:
                    problems.append(
                        f"n=2 entry ({k}, {j}) is {v}, binomial C({top - j}, {k - j}) is {want}"
                    )
    return problems


def serre_relation_count(n: int, bound: int) -> int:
    """Relations ``check_serre`` visits: 2(n-1) per class of |d| <= bound."""
    total = 0

    def dims(prefix: tuple[int, ...], left: int) -> None:
        nonlocal total
        if len(prefix) == n:
            total += len(multisegments(prefix))
            return
        for x in range(left + 1):
            dims(prefix + (x,), left - x)

    dims((), bound)
    return 2 * (n - 1) * total


def check_serre(report: dict, n: int, bound: int) -> list[str]:
    problems = []
    if report.get("ok") is not True:
        problems.append(f"Serre report not ok: {report.get('failures', [])[:3]}")
    want = serre_relation_count(n, bound)
    if report.get("relations_checked") != want:
        problems.append(f"{report.get('relations_checked')} relations checked, expected {want}")
    return problems


def check_simple_top_sums(
    n: int, d: tuple[int, ...], i: int, a: int, sums: dict[str, str]
) -> list[str]:
    """Sum over N of the P_L coefficient of e_i^(a) P_N must be C(t, a).

    `sums` maps each L the program produced to its summed coefficient
    as a decimal or ``p/q`` string; t is the number of segments of L
    starting at i, and C(t, a) is the Euler characteristic of the
    Grassmannian of a-planes in the t-dimensional top of L at i.
    """
    grade = tuple(x + (a if v == i else 0) for v, x in enumerate(d, start=1))
    expected = {ms: comb(starts_at(ms, i), a) for ms in multisegments(grade)}
    problems = []
    try:
        got = {parse_multisegment(k): v for k, v in sums.items()}
    except ValueError as exc:
        return [f"unreadable class: {exc}"]
    for ms in got:
        if ms not in expected:
            problems.append(f"e_{i}^({a}) on grade {d} reaches {format_multisegment(ms)}")
    for ms, want in expected.items():
        value = got.get(ms, "0")
        if value != str(want):
            problems.append(
                f"e_{i}^({a}) on grade {d}: coefficients of {format_multisegment(ms)} "
                f"sum to {value}, expected C({starts_at(ms, i)}, {a}) = {want}"
            )
    return problems
