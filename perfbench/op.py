"""Run one benchmark op in this fresh interpreter.

Reads a JSON request on standard input and writes one JSON result line
on standard output.  `ready` is CLOCK_MONOTONIC once semibasis is
imported and the request is read, so the parent can measure set-up from
just before it started this interpreter.  `op_s` times the op alone;
the check calls a Serre op makes afterwards are not part of it.  An
untraced op also reports the times of the speed probe of calib.py: five
right after set-up (`setup_probe_s`) and one per 0.1 s of the op
(`probe_s`), whose sum is taken out of `op_s`.

    {"kind": "transition", "argv": [...], "trace": false}
    {"kind": "serre", "n": 4, "bound": 6, "cases": [...], "trace": false}
"""

import contextlib
import io
import json
import resource
import sys
import time

import semibasis
import semibasis.cli


def simple_top_sums(n, case):
    # sum over the sources N of e_i^(a) P_N, by target class
    sums = {}
    for text in case["sources"]:
        vec = semibasis.PBWVector(
            n, case["d"], {semibasis.Multisegment.parse(text): 1}
        )
        for cls, coeff in semibasis.left_mul_divided_power(case["i"], case["a"], vec).items():
            sums[cls.text()] = sums.get(cls.text(), 0) + coeff
    return {k: str(v) for k, v in sums.items()}


def main():
    request = json.loads(sys.stdin.read())
    ready = time.monotonic()
    import calib

    result = {"ready": ready}
    tracer = sampler = None
    if request["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        # the speed probe runs in untraced ops only, so that no layer
        # span of a traced op holds probe time
        sampler = calib.Sampler()
        for _ in range(calib.SETUP_SAMPLES):
            sampler.sample()
        result["setup_probe_s"] = sampler.samples
        sampler.start()
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    if request["kind"] == "transition":
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = semibasis.cli.main(request["argv"])
    else:
        report = semibasis.check_serre(semibasis.Quiver(request["n"]), request["bound"])
    # stop the timer before reading the clock, so every probe counted
    # falls inside the op's interval
    probes = sampler.stop() if sampler is not None else []
    result["op_s"] = time.perf_counter() - started - sum(probes)
    if sampler is not None:
        result["probe_s"] = probes
    if request["kind"] == "transition":
        result.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue()[-2000:])
    else:
        result.update(
            rc=0,
            report={
                "ok": report.ok,
                "relations_checked": report.relations_checked,
                "failures": list(report.failures[:3]),
            },
        )
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.record(started)
    if request["kind"] == "serre" and result["rc"] == 0:
        result["sums"] = [simple_top_sums(request["n"], c) for c in request["cases"]]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
