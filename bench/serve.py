"""One fresh benchmark process: import besstruve, set up, serve, report.

Run by ``run.py`` as ``python3 bench/serve.py '<json spec>'`` with the
package on PYTHONPATH; prints one JSON object on stdout.  Spec keys:

    workload, seed   which generator to draw from
    mode             "setup": import plus the warm-up pass only
                     "serve": then requests from the main stream, until
                              ``seconds`` have passed or ``count`` are done
                     "cli":   one CLI invocation ``argv`` in this process
    trace            wrap the layers (tracing.py) after import
    seconds | count  how long the serve loop runs

The package is imported unmodified; with trace false nothing is wrapped,
which the report confirms by listing any wrapped attribute it finds.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import tracing
import workloads


def _eval_warm(integrals, evaluation, requests, tracer=None, latencies=None, deadline=None):
    configs = {}
    results = []
    for kind, z, zeta, tol in requests:
        if tol not in configs:
            configs[tol] = evaluation.EvalConfig(abs_tol=tol)
        if tracer is not None:
            tracer.request += 1
        evaluate = integrals.s_integral if kind == "s" else integrals.c_integral
        start = perf_counter()
        try:
            res = evaluate(integrals.IntegralRequest(z, zeta, configs[tol]))
            out = [res.value, res.abs_err_estimate, res.terms_used, res.path]
        except Exception as exc:  # a failed request is counted, not fatal
            out = [None, f"{type(exc).__name__}: {exc}"]
        end = perf_counter()
        results.append(out)
        if latencies is not None:
            latencies.append(end - start)
        if deadline is not None and end >= deadline:
            break
    return results


def _run_cli(main, argv) -> tuple[int, str]:
    """Run ``main(argv)`` with its output captured, as the CLI would."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def main(spec: dict) -> dict:
    workload = spec["workload"]
    t0 = perf_counter()
    if workload == "cold-cli":
        from besstruve import cli
    else:
        from besstruve import evaluation, integrals
    report = {"import_s": perf_counter() - t0, "numpy_loaded": "numpy" in sys.modules}
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracer.install()

    if spec["mode"] == "cli":
        run = tracer.wrap("cli", cli.main) if tracer else cli.main
        report["exit"], report["stdout"] = _run_cli(run, spec["argv"])
    else:
        warm = workloads.warmup_requests(workload)
        if workload == "cold-cli":
            for argv in warm:
                _run_cli(cli.main, argv)
        else:
            _eval_warm(integrals, evaluation, warm, tracer)
        report["setup_s"] = perf_counter() - t0

    if spec["mode"] == "serve":
        if "count" in spec:
            stream = workloads.first(workload, spec["seed"], spec["count"])
        else:
            stream = workloads.requests(workload, spec["seed"])
        latencies: list[float] = []
        loop_start = perf_counter()
        deadline = loop_start + spec["seconds"] if "seconds" in spec else None
        report["results"] = _eval_warm(integrals, evaluation, stream, tracer, latencies, deadline)
        report["loop_s"] = perf_counter() - loop_start
        report["latencies_s"] = latencies
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        report["absent"] = tracer.absent
        report["totals"] = tracer.totals()
        tracer.uninstall()
    report["wrapped"] = tracing.find_wrapped()
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
