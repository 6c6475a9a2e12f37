"""The besstruve benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload points-warm --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is taken from ``src/``
(it need not be installed).  With ``--trace 0`` the run measures the
end-to-end metrics with the package imported unmodified; with ``--trace 1``
it makes a fixed, seed-determined number of requests twice, plain and
traced (tracing.py), and reports the per-layer metrics.  Every output is
checked against an mpmath reference outside the timed loop (reference.py).

Output: one line per metric with its unit, a line with the run environment,
and last a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Requests are sent one at a time, each after the previous one returned; the
warm workloads are served by a fresh child process (serve.py), cold-cli by
one fresh ``python -m besstruve.cli`` process per request.  No threads.
Exit code 2 when the checkout has no ``src/besstruve``; 1 when the
benchmark itself fails; 0 otherwise, including runs with failed requests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# Requests per --seconds in the traced run, so that it takes about as long
# as an untraced run; the count is fixed per (seed, seconds) so that two
# traced runs see the same inputs and give the same counts.
TRACE_RATE = {"points-warm": 25, "grid-sweep": 80, "cold-cli": 2}

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed request)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _serve_child(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "serve.py"), json.dumps(spec)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"serve.py {spec['mode']} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout)
    if report["wrapped"]:
        raise BenchError(f"package attributes left wrapped: {report['wrapped']}")
    return report


def _cli(argv: list) -> tuple[float, int, str]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "besstruve.cli", *argv],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return perf_counter() - start, proc.returncode, proc.stdout


def _percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# -- correctness gate ---------------------------------------------------------


class Gate:
    """Counts failed requests and error-bound misses against the reference.

    A request fails when it raised, exited nonzero, or missed its abs_tol;
    an error-bound miss is |value - ref| > abs_err_estimate (reported only).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.err_bound_misses = 0
        self.examples: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(what)

    def _value_ok(self, ref, value: float, err: float, tol: float) -> bool:
        diff = abs(ref - value)
        if diff > err:
            self.err_bound_misses += 1
        return diff <= tol

    def warm(self, request: tuple, out: list) -> None:
        self.attempted += 1
        kind, z, zeta, tol = request
        if out[0] is None:
            return self._fail(f"{request}: {out[1]}")
        if not self._value_ok(reference.integral(kind, z, zeta), out[0], out[1], tol):
            self._fail(f"{request}: value {out[0]!r} off the reference")

    def cli(self, argv: list, code: int, stdout: str) -> None:
        self.attempted += 1
        if code != 0:
            return self._fail(f"{argv}: exit {code}")
        try:
            ok = self._cli_output_ok(argv, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            ok = False
            stdout = f"unparsable output ({exc})"
        if not ok:
            self._fail(f"{argv}: {stdout[:200]!r}")

    def _cli_output_ok(self, argv: list, stdout: str) -> bool:
        tol = workloads.CLI_TOL
        opt = dict(zip(argv[2::2], argv[3::2]))
        if argv[0] == "poly":
            form = json.loads(stdout)
            return form["k"] == int(opt["--k"]) and reference.sigma_ok(form)
        if argv[0] == "eval":
            rec = json.loads(stdout)
            z = float(opt["--z"])
            if argv[1] in ("s", "c"):
                ref = reference.integral(argv[1], z, float(opt["--zeta"]))
            else:
                ref = reference.kernel_derivative(argv[1], int(opt["--k"]), z)
            return self._value_ok(ref, rec["value"], rec["abs_err_estimate"], tol)
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        grid = [
            (float(z), float(zeta))
            for z in opt["--z-grid"].split(",")
            for zeta in opt["--zeta-grid"].split(",")
        ]
        if [(float(r[0]), float(r[1])) for r in rows] != grid:
            return False
        oks = [
            self._value_ok(reference.integral(argv[1], z, zeta), float(r[2]), float(r[3]), tol)
            for (z, zeta), r in zip(grid, rows)
        ]
        return all(oks)


# -- untraced run: end-to-end metrics ------------------------------------------


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, Gate, dict]:
    if workload == "cold-cli":
        requests, latencies, outputs = [], [], []
        stream = workloads.requests(workload, seed)
        loop_start = perf_counter()
        while not latencies or perf_counter() - loop_start < seconds:
            argv = next(stream)
            wall, code, stdout = _cli(argv)
            requests.append(argv)
            latencies.append(wall)
            outputs.append((code, stdout))
        loop_s = perf_counter() - loop_start
    else:
        served = _serve_child({"workload": workload, "seed": seed, "mode": "serve", "seconds": seconds})
        outputs, latencies, loop_s = served["results"], served["latencies_s"], served["loop_s"]
        requests = workloads.first(workload, seed, len(outputs))
    # every child so far served the workload; set-up children come after
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    setups = [
        _serve_child({"workload": workload, "seed": seed, "mode": "setup"})
        for _ in range(SETUP_SAMPLES)
    ]

    gate = Gate()
    for request, out in zip(requests, outputs):
        if workload == "cold-cli":
            gate.cli(request, *out)
        else:
            gate.warm(request, out)

    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "throughput_per_s": len(latencies) / loop_s,
        "latency_p50_ms": 1000 * _percentile(latencies, 0.50),
        "latency_p95_ms": 1000 * _percentile(latencies, 0.95),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    info = {
        "samples": len(latencies),
        "samples_beyond_p95": sum(v > _percentile(latencies, 0.95) for v in latencies),
        "setup_samples_s": sorted(s["setup_s"] for s in setups),
        "numpy_loaded": setups[0]["numpy_loaded"],
    }
    return metrics, gate, info


# -- traced run: per-layer metrics ---------------------------------------------

# name -> (unit, source).  A source is a (totals key, layer) pair, read from
# the traced totals and absent when the layer is, or the name of a value
# computed in per_layer().  Times are summed in seconds and shown in ms.
PER_LAYER = {
    "import.wall_ms": ("ms", "import_ms"),
    "import.numpy_loaded": ("flag", "numpy_loaded"),
    "cli.self_ms": ("ms", ("self_s/cli", "cli")),
    "lommel.c_poly_builds": ("count", ("misses/lommel.c_poly", "lommel")),
    "lommel.build_ms": ("ms", ("self_s/lommel", "lommel")),
    "bessel_deriv.p_polys_builds": ("count", ("misses/bessel_deriv.p_polys", "bessel_deriv.p_polys")),
    "bessel_deriv.p_polys_build_ms": ("ms", ("self_s/bessel_deriv.p_polys", "bessel_deriv.p_polys")),
    "struve_deriv.sigma_builds": ("count", ("misses/struve_deriv.sigma", "struve_deriv.sigma")),
    "struve_deriv.sigma_build_ms": ("ms", ("self_s/struve_deriv.sigma", "struve_deriv.sigma")),
    "basefn.series_calls": ("count", ("calls/basefn", "basefn")),
    "basefn.series_self_ms": ("ms", ("self_s/basefn", "basefn")),
    "basefn.cache_hit_ratio": ("ratio", "basefn_hit_ratio"),
    "laurent.eval_calls": ("count", ("calls/laurent", "laurent")),
    "laurent.eval_self_ms": ("ms", ("self_s/laurent", "laurent")),
    **{
        f"{fam}.{name}": (unit, source)
        for fam in ("bessel_deriv", "struve_deriv")
        for name, unit, source in (
            ("calls", "count", (f"calls/{fam}", fam)),
            ("self_ms", "ms", (f"self_s/{fam}", fam)),
            ("path.closed_form", "count", (f"tag/{fam}/closed_form", fam)),
            ("path.taylor", "count", (f"tag/{fam}/taylor", fam)),
            ("path.quadrature", "count", (f"tag/{fam}/quadrature", fam)),
            ("closed_form_kept_ratio", "ratio", f"kept_ratio/{fam}"),
        )
    },
    "oracle.quadrature_calls": ("count", ("calls/oracle", "oracle")),
    "oracle.quadrature_self_ms": ("ms", ("self_s/oracle", "oracle")),
    "integrals.calls": ("count", ("calls/integrals", "integrals")),
    "integrals.series_terms": ("count", ("terms/integrals", "integrals")),
    "integrals.tail_bound_self_ms": ("ms", ("self_s/integrals.tail_bound", "integrals.tail_bound")),
    "integrals.self_ms": ("ms", ("self_s/integrals", "integrals")),
    "integrals.err_bound_misses": ("count", "err_bound_misses"),
    "trace.overhead_ratio": ("ratio", "overhead_ratio"),
}


def _ratio(num, den):
    return num / den if den else None


def per_layer(totals: dict, absent: set, computed: dict) -> dict:
    """Named per-layer values; None marks a metric whose target is absent
    (a wrapped layer, or for builds a cache_info(), that was not found)."""
    computed = dict(computed)
    hits = [totals.get(f"hits/basefn.{f}") for f in "jh"]
    misses = [totals.get(f"misses/basefn.{f}") for f in "jh"]
    if None not in hits + misses:
        computed["basefn_hit_ratio"] = _ratio(sum(hits), sum(hits) + sum(misses))
    for fam in ("bessel_deriv", "struve_deriv"):
        if fam not in absent:
            kept = totals.get(f"tag/{fam}/closed_form", 0)
            computed[f"kept_ratio/{fam}"] = _ratio(kept, kept + totals.get(f"tag/{fam}/quadrature", 0))
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        if isinstance(source, str):
            value = computed.get(source)
        else:
            key, layer = source
            missing_cache = key.startswith("misses/") and key not in totals
            value = None if layer in absent or missing_cache else totals.get(key, 0)
            if value is not None and unit == "ms":
                value *= 1000
        out[name] = (value, unit)
    return out


def _add(into: dict, totals: dict) -> None:
    for key, value in totals.items():
        into[key] = into.get(key, 0) + value


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, Gate, dict]:
    count = max(1, round(TRACE_RATE[workload] * seconds))
    gate = Gate()
    totals: dict = {}
    if workload == "cold-cli":
        absent: set = set()
        plain_s = traced_s = 0.0
        import_s = []
        numpy_loaded = False
        for argv in workloads.first(workload, seed, count):
            wall, code, stdout = _cli(argv)
            plain_s += wall
            start = perf_counter()
            rep = _serve_child({"workload": workload, "seed": seed, "mode": "cli", "argv": argv, "trace": True})
            traced_s += perf_counter() - start
            if (rep["exit"], rep["stdout"]) != (code, stdout):
                raise BenchError(f"traced output differs from the plain CLI for {argv}")
            gate.cli(argv, code, stdout)
            _add(totals, rep["totals"])
            absent.update(rep["absent"])
            import_s.append(rep["import_s"])
            numpy_loaded = rep["numpy_loaded"]
    else:
        spec = {"workload": workload, "seed": seed, "mode": "serve", "count": count}
        plain = _serve_child(spec)
        traced = _serve_child({**spec, "trace": True})
        if traced["results"] != plain["results"]:
            raise BenchError("traced results differ from the untraced ones")
        for request, out in zip(workloads.first(workload, seed, count), traced["results"]):
            gate.warm(request, out)
        totals = traced["totals"]
        absent = set(traced["absent"])
        plain_s, traced_s = plain["loop_s"], traced["loop_s"]
        import_s = [traced["import_s"]]
        numpy_loaded = traced["numpy_loaded"]
    computed = {
        "import_ms": 1000 * statistics.median(import_s),
        "numpy_loaded": float(numpy_loaded),
        "err_bound_misses": gate.err_bound_misses,
        "overhead_ratio": traced_s / plain_s,
    }
    info = {"requests": count, "absent": sorted(absent), "numpy_loaded": numpy_loaded}
    return per_layer(totals, absent, computed), gate, info


# -- entry point -------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "besstruve" / "__init__.py").is_file():
        print(f"error: no besstruve package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            named, gate, info = traced_run(args.workload, args.seed, args.seconds)
        else:
            values, gate, info = timed_run(args.workload, args.seed, args.seconds)
            named = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    except (BenchError, reference.ReferenceError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in named.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"{args.workload:12s} {name:38s} {shown}")
    print(f"{args.workload:12s} {'fail_share':38s} {gate.failed / gate.attempted:.6g} ratio "
          f"({gate.failed}/{gate.attempted})")
    if not args.trace:
        print(f"{args.workload:12s} {'integrals.err_bound_misses':38s} {gate.err_bound_misses} count")
    for example in gate.examples:
        print(f"failed: {example}")
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **info,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
