"""Checks of the benchmark itself (not of besstruve).

    python3 -m pytest bench/selftest.py -q

Run from the repository root.  The file name keeps these out of the
package's own test run; they start benchmark processes and take under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "flag")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload):
    assert workloads.first(workload, 5, 30) == workloads.first(workload, 5, 30)
    assert workloads.first(workload, 5, 30) != workloads.first(workload, 6, 30)
    warmup = workloads.warmup_requests(workload)
    assert warmup == workloads.warmup_requests(workload)
    assert warmup != workloads.first(workload, 5, len(warmup))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    second = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert first["correct"] and second["correct"]
    counts = {
        name: m["value"]
        for name, m in first["metrics"].items()
        if m["unit"] in COUNT_UNITS or (m["unit"] == "ratio" and name != "trace.overhead_ratio")
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert counts["integrals.calls"] > 0


def test_tracer_restores_every_attribute():
    import besstruve  # noqa: F401
    from besstruve import bessel_deriv, integrals, laurent

    before = (integrals.deriv_j1z, bessel_deriv._j_sum_exact, vars(laurent.LaurentPoly)["eval_rational"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.find_wrapped()
        assert tracer.absent == []
        integrals.s_integral(integrals.IntegralRequest(2.0, 1.0))
    finally:
        tracer.uninstall()
    assert tracing.find_wrapped() == []
    after = (integrals.deriv_j1z, bessel_deriv._j_sum_exact, vars(laurent.LaurentPoly)["eval_rational"])
    assert after == before
    totals = tracer.totals()
    assert totals["calls/integrals"] == 1 and totals["calls/bessel_deriv"] >= 1


def test_missing_target_is_absent_not_fatal(monkeypatch):
    import besstruve  # noqa: F401

    monkeypatch.setitem(tracing.TARGETS, "oracle", ["oracle:_no_such_function"])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["oracle"]
    metrics = run.per_layer({}, set(tracer.absent), {})
    assert metrics["oracle.quadrature_calls"][0] is None
    assert metrics["basefn.series_calls"][0] == 0


def test_untraced_child_wraps_nothing():
    report = run._serve_child({"workload": "points-warm", "seed": 1, "mode": "serve", "count": 2})
    assert report["wrapped"] == [] and len(report["results"]) == 2


def test_fails_without_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "points-warm", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("kind,z,zeta", [("s", 3.0, 1.0), ("c", 17.5, 3.9), ("s", 0.2, 5.5)])
def test_reference_matches_tanh_sinh(kind, z, zeta):
    mp = reference.mp
    with mp.workdps(30):
        trig = mp.sin if kind == "s" else mp.cos
        f = lambda t: mp.cos(t) * mp.sin(t) ** 2 * trig(z * mp.cos(t)) * trig(zeta * mp.cos(t) ** 2)
        expected = mp.quad(f, [0, mp.pi / 2])
        assert abs(reference.integral(kind, z, zeta) - expected) < mp.mpf("1e-25")


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
