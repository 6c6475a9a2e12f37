"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import math
import time
from fractions import Fraction

import pytest

import besstruve as bt
from besstruve import IntegralRequest, oracle
from besstruve.bessel_deriv import p_polys, p_polys_recurrence
from besstruve.evaluation import EvalConfig
from besstruve.laurent import LaurentPoly
from besstruve.oracle import QuadratureRule, composite_gl
from besstruve.struve_deriv import s_sum_poly_ascending
from besstruve.verify import run_suites

CFG = EvalConfig()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_reference_table_conformance():
    t0 = time.perf_counter()
    results = run_suites("lommel")
    elapsed = time.perf_counter() - t0
    by_name = {r.name: r for r in results}
    ok = (
        by_name["table_first_family"].passed
        and by_name["table_second_family"].passed
        and by_name["table_second_family_order1_flagged"].passed
        and elapsed < 1.0
    )
    _report(1, ok, f"reduction-polynomial table exact, order-1 row flagged ({elapsed:.2f}s)")


def test_criterion_2_at_zero_amplitudes():
    worst = 0.0
    for m in range(16):
        expected_j = gamma_ratio_j(m)
        got_j = bt.deriv_j1z_at_zero(2 * m)
        worst = max(worst, abs(got_j - expected_j) / abs(expected_j))
        cross_j = oracle.taylor_deriv("bessel", 2 * m, 0.0, 150)
        worst = max(worst, abs(got_j - cross_j) / abs(expected_j))
        expected_h = gamma_ratio_h(m)
        got_h = bt.deriv_h1z_at_zero(2 * m + 1)
        worst = max(worst, abs(got_h - expected_h) / abs(expected_h))
        cross_h = oracle.taylor_deriv("struve", 2 * m + 1, 0.0, 150)
        worst = max(worst, abs(got_h - cross_h) / abs(expected_h))
    _report(2, worst <= 1e-12, f"at-zero amplitudes m 0..15, worst rel {worst:.2e} (tol 1e-12)")


def gamma_ratio_j(m: int) -> float:
    return (-1) ** m * math.gamma(m + 0.5) / (2 * math.sqrt(math.pi) * math.factorial(m + 1))


def gamma_ratio_h(m: int) -> float:
    return (-1) ** m * math.factorial(m) / (2 * math.sqrt(math.pi) * math.gamma(m + 2.5))


def test_criterion_3_scaling_law():
    m = 40
    factor = 2 * math.sqrt(math.pi) * m**1.5
    aj = abs(bt.deriv_j1z_at_zero(2 * m)) * factor
    ah = abs(bt.deriv_h1z_at_zero(2 * m + 1)) * factor
    ok = 0.85 <= aj <= 1.15 and 0.85 <= ah <= 1.15
    _report(3, ok, f"m^(3/2) scaling at m=40: {aj:.4f} and {ah:.4f} in [0.85, 1.15]")


def test_criterion_4_symbolic_cross_derivations():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 22, 2):
        c = bt.sigma_polys_composed(k)
        e = bt.sigma_polys_explicit(k)
        ok &= c.sigma0 == e.sigma0 and c.sigma1 == e.sigma1 and c.sigma2 == e.sigma2
    for k in range(0, 25):
        a, b = p_polys(k), p_polys_recurrence(k)
        ok &= a.p1 == b.p1 and a.p0 == b.p0
    for nu in range(2, 25):
        ok &= bt.s_sum_poly(nu) == s_sum_poly_ascending(nu)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(4, ok, f"sigma/prefactor/correction cross-derivations exact ({elapsed:.2f}s)")


def test_criterion_5_prefactor_identity():
    ok = True
    for k in range(0, 21):
        s = bt.sigma_polys_composed(k)
        p = bt.p_polys(k)
        ok &= p.p1 == s.sigma1.scale(Fraction(2) ** (k + 1)).shift(-(k + 1))
        ok &= p.p0 == -s.sigma0.scale(Fraction(2) ** k).shift(-k)
    _report(5, ok, "sigma0/sigma1 recombine exactly to the J-side prefactors, k 0..20")


def test_criterion_6_reduction_formulas():
    worst = 0.0
    for nu in range(2, 11):
        for z in (0.5, 1.0, 2.0, 5.0, 8.0):
            for pair in (
                (bt.bessel_reduce(nu, z), bt.bessel_jn(nu, z).value),
                (bt.struve_reduce(nu, z), bt.struve_hn(nu, z).value),
            ):
                a, b = pair
                err = abs(a - b)
                allowed = max(1e-10 * abs(b), 1e-12)
                worst = max(worst, err / allowed)
    _report(6, worst <= 1.0, f"order reductions vs series, worst err/allowed {worst:.2e}")


def test_criterion_7_integrals_vs_defining_quadrature():
    t0 = time.perf_counter()
    cfg = EvalConfig(abs_tol=1e-8)
    worst = 0.0
    for z in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for zeta in (0.0, 0.25, 1.0, 2.0, 5.0):
            ds = abs(
                bt.s_integral(IntegralRequest(z, zeta, cfg)).value
                - bt.quad_defining_s(z, zeta, 1e-13)
            )
            dc = abs(
                bt.c_integral(IntegralRequest(z, zeta, cfg)).value
                - bt.quad_defining_c(z, zeta, 1e-13)
            )
            worst = max(worst, ds, dc)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(7, ok, f"6x5 grid, worst abs diff {worst:.2e} (tol 1e-8), {elapsed:.2f}s")


def test_criterion_8_derivative_mid_range():
    worst = 0.0
    for k in range(0, 16):
        for z in (1.0, 2.0, 5.0, 10.0):
            a = bt.deriv_j1z(k, z, CFG).value
            b = oracle.quad_deriv_kernel("bessel", k, z)
            worst = max(worst, abs(a - b) / max(1e-12, abs(b)))
    for k in range(0, 14):
        for z in (1.0, 2.0, 5.0, 10.0):
            a = bt.deriv_h1z(k, z, CFG).value
            b = oracle.quad_deriv_kernel("struve", k, z)
            worst = max(worst, abs(a - b) / max(1e-12, abs(b)))
    _report(8, worst <= 1e-8, f"derivatives vs kernel quadrature, worst rel {worst:.2e}")


def test_criterion_9_oracle_self_consistency():
    ok = True
    for (z, zeta) in [(2.0, 1.0), (10.0, 5.0), (50.0, 50.0)]:

        def f(t, z=z, zeta=zeta):
            c = math.cos(t)
            s = math.sin(t)
            return c * s * s * math.sin(z * c) * math.sin(zeta * c * c)

        for panels in (64, 128):
            a = composite_gl(f, 0.0, math.pi / 2, panels, 32)
            b = composite_gl(f, 0.0, math.pi / 2, 2 * panels, 32)
            ok &= abs(a - b) < 1e-12
    worst = 0.0
    for k in range(0, 11):
        for z in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for kind in ("bessel", "struve"):
                t = oracle.taylor_deriv(kind, k, z, 150)
                q = oracle.quad_deriv_kernel(kind, k, z)
                worst = max(worst, abs(t - q))
    ok &= worst <= 1e-11
    _report(9, ok, f"panel doubling < 1e-12; taylor vs quadrature worst {worst:.2e} (tol 1e-11)")
