"""Named verification suites behind the ``verify`` CLI command.

Each suite runs a batch of property checks (symbolic identities, oracle
comparisons, reference-table conformance) and reports one result per
check.  Numeric tolerances can be overridden; symbolic checks are exact
and ignore the override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import basefn, oracle
from .bessel_deriv import deriv_j1z, deriv_j1z_at_zero, p_polys, p_polys_recurrence
from .evaluation import EvalConfig, ode_coefficients
from .integrals import IntegralRequest, c_integral, s_integral
from .laurent import LaurentPoly
from .lommel import bessel_reduce, c_poly, hyp2f3_direct, r0_poly, r1_poly, reduced_2f3_poly
from .struve_deriv import (
    deriv_h1z,
    deriv_h1z_at_zero,
    neg_order_struve,
    s_sum_poly,
    s_sum_poly_ascending,
    sigma_polys_composed,
    sigma_polys_explicit,
    struve_reduce,
)

SUITE_NAMES = ("lommel", "bessel", "struve", "integrals", "scaling")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


# Reference table of the first reduction polynomials, orders 1 to 8.
# The second family's order-1 row is published as z, which contradicts the
# recurrence seed (the reduction at nu = 1 forces it to vanish); that row is
# reported as a flagged discrepancy, not matched.
_TABLE_R1 = {
    1: {0: 1},
    2: {-1: 2},
    3: {-2: 8, 0: -1},
    4: {-3: 48, -1: -8},
    5: {-4: 384, -2: -72, 0: 1},
    6: {-5: 3840, -3: -768, -1: 18},
    7: {-6: 46080, -4: -9600, -2: 288, 0: -1},
    8: {-7: 645120, -5: -138240, -3: 4800, -1: -32},
}
_TABLE_R0 = {
    2: {0: 1},
    3: {-1: 4},
    4: {-2: 24, 0: -1},
    5: {-3: 192, -1: -12},
    6: {-4: 1920, -2: -144, 0: 1},
    7: {-5: 23040, -3: -1920, -1: 24},
    8: {-6: 322560, -4: -28800, -2: 480, 0: -1},
}
_TABLE_R0_NU1_PUBLISHED = {1: 1}  # the flagged row: R at order 1 printed as z


_ODE_ZS = (0.5, 3.7, -12.25, 49.5, 7.123456789012345)  # includes a full-mantissa float


def _ode_matches_prefactors(kind: str, max_k: int) -> bool:
    """The runtime's ODE recurrence coefficients equal the paper's prefactor
    polynomials (p1/p0, or the three sigma terms) exactly at _ODE_ZS."""
    for z in _ODE_ZS:
        zf = Fraction(z)
        a, b, w = zf.numerator, zf.denominator, 2 / zf
        for k in range(max_k + 1):
            sign = (-1) ** k
            if kind == "bessel":
                p, source = p_polys(k), 0
                want = (sign * p.p1.eval_rational(zf), -sign * p.p0.eval_rational(zf), 0)
            else:
                s, source = sigma_polys_composed(k), 2
                terms = ((s.sigma1, k + 1), (s.sigma0, k), (s.sigma2, k - 1))
                want = tuple(sign * poly.eval_rational(zf) * w**e for poly, e in terms)
            scale = Fraction(b, a ** (k + 1))
            if tuple(v * scale for v in ode_coefficients(k, a, b, source)) != want:
                return False
    return True


def suite_lommel(tol: float | None = None) -> list[CheckResult]:
    out = []
    ok = all(r1_poly(nu) == LaurentPoly.from_dict(_TABLE_R1[nu]) for nu in range(1, 9))
    out.append(CheckResult("lommel", "table_first_family", ok, "orders 1..8 exact"))
    ok = all(r0_poly(nu) == LaurentPoly.from_dict(_TABLE_R0[nu]) for nu in range(2, 9))
    out.append(CheckResult("lommel", "table_second_family", ok, "orders 2..8 exact"))
    published = LaurentPoly.from_dict(_TABLE_R0_NU1_PUBLISHED)
    recurrence = c_poly(-1, 1)
    out.append(
        CheckResult(
            "lommel",
            "table_second_family_order1_flagged",
            recurrence.is_zero and recurrence != published,
            "published row 'z' conflicts with the recurrence value 0; "
            "the recurrence is trusted and the row is flagged, not matched",
        )
    )
    ok = all(
        r0_poly(nu) == c_poly(nu - 2, nu) and r1_poly(nu) == c_poly(nu - 1, nu)
        for nu in range(2, 25)
    )
    out.append(CheckResult("lommel", "closed_forms_match_recurrence", ok, "orders 2..24 exact"))
    ok = True
    for nu in range(2, 13):
        for j in range(0, nu - 1):
            lhs = c_poly(j, nu)
            poch = Fraction(1)
            for i in range(j):
                poch *= 1 - nu + i
            pre = LaurentPoly.from_dict({-j: Fraction(-2) ** j * poch})
            if lhs != pre * reduced_2f3_poly(j, nu) or reduced_2f3_poly(j, nu) != hyp2f3_direct(j, nu):
                ok = False
    out.append(
        CheckResult("lommel", "reduced_2f3_identity", ok, "orders 2..12, all admissible j, exact")
    )
    return out


def suite_bessel(tol: float | None = None) -> list[CheckResult]:
    out = []
    rel_tol = tol if tol is not None else 1e-10
    ok = True
    for z in (0.37, 1.9, 7.3):
        ok &= basefn.bessel_j0(z).value == basefn.bessel_j0(-z).value
        ok &= basefn.bessel_j1(z).value == -basefn.bessel_j1(-z).value
    out.append(CheckResult("bessel", "parity", ok, "J0 even, J1 odd, bit exact"))
    worst = 0.0
    for z in (0.5, 1.0, 2.0, 5.0, 8.0):
        worst = max(
            worst,
            abs(basefn.bessel_j1(z).value / z - oracle.quad_deriv_kernel("bessel", 0, z)),
        )
    out.append(
        CheckResult(
            "bessel",
            "integral_representation",
            worst <= 1e-11,
            f"J1(z)/z vs quadrature, worst {worst:.2e} (tol 1e-11)",
        )
    )
    worst = 0.0
    for nu in range(1, 9):
        for z in (1.0, 2.0, 5.0):
            lhs = basefn.bessel_jn(nu - 1, z).value + basefn.bessel_jn(nu + 1, z).value
            rhs = 2 * nu / z * basefn.bessel_jn(nu, z).value
            worst = max(worst, abs(lhs - rhs) / max(1e-300, abs(rhs)))
    out.append(
        CheckResult("bessel", "recurrence", worst <= 1e-10, f"three-term, worst rel {worst:.2e}")
    )
    ok = all(
        p_polys(k).p1 == p_polys_recurrence(k).p1
        and p_polys(k).p0 == p_polys_recurrence(k).p0
        for k in range(25)
    )
    out.append(CheckResult("bessel", "prefactor_cross_derivation", ok, "orders 0..24 exact"))
    ok = _ode_matches_prefactors("bessel", 60)
    out.append(CheckResult("bessel", "kernel_ode_matches_prefactors", ok, "k 0..60 at 5 z, exact"))
    worst = 0.0
    for nu in range(2, 11):
        for z in (0.5, 1.0, 2.0, 5.0, 8.0):
            a = bessel_reduce(nu, z)
            b = basefn.bessel_jn(nu, z).value
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    out.append(
        CheckResult(
            "bessel",
            "order_reduction",
            worst <= rel_tol,
            f"vs series, orders 2..10, worst rel {worst:.2e} (tol {rel_tol:g})",
        )
    )
    worst = 0.0
    cfg = EvalConfig()
    for k in range(0, 16):
        for z in (1.0, 2.0, 5.0, 10.0):
            a = deriv_j1z(k, z, cfg).value
            b = oracle.quad_deriv_kernel("bessel", k, z)
            worst = max(worst, abs(a - b) / max(1e-12, abs(b)))
    out.append(
        CheckResult(
            "bessel",
            "derivative_vs_quadrature",
            worst <= 1e-8,
            f"k 0..15, z in (1,2,5,10), worst rel {worst:.2e} (tol 1e-8)",
        )
    )
    return out


def suite_struve(tol: float | None = None) -> list[CheckResult]:
    out = []
    rel_tol = tol if tol is not None else 1e-10
    ok = all(s_sum_poly(nu) == s_sum_poly_ascending(nu) for nu in range(2, 25))
    out.append(
        CheckResult("struve", "correction_sum_two_routes", ok, "orders 2..24 exact")
    )
    ok = True
    for k in range(1, 22, 2):
        c = sigma_polys_composed(k)
        e = sigma_polys_explicit(k)
        ok &= c.sigma0 == e.sigma0 and c.sigma1 == e.sigma1 and c.sigma2 == e.sigma2
    out.append(CheckResult("struve", "sigma_explicit_vs_composed", ok, "odd k 1..21 exact"))
    ok = True
    for k in range(0, 21):
        s = sigma_polys_composed(k)
        p = p_polys(k)
        ok &= p.p1 == s.sigma1.scale(Fraction(2) ** (k + 1)).shift(-(k + 1))
        ok &= p.p0 == -s.sigma0.scale(Fraction(2) ** k).shift(-k)
    out.append(
        CheckResult(
            "struve",
            "prefactors_shared_with_bessel",
            ok,
            "sigma0/sigma1 recombine to the J-side prefactors, k 0..20 exact",
        )
    )
    ok = _ode_matches_prefactors("struve", 41)
    out.append(CheckResult("struve", "kernel_ode_matches_prefactors", ok, "k 0..41 at 5 z, exact"))
    worst = 0.0
    for nu in range(0, 9):
        for z in (0.5, 2.0, 5.0):
            a = neg_order_struve(nu, z)
            b = basefn.struve_hn(-nu, z).value
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    out.append(
        CheckResult(
            "struve",
            "negative_order_relation",
            worst <= rel_tol,
            f"orders 0..8, worst rel {worst:.2e} (tol {rel_tol:g})",
        )
    )
    worst = 0.0
    for nu in range(2, 11):
        for z in (0.5, 1.0, 2.0, 5.0, 8.0):
            a = struve_reduce(nu, z)
            b = basefn.struve_hn(nu, z).value
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    out.append(
        CheckResult(
            "struve",
            "order_reduction",
            worst <= rel_tol,
            f"vs series, orders 2..10, worst rel {worst:.2e} (tol {rel_tol:g})",
        )
    )
    worst = 0.0
    cfg = EvalConfig()
    for k in range(0, 14):
        for z in (1.0, 2.0, 5.0, 10.0):
            a = deriv_h1z(k, z, cfg).value
            b = oracle.quad_deriv_kernel("struve", k, z)
            worst = max(worst, abs(a - b) / max(1e-12, abs(b)))
    out.append(
        CheckResult(
            "struve",
            "derivative_vs_quadrature",
            worst <= 1e-8,
            f"k 0..13, z in (1,2,5,10), worst rel {worst:.2e} (tol 1e-8)",
        )
    )
    return out


def suite_integrals(tol: float | None = None) -> list[CheckResult]:
    abs_tol = tol if tol is not None else 1e-8
    cfg = EvalConfig(abs_tol=min(abs_tol, 1e-8))
    worst_s = worst_c = 0.0
    honest = True
    for z in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for zeta in (0.0, 0.25, 1.0, 2.0, 5.0):
            rs = s_integral(IntegralRequest(z, zeta, cfg))
            ds = abs(rs.value - oracle.quad_defining_s(z, zeta, 1e-13))
            worst_s = max(worst_s, ds)
            honest &= ds <= 10 * rs.abs_err_estimate + 1e-13
            rc = c_integral(IntegralRequest(z, zeta, cfg))
            dc = abs(rc.value - oracle.quad_defining_c(z, zeta, 1e-13))
            worst_c = max(worst_c, dc)
            honest &= dc <= 10 * rc.abs_err_estimate + 1e-13
    out = [
        CheckResult(
            "integrals",
            "sine_grid_vs_quadrature",
            worst_s <= abs_tol,
            f"6x5 grid, worst abs {worst_s:.2e} (tol {abs_tol:g})",
        ),
        CheckResult(
            "integrals",
            "cosine_grid_vs_quadrature",
            worst_c <= abs_tol,
            f"6x5 grid, worst abs {worst_c:.2e} (tol {abs_tol:g})",
        ),
        CheckResult(
            "integrals",
            "error_estimates_honest",
            honest,
            "actual error within 10x the reported estimate on the grid",
        ),
    ]
    return out


def suite_scaling(tol: float | None = None) -> list[CheckResult]:
    m = 40
    factor = 2 * math.sqrt(math.pi) * m**1.5
    aj = abs(deriv_j1z_at_zero(2 * m)) * factor
    ah = abs(deriv_h1z_at_zero(2 * m + 1)) * factor
    return [
        CheckResult(
            "scaling",
            "bessel_amplitude_window",
            0.85 <= aj <= 1.15,
            f"normalized amplitude {aj:.6f} at m={m} (window 0.85..1.15)",
        ),
        CheckResult(
            "scaling",
            "struve_amplitude_window",
            0.85 <= ah <= 1.15,
            f"normalized amplitude {ah:.6f} at m={m} (window 0.85..1.15)",
        ),
    ]


_SUITES = {
    "lommel": suite_lommel,
    "bessel": suite_bessel,
    "struve": suite_struve,
    "integrals": suite_integrals,
    "scaling": suite_scaling,
}


def run_suites(suite: str = "all", tol: float | None = None) -> list[CheckResult]:
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITE_NAMES)}")
    results: list[CheckResult] = []
    for name in names:
        results.extend(_SUITES[name](tol))
    return results
