"""The derivative evaluator takes its coefficients from the kernel ODE, so
evaluating derivatives and integrals must not build any of the paper's
prefactor polynomials (they serve ``poly``, ``verify`` and the tests)."""

import subprocess
import sys

CODE = """
import besstruve as bt
from besstruve import bessel_deriv, lommel, struve_deriv

bt.deriv_j1z(60, 7.3)
bt.deriv_h1z(41, 7.3)
bt.s_integral(bt.IntegralRequest(3.0, 3.9))
bt.c_integral(bt.IntegralRequest(3.0, 3.9))
for fn in (
    bessel_deriv.p_polys,
    struve_deriv.sigma_polys_composed,
    lommel.r0_poly,
    lommel.r1_poly,
    struve_deriv.s_sum_poly,
    lommel.c_poly,
):
    print(fn.__name__, fn.cache_info().currsize)
"""


def test_eval_path_builds_no_prefactor_polynomials():
    r = subprocess.run([sys.executable, "-c", CODE], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    sizes = dict(line.split() for line in r.stdout.splitlines())
    assert sizes == {
        name: "0"
        for name in ("p_polys", "sigma_polys_composed", "r0_poly", "r1_poly", "s_sum_poly", "c_poly")
    }
