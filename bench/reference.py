"""Reference values with more digits than a double, computed with mpmath.

Nothing here touches the besstruve package.  The two integrals and the
kernel derivatives are quadratures of their defining integrals over
[0, pi/2]; the integrands are entire, so Gauss-Legendre converges
geometrically, and every value is computed with two rules (48 and 96
nodes, then 96 and 192 if those disagree) whose agreement is checked.
The sigma polynomials are checked against the ascending series of
H1(z)/z differentiated term by term and mpmath's Struve functions.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath
from mpmath import mp, mpf

DPS = 30
# Two rules agree to this absolute difference, or the reference is refused.
AGREE = mpf("1e-24")
_DEGREES = (5, 6, 7)  # mpmath Gauss-Legendre degree d has 3 * 2**(d-1) nodes

SIGMA_DPS = 80
SIGMA_CHECK_Z = ("2.5", "7.25")
SIGMA_REL_TOL = mpf("1e-20")


class ReferenceError(RuntimeError):
    """The reference quadrature did not reach the agreement it needs."""


@lru_cache(maxsize=None)
def _rule(degree: int) -> tuple:
    """Nodes on [0, pi/2] as (cos t, cos^2 t, w sin^2 t) triples, w the weight."""
    half = mp.pi / 4
    out = []
    for x, w in mpmath.calculus.quadrature.GaussLegendre(mp).calc_nodes(degree, mp.prec):
        c = mp.cos(half * (x + 1))
        out.append((c, c * c, w * half * (1 - c * c)))
    return tuple(out)


@lru_cache(maxsize=1024)
def _node_factor(trig: str, x: float, degree: int, power: int, shift: int = 0) -> tuple:
    """trig(x cos^power t + shift pi/2) at every node.  Cached, because a
    grid sweep meets each z, and each zeta of its fixed grid, many times."""
    xf = mpf(x)
    phase = shift * mp.pi / 2
    f = mp.cos if trig == "cos" else mp.sin
    return tuple(f(xf * node[power - 1] + phase) for node in _rule(degree))


def _agreed(compute) -> mpf:
    for lo, hi in zip(_DEGREES, _DEGREES[1:]):
        a, b = compute(lo), compute(hi)
        if abs(a - b) <= AGREE:
            return b
    raise ReferenceError(f"Gauss-Legendre rules disagree by {mpmath.nstr(abs(a - b), 3)}")


def integral(kind: str, z: float, zeta: float) -> mpf:
    """S (kind 's') or C (kind 'c') at (z, zeta) from the defining integral

    int_0^{pi/2} cos t sin^2 t {sin|cos}(z cos t) {sin|cos}(zeta cos^2 t) dt.
    """
    trig = "sin" if kind == "s" else "cos"
    with mp.workdps(DPS):

        def compute(degree: int) -> mpf:
            zfac = _node_factor(trig, z, degree, 1)
            zetafac = _node_factor(trig, zeta, degree, 2)
            return mp.fsum(
                ws2 * c * zc * gc
                for (c, _, ws2), zc, gc in zip(_rule(degree), zfac, zetafac)
            )

        return _agreed(compute)


def kernel_derivative(subject: str, k: int, z: float) -> mpf:
    """d^k/dz^k of J1(z)/z ('dj1z') or H1(z)/z ('dh1z'), differentiated under

    (2/pi) int_0^{pi/2} cos^k t sin^2 t {cos|sin}(z cos t + k pi/2) dt.
    """
    trig = "cos" if subject == "dj1z" else "sin"
    with mp.workdps(DPS):

        def compute(degree: int) -> mpf:
            zfac = _node_factor(trig, z, degree, 1, k)
            return 2 / mp.pi * mp.fsum(
                ws2 * c**k * zc for (c, _, ws2), zc in zip(_rule(degree), zfac)
            )

        return _agreed(compute)


def _h1z_derivative(k: int, z: mpf) -> mpf:
    """d^k/dz^k [H1(z)/z] from H1(z)/z = sum_n (-1)^n z^(2n+1) / (2^(2n+2)
    Gamma(n+3/2) Gamma(n+5/2)), differentiated term by term."""
    total = mpf(0)
    n = max(0, (k - 1) // 2)
    small = mpf(10) ** (-mp.dps)
    while True:
        p = 2 * n + 1
        if p >= k:
            c = (-1) ** n / (mpf(2) ** (2 * n + 2) * mp.gamma(n + mpf(3) / 2) * mp.gamma(n + mpf(5) / 2))
            term = c * mp.ff(p, k) * z ** (p - k)
            total += term
            # past p - k > z^2 the terms shrink monotonically
            if p - k > z * z and abs(term) < small * max(1, abs(total)):
                return total
        n += 1


def _laurent(obj: dict, z: mpf) -> mpf:
    value = mp.fsum(mpf(int(t["num"])) / int(t["den"]) * z ** t["exp"] for t in obj["terms"])
    return value * mp.pi ** obj["pi_power"]


def sigma_identity_error(form: dict) -> float:
    """Largest relative residual of

    (-1)^k d^k/dz^k [H1(z)/z] = H0 sigma0 (2/z)^k + H1 sigma1 (2/z)^(k+1)
                               + sigma2 (2/z)^(k-1)

    over the check points, for a ``poly sigma`` JSON record."""
    k = form["k"]
    worst = mpf(0)
    with mp.workdps(SIGMA_DPS):
        for text in SIGMA_CHECK_Z:
            z = mpf(text)
            lhs = (-1) ** k * _h1z_derivative(k, z)
            rhs = (
                mp.struveh(0, z) * _laurent(form["sigma0"], z) * (2 / z) ** k
                + mp.struveh(1, z) * _laurent(form["sigma1"], z) * (2 / z) ** (k + 1)
                + _laurent(form["sigma2"], z) * (2 / z) ** (k - 1)
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), mpf("1e-300")))
    return float(worst)


def sigma_ok(form: dict) -> bool:
    return sigma_identity_error(form) <= SIGMA_REL_TOL
