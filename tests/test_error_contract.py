"""The public error contract: the evaluators either return a finite result or
raise DomainError (bad arguments) or ConvergenceError (tolerance missed);
nothing else escapes, at any order, argument or tolerance."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besstruve as bt
from besstruve.evaluation import ConvergenceError, DomainError, EvalConfig

EDGE_Z = [0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 50.0, -50.0, 50.5, math.inf, math.nan]

args = st.one_of(st.sampled_from(EDGE_Z), st.floats(-50.0, 50.0))
# subnormal tolerances included: they must end in ConvergenceError, not leak
# the ValueError of an underflowed per-term tolerance
tols = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-16, 1.0]),
    st.floats(1e-16, 1.0),
    st.floats(0.0, 1e-300, exclude_min=True),
)


def _check(evaluate, *call_args, tol):
    """The result, or None when an allowed error was raised."""
    try:
        r = evaluate(*call_args, EvalConfig(abs_tol=tol))
    except (DomainError, ConvergenceError):
        return None
    assert math.isfinite(r.value)
    assert math.isfinite(r.abs_err_estimate) and r.abs_err_estimate >= 0
    return r


def _check_deriv(evaluate, k, z, tol):
    r = _check(evaluate, k, z, tol=tol)
    # either path raises rather than return a bound above the tolerance
    if r is not None:
        assert r.abs_err_estimate <= tol


@settings(max_examples=200, deadline=None)
@given(k=st.integers(-2, 64), z=args, tol=tols)
def test_deriv_j1z_contract(k, z, tol):
    _check_deriv(bt.deriv_j1z, k, z, tol)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(-2, 45), z=args, tol=tols)
def test_deriv_h1z_contract(k, z, tol):
    _check_deriv(bt.deriv_h1z, k, z, tol)


def _integral(evaluate):
    def call(z, zeta, cfg):
        return evaluate(bt.IntegralRequest(z, zeta, cfg))

    return call


@settings(max_examples=60, deadline=None)
@given(z=args, zeta=args, tol=tols)
def test_s_integral_contract(z, zeta, tol):
    _check(_integral(bt.s_integral), z, zeta, tol=tol)


@settings(max_examples=60, deadline=None)
@given(z=args, zeta=args, tol=tols)
def test_c_integral_contract(z, zeta, tol):
    _check(_integral(bt.c_integral), z, zeta, tol=tol)


def test_closed_form_bound_above_tol_raises():
    # J1(z)/z at z = 0.5 is 0.48, so its rounding bound 2 eps |v| is 2.15e-16
    assert bt.deriv_j1z(0, 0.5, EvalConfig(abs_tol=3e-16)).path == "closed_form"
    with pytest.raises(ConvergenceError):
        bt.deriv_j1z(0, 0.5, EvalConfig(abs_tol=1e-16))


def test_taylor_estimate_above_tol_raises():
    # the Taylor branch estimate at (k=0, z=0.4999) is 4.7e-16
    r = bt.deriv_j1z(0, 0.4999, EvalConfig(abs_tol=1e-15))
    assert r.path == "taylor" and r.abs_err_estimate <= 1e-15
    with pytest.raises(ConvergenceError):
        bt.deriv_j1z(0, 0.4999, EvalConfig(abs_tol=1e-16))


def test_subnormal_tolerance_raises_convergence_error():
    # the per-term tolerance abs_tol / |weight| underflows to 0 here
    with pytest.raises(ConvergenceError):
        bt.s_integral(bt.IntegralRequest(1, 5, EvalConfig(abs_tol=5e-324)))
    with pytest.raises(ConvergenceError):
        bt.c_integral(bt.IntegralRequest(1, 5, EvalConfig(abs_tol=5e-324)))
