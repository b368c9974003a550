"""The in-package Dormand–Prince stepper against scipy's RK45, its reference."""

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

from genident import dopri, generator
from genident.errors import SolverError
from genident.generator import IndependentParams, LimitFlags


@pytest.mark.parametrize("n", [0, 2, 4])
def test_batched_solve_matches_scipy(monkeypatch, n):
    # integrate_batch's own solve, and solve_ivp on the same right-hand side:
    # equal step times, and equal dense values at sorted and unsorted times that
    # include step boundaries, where the step ending there is the one evaluated
    solves = []

    def both(fun, t0, y0, t_bound, **options):
        ref = solve_ivp(lambda t, y: fun(y), (t0, t_bound), y0, method="RK45",
                        dense_output=True, **options)
        solves.append((dopri.solve(fun, t0, y0, t_bound, **options), ref))
        return solves[-1][0]

    monkeypatch.setattr(generator, "solve", both)
    params = IndependentParams.nominal().to_array() * np.array([[1.0], [0.9], [1.2]])
    generator.integrate_batch(params, LimitFlags.first(n))
    (times, dense), ref = solves[0]
    assert ref.status == 0
    np.testing.assert_array_equal(times, ref.t)
    t = np.concatenate([np.linspace(0.0, 5.0, 41), ref.t[::5]])
    for order in (np.sort(t), np.random.default_rng(n).permutation(t)):
        np.testing.assert_array_equal(dense(order), ref.sol(order))


def _van_der_pol(y, mu=5.0):
    return np.array([y[1], mu * (1.0 - y[0] ** 2) * y[1] - y[0]])


def test_stepwise_run_matches_scipy_bit_for_bit():
    # first_step None (the initial-step rule), rejected steps on the stiff-ish
    # oscillator, the scalar interpolant, and a restart with a given first step
    ours = dopri.DormandPrince(_van_der_pol, 0.0, np.array([2.0, 0.0]), 3.0,
                               rtol=1e-6, atol=1e-8, max_step=0.5)
    ref = RK45(lambda t, y: _van_der_pol(y), 0.0, np.array([2.0, 0.0]), 3.0,
               rtol=1e-6, atol=1e-8, max_step=0.5)
    assert ours.h_abs == ref.h_abs
    steps = 0
    while ref.status == "running":
        steps += 1
        assert ours.step() == ref.step()
        assert (ours.status, ours.t, ours.t_old) == (ref.status, ref.t, ref.t_old)
        np.testing.assert_array_equal(ours.y, ref.y)
        mid = 0.5 * (ours.t_old + ours.t)
        np.testing.assert_array_equal(ours.dense_output()(mid), ref.dense_output()(mid))
    # two evaluations to start, six per attempted step: at least one was rejected
    assert ref.nfev > 2 + 6 * steps and ours.status == "finished"
    # a restart from the end with a given first step, as a new fresh solve
    ours = dopri.DormandPrince(_van_der_pol, 3.0, ours.y, 4.0, rtol=1e-6, atol=1e-8,
                               max_step=0.5, first_step=0.01)
    ref = RK45(lambda t, y: _van_der_pol(y), 3.0, ref.y, 4.0, rtol=1e-6, atol=1e-8,
               max_step=0.5, first_step=0.01)
    for _ in range(5):
        ours.step(), ref.step()
        np.testing.assert_array_equal(ours.y, ref.y)


def test_too_small_step_fails_with_scipys_message():
    # a right-hand side that is NaN everywhere rejects every step until the
    # step falls below ten float spacings of t
    def nan(y):
        return np.full_like(y, np.nan)

    options = dict(rtol=1e-3, atol=1e-6, max_step=np.inf, first_step=1e-3)
    ref = RK45(lambda t, y: nan(y), 1.0, np.ones(2), 2.0, **options)
    message = ref.step()
    assert ref.status == "failed"
    ours = dopri.DormandPrince(nan, 1.0, np.ones(2), 2.0, **options)
    assert ours.step() == message == dopri.TOO_SMALL_STEP and ours.status == "failed"
    with pytest.raises(SolverError, match=f"integration failed: {message}"):
        dopri.solve(nan, 1.0, np.ones(2), 2.0, **options)


def test_span_shorter_than_the_first_step():
    # one step, cut to the span, where scipy's first_step check raised ValueError;
    # the state agrees with the default span's interpolant there
    p = IndependentParams.nominal()
    short = generator.integrate(p, t_end=5e-5)
    np.testing.assert_array_equal(short.times, [0.0, 5e-5])
    np.testing.assert_allclose(short.at(5e-5), generator.integrate(p).at(5e-5),
                               rtol=1e-9, atol=1e-12)
