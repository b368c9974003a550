import itertools
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from genident import generator
from genident.errors import DomainError
from genident.generator import (
    LIMIT_CHAIN,
    OMEGA_0,
    OMEGA_B,
    PARAM_NAMES,
    STATE_NAMES,
    IndependentParams,
    LimitFlags,
    INITIAL_STATE,
    ObservationGrid,
    integrate,
    observe,
    rhs,
)

NOM = IndependentParams.nominal()

# published bare values the increment parameterization must reproduce
TABLE_BARE = dict(x_d=5.0, x_q=4.88, x_q1=2.86, x_d1=0.928, x_q2=0.48, x_d2=0.48,
                  T_d01=4.75, T_d02=0.06, T_q01=1.5, T_q02=0.21, H=2.53, D=0.5)


def _bare(p):
    """Bare parameters of an :class:`IndependentParams` as scalars."""
    return generator._bare(*p.to_array())


class TestParamMaps:
    def test_nominal_matches_published_bare_values(self):
        b = _bare(NOM)
        for name, want in TABLE_BARE.items():
            assert b[name] == pytest.approx(want, abs=1e-12)

    def test_collapsed_chain(self):
        p = IndependentParams(H=2.53, D=0.5, dx1=0, dx2=0, dx3=0, dx4=0,
                              xdpp=0.48, dTd=0, dTq=1.29, Tdpp=0.06, Tqpp=0.21)
        b = _bare(p)
        assert b["x_d"] == b["x_q"] == b["x_q1"] == b["x_d1"] == b["x_q2"] == b["x_d2"] == 0.48
        assert b["T_d01"] == b["T_d02"] == 0.06

    def test_negative_field_rejected(self):
        with pytest.raises(DomainError):
            IndependentParams(H=-1.0)

    def test_ordering_chain_holds_for_random_nonnegative_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = _bare(IndependentParams(**dict(zip(PARAM_NAMES, rng.uniform(0, 10, 11)))))
            chain = [b[nm] for nm in ("x_d", "x_q", "x_q1", "x_d1", "x_q2", "x_d2")] + [0.0]
            assert all(hi >= lo for hi, lo in zip(chain, chain[1:]))
            assert b["T_d01"] >= b["T_d02"] >= 0 and b["T_q01"] >= b["T_q02"] >= 0


def _transcribed_rhs(state, p):
    """Second, independent straight-line transcription of the dynamic equations."""
    delta, omega, eq1, ed1, eq2, ed2 = state
    H, D, dx1, dx2, dx3, dx4, xdpp, dTd, dTq, Tdpp, Tqpp = p
    xqpp = xdpp
    xdp = xqpp + dx4
    xqp = xdp + dx3
    xq = xqp + dx2
    xd = xq + dx1
    Td0p, Td0pp, Tq0p, Tq0pp = Tdpp + dTd, Tdpp, Tqpp + dTq, Tqpp
    omega_b, omega_0, v_f0, P_m, V = 120 * math.pi, 1.0, 4.2, 0.7, 1.09
    v_d = V * math.sin(delta)
    v_q = V * math.cos(delta)
    i_d = (eq2 - v_q) / xdpp
    i_q = (v_d - ed2) / xqpp
    P_g = v_d * i_d + v_q * i_q
    return [
        omega_b * (omega - omega_0),
        (P_m - P_g - D * (omega - omega_0)) / H,
        (-eq1 - (xd - xdp) * i_d + v_f0) / Td0p,
        (-ed1 + (xq - xqp) * i_q) / Tq0p,
        (-eq2 + eq1 - (xdp - xdpp) * i_d) / Td0pp,
        (-ed2 + ed1 + (xqp - xqpp) * i_q) / Tq0pp,
    ]


def _transcribed_stator(delta, eq1, ed1, eq2, ed2, p, flags):
    """v_d, v_q, e''_q and e''_d, the slaved EMFs closed, by a straight-line
    transcription; complex arguments pass through, for complex-step derivatives."""
    xdpp, dx4, dx3 = (p[PARAM_NAMES.index(nm)] for nm in ("xdpp", "dx4", "dx3"))
    xdp = xdpp + dx4
    xqp = xdp + dx3
    v_d = 1.09 * np.sin(delta)
    v_q = 1.09 * np.cos(delta)
    if flags.tdpp_zero:
        eq2 = (xdpp * eq1 + (xdp - xdpp) * v_q) / xdp
    if flags.tqpp_zero:
        ed2 = (xdpp * ed1 + (xqp - xdpp) * v_d) / xqp
    return v_d, v_q, eq2, ed2


def _transcribed_power(delta, eq1, ed1, eq2, ed2, p, flags):
    """P_g = v_d i_d + v_q i_q from :func:`_transcribed_stator`."""
    v_d, v_q, eq2, ed2 = _transcribed_stator(delta, eq1, ed1, eq2, ed2, p, flags)
    xdpp = p[PARAM_NAMES.index("xdpp")]
    return v_d * (eq2 - v_q) / xdpp + v_q * (v_d - ed2) / xdpp


def _at_limits(flags):
    """Nominal independent parameters with D and dx1 at their limits where flagged."""
    p = NOM.to_array()
    for flag, name in (("d_zero", "D"), ("dx1_zero", "dx1")):
        if getattr(flags, flag):
            p[PARAM_NAMES.index(name)] = 0.0
    return p


def _random_state(rng, p, flags, balanced=True):
    """A random full state with the slaved EMFs at their closed forms; in the
    inertia limit, if ``balanced``, the angle is the root of the power balance."""
    state = np.array([rng.uniform(0.2, 1.2), rng.uniform(0.95, 1.05), rng.uniform(1.6, 2.6),
                      rng.uniform(-0.3, 0.3), rng.uniform(1.4, 2.4), rng.uniform(-0.3, 0.3)])
    if flags.h_zero and balanced:
        state[0] = brentq(lambda d: _transcribed_power(d, *state[2:], p, flags) - 0.7,
                          1e-9, math.pi / 2 - 1e-9, xtol=1e-15)
    state[4:] = _transcribed_stator(state[0], *state[2:], p, flags)[2:]
    return state


class TestRhs:
    def test_reference_speed_freezes_angle(self):
        s = np.array(INITIAL_STATE)
        s[1] = OMEGA_0
        d, _ = rhs(s, NOM)
        assert d[0] == 0.0

    def test_against_second_transcription(self):
        state = np.array(INITIAL_STATE)
        d, res = rhs(INITIAL_STATE, NOM)
        want = _transcribed_rhs(state, NOM.to_array())
        np.testing.assert_allclose(d, want, rtol=1e-12)
        assert res["power_balance"] == pytest.approx(
            0.7 - _transcribed_power(*state[[0, 2, 3, 4, 5]], NOM.to_array(), LimitFlags()))

    def test_random_states_match_transcription(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            arr = rng.uniform(0.1, 2.0, 6)
            d, _ = rhs(arr, NOM)
            np.testing.assert_allclose(d, _transcribed_rhs(arr, NOM.to_array()),
                                       rtol=1e-12)


class TestLimitFlags:
    def test_h_zero_requires_d_zero(self):
        with pytest.raises(DomainError, match="h_zero requires d_zero"):
            LimitFlags(h_zero=True)
        # any other combination is valid, in any order of the chain
        LimitFlags(d_zero=True, tdpp_zero=True)
        LimitFlags(d_zero=True, h_zero=True, dx1_zero=True)

    def test_active_params_shrink_along_chain(self):
        assert LimitFlags.first(0).active_params() == PARAM_NAMES
        assert LimitFlags.first(1).active_params() == tuple(
            n for n in PARAM_NAMES if n != "D")
        assert LimitFlags.all().active_params() == ("dx2", "dx3", "dx4", "xdpp",
                                                    "dTd", "dTq")

    def test_dynamic_states(self):
        assert LimitFlags.first(1).dynamic_states() == STATE_NAMES
        assert LimitFlags.first(2).dynamic_states() == ("eq1", "ed1", "eq2", "ed2")
        assert LimitFlags.all().dynamic_states() == ("eq1", "ed1")
        assert LimitFlags(tdpp_zero=True).dynamic_states() == (
            "delta", "omega", "eq1", "ed1", "ed2")


def _valid_flag_sets():
    valid = []
    for bits in itertools.product((False, True), repeat=len(LIMIT_CHAIN)):
        try:
            valid.append(LimitFlags(**dict(zip(LIMIT_CHAIN, bits))))
        except DomainError:
            pass
    return valid


VALID_FLAGS = _valid_flag_sets()


def _flags_id(flags):
    return "+".join(nm for nm in LIMIT_CHAIN if getattr(flags, nm)) or "none"


class TestEveryFlagSet:
    """Each flag set that passes validation has one consistent state layout."""

    def test_all_but_h_zero_without_d_zero_are_valid(self):
        assert len(VALID_FLAGS) == 24

    @pytest.mark.parametrize("flags", VALID_FLAGS, ids=_flags_id)
    def test_rates_outputs_and_slaved_emfs(self, flags):
        traj = integrate(NOM, flags)
        y = observe(traj)
        assert np.all(np.isfinite(y))
        # each rate sits in its own state's slot: compare with the transcription at
        # the consistent start state, with the flagged parameters at their limits
        start = traj.at([0.0])[0, 0]
        names = flags.dynamic_states()
        d, _ = rhs(start, NOM, flags)
        assert d.shape == (len(names),) and np.all(np.isfinite(d))
        p = _at_limits(flags)
        want = _transcribed_rhs(start, p)
        np.testing.assert_allclose(d, [want[STATE_NAMES.index(nm)] for nm in names],
                                   rtol=1e-9, atol=1e-12)
        # and at random states away from it
        rng = np.random.default_rng(17)
        for _ in range(10):
            state = _random_state(rng, p, flags)
            d, _ = rhs(state, NOM, flags)
            want = _transcribed_rhs(state, p)
            np.testing.assert_allclose(d, [want[STATE_NAMES.index(nm)] for nm in names],
                                       rtol=1e-12, atol=1e-12)
        # slaved EMFs follow the stator's closed forms at every output time
        b = _bare(NOM)
        s = traj.at(np.linspace(0.0, 5.0, 11))[0]
        delta, eq1, ed1 = s[:, 0], s[:, 2], s[:, 3]
        if flags.tdpp_zero:
            eq2 = (b["x_d2"] * eq1 + (b["x_d1"] - b["x_d2"]) * 1.09 * np.cos(delta)) / b["x_d1"]
            np.testing.assert_allclose(s[:, 4], eq2, rtol=1e-12)
        if flags.tqpp_zero:
            ed2 = (b["x_q2"] * ed1 + (b["x_q1"] - b["x_q2"]) * 1.09 * np.sin(delta)) / b["x_q1"]
            np.testing.assert_allclose(s[:, 5], ed2, rtol=1e-12)

    @pytest.mark.parametrize("flags", VALID_FLAGS, ids=_flags_id)
    def test_zero_span_starts_where_a_run_does(self, flags):
        # the consistent start (angle on the power balance, EMFs slaved), not the raw ics
        np.testing.assert_array_equal(integrate(NOM, flags, t_end=0.0).at([0.0]),
                                      integrate(NOM, flags).at([0.0]))

    @pytest.mark.parametrize("flags", [f for f in VALID_FLAGS if f.h_zero], ids=_flags_id)
    def test_angle_rate_is_the_implicit_function_derivative(self, flags):
        # d(delta)/dt = -(dP/dx . dx/dt) / (dP/d(delta)), both partials by complex step
        p = _at_limits(flags)
        b = generator._bare_arrays(NOM.to_array()[None, :], flags)
        names = ("delta",) + flags.dynamic_states()
        h = 1e-30
        rng = np.random.default_rng(23)
        for _ in range(10):
            # off the power balance too: the rate formula holds at any angle
            state = _random_state(rng, p, flags, balanced=False)
            y = state[[STATE_NAMES.index(nm) for nm in names]].reshape(-1, 1, 1)
            rate = generator._rhs_kernel(y, b, flags)[0][0, 0, 0]
            delta, x = state[0], state[2:]
            xdot = np.array(_transcribed_rhs(state, p)[2:])
            dP_delta = _transcribed_power(delta + 1j * h, *x, p, flags).imag / h
            dP_x = _transcribed_power(delta, *(x + 1j * h * xdot), p, flags).imag / h
            np.testing.assert_allclose(rate, -dP_x / dP_delta, rtol=1e-10)


class TestIntegrate:
    def test_decay_toward_equilibrium(self, nominal_trajectory):
        tt = np.linspace(3, 5, 801)
        delta = nominal_trajectory.at(tt)[0, :, 0]
        early = np.ptp(delta[tt <= 4])
        late = np.ptp(delta[tt >= 4])
        assert late < early

    def test_zero_span_returns_initial_state(self):
        traj = integrate(NOM, t_end=0.0)
        np.testing.assert_array_equal(traj.at([0.0])[0, 0], INITIAL_STATE)

    def test_no_times_give_no_states(self):
        assert integrate(NOM, t_end=0.5).at([]).shape == (1, 0, 6)

    def test_tolerance_refinement(self, nominal_trajectory):
        y1 = observe(nominal_trajectory)
        fine = integrate(NOM, rtol=5e-8, atol=5e-8)
        y2 = observe(fine)
        scale = np.abs(y1).max()
        assert np.abs(y1 - y2).max() / scale < 1e-6

    def test_d_regular_limit(self):
        tiny_d = IndependentParams(**{**NOM.__dict__, "D": 1e-8})
        y_tiny = observe(integrate(tiny_d))
        y_zero = observe(integrate(NOM, LimitFlags(d_zero=True)))
        assert np.abs(y_tiny - y_zero).max() < 1e-6  # tol 1e-7 x 10

    def test_negative_param_rejected(self):
        with pytest.raises(DomainError):
            integrate(NOM, ics=INITIAL_STATE, t_end=-1.0)

    @pytest.mark.parametrize("rtol", [0.0, -1e-7, 1e-15], ids=["zero", "negative", "below-floor"])
    @pytest.mark.parametrize("batch", [False, True], ids=["integrate", "integrate_batch"])
    def test_tolerance_not_positive_rejected_before_solving(self, monkeypatch, batch, rtol):
        # the stepper takes an rtol as given, where scipy's RK45 would silently
        # raise one below 100 machine epsilons to that floor
        def solve(*args, **kwargs):
            raise AssertionError("the model was solved")

        monkeypatch.setattr(generator, "solve", solve)
        with pytest.raises(DomainError, match="must be finite and positive"):
            if batch:
                generator.integrate_batch(NOM.to_array()[None, :], rtol=rtol)
            else:
                integrate(NOM, rtol=rtol)

    @pytest.mark.parametrize("ics", [INITIAL_STATE[:5], INITIAL_STATE + (0.0,),
                                     (math.nan,) + INITIAL_STATE[1:]],
                             ids=["five", "seven", "nan"])
    def test_initial_state_must_be_six_finite_values(self, ics):
        with pytest.raises(DomainError, match="6 finite states"):
            integrate(NOM, ics=ics)

    @pytest.mark.parametrize("name, zeros, flags", [
        ("H", ("H",), LimitFlags()),
        ("Tdpp", ("Tdpp",), LimitFlags(d_zero=True)),
        ("Tqpp", ("Tqpp",), LimitFlags(tdpp_zero=True)),
        ("xdpp", ("xdpp",), LimitFlags()),
        ("xdpp", ("xdpp",), LimitFlags.all()),
        ("T'_d0", ("Tdpp", "dTd"), LimitFlags(tdpp_zero=True)),
        ("T'_q0", ("Tqpp", "dTq"), LimitFlags.all()),
    ], ids=["H", "Tdpp", "Tqpp", "xdpp", "xdpp-all", "Td0p", "Tq0p"])
    def test_zero_denominator_rejected(self, name, zeros, flags):
        p = IndependentParams(**{**NOM.__dict__, **dict.fromkeys(zeros, 0.0)})
        with pytest.raises(DomainError, match=re.escape(name)):
            integrate(p, flags)


class TestObserve:
    def test_grid_size_and_vector_length(self, nominal_trajectory):
        grid = ObservationGrid()
        assert len(grid.times()) == 101
        assert observe(nominal_trajectory, grid).shape == (606,)

    def test_time_major_stacking(self, nominal_trajectory):
        grid = ObservationGrid()
        y = observe(nominal_trajectory, grid)
        states = nominal_trajectory.at(grid.times())[0]
        np.testing.assert_array_equal(y[:6], states[0])
        np.testing.assert_array_equal(y[6:12], states[1])

    def test_constant_trajectory_repeats_block(self):
        traj = integrate(NOM, t_end=0.0)
        grid = ObservationGrid(0.0, 0.0 + 1e-9, 1e-9)
        # degenerate one-point span not allowed; use the zero-span evaluator directly
        y = traj.at(np.zeros(4))
        assert np.all(y[0] == y[0, 0])

    def test_matches_dense_output_reevaluation(self, nominal_trajectory):
        grid = ObservationGrid()
        y = observe(nominal_trajectory, grid)
        again = nominal_trajectory.at(grid.times())[0].reshape(-1)
        np.testing.assert_array_equal(y, again)

    def test_grid_outside_span_rejected(self, nominal_trajectory):
        with pytest.raises(DomainError):
            observe(nominal_trajectory, ObservationGrid(3.0, 6.0, 0.02))


class TestReducedModel:
    def test_power_balance_enforced_when_inertia_removed(self):
        traj = integrate(NOM, LimitFlags.first(2))
        t = np.linspace(0.5, 5.0, 7)
        states = traj.at(t)[0]
        for row in states:
            # P_m - P_g at the output state, its angle taken as given (no limits)
            assert rhs(row, NOM)[1]["power_balance"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("flags", [LimitFlags.first(2), LimitFlags.all()],
                             ids=["first2", "all"])
    def test_speed_is_the_rate_of_the_solved_angle(self, flags):
        traj = integrate(NOM, flags)
        assert traj.at([0.0])[0, 0, 1] == INITIAL_STATE[1]
        t = np.linspace(0.1, 4.9, 25)
        h = 1e-4
        omega = traj.at(t)[0, :, 1]
        rate = (traj.at(t + h)[0, :, 0] - traj.at(t - h)[0, :, 0]) / (2 * h)
        np.testing.assert_allclose(omega - omega[0],
                                   (rate - rate[0]) / OMEGA_B,
                                   rtol=0, atol=1e-7)

    @pytest.mark.parametrize("flags", [LimitFlags.first(2), LimitFlags.all()],
                             ids=["first2", "all"])
    def test_angle_is_not_solved_per_step(self, flags, monkeypatch):
        calls = []
        solve = generator.solve_power_angle

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(generator, "solve_power_angle", counted)
        traj = integrate(NOM, flags)
        observe(traj)
        assert len(traj.times) > 50
        assert len(calls) <= 3, f"{len(calls)} angle solves for {len(traj.times)} steps"

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_outputs_converge_to_a_tight_solve(self, n):
        flags = LimitFlags.first(n)
        tight = observe(integrate(NOM, flags, rtol=1e-12, atol=1e-12))
        for r in (1e-7, 1e-9):
            err = np.abs(observe(integrate(NOM, flags, rtol=r, atol=r)) - tight).max()
            assert err <= 10 * r, f"rtol {r:g}: max abs error {err:.3e}"

    def test_rhs_covers_the_emf_states_at_power_balance(self):
        d, res = rhs(INITIAL_STATE, NOM, LimitFlags.first(2))
        assert d.shape == (4,)
        assert abs(res["power_balance"]) < 1e-12
