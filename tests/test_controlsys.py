import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from hamforge.controlsys import (
    Channel,
    CircuitModel,
    ControlSequence,
    DiscretizedField,
    IdealModel,
    LinearKernelModel,
    UnknownParameter,
    drive_groups,
    field_axes,
    field_operators,
)
from hamforge.config import parse_config
import _oracles as orc
from test_cli import _config_1q

XY = (Channel("ax", (1,), "x", 1.0), Channel("ay", (1,), "y", 1.0))
XY10 = (Channel("ax", (1,), "x", 10.0), Channel("ay", (1,), "y", 10.0))


def polar_channels(w1max=2 * np.pi * 20e6):
    return (Channel("amp", (1,), "amp", w1max), Channel("ph", (1,), "phase", np.pi))


def test_sequence_validation():
    with pytest.raises(ValueError):
        ControlSequence(np.array([[1.5]]), 1e-8, (XY[0],))
    with pytest.raises(ValueError):
        ControlSequence(np.zeros((2, 3)), -1e-8, XY)
    with pytest.raises(ValueError):
        ControlSequence(np.zeros((1, 3)), 1e-8, XY)


def test_ideal_passthrough():
    seq = ControlSequence(np.array([[0.5, -0.5], [0.25, 0.0]]), 1e-7, XY)
    fld = IdealModel(1).field(seq)
    assert fld.b.shape[1] == 2
    assert np.allclose(fld.b, seq.values)
    fld3 = IdealModel(3).field(seq)
    assert fld3.b.shape[1] == 6
    assert np.allclose(fld3.b[:, :3], np.repeat(seq.values[:, :1], 3, axis=1))
    assert fld3.b.shape[1] * fld3.delta_t == pytest.approx(seq.t_seq)


def test_ideal_polar_conversion():
    ch = polar_channels()
    vals = np.array([[0.5], [0.5]])  # w1 = 0.5 scale, phase = pi/2
    seq = ControlSequence(vals, 1e-8, ch)
    fld = IdealModel().field(seq)
    w1 = 0.5 * ch[0].scale
    assert fld.b[0, 0] == pytest.approx(w1 * np.cos(np.pi / 2), abs=1e-6)
    assert fld.b[1, 0] == pytest.approx(w1 * np.sin(np.pi / 2))


def test_kernel_step_response():
    w = 2 * np.pi * 80e6
    ch = polar_channels()
    p_int = 20
    dt = 0.5 / w
    vals = np.zeros((2, p_int))
    vals[0] = 1.0
    seq = ControlSequence(vals, dt, ch)
    fld = LinearKernelModel(w, 0.0, 16).field(seq)
    q = int(round((1.0 / w) / fld.delta_t - 0.5))
    t_mid = (q + 0.5) * fld.delta_t
    w1 = ch[0].scale
    expect = w1 * (1 - np.exp(-w * t_mid))
    assert fld.b[0, q] == pytest.approx(expect, rel=1e-10)
    assert np.abs(fld.b[1]).max() == 0.0  # phase response vanishes at delta=0


def test_kernel_zero_input_and_linearity():
    w = 2 * np.pi * 80e6
    ch = XY
    dt = 0.05 / w
    rng = np.random.default_rng(0)
    va = rng.uniform(-0.5, 0.5, (2, 8))
    vb = rng.uniform(-0.4, 0.4, (2, 8))
    model = LinearKernelModel(w, 0.3 * w, 4)
    fa = model.field(ControlSequence(va, dt, ch)).b
    fb = model.field(ControlSequence(vb, dt, ch)).b
    fab = model.field(ControlSequence(va + vb, dt, ch)).b
    assert np.abs(fa + fb - fab).max() < 1e-10 * max(np.abs(fab).max(), 1)
    fz = model.field(ControlSequence(np.zeros((2, 8)), dt, ch)).b
    assert np.abs(fz).max() == 0.0


def test_kernel_causality():
    w = 2 * np.pi * 80e6
    dt = 0.05 / w
    vals = np.zeros((2, 10))
    vals[0, 5:] = 1.0  # input supported on [5 dt, T]
    fld = LinearKernelModel(w, 0.2 * w, 4).field(
        ControlSequence(vals, dt, XY)
    )
    q_on = 5 * 4
    assert np.abs(fld.b[:, :q_on]).max() < 1e-12


def test_kernel_wide_band_limit():
    # W dt >= 100: output tracks the ideal passthrough after the first
    # interval (substeps chosen to respect the delta_t <= 0.1/W guard)
    ch = XY
    dt = 1e-6
    w = 100.0 / dt
    sub = 1000
    vals = np.array([[0.3, -0.7, 0.5], [0.1, 0.2, -0.4]])
    seq = ControlSequence(vals, dt, ch)
    fld = LinearKernelModel(w, 0.0, sub).field(seq)
    # compare at the interval midpoints, clear of the ~1/W settle transient
    mids = fld.b[:, [k * sub + sub // 2 for k in range(1, 3)]]
    rel = np.abs(mids - vals[:, 1:]).max() / np.abs(vals).max()
    assert rel < 0.02


def test_kernel_resolution_guard():
    w = 2 * np.pi * 80e6
    seq = ControlSequence(np.zeros((2, 4)), 10.0 / w, XY)
    with pytest.raises(ValueError, match="resolution guard"):
        LinearKernelModel(w, 0.0, 1).field(seq)


@pytest.mark.parametrize("w", [0.0, -1.0])
def test_kernel_bandwidth_must_be_positive(w):
    # the parser checks control.kernel.W first; the library holds its own guard
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        LinearKernelModel(w)


def test_kernel_average_vs_midpoint_smooth():
    # interval-average sampling integrates the same response; for smooth
    # output the two agree to O(dt^2) curvature
    w = 2 * np.pi * 80e6
    dt = 0.05 / w
    vals = np.zeros((2, 12))
    vals[0] = 0.8
    seq = ControlSequence(vals, dt, XY)
    mid = LinearKernelModel(w, 0.1 * w, 2).field(seq)
    avg = LinearKernelModel(w, 0.1 * w, 2, average=True).field(seq)
    scale = np.abs(mid.b).max()
    assert np.abs(mid.b - avg.b).max() < 5e-3 * scale
    assert np.abs(mid.b - avg.b).max() > 0  # genuinely different estimators


def test_kernel_delta_sensitivity_is_quadrature():
    # at delta = 0 with a pure-x constant drive the delta-derivative of the
    # field is purely along y: dB/ddelta = -i (1-Wt)e^{-Wt} * u
    w = 2 * np.pi * 80e6
    ch = polar_channels()
    p_int = 16
    dt = 0.4 / w
    vals = np.zeros((2, p_int))
    vals[0] = 1.0
    seq = ControlSequence(vals, dt, ch)
    model = LinearKernelModel(w, 0.0, 8)
    sens = model.field(seq, ("delta",)).sensitivities["delta"]
    assert np.abs(sens[0]).max() < 1e-9 * np.abs(sens[1]).max()
    # analytic check at one grid point
    from scipy.integrate import quad

    fld = model.field(seq)
    q = 40
    t_mid = (q + 0.5) * fld.delta_t
    w1 = ch[0].scale
    conv = quad(lambda tau: (1 - w * tau) * np.exp(-w * tau) * w1, 0, t_mid, limit=200)[0]
    assert sens[1, q] == pytest.approx(-conv, rel=1e-6)


def test_circuit_zero_input():
    seq = ControlSequence(np.zeros((2, 4)), 1e-9, XY)
    fld = CircuitModel(substeps=4).field(seq)
    assert np.abs(fld.b).max() == 0.0
    for alpha_l in (0.0, 1e-3):
        jets = ("alpha_L", "amplitude", ("alpha_L", "alpha_L"), ("alpha_L", "amplitude"))
        sens = CircuitModel(alpha_L=alpha_l, substeps=4).field(seq, jets).sensitivities
        assert sorted(sens, key=str) == sorted(jets, key=str)
        assert all(np.abs(d).max() == 0.0 for d in sens.values())


def test_circuit_steady_state_matches_linear_solve():
    model = CircuitModel(substeps=32)
    p_int = 40
    dt = 20e-9
    vals = np.zeros((2, p_int))
    vals[0] = 0.6
    alpha = 0.6 / model.kappa_i
    x_fin, _ = model._integrate(np.full(p_int, alpha + 0j), dt)
    a0, uvec = model._system()
    xss = -np.linalg.solve(a0, uvec * alpha)   # exact linear steady state (alpha_L = 0)
    assert np.linalg.norm(x_fin - xss) / np.linalg.norm(xss) < 1e-6


def test_circuit_energy_decay_after_input_off():
    model = CircuitModel(substeps=64)
    p_int = 30
    dt = 10e-9
    vals = np.zeros((2, p_int))
    vals[0, :4] = 0.8  # kick, then free ring-down
    seq = ControlSequence(vals, dt, XY)
    _, mids = model._integrate(np.concatenate([np.full(4, 0.8 + 0j), np.zeros(26)]), dt)
    env = np.abs(mids[()][:, 0])
    off = 4 * 64 + 32  # into the free decay, past the drive window
    tail = env[off::32]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))


def test_circuit_sensitivity_matches_finite_difference():
    ch = XY
    p_int = 6
    dt = 2e-9
    rng = np.random.default_rng(1)
    vals = rng.uniform(-0.8, 0.8, (2, p_int))
    seq = ControlSequence(vals, dt, ch)
    model = CircuitModel(substeps=32)
    sens = model.field(seq, ("alpha_L",)).sensitivities["alpha_L"]
    da = 1e-5
    hi = model.with_param("alpha_L", +da).field(seq).b
    lo = model.with_param("alpha_L", -da).field(seq).b
    fd = (hi - lo) / (2 * da)
    assert np.linalg.norm(sens - fd) / np.linalg.norm(fd) < 1e-3


def test_ideal_amplitude_sensitivity_exact():
    seq = ControlSequence(np.array([[0.5, -0.2], [0.3, 0.4]]), 1e-8, XY)
    model = IdealModel()
    sens = model.field(seq, ("amplitude",)).sensitivities["amplitude"]
    assert np.allclose(sens, model.field(seq).b, atol=1e-12)


def test_control_hamiltonians_assembly():
    seq = ControlSequence(np.array([[0.5], [0.25]]), 1e-8, XY)
    fld = IdealModel().field(seq)
    h = np.einsum("kq,kab->qab", fld.b, field_operators(XY, 1))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    assert np.abs(h[0] - (0.5 * sx + 0.25 * sy)).max() < 1e-12


def circuit_oracle(model, alpha_intervals, h_out, n_half):
    """Reference for `CircuitModel._march_linear` and `_march_nonlinear`:
    every half-step of the same schemes stepped one 3-vector at a time.  At alpha_L = 0 it
    also steps the Simpson-forced sensitivity and the stepper's alpha_L
    jets s, w (d2x/dalpha_L2 = 2 w) by the recursions in the model's
    docstring."""
    p = model
    a0, uvec = model._system()
    hh = h_out / n_half
    eye = np.eye(3)
    e = expm(a0 * hh)
    e_q = expm(a0 * hh / 2)
    ainv = np.linalg.inv(a0)
    psi1 = ainv @ (e - eye)
    psi2 = psi1 + (ainv @ psi1) / hh - ainv @ e
    fvec = psi1 @ uvec
    fvec_q = (ainv @ (e_q - eye)) @ uvec
    nonlinear = p.alpha_L != 0.0
    unit = np.array([1.0, 0.0, 0.0])

    def v(xv):
        return (p.r_series * xv[0] - xv[2]) / p.l_0

    def sens_force(xv):  # G(x)
        return abs(xv[0]) ** 2 * v(xv) * unit

    def sens_force2(xv, sv):  # G2(x, s)
        q2 = abs(xv[0]) ** 2
        return (2 * (xv[0].conjugate() * sv[0]).real * v(xv) + q2 * v(sv) - q2 * q2 * v(xv)) * unit

    def nl_force(xv):
        q2 = abs(xv[0]) ** 2
        dinv = -p.alpha_L * q2 / (p.l_0 * (1.0 + p.alpha_L * q2))
        return np.array([dinv * (-p.r_series * xv[0] + xv[2]), 0.0, 0.0], dtype=complex)

    q_out = alpha_intervals.size * model.substeps
    mids = {k: np.zeros((q_out, 3), dtype=complex) for k in ((), "alpha_L", ("alpha_L", "alpha_L"))}
    x, s, sj, w = (np.zeros(3, dtype=complex) for _ in range(4))
    k_out = 0
    for al in alpha_intervals:
        for _ in range(model.substeps):
            for j in range(n_half):
                if nonlinear:
                    f0 = nl_force(x)
                    x_pred = e @ x + fvec * al + psi1 @ f0
                    f1 = nl_force(x_pred)
                    x = e @ x + fvec * al + psi1 @ f0 + psi2 @ (f1 - f0)
                else:
                    x_mid = e_q @ x + fvec_q * al
                    x_new = e @ x + fvec * al
                    simpson = (hh / 6.0) * (
                        e @ sens_force(x)
                        + 4.0 * (e_q @ sens_force(x_mid))
                        + sens_force(x_new)
                    )
                    s = e @ s + simpson
                    sj_pred = e @ sj + psi1 @ sens_force(x)
                    w = (e @ w + (psi1 - psi2) @ sens_force2(x, sj)
                         + psi2 @ sens_force2(x_new, sj_pred))
                    sj = e @ sj + (psi1 - psi2) @ sens_force(x) + psi2 @ sens_force(x_new)
                    x = x_new
                if j + 1 == n_half // 2:
                    for key, val in zip(mids, (x, s, 2 * w)):
                        mids[key][k_out] = val
            if not np.isfinite(x).all():
                raise FloatingPointError("circuit state diverged")
            k_out += 1
    return x, mids if not nonlinear else {(): mids[()]}


@st.composite
def circuit_runs(draw):
    p_int = draw(st.integers(1, 8))
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * p_int, max_size=2 * p_int))
    substeps = draw(st.sampled_from([1, 2, 4, 16]))
    n_half = draw(st.sampled_from([2, 4]))
    return np.reshape(vals, (2, p_int)), substeps, n_half


@pytest.mark.parametrize("alpha_l", [0.0, 1e-7, -1e-7, 1e-3])
@given(run=circuit_runs())
@settings(max_examples=15, deadline=None)
def test_circuit_integrator_matches_half_step_oracle(alpha_l, run):
    vals, substeps, n_half = run
    model = CircuitModel(alpha_L=alpha_l, substeps=substeps)
    seq = ControlSequence(vals, 1e-8, XY10)
    alpha = model._alpha_in(seq)
    args = (alpha, seq.dt / substeps, n_half)
    x_ref, ref = circuit_oracle(model, *args)
    march = model._march_linear if model.drive_linear else model._march_nonlinear
    x, got = march(*args, set(ref) - {()})
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    assert got.keys() == ref.keys()
    for key, r in ref.items():
        assert got[key].shape == r.shape, key
        assert np.abs(got[key] - r).max() <= 1e-12 * np.abs(r).max(), key


@pytest.mark.parametrize("substeps", [40, 48, 128, 256])
def test_fine_substeps_match_the_half_step_oracle(substeps):
    # an interval of more than _BLOCK_STEPS half-steps takes several blocks,
    # each a divisor of the interval: 2 of 20 substeps at 40 (where a block of
    # 32 would straddle an interval), 2 of 24 at 48, 4 and 8 of 32
    model = CircuitModel(substeps=substeps)
    seq = circuit_drive(p_int=3)
    args = (model._alpha_in(seq), seq.dt / substeps, 2)
    x_ref, ref = circuit_oracle(model, *args)
    x, got = model._march_linear(*args, set(ref) - {()})
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    for key, r in ref.items():
        assert got[key].shape == r.shape == (3 * substeps, 3), key
        assert np.abs(got[key] - r).max() <= 1e-12 * np.abs(r).max(), key


def test_fine_substeps_keep_the_constants_of_one_block():
    # E^0..E^b and T_b over at most _BLOCK_STEPS half-steps, however many
    # substeps an interval takes: under 1 MB per cache entry
    import hamforge.controlsys as cs

    for substeps in (16, 128, 256):
        k = CircuitModel(substeps=substeps)._half_step(1e-8 / substeps, 2)
        assert len(k.epow) == min(2 * substeps, cs._BLOCK_STEPS) + 1
        assert sum(a.nbytes for a in vars(k).values() if isinstance(a, np.ndarray)) <= 1e6


def test_circuit_step_halving_is_logged(monkeypatch, caplog):
    real = CircuitModel._march_nonlinear
    n_halves = []

    def diverge_once(self, alpha, h_out, n_half, jets):
        n_halves.append(n_half)
        if len(n_halves) == 1:
            raise FloatingPointError("forced")
        return real(self, alpha, h_out, n_half, jets)

    monkeypatch.setattr(CircuitModel, "_march_nonlinear", diverge_once)
    seq = ControlSequence(np.full((2, 3), 0.5), 1e-8, XY10)
    with caplog.at_level(logging.WARNING, logger="hamforge"):
        # the nonlinear path retries; the linear one raises at once (below)
        CircuitModel(alpha_L=1e-7, substeps=4).field(seq)
    assert n_halves == [2, 4]
    [rec] = caplog.records
    assert rec.name == "hamforge" and rec.levelno == logging.WARNING
    assert "retry 1 of 5" in rec.getMessage()
    assert f"{seq.dt / 4 / 4:.3e} s" in rec.getMessage()


def counted_attempts(monkeypatch) -> list:
    """The n_half of every `_march_nonlinear` call, which still runs."""
    real = CircuitModel._march_nonlinear
    n_halves = []

    def counted(self, alpha, h_out, n_half, jets):
        n_halves.append(n_half)
        return real(self, alpha, h_out, n_half, jets)

    monkeypatch.setattr(CircuitModel, "_march_nonlinear", counted)
    return n_halves


def test_circuit_nonlinear_path_gives_up_after_six_attempts(monkeypatch, caplog):
    # a drive of ~1e305 (kappa_i = 1e-305) overflows the state at every
    # internal step size: six attempts, five logged retries, then the raise
    n_halves = counted_attempts(monkeypatch)
    model = CircuitModel(alpha_L=1e-7, kappa_i=1e-305, substeps=4)
    seq = ControlSequence(np.full((2, 3), 0.5), 1e-8, XY10)
    with np.errstate(all="ignore"), caplog.at_level(logging.WARNING, logger="hamforge"):
        with pytest.raises(RuntimeError, match=r"^circuit integration unstable after 6 attempt\(s\)$"):
            model.field(seq)
    assert n_halves == [2, 4, 8, 16, 32, 64]
    assert [r.levelno for r in caplog.records] == [logging.WARNING] * 5
    for attempt, (rec, n_half) in enumerate(zip(caplog.records, n_halves[1:]), 1):
        assert f"retry {attempt} of 5" in rec.getMessage()
        assert f"{seq.dt / 4 / n_half:.3e} s" in rec.getMessage()


def test_circuit_derivatives_that_overflow_raise(monkeypatch):
    # at kappa_i = 1e-100 the state stays near 1e100 A, finite at every step
    # size, while its alpha_L derivative, ~|I_L|^3 at alpha_L = 1e-300, overflows
    model = CircuitModel(alpha_L=1e-300, kappa_i=1e-100, substeps=4)
    seq = ControlSequence(np.full((2, 3), 0.5), 1e-8, XY10)
    alpha, h = model._alpha_in(seq), seq.dt / 4
    with np.errstate(all="ignore"):
        x, mids = model._march_nonlinear(alpha, h, 2, set())
        assert np.isfinite(x).all() and np.isfinite(mids[()]).all()
        for n_half in (2, 4, 8, 16, 32, 64):
            with pytest.raises(FloatingPointError, match="circuit derivatives diverged"):
                model._march_nonlinear(alpha, h, n_half, {"alpha_L"})
        n_halves = counted_attempts(monkeypatch)
        with pytest.raises(RuntimeError, match=r"unstable after 6 attempt\(s\)"):
            model.field(seq, ["alpha_L"])
    assert n_halves == [2, 4, 8, 16, 32, 64]


def test_circuit_current_whose_modulus_overflows_is_retried(caplog):
    # tuned to resonance, the circuit's current reaches 1.04 times the drive
    # over a long step; at a drive of 2e308 the first predicted current has
    # finite parts of 1.47e308 and a modulus past the largest float, so
    # abs() raises OverflowError, which diverges the step and retries it
    model = CircuitModel(alpha_L=1e-7, omega_r=2 * np.pi * 10e9 + 4.7e8, kappa_i=5e-308, substeps=1)
    phi = np.radians(49.3)
    seq = ControlSequence(np.array([[np.cos(phi)] * 2, [np.sin(phi)] * 2]), 1e-5, XY10)
    alpha = model._alpha_in(seq)
    current = complex(model._half_step(seq.dt, 2).fvec[0]) * complex(alpha[0])
    assert np.isfinite([current.real, current.imag]).all()
    with pytest.raises(OverflowError):
        abs(current)
    with pytest.raises(FloatingPointError, match="circuit state diverged") as info:
        model._march_nonlinear(alpha, seq.dt, 2, set())
    assert isinstance(info.value.__cause__, OverflowError)
    with caplog.at_level(logging.WARNING, logger="hamforge"):
        with pytest.raises(RuntimeError, match=r"unstable after 6 attempt\(s\)"):
            model.field(seq)
    assert "retry 1 of 5" in caplog.records[0].getMessage()


@pytest.mark.parametrize("kappa_i", [1e-320, 1e-305])
def test_circuit_linear_path_raises_at_once_on_a_non_finite_field(kappa_i, caplog):
    # at alpha_L = 0 the step is exact, so a shorter one cannot cure an
    # infinite drive (1e-320) or a field that overflows (1e-305): no retry
    import hamforge.controlsys as cs

    cs._step_constants.cache_clear()
    model = CircuitModel(kappa_i=kappa_i, substeps=4)
    seq = ControlSequence(np.full((2, 6), 0.5), 1e-8, XY10)
    # numpy's default floating-point handling, which the test settings make strict
    with np.errstate(all="ignore"), caplog.at_level(logging.WARNING, logger="hamforge"):
        with pytest.raises(RuntimeError, match="circuit integration unstable"):
            model.field(seq, ["alpha_L", ("alpha_L", "alpha_L")])
    assert not caplog.records
    assert cs._step_constants.cache_info().misses == 1   # the constants of one n_half


@pytest.mark.parametrize("alpha_l", [-0.03, -1.0])
def test_circuit_negative_inductance_raises(alpha_l, caplog):
    # at full drive 1 + alpha_L |I_L|^2 crosses zero; step-halving cannot
    # cure that, so the error is a ValueError raised without any retry
    seq = ControlSequence(np.ones((2, 4)), 1e-8, XY10)
    with caplog.at_level(logging.WARNING, logger="hamforge"):
        with pytest.raises(ValueError, match=r"alpha_L = .*\|I_L\|\^2 = "):
            CircuitModel(alpha_L=alpha_l, substeps=4).field(seq)
    assert not caplog.records
    # the robustness shift of the same drive stays well inside the model
    fld = CircuitModel(alpha_L=-1e-7, substeps=4).field(seq)
    assert np.isfinite(fld.b).all()


def test_circuit_corrector_that_outgrows_its_predictor_is_retried(caplog):
    # at 4 substeps the explicit step is unstable at alpha_L = 1e-2 yet stays
    # finite (max|b| ~ 5e56); the corrector check halves the step twice, and
    # the field then agrees with the one at 16 substeps
    from hamforge import evaluate as ev

    seq = ControlSequence(np.random.default_rng(0).uniform(-1, 1, (2, 4)), 1e-8, XY10)
    with caplog.at_level(logging.WARNING, logger="hamforge"):
        fld = CircuitModel(alpha_L=1e-2, substeps=4).field(seq)
    msgs = [r.getMessage() for r in caplog.records]
    assert len(msgs) == 2 and "retry 1 of 5" in msgs[0] and "retry 2 of 5" in msgs[1]
    fine = CircuitModel(alpha_L=1e-2, substeps=16).field(seq)
    assert np.isfinite(fld.b).all()
    assert abs(np.abs(fld.b).max() / np.abs(fine.b).max() - 1.0) <= 0.25
    setup = ev.EvaluationSetup(
        n_qubits=1, model=CircuitModel(alpha_L=1e-2, substeps=4), term_names=("offset",),
        term_mats=np.zeros((1, 2, 2), complex), term_coeffs=np.zeros(1), distributions=(),
    )
    assert np.isfinite(ev.evaluation_report(seq, setup, np.eye(2), 4, 0)["fom"])


# ---------------------------------------------------------------------------
# field derivatives against central differences of re-parametrized models

def shifted(model, name, t):
    return model.with_param(name, model.params()[name] + t)


def central_first(model, seq, name, h):
    return (shifted(model, name, h).field(seq).b - shifted(model, name, -h).field(seq).b) / (2 * h)


def central_second(model, seq, n1, n2, h1, h2):
    if n1 == n2:
        hi = shifted(model, n1, h1).field(seq).b
        lo = shifted(model, n1, -h1).field(seq).b
        return (hi - 2 * model.field(seq).b + lo) / h1 ** 2

    def b(t1, t2):
        return shifted(shifted(model, n1, t1), n2, t2).field(seq).b

    return (b(h1, h2) - b(h1, -h2) - b(-h1, h2) + b(-h1, -h2)) / (4 * h1 * h2)


def richardson(diff, h):
    """Central differences at h, h/2, h/4 with their h^2 and h^4 error
    terms eliminated."""
    d = [diff(h / 2 ** k) for k in range(3)]
    r = [(4 * d[k + 1] - d[k]) / 3 for k in range(2)]
    return (16 * r[1] - r[0]) / 15


def oracle(model, seq, key, steps):
    """Richardson-extrapolated central difference for a jet key; steps
    maps each parameter to its largest difference step."""
    names = (key,) if isinstance(key, str) else key
    if len(names) == 1:
        return richardson(lambda h: central_first(model, seq, key, h), steps[key])
    n1, n2 = names
    r = steps[n2] / steps[n1]
    return richardson(lambda h: central_second(model, seq, n1, n2, h, h * r), steps[n1])


def assert_jets_match_oracle(model, seq, keys, steps, rtol):
    sens = model.field(seq, keys).sensitivities
    for key in keys:
        ref = oracle(model, seq, key, steps)
        scale = np.abs(ref).max()
        assert scale > 0, key
        assert np.abs(sens[key] - ref).max() <= rtol * scale, key


def circuit_drive(p_int=6, seed=4):
    vals = np.random.default_rng(seed).uniform(-1, 1, (2, p_int))
    return ControlSequence(vals, 1e-8, XY10)


CIRCUIT_STEPS = {"alpha_L": 1e-5, "amplitude": 2e-3}


def test_circuit_second_alpha_derivative_matches_oracle_at_zero():
    # the stepper's d2b/dalpha_L2 on the linear path against second
    # differences of nonlinear solves at alpha_L = +-h
    model = CircuitModel(substeps=4)
    assert_jets_match_oracle(model, circuit_drive(), [("alpha_L", "alpha_L")], CIRCUIT_STEPS, 1e-8)


def test_circuit_mixed_derivative_is_cubic_in_the_drive():
    # at alpha_L = 0 the alpha_L channel is cubic in the drive, so its
    # derivative along the relative drive error is three times itself
    model = CircuitModel(substeps=4)
    seq = circuit_drive()
    sens = model.field(seq, ["alpha_L", ("amplitude", "alpha_L"), "amplitude"]).sensitivities
    assert np.abs(sens[("alpha_L", "amplitude")] - 3 * sens["alpha_L"]).max() == 0.0
    assert np.abs(sens["amplitude"] - model.field(seq).b).max() == 0.0

    def channel(h):
        def at(t):
            return shifted(model, "amplitude", t).field(seq, ["alpha_L"]).sensitivities["alpha_L"]
        return (at(h) - at(-h)) / (2 * h)

    ref = richardson(channel, 1e-3)
    assert np.abs(sens[("alpha_L", "amplitude")] - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("alpha_l", [1e-3, -5e-3])
def test_circuit_nonlinear_jets_match_oracle(alpha_l):
    model = CircuitModel(alpha_L=alpha_l, substeps=4)
    keys = [
        "alpha_L",
        "amplitude",
        ("alpha_L", "alpha_L"),
        ("alpha_L", "amplitude"),
        ("amplitude", "amplitude"),
    ]
    assert_jets_match_oracle(model, circuit_drive(), keys, CIRCUIT_STEPS, 1e-7)


def test_circuit_stepper_jet_converges_with_the_internal_step():
    # the stepper is second order, so its own alpha_L derivative is within
    # O(hh^2) of the converged one: x16 smaller per 4x finer half-step
    model = CircuitModel(alpha_L=1e-7, substeps=16)
    seq = circuit_drive(8, seed=7)
    alpha = model._alpha_in(seq)
    h = seq.dt / model.substeps
    sens = {n: model._march_nonlinear(alpha, h, n, {"alpha_L"})[1]["alpha_L"] for n in (2, 8, 32)}
    err = {n: np.abs(sens[n] - sens[32]).max() / np.abs(sens[32]).max() for n in (2, 8)}
    assert err[2] < 3e-3
    assert err[8] < err[2] / 12


KERNEL_W = 2 * np.pi * 80e6


def kernel_drive(channels, seed=2, p_int=6):
    vals = np.random.default_rng(seed).uniform(-1, 1, (len(channels), p_int))
    return ControlSequence(vals, 0.4 / KERNEL_W, channels)


@pytest.mark.parametrize("average", [False, True])
def test_kernel_jets_match_oracle(average):
    chans = tuple(Channel(f"a{r}", (1,), r, 2 * np.pi * 5e6) for r in "xyz")
    model = LinearKernelModel(KERNEL_W, 0.3 * KERNEL_W, 8, average=average)
    seq = kernel_drive(chans)
    keys = ["W", "delta", ("W", "W"), ("W", "delta"), ("W", "amplitude")]
    steps = {"W": 1e-2 * KERNEL_W, "delta": 1e-2 * KERNEL_W, "amplitude": 1e-2}
    assert_jets_match_oracle(model, seq, keys, steps, 1e-8)
    sens = model.field(seq, [("delta", "delta"), "amplitude"]).sensitivities
    assert np.abs(sens[("delta", "delta")]).max() == 0.0  # B is affine in delta
    assert np.abs(sens["amplitude"] - model.field(seq).b).max() == 0.0


def test_kernel_bandwidth_sensitivity_is_quadrature():
    # constant x drive: dB/dW(t) = w1 int_0^t dkappa/dW, with
    # dkappa/dW = [1 + i d t - t (W - i d (1 - W t))] e^{-W t}
    from scipy.integrate import quad

    w, d = KERNEL_W, 0.3 * KERNEL_W
    ch = polar_channels()
    vals = np.zeros((2, 16))
    vals[0] = 1.0
    seq = ControlSequence(vals, 0.4 / w, ch)
    fld = LinearKernelModel(w, d, 8).field(seq, ["W"])
    sens = fld.sensitivities["W"]
    q = 40
    t_mid = (q + 0.5) * fld.delta_t

    def dkappa(t):
        return (1 + 1j * d * t - t * (w - 1j * d * (1 - w * t))) * np.exp(-w * t) * ch[0].scale

    for row, part in ((0, np.real), (1, np.imag)):
        ref = quad(lambda t: part(dkappa(t)), 0, t_mid, limit=200)[0]
        assert sens[row, q] == pytest.approx(ref, rel=1e-8)


def test_kernel_drive_factor_scales_z_rows():
    # 1 + amplitude multiplies every row, as in IdealModel, so the amplitude
    # error's dH = eps H_c is the derivative of what evaluate disperses
    chans = tuple(Channel(f"a{r}", (1,), r, 2 * np.pi * 5e6) for r in "xyz")
    seq = kernel_drive(chans)
    base = LinearKernelModel(KERNEL_W, 0.1 * KERNEL_W, 8)
    b1 = base.field(seq).b
    b13 = base.with_param("amplitude", 0.3).field(seq).b
    assert np.abs(b13 - 1.3 * b1).max() <= 1e-12 * np.abs(b1).max()
    assert base.drive_linear


# each model's parameters and their natural scales; each parameter is the
# model field of its name, in the library and in the problem file
_TABLES = {
    "ideal": (IdealModel(), {"amplitude": 1.0}),
    "kernel": (LinearKernelModel(KERNEL_W, 0.1 * KERNEL_W),
               {"W": KERNEL_W, "delta": KERNEL_W, "amplitude": 1.0}),
    "circuit": (CircuitModel(), {"alpha_L": 1e-3, "amplitude": 1.0}),
}


@pytest.mark.parametrize("kind", list(_TABLES))
def test_parameter_table(kind):
    model, scales = _TABLES[kind]
    assert model.params().keys() == scales.keys()
    for name, scale in scales.items():
        value = 0.75 * scale
        copy = model.with_param(name, value)
        assert copy.params() == {**model.params(), name: value} and getattr(copy, name) == value
        assert model.param_scale(name) == scale
        if name != "amplitude":
            # set in the model's section of the file, and varied by an error
            raw = _config_1q()
            section = {"W": model.W} if kind == "kernel" else {}
            raw["control"].update({"model": kind, "dt": 0.4 / KERNEL_W, kind: {**section, name: value}})
            raw["errors"] = [{"name": "e", "kind": "model_param", "param": name}]
            del raw["distributions"]["amp_err"]
            cfg = parse_config(raw)
            assert cfg.model.params()[name] == value and cfg.errors[0]["param"] == name
    with pytest.raises(UnknownParameter, match="'nope'"):
        model.with_param("nope", 1.0)
    with pytest.raises(UnknownParameter, match="'nope'"):
        model.param_scale("nope")


def test_field_rows_follow_field_axes():
    chans = (
        Channel("z1", (1,), "z", 3.0), Channel("x2", (2,), "x", 5.0),
        Channel("a1", (1,), "amp", 2.0), Channel("p1", (1,), "phase", np.pi / 2),
    )
    seq = ControlSequence(np.array([[0.5], [0.25], [1.0], [1.0]]), 1e-9, chans)
    assert field_axes(chans) == (((1,), "x"), ((1,), "y"), ((1,), "z"), ((2,), "x"), ((2,), "y"))
    assert [roles for _, roles in drive_groups(chans)] == [{"z": 0, "amp": 2, "phase": 3}, {"x": 1}]
    assert np.allclose(IdealModel().field(seq).b[:, 0], [0.0, 2.0, 1.5, 1.25, 0.0], atol=1e-15)
    kernel = LinearKernelModel(KERNEL_W, 0.0, 8).field(seq).b
    assert kernel.shape == (5, 8)
    assert np.array_equal(kernel[2], np.full(8, 1.5))   # z rows are not filtered


def test_unknown_jet_parameter_raises():
    seq = circuit_drive()
    with pytest.raises(UnknownParameter, match="W"):
        CircuitModel(substeps=4).field(seq, ["W"])
    with pytest.raises(ValueError, match="second order"):
        IdealModel().field(seq, [("amplitude",) * 3])


@pytest.mark.parametrize("average", [False, True])
def test_kernel_short_substeps_match_mpmath(average):
    # at W h = 1e-6 the closed-form step moments (1 - (1 + W h) e^{-W h}) / W^2
    # lose ~eps / (W h)^2 to cancellation; 40-digit quadrature of the kernel
    import mpmath as mp

    w, d = KERNEL_W, 0.3 * KERNEL_W
    h = 1e-6 / w
    seq = ControlSequence(np.array([[1.0, 0.5], [0.0, 0.0]]), h, XY)
    b = LinearKernelModel(w, d, 1, average=average).field(seq).b
    with mp.workdps(40):
        wm, dm, hm = mp.mpf(w), mp.mpf(d), mp.mpf(h)

        def kappa(t):
            return (wm - 1j * dm * (1 - wm * t)) * mp.exp(-wm * t)

        def field(t):  # u = 1 on [0, h), then 0.5
            if t <= hm:
                return mp.quad(kappa, [0, t])
            return mp.quad(kappa, [t - hm, t]) + 0.5 * mp.quad(kappa, [0, t - hm])

        ref = complex(mp.quad(field, [hm, 2 * hm]) / hm if average else field(1.5 * hm))
    assert abs(b[0, 1] + 1j * b[1, 1] - ref) <= 1e-13 * abs(ref)


def test_circuit_half_step_constants_are_computed_once_per_step(monkeypatch):
    import hamforge.controlsys as cs

    calls, sizes = [], []
    real, real_toeplitz = cs._expm, cs._block_toeplitz
    monkeypatch.setattr(cs, "_expm", lambda a: calls.append(1) or real(a))
    monkeypatch.setattr(cs, "_block_toeplitz", lambda epow: sizes.append(len(epow)) or real_toeplitz(epow))
    cs._step_constants.cache_clear()
    model = CircuitModel(substeps=4)
    seq = circuit_drive()
    first = model.field(seq, ["alpha_L"])
    assert len(calls) == 2  # E and E^(1/2) of the one (output step, n_half) in use
    assert sizes == [9]  # its T_n from E^0..E^8 (4 substeps x 2 half-steps), and no table per P
    again = model.field(seq, ["alpha_L"])
    assert len(calls) == 2 and sizes == [9]
    assert np.array_equal(first.b, again.b)
    assert np.array_equal(first.sensitivities["alpha_L"], again.sensitivities["alpha_L"])
    model.field(circuit_drive(p_int=3), ["alpha_L", ("alpha_L", "alpha_L")])
    assert len(calls) == 2 and sizes == [9]  # a new P builds nothing
    model.field(ControlSequence(seq.values, 2 * seq.dt, XY10))
    assert len(calls) == 4  # a new output step gets its own constants
    assert sizes == [9, 9]
    # the constants hold nothing that grows with the interval count
    assert cs._step_constants.cache_info().currsize == 2
    assert [model._half_step(dt / 4, 2).epow.shape for dt in (seq.dt, 2 * seq.dt)] == [(9, 3, 3)] * 2


def test_alpha_l_draws_share_the_half_step_constants(monkeypatch):
    # the constants depend on neither alpha_L nor the amplitude: a copy
    # along alpha_L shares those of a model built at its value and gives
    # its field, and 100 alpha_L draws build E and E^(1/2) of the
    # nonlinear path once
    import hamforge.controlsys as cs
    from hamforge import evaluate as ev

    model, seq, jets = CircuitModel(substeps=4), circuit_drive(), ["alpha_L", ("alpha_L", "amplitude")]
    cs._step_constants.cache_clear()
    fresh = CircuitModel(alpha_L=3e-4, substeps=4).field(seq, jets)
    copy = model.with_param("alpha_L", 3e-4).field(seq, jets)
    assert cs._step_constants.cache_info().misses == 1
    assert np.array_equal(copy.b, fresh.b)
    assert all(np.array_equal(copy.sensitivities[k], fresh.sensitivities[k]) for k in fresh.sensitivities)

    calls, real = [], cs._expm
    monkeypatch.setattr(cs, "_expm", lambda a: calls.append(1) or real(a))
    cs._step_constants.cache_clear()
    setup = ev.EvaluationSetup(
        n_qubits=1, model=model, term_names=("offset",), term_mats=np.zeros((1, 2, 2), complex),
        term_coeffs=np.zeros(1),
        distributions=(ev.ParameterDistribution("alpha", "uniform", (-1e-3, 1e-3), "model:alpha_L"),),
    )
    draws = np.random.default_rng(5).uniform(-1e-3, 1e-3, (100, 1))
    assert np.isfinite(ev.exact_unitaries(seq, setup, draws)).all()
    assert len(calls) == 2


def random_contraction(size: int, rng) -> np.ndarray:
    """A complex (size, size) step matrix of spectral norm 0.999."""
    e = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return 0.999 * e / np.linalg.norm(e, 2)


@pytest.mark.parametrize("p_int", [1, 2, 3, 35, 1000])
@pytest.mark.parametrize("substeps, n_half", [(1, 2), (16, 2), (16, 4)])
def test_block_propagate_matches_the_stepped_recursion(p_int, substeps, n_half):
    # the circuit's half-step, then random step matrices of state sizes 2-4
    import hamforge.controlsys as cs

    k = CircuitModel(substeps=substeps)._half_step(1e-8 / substeps, n_half)
    n = substeps * n_half
    rng = np.random.default_rng(p_int * n)
    cases = [(k.epow, k.toeplitz)]
    for size in (2, 3, 4):
        e = random_contraction(size, rng)
        epow = np.array([np.linalg.matrix_power(e, j) for j in range(n + 1)])
        cases.append((epow, cs._block_toeplitz(epow)))
    for epow, toeplitz in cases:
        size = epow.shape[-1]
        force = rng.normal(size=(p_int, n, size)) + 1j * rng.normal(size=(p_int, n, size))
        # a force held over each block goes with the row blocks of T_n summed
        held = toeplitz.reshape(n, size, -1).sum(axis=0)
        for f, t in ((force, toeplitz), (force[:, :1], held)):
            xs, x_end = cs._block_propagate(epow, t, f)
            ref, ref_end = orc.block_propagate(epow, np.broadcast_to(f, force.shape))
            scale = np.abs(ref).max()
            assert xs.shape == ref.shape
            assert np.abs(xs - ref).max() <= 1e-13 * scale, (size, f.shape)
            assert np.abs(x_end - ref_end).max() <= 1e-13 * scale, (size, f.shape)


@pytest.mark.parametrize("p_int", [1, 2, 7, 64, 200])
@pytest.mark.parametrize("substeps", [1, 8, 32, 96])
@pytest.mark.parametrize("average", [False, True])
def test_kernel_field_matches_the_sequential_oracle(average, substeps, p_int, monkeypatch):
    model = LinearKernelModel(KERNEL_W, 0.3 * KERNEL_W, substeps, average=average)
    vals = np.random.default_rng(p_int + substeps).uniform(-1, 1, (2, p_int))
    seq = ControlSequence(vals, 0.05 * substeps / KERNEL_W, XY)
    keys = ["W", "delta", ("W", "W"), ("W", "delta"), ("delta", "delta"), "amplitude"]
    got = model.field(seq, keys)
    monkeypatch.setattr(LinearKernelModel, "_responses", orc.kernel_responses)
    ref = model.field(seq, keys)
    for key, r in [((), ref.b), *ref.sensitivities.items()]:
        g = got.b if key == () else got.sensitivities[key]
        assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max(initial=0.0), key


def test_linear_circuit_field_memory_is_linear_in_the_interval_count():
    # at P = 600 intervals a table of (3 (P - 1))^2 entries for the boundary
    # states would keep 52 MB on the model, and the field would peak at 108 MB
    import tracemalloc

    model = CircuitModel(substeps=16)
    seq = circuit_drive(p_int=600)
    tracemalloc.start()
    try:
        fld = model.field(seq, ["alpha_L", ("alpha_L", "alpha_L")])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fld.b.shape == (2, 600 * 16)
    assert kept < 2e6 and peak < 24e6, (kept, peak)
