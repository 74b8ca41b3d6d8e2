import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from hamforge.controlsys import (
    Channel,
    CircuitModel,
    CircuitParams,
    ControlSequence,
    DiscretizedField,
    IdealModel,
    LinearKernelModel,
    LinearKernelParams,
    apply_linear_kernel,
    control_hamiltonians,
    discretize_ideal,
    model_param_derivative,
    simulate_circuit,
    write_field_csv,
)

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
    fld = discretize_ideal(seq, 1)
    assert fld.q_steps == 2
    assert np.allclose(fld.b, seq.values)
    fld3 = discretize_ideal(seq, 3)
    assert fld3.q_steps == 6
    assert np.allclose(fld3.b[:, :3], np.repeat(seq.values[:, :1], 3, axis=1))
    assert fld3.t_seq == pytest.approx(seq.t_seq)


def test_ideal_polar_conversion():
    ch = polar_channels()
    vals = np.array([[0.5], [0.5]])  # w1 = 0.5 scale, phase = pi/2
    seq = ControlSequence(vals, 1e-8, ch)
    fld = discretize_ideal(seq)
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
    fld = apply_linear_kernel(seq, LinearKernelParams(w, 0.0), p_int * 16)
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
    model = LinearKernelModel(LinearKernelParams(w, 0.3 * w), 4)
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
    fld = LinearKernelModel(LinearKernelParams(w, 0.2 * w), 4).field(
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
    fld = apply_linear_kernel(seq, LinearKernelParams(w, 0.0), 3 * sub)
    # compare at the interval midpoints, clear of the ~1/W settle transient
    mids = fld.b[:, [k * sub + sub // 2 for k in range(1, 3)]]
    rel = np.abs(mids - vals[:, 1:]).max() / np.abs(vals).max()
    assert rel < 0.02


def test_kernel_resolution_guard():
    w = 2 * np.pi * 80e6
    seq = ControlSequence(np.zeros((2, 4)), 10.0 / w, XY)
    with pytest.raises(ValueError, match="resolution guard"):
        apply_linear_kernel(seq, LinearKernelParams(w, 0.0), 4)


def test_kernel_average_vs_midpoint_smooth():
    # interval-average sampling integrates the same response; for smooth
    # output the two agree to O(dt^2) curvature
    w = 2 * np.pi * 80e6
    dt = 0.05 / w
    vals = np.zeros((2, 12))
    vals[0] = 0.8
    seq = ControlSequence(vals, dt, XY)
    mid = LinearKernelModel(LinearKernelParams(w, 0.1 * w), 2).field(seq)
    avg = LinearKernelModel(LinearKernelParams(w, 0.1 * w), 2, average=True).field(seq)
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
    model = LinearKernelModel(LinearKernelParams(w, 0.0), 8)
    sens = model_param_derivative(model, seq, "delta")
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
    fld = simulate_circuit(seq, CircuitParams(), 16)
    assert np.abs(fld.b).max() == 0.0
    assert np.abs(fld.sensitivities["alpha_L"]).max() == 0.0


def test_circuit_steady_state_matches_linear_solve():
    cp = CircuitParams()
    model = CircuitModel(cp, substeps=32)
    p_int = 40
    dt = 20e-9
    vals = np.zeros((2, p_int))
    vals[0] = 0.6
    alpha = 0.6 / cp.kappa_i
    x_fin, _, _, _ = model._integrate(np.full(p_int, alpha + 0j), dt, *model._system())
    xss = model.steady_state(alpha)
    assert np.linalg.norm(x_fin - xss) / np.linalg.norm(xss) < 1e-6


def test_circuit_energy_decay_after_input_off():
    cp = CircuitParams()
    model = CircuitModel(cp, substeps=64)
    p_int = 30
    dt = 10e-9
    vals = np.zeros((2, p_int))
    vals[0, :4] = 0.8  # kick, then free ring-down
    seq = ControlSequence(vals, dt, XY)
    _, _, mids, _ = model._integrate(
        np.concatenate([np.full(4, 0.8 + 0j), np.zeros(26)]), dt, *model._system()
    )
    env = np.abs(mids[:, 0])
    off = 4 * 64 + 32  # into the free decay, past the drive window
    tail = env[off::32]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))


def test_circuit_sensitivity_matches_finite_difference():
    cp = CircuitParams()
    ch = XY
    p_int = 6
    dt = 2e-9
    rng = np.random.default_rng(1)
    vals = rng.uniform(-0.8, 0.8, (2, p_int))
    seq = ControlSequence(vals, dt, ch)
    model = CircuitModel(cp, substeps=32)
    sens = model_param_derivative(model, seq, "alpha_L")
    da = 1e-5
    hi = model.with_param("alpha_L", +da).field(seq).b
    lo = model.with_param("alpha_L", -da).field(seq).b
    fd = (hi - lo) / (2 * da)
    assert np.linalg.norm(sens - fd) / np.linalg.norm(fd) < 1e-3


def test_ideal_amplitude_sensitivity_exact():
    seq = ControlSequence(np.array([[0.5, -0.2], [0.3, 0.4]]), 1e-8, XY)
    model = IdealModel()
    sens = model_param_derivative(model, seq, "amplitude")
    assert np.allclose(sens, model.field(seq).b, atol=1e-12)


def test_control_hamiltonians_assembly():
    seq = ControlSequence(np.array([[0.5], [0.25]]), 1e-8, XY)
    fld = discretize_ideal(seq)
    h = control_hamiltonians(fld, 1)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    assert np.abs(h[0] - (0.5 * sx + 0.25 * sy)).max() < 1e-12


def test_field_csv_roundtrip(tmp_path):
    seq = ControlSequence(np.array([[0.5], [0.25]]), 1e-8, XY)
    fld = discretize_ideal(seq)
    path = tmp_path / "field.csv"
    write_field_csv(fld, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,channel,value,sensitivity_param,sensitivity_value"
    assert len(lines) == 1 + 2  # two channels x one step


def test_q_must_be_multiple_of_p():
    seq = ControlSequence(np.zeros((2, 3)), 1e-9, XY)
    with pytest.raises(ValueError, match="multiple"):
        apply_linear_kernel(seq, LinearKernelParams(2 * np.pi * 80e6, 0.0), 10)


def circuit_oracle(model, alpha_intervals, h_out, n_half, a0, uvec):
    """Reference for `CircuitModel._integrate_once`: every half-step of
    the same schemes stepped one 3-vector at a time."""
    p = model.cp
    hh = h_out / n_half
    eye = np.eye(3)
    e = expm(a0 * hh)
    e_q = expm(a0 * hh / 2)
    ainv = np.linalg.inv(a0)
    psi1 = ainv @ (e - eye)
    psi2 = psi1 + (ainv @ psi1) / hh - ainv @ e
    fvec = psi1 @ uvec
    fvec_q = (ainv @ (e_q - eye)) @ uvec
    nonlinear = p.alpha_l != 0.0

    def sens_force(xv):
        q2 = abs(xv[0]) ** 2
        return np.array([q2 / p.l_0 * (p.r_series * xv[0] - xv[2]), 0.0, 0.0], dtype=complex)

    def nl_force(xv):
        q2 = abs(xv[0]) ** 2
        dinv = -p.alpha_l * q2 / (p.l_0 * (1.0 + p.alpha_l * q2))
        return np.array([dinv * (-p.r_series * xv[0] + xv[2]), 0.0, 0.0], dtype=complex)

    q_out = alpha_intervals.size * model.substeps
    mids = np.zeros((q_out, 3), dtype=complex)
    smids = np.zeros((q_out, 3), dtype=complex)
    x = np.zeros(3, dtype=complex)
    s = np.zeros(3, dtype=complex)
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
                    x = x_new
                if j + 1 == n_half // 2:
                    mids[k_out] = x
                    smids[k_out] = s
            if not np.isfinite(x).all():
                raise FloatingPointError("circuit state diverged")
            k_out += 1
    return x, s, mids, smids


@st.composite
def circuit_runs(draw):
    p_int = draw(st.integers(1, 8))
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * p_int, max_size=2 * p_int))
    substeps = draw(st.sampled_from([2, 4, 16]))
    n_half = draw(st.sampled_from([2, 4]))
    return np.reshape(vals, (2, p_int)), substeps, n_half


@pytest.mark.parametrize("alpha_l", [0.0, 1e-7, -1e-7, 1e-3])
@given(run=circuit_runs())
@settings(max_examples=15, deadline=None)
def test_circuit_integrator_matches_half_step_oracle(alpha_l, run):
    vals, substeps, n_half = run
    model = CircuitModel(CircuitParams(alpha_l=alpha_l), substeps)
    seq = ControlSequence(vals, 1e-8, XY10)
    alpha, _ = model._alpha_in(seq)
    args = (alpha, seq.dt / substeps, n_half, *model._system())
    got = model._integrate_once(*args)
    ref = circuit_oracle(model, *args)
    for name, g, r in zip(("x", "s", "mids", "smids"), got, ref):
        assert g.shape == r.shape, name
        assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max(), name


def test_circuit_step_halving_is_logged(monkeypatch, caplog):
    real = CircuitModel._integrate_once
    n_halves = []

    def diverge_once(self, alpha, h_out, n_half, a0, uvec):
        n_halves.append(n_half)
        if len(n_halves) == 1:
            raise FloatingPointError("forced")
        return real(self, alpha, h_out, n_half, a0, uvec)

    monkeypatch.setattr(CircuitModel, "_integrate_once", diverge_once)
    seq = ControlSequence(np.full((2, 3), 0.5), 1e-8, XY10)
    with caplog.at_level(logging.WARNING, logger="hamforge"):
        CircuitModel(CircuitParams(), substeps=4).field(seq)
    assert n_halves == [2, 4]
    [rec] = caplog.records
    assert rec.name == "hamforge" and rec.levelno == logging.WARNING
    assert "retry 1 of 5" in rec.getMessage()
    assert f"{seq.dt / 4 / 4:.3e} s" in rec.getMessage()


@pytest.mark.parametrize("alpha_l", [-0.03, -1.0])
def test_circuit_negative_inductance_raises(alpha_l, caplog):
    # at full drive 1 + alpha_L |I_L|^2 crosses zero; step-halving cannot
    # cure that, so the error is a ValueError raised without any retry
    seq = ControlSequence(np.ones((2, 4)), 1e-8, XY10)
    with caplog.at_level(logging.WARNING, logger="hamforge"):
        with pytest.raises(ValueError, match=r"alpha_L = .*\|I_L\|\^2 = "):
            CircuitModel(CircuitParams(alpha_l=alpha_l), substeps=4).field(seq)
    assert not caplog.records
    # the robustness shift of the same drive stays well inside the model
    fld = CircuitModel(CircuitParams(alpha_l=-1e-7), substeps=4).field(seq)
    assert np.isfinite(fld.b).all()
