import dataclasses
from pathlib import Path

import numpy as np
import pytest

from hamforge import config as cfgmod
from hamforge import evaluate as ev
from hamforge.controlsys import Channel, ControlSequence, IdealModel
from hamforge.opcore import pauli_op
from hamforge.optimizer import restart_rng
from _oracles import average_gate_fidelity, exact_unitary, expm_herm_generator, rep_unitary


XY = (Channel("ax", (1,), "x", 1.0), Channel("ay", (1,), "y", 1.0))


def setup_1q(dists=(), terms=None):
    terms = terms if terms is not None else [("offset", pauli_op([(1, "z")], 1.0, 1), 0.0)]
    return ev.EvaluationSetup(
        n_qubits=1,
        model=IdealModel(),
        term_names=tuple(t[0] for t in terms),
        term_mats=np.stack([t[1] for t in terms]) if terms else np.zeros((0, 2, 2), complex),
        term_coeffs=np.asarray([t[2] for t in terms]),
        distributions=tuple(dists),
    )


def average_cptp(seq, setup, n_mc, rng):
    """Monte-Carlo averaged map of n_mc draws from rng: `ptm` of the mean channel."""
    draws = [{dd.name: dd.sample(rng) for dd in setup.distributions} for _ in range(n_mc)]
    r = ev.ptm(ev.exact_unitaries(seq, setup, draws), ev.pauli_basis_stack(setup.n_qubits))
    return ev.Superoperator(2 ** setup.n_qubits, r)


def test_distribution_validation_and_sampling():
    with pytest.raises(ValueError):
        ev.ParameterDistribution("d", "uniform", (1.0, 0.0))
    with pytest.raises(ValueError):
        ev.ParameterDistribution("d", "normal", (0.0, -1.0))
    rng = np.random.default_rng(0)
    d = ev.ParameterDistribution("d", "half_normal", (2.0,))
    vals = [d.sample(rng) for _ in range(100)]
    assert min(vals) >= 0
    g = ev.ParameterDistribution("d", "grid", ([1.0, 2.0],))
    assert g.sample(rng) in (1.0, 2.0)
    assert ev.ParameterDistribution("d", "point", (3.0,)).nominal() == 3.0


@pytest.mark.parametrize(
    "kind, args, halfwidth",
    [
        ("uniform", (-0.5, 1.5), 1.0),
        ("normal", (4.0, 0.25), 0.25),
        ("half_normal", (2.0,), 2.0),
        ("point", (-3.0,), 3.0),
        ("grid", ([1.0, -2.5, 2.0],), 2.5),
    ],
)
def test_distribution_halfwidth(kind, args, halfwidth):
    assert ev.ParameterDistribution("d", kind, args).halfwidth() == halfwidth


def test_exact_unitaries_rejects_an_unknown_draw_and_a_target_less_distribution():
    seq = ControlSequence(np.zeros((2, 3)), 1e-8, XY)
    offset = ev.ParameterDistribution("offset", "point", (1e6,), "term:offset")
    with pytest.raises(KeyError, match="unknown distribution"):
        ev.exact_unitaries(seq, setup_1q([offset]), [{"offset": 0.0, "drift": 1.0}])
    loose = ev.ParameterDistribution("drift", "point", (1e6,))
    with pytest.raises(ValueError, match="drift has no applies_to target"):
        ev.exact_unitaries(seq, setup_1q([offset, loose]), [{}])


def test_superoperator_rejects_a_wrong_shape_and_a_map_that_loses_trace():
    with pytest.raises(ValueError, match="shape mismatch"):
        ev.Superoperator(2, np.eye(3))
    leaky = np.eye(4)
    leaky[0, 3] = 1e-6
    with pytest.raises(ValueError, match="not trace preserving"):
        ev.Superoperator(2, leaky)
    assert ev.Superoperator(2, np.eye(4)).matrix.shape == (4, 4)


def test_ptm_homomorphism():
    rng = np.random.default_rng(1)
    stack = ev.pauli_basis_stack(1)
    from hamforge.reach import haar_unitary

    for _ in range(5):
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        lhs = ev.ptm(u1 @ u2, stack)
        rhs = ev.ptm(u1, stack) @ ev.ptm(u2, stack)
        assert np.abs(lhs - rhs).max() < 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_ptm_matches_the_per_column_projection(n):
    # one unitary's map, and a stack's: the mean of its unitaries' maps
    from hamforge.reach import haar_unitary

    stack = ev.pauli_basis_stack(n)
    us = haar_unitary(2 ** n, np.random.default_rng(40 + n), 6).reshape(2, 3, 2 ** n, 2 ** n)
    want = np.array([[rep_unitary(u, stack) for u in row] for row in us])
    assert np.abs(ev.ptm(us, stack) - want.mean(axis=(0, 1))).max() <= 1e-13
    assert np.abs(ev.ptm(us[1, 2], stack) - want[1, 2]).max() <= 1e-13


def test_ptm_stack_matches_single():
    # the map of a stack is the mean of the maps of its unitaries, a
    # trace-preserving contraction
    from hamforge.reach import haar_unitary

    for n in (1, 2):
        stack = ev.pauli_basis_stack(n)
        us = haar_unitary(2 ** n, np.random.default_rng(13), 12).reshape(3, 4, 2 ** n, 2 ** n)
        got = ev.ptm(us, stack)
        assert got.shape == (4 ** n, 4 ** n)
        want = np.mean([ev.ptm(us[idx], stack) for idx in np.ndindex(3, 4)], axis=0)
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(got[0] - np.eye(4 ** n)[0]).max() <= 1e-14
        assert np.linalg.norm(got, 2) <= 1 + 1e-12


def test_ptm_sums_a_large_stack_in_chunks():
    # 1,000 Haar unitaries at d = 8, whose n d^4 conjugation entries take
    # 65 MB at once: the chunked sum matches that mean, within 10 MB
    import tracemalloc

    from hamforge.opcore import conjugation
    from hamforge.reach import haar_unitary

    us = haar_unitary(8, np.random.default_rng(8), 1000)
    stack = ev.pauli_basis_stack(3)
    tracemalloc.start()
    try:
        got = ev.ptm(us, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    s = stack.reshape(len(stack), -1)
    want = (s.conj() @ conjugation(us).mean(axis=0) @ s.T).real
    assert np.abs(got - want).max() <= 1e-14
    assert peak <= 10e6, peak


def test_ptm_unitary_orthogonal():
    rng = np.random.default_rng(2)
    from hamforge.reach import haar_unitary

    stack = ev.pauli_basis_stack(2)
    r = ev.ptm(haar_unitary(4, rng), stack)
    assert np.abs(r @ r.T - np.eye(16)).max() < 1e-8
    assert np.abs(r[0] - np.eye(16)[0]).max() < 1e-12


def test_simulate_total_unitary_constant_offset():
    dw = 2 * np.pi * 1e6
    d = ev.ParameterDistribution("offset", "point", (dw,), "term:offset")
    setup = setup_1q([d])
    seq = ControlSequence(np.zeros((2, 5)), 1e-8, XY)
    u = ev.simulate_total_unitary(seq, setup)
    sz = pauli_op([(1, "z")], 1.0, 1)
    expect = expm_herm_generator(sz, dw * 5e-8)
    assert np.abs(u - expect).max() < 1e-9


def test_simulate_step_doubling_consistency():
    rng = np.random.default_rng(3)
    vals = rng.uniform(-0.5, 0.5, (2, 6))
    setup = setup_1q()
    s1 = ControlSequence(vals, 1e-8, XY)
    u1 = ev.simulate_total_unitary(s1, setup)
    setup2 = ev.EvaluationSetup(
        n_qubits=1, model=IdealModel(2),
        term_names=setup.term_names, term_mats=setup.term_mats,
        term_coeffs=setup.term_coeffs, distributions=(),
    )
    u2 = ev.simulate_total_unitary(s1, setup2)
    assert np.abs(u1 - u2).max() < 1e-8


def test_simulate_rabi_quarter_rotation():
    # on-resonance constant x drive, Bloch area pi/2 -> exp(-i sx pi/4)
    setup = setup_1q()
    p_int = 4
    vals = np.zeros((2, p_int))
    vals[0] = 1.0
    dt = (np.pi / 4) / p_int  # sx coefficient integral = pi/4
    seq = ControlSequence(vals, dt, XY)
    setup = ev.EvaluationSetup(
        n_qubits=1, model=IdealModel(),
        term_names=("offset",), term_mats=setup.term_mats,
        term_coeffs=np.array([0.0]), distributions=(),
    )
    u = ev.simulate_total_unitary(seq, setup)
    sx = pauli_op([(1, "x")], 1.0, 1)
    expect = expm_herm_generator(sx, np.pi / 4)
    assert ev.overlap_fidelity(u, expect) == pytest.approx(1.0, abs=1e-12)


def test_overlap_fidelity_properties():
    rng = np.random.default_rng(4)
    from hamforge.reach import haar_unitary

    u = haar_unitary(2, rng)
    assert ev.overlap_fidelity(u, u) == pytest.approx(1.0)
    eye = np.eye(2)
    sx = pauli_op([(1, "x")], 1.0, 1)
    assert ev.overlap_fidelity(eye, sx) == pytest.approx(0.0, abs=1e-14)
    phase = np.exp(0.7j) * u
    assert ev.overlap_fidelity(phase, u) == pytest.approx(1.0)


def test_average_cptp_point_is_single_ptm():
    setup = setup_1q([ev.ParameterDistribution("offset", "point", (1e6,), "term:offset")])
    seq = ControlSequence(np.full((2, 3), 0.2), 1e-8, XY)
    sup = average_cptp(seq, setup, 8, np.random.default_rng(5))
    expect = ev.ptm(exact_unitary(seq, setup, {"offset": 1e6}), ev.pauli_basis_stack(1))
    assert np.abs(sup.matrix - expect).max() < 1e-12


def test_average_cptp_dephasing_by_averaging():
    # z rotations with dispersed angle: the x/y block contracts by E[cos]
    sigma_small, sigma_big = 0.2, 1.5
    out = {}
    for sig in (sigma_small, sigma_big):
        d = ev.ParameterDistribution("offset", "normal", (0.0, sig / 5e-8), "term:offset")
        setup = setup_1q([d])
        seq = ControlSequence(np.zeros((2, 5)), 1e-8, XY)
        sup = average_cptp(seq, setup, 4000, np.random.default_rng(6))
        out[sig] = sup.matrix[1, 1]
        expect = np.exp(-2 * sig ** 2)  # E[cos 2theta], theta ~ N(0, sig)
        assert sup.matrix[1, 1] == pytest.approx(expect, abs=0.05)
    assert out[sigma_big] < out[sigma_small]


def test_average_gate_fidelity_identities():
    rng = np.random.default_rng(7)
    from hamforge.reach import haar_unitary

    u0 = haar_unitary(2, rng)
    stack = ev.pauli_basis_stack(1)
    r = ev.ptm(u0, stack)
    assert average_gate_fidelity(r, u0) == pytest.approx(1.0)
    assert average_gate_fidelity(r, np.exp(1.3j) * u0) == pytest.approx(1.0)
    # fully depolarizing map
    dep = np.zeros((4, 4))
    dep[0, 0] = 1.0
    assert average_gate_fidelity(dep, u0) == pytest.approx(0.5)


def test_average_gate_fidelity_vs_state_integral_oracle():
    # Monte-Carlo Haar-state average of <psi|U0^dag L(|psi><psi|) U0|psi>
    rng = np.random.default_rng(8)
    from hamforge.reach import haar_unitary

    u0 = haar_unitary(2, rng)
    us = [haar_unitary(2, rng) for _ in range(3)]
    stack = ev.pauli_basis_stack(1)
    f_closed = average_gate_fidelity(sum(ev.ptm(u, stack) for u in us) / 3, u0)
    n = 200_000
    psis = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    psis /= np.linalg.norm(psis, axis=1)[:, None]
    f_mc = 0.0
    for u in us:
        amps = np.abs(np.einsum("si,ij,sj->s", psis.conj(), u0.conj().T @ u, psis)) ** 2
        f_mc += amps.mean() / 3
    assert f_closed == pytest.approx(f_mc, abs=3e-3)


def test_orthogonality_values():
    rng = np.random.default_rng(9)
    from hamforge.reach import haar_unitary

    stack = ev.pauli_basis_stack(1)
    r = ev.Superoperator(2, ev.ptm(haar_unitary(2, rng), stack))
    assert ev.orthogonality(r) == pytest.approx(1.0)
    dep = np.zeros((4, 4))
    dep[0, 0] = 1.0
    assert ev.orthogonality(ev.Superoperator(2, dep)) == pytest.approx(0.25)


def test_orthogonality_decreases_with_dispersion():
    vals = []
    for sig in (0.1, 1.0):
        d = ev.ParameterDistribution("offset", "normal", (0.0, sig / 5e-8), "term:offset")
        setup = setup_1q([d])
        seq = ControlSequence(np.zeros((2, 5)), 1e-8, XY)
        sup = average_cptp(seq, setup, 3000, np.random.default_rng(10))
        vals.append(ev.orthogonality(sup))
    assert vals[1] < vals[0]


def test_apply_depolarizing():
    rng = np.random.default_rng(11)
    from hamforge.reach import haar_unitary

    stack = ev.pauli_basis_stack(1)
    r = ev.ptm(haar_unitary(2, rng), stack)
    same = ev.apply_depolarizing(r, 0.0, 1.0)
    assert np.abs(same - r).max() == 0.0
    asym = ev.apply_depolarizing(r, np.log(2.0), 1.0)
    assert np.abs(asym[1:] - 0.5 * r[1:]).max() < 1e-12
    assert np.abs(asym[0] - r[0]).max() == 0.0
    huge = ev.apply_depolarizing(r, 1.0, 1e12)
    assert np.abs(huge - r).max() < 1e-9
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            ev.apply_depolarizing(r, 1.0, bad)


def test_singular_values_of_average_map():
    d = ev.ParameterDistribution("offset", "uniform", (-1e7, 1e7), "term:offset")
    setup = setup_1q([d])
    seq = ControlSequence(np.full((2, 4), 0.3), 1e-8, XY)
    sup = average_cptp(seq, setup, 500, np.random.default_rng(12))
    sv = np.linalg.svd(sup.matrix, compute_uv=False)
    assert sv.max() <= 1 + 1e-9


def test_landscape_grid():
    # (n1, n2) fidelities, axis 1 down the rows, against one oracle
    # propagator per grid point
    setup = setup_1q([ev.ParameterDistribution("offset", "point", (0.0,), "term:offset"),
                      ev.ParameterDistribution("amp", "point", (0.0,), "model:amplitude")])
    xy = tuple(dataclasses.replace(ch, scale=2 * np.pi * 10e6) for ch in XY)
    seq = ControlSequence(np.random.default_rng(16).uniform(-0.5, 0.5, (2, 3)), 1e-8, xy)
    u0 = exact_unitary(seq, setup, {})
    offsets, amps = [0.0, 3e6], [-0.2, 0.0, 0.1]
    fid = ev.landscape(seq, setup, ("offset", offsets), ("amp", np.array(amps)), u0)
    want = [[ev.overlap_fidelity(exact_unitary(seq, setup, {"offset": o, "amp": a}), u0) for a in amps]
            for o in offsets]
    assert fid.shape == (2, 3) and fid[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(fid - want).max() <= 1e-12 and fid.min() < 0.995


def test_stroboscopic_survival():
    setup = setup_1q([ev.ParameterDistribution("offset", "point", (0.0,), "term:offset")])
    seq = ControlSequence(np.zeros((2, 2)), 1e-8, XY)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    probs = ev.stroboscopic_evolve(psi0, seq, setup, None, 5)
    assert probs[0] == 1.0
    assert np.allclose(probs, 1.0)  # identity cycle
    # z rotation on |+>: survival cos^2(n theta)
    theta = 0.3
    d = ev.ParameterDistribution("offset", "point", (theta / 2e-8,), "term:offset")
    setup = setup_1q([d])
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    probs = ev.stroboscopic_evolve(plus, seq, setup, None, 4)
    expect = np.cos(np.arange(5) * theta) ** 2
    assert np.abs(probs - expect).max() < 1e-9


def test_stroboscopic_needs_a_normalized_state():
    setup = setup_1q([ev.ParameterDistribution("offset", "point", (0.0,), "term:offset")])
    seq = ControlSequence(np.zeros((2, 2)), 1e-8, XY)
    for psi0 in (np.array([1.0, 1.0]), np.array([1e-3, 0.0]), np.zeros(2)):
        with pytest.raises(ValueError, match="normalized"):
            ev.stroboscopic_evolve(psi0, seq, setup, None, 3)


def test_evaluation_report_needs_a_sample():
    setup = setup_1q([ev.ParameterDistribution("offset", "point", (0.0,), "term:offset")])
    seq = ControlSequence(np.zeros((2, 2)), 1e-8, XY)
    for n_mc in (0, -1):
        with pytest.raises(ValueError, match="n_mc must be >= 1"):
            ev.evaluation_report(seq, setup, np.eye(2), n_mc, 7)


def test_evaluation_report_keys_and_depolarizing():
    setup = setup_1q([ev.ParameterDistribution("offset", "point", (0.0,), "term:offset")])
    seq = ControlSequence(np.zeros((2, 2)), 1e-8, XY)
    eye = np.eye(2)
    rep = ev.evaluation_report(seq, setup, eye, 16, 7, t_dep=None)
    for key in ("fom", "fom_median", "fom_p20", "fom_p80", "orthogonality", "ptm", "n_mc", "propagations", "seed"):
        assert key in rep
    assert rep["fom"] == pytest.approx(1.0)
    assert rep["orthogonality"] == pytest.approx(1.0)
    assert rep["propagations"] == 1   # a point column takes one node
    # pure depolarizing attenuation on an identity sequence
    t_dep = seq.t_seq / np.log(2.0)
    rep2 = ev.evaluation_report(seq, setup, eye, 16, 7, t_dep=t_dep)
    scale = 0.5
    f_pro = (1 + 3 * scale) / 4  # Tr(R0^T R)/d^2 with block scaled
    expect = (2 * f_pro + 1) / 3
    assert rep2["fom"] == pytest.approx(expect, abs=1e-12)
    # a non-positive relaxation time is an error, not "no relaxation"
    for bad in (0.0, -t_dep):
        with pytest.raises(ValueError, match="positive"):
            ev.evaluation_report(seq, setup, eye, 16, 7, t_dep=bad)


def test_mc_error_scaling_with_samples():
    d = ev.ParameterDistribution("offset", "normal", (0.0, 2e6), "term:offset")
    setup = setup_1q([d])
    seq = ControlSequence(np.full((2, 3), 0.4), 1e-8, XY)
    eye = np.eye(2)

    def spread(n_mc, seeds):
        vals = [
            ev.evaluation_report(seq, setup, eye, n_mc, s)["fom"] for s in seeds
        ]
        return np.std(vals)

    s1 = spread(60, range(20))
    s2 = spread(240, range(20))
    assert s2 < s1  # fluctuation shrinks with more samples (~sqrt factor)


def oracle_draws(setup, n_mc, rng_seed):
    """The report's draws: n_mc rounds of the scalar `sample` over the
    setup's distributions, from the report's stream."""
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(7,)))
    return [{dd.name: dd.sample(rng) for dd in setup.distributions} for _ in range(n_mc)]


def report_oracle(seq, setup, u0_total, n_mc, rng_seed, t_dep=None):
    """Reference for `evaluation_report`: one step-by-step propagator,
    transfer matrix and fidelity per Monte-Carlo draw."""
    draws = oracle_draws(setup, n_mc, rng_seed)
    stack = ev.pauli_basis_stack(setup.n_qubits)
    d = 2 ** setup.n_qubits
    r0 = ev.ptm(u0_total, stack)
    scale = np.exp(-seq.t_seq / t_dep) if t_dep is not None else 1.0
    f_samples = np.empty(n_mc)
    acc = np.zeros((d * d, d * d))
    for s, values in enumerate(draws):
        r = ev.ptm(exact_unitary(seq, setup, values), stack)
        rdep = r.copy()
        rdep[1:, :] *= scale
        acc += rdep
        f_pro = float(np.sum(r0 * rdep)) / d ** 2
        f_samples[s] = (d * f_pro + 1.0) / (d + 1.0)
    avg = acc / n_mc
    return {
        "fom": average_gate_fidelity(avg, u0_total),
        "fom_median": float(np.median(f_samples)),
        "fom_p20": float(np.percentile(f_samples, 20)),
        "fom_p80": float(np.percentile(f_samples, 80)),
        "orthogonality": float(np.sum(avg * avg)) / (d * d),
        "ptm": avg.ravel().tolist(),
        "n_mc": n_mc,
        "propagations": n_mc,
        "seed": rng_seed,
    }


def _check_report(setup, seq, u0, n_mc, t_dep, monkeypatch):
    """`evaluation_report` against `report_oracle` at 1e-12, and the draw
    array it propagates against the scalar `sample` loop, bit for bit."""
    seen, propagate = [], ev._propagators
    monkeypatch.setattr(ev, "_propagators", lambda *args: seen.append(args[2]) or propagate(*args))
    got = ev.evaluation_report(seq, setup, u0, n_mc, 21, t_dep=t_dep)
    ref = report_oracle(seq, setup, u0, n_mc, 21, t_dep=t_dep)
    names = [dd.name for dd in setup.distributions]
    want = np.array([[v[name] for name in names] for v in oracle_draws(setup, n_mc, 21)])
    assert len(seen) == 1 and seen[0].shape == want.shape and np.array_equal(seen[0], want)
    assert got.keys() == ref.keys()
    assert got["n_mc"] == n_mc and got["seed"] == 21
    assert got["propagations"] <= n_mc + n_mc / 8
    assert np.abs(np.asarray(got["ptm"]) - ref["ptm"]).max() <= 1e-12
    for key in ("fom", "fom_median", "fom_p20", "fom_p80", "orthogonality"):
        assert abs(got[key] - ref[key]) <= 1e-12, key


def _draws_per_block(setup, seq):
    steps = setup.model.field(seq).b.shape[-1]
    return ev._MC_BLOCK // (steps * 4 ** setup.n_qubits)


@pytest.mark.parametrize("t_dep", [None, 3e-7])
@pytest.mark.parametrize("n_mc", [1, 99, 100, 101, 250])
def test_evaluation_report_matches_per_sample_oracle(n_mc, t_dep, monkeypatch):
    # blocks of draws must not change which draw meets which step, so
    # sample counts straddle the block size
    setup = setup_1q([
        ev.ParameterDistribution("offset", "normal", (1e6, 3e6), "term:offset"),
        ev.ParameterDistribution("amp", "uniform", (-0.05, 0.05), "model:amplitude"),
    ])
    seq = ControlSequence(np.random.default_rng(14).uniform(-1, 1, (2, 80)) * 0.4, 1e-8, XY)
    assert _draws_per_block(setup, seq) == 100
    u0 = expm_herm_generator(pauli_op([(1, "x")], 1.0, 1), 0.3)
    _check_report(setup, seq, u0, n_mc, t_dep, monkeypatch)


def _two_qubit_report(mixed):
    """The design regime, d = 4 and 40 steps, with a drawn detuning and
    drive amplitude, or with normal, half-normal, grid and uniform draws."""
    channels = tuple(Channel(f"{ax}{q}", (q,), ax, 2 * np.pi * 20e6) for q in (1, 2) for ax in "xy")
    terms = [("zz", pauli_op([(1, "z"), (2, "z")], 1.0, 2), 2e6),
             ("detuning", pauli_op([(1, "z")], 1.0, 2) + pauli_op([(2, "z")], 1.0, 2), 0.0),
             ("leak", pauli_op([(1, "x"), (2, "x")], 1.0, 2), 0.0)]
    dists = [ev.ParameterDistribution("det", "uniform", (-2e6, 2e6), "term:detuning"),
             ev.ParameterDistribution("amp", "uniform", (-0.05, 0.05), "model:amplitude")]
    if mixed:
        dists = [ev.ParameterDistribution("zz", "normal", (2e6, 2e5), "term:zz"),
                 ev.ParameterDistribution("det", "half_normal", (1e6,), "term:detuning"),
                 ev.ParameterDistribution("leak", "grid", ([-3e5, 0.0, 1e5],), "term:leak"),
                 ev.ParameterDistribution("amp", "uniform", (-0.05, 0.05), "model:amplitude")]
    setup = ev.EvaluationSetup(
        n_qubits=2, model=IdealModel(),
        term_names=tuple(t[0] for t in terms), term_mats=np.stack([t[1] for t in terms]),
        term_coeffs=np.array([t[2] for t in terms]), distributions=tuple(dists),
    )
    seq = ControlSequence(np.random.default_rng(15).uniform(-1, 1, (4, 40)) * 0.2, 1e-8, channels)
    return setup, seq, expm_herm_generator(pauli_op([(1, "x"), (2, "y")], 1.0, 2), 0.4)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("where, t_dep", [
    ("one", None), ("below", None), ("at", None), ("above", None), ("one", 3e-7), ("above", 3e-7),
])
def test_two_qubit_report_matches_per_sample_oracle(mixed, where, t_dep, monkeypatch):
    setup, seq, u0 = _two_qubit_report(mixed)
    block = _draws_per_block(setup, seq)
    assert block == 50
    n_mc = {"one": 1, "below": block - 1, "at": block, "above": block + 1}[where]
    _check_report(setup, seq, u0, n_mc, t_dep, monkeypatch)


def test_evaluation_report_applies_model_drive_factor_once():
    # the model carries a drive factor and no amplitude distribution
    # overrides it: every draw sees the factor exactly once
    base = setup_1q([ev.ParameterDistribution("offset", "normal", (0.0, 3e6), "term:offset")])
    setup = dataclasses.replace(base, model=IdealModel(amplitude=0.1))
    seq = ControlSequence(np.full((2, 4), 0.5), 1e-8, XY)
    u0 = np.eye(2)
    got = ev.evaluation_report(seq, setup, u0, 40, 5)
    ref = report_oracle(seq, setup, u0, 40, 5)
    assert np.abs(np.asarray(got["ptm"]) - ref["ptm"]).max() <= 1e-12
    assert abs(got["fom"] - ref["fom"]) <= 1e-12


def _amplitude_setup(model):
    return ev.EvaluationSetup(
        n_qubits=1,
        model=model,
        term_names=("offset",),
        term_mats=pauli_op([(1, "z")], 1.0, 1)[None],
        term_coeffs=np.zeros(1),
        distributions=(
            ev.ParameterDistribution("amp", "uniform", (-0.3, 0.3), "model:amplitude"),
        ),
    )


@pytest.mark.parametrize("alpha_l", [-0.005, 0.0])
def test_amplitude_dispersion_of_circuit_model_matches_oracle(alpha_l):
    # with alpha_L != 0 the field is not linear in the drive, so one field
    # solve must not be rescaled per drawn amplitude
    from hamforge.controlsys import CircuitModel

    xy = (Channel("x", (1,), "x", 10.0), Channel("y", (1,), "y", 10.0))
    model = CircuitModel(alpha_L=alpha_l, substeps=4)
    setup = _amplitude_setup(model)
    seq = ControlSequence(np.ones((2, 4)), 1e-8, xy)
    u0 = np.eye(2)
    got = ev.evaluation_report(seq, setup, u0, 40, 5)
    ref = report_oracle(seq, setup, u0, 40, 5)
    assert np.abs(np.asarray(got["ptm"]) - ref["ptm"]).max() <= 1e-12
    assert abs(got["fom"] - ref["fom"]) <= 1e-12
    assert model.drive_linear == (alpha_l == 0.0)


def test_amplitude_dispersion_of_kernel_model_with_z_channel_matches_oracle():
    # the kernel model scales every row, z included, by the drive factor,
    # so the fast path rescales one field per draw
    from hamforge.controlsys import LinearKernelModel

    chans = tuple(Channel(f"a{r}", (1,), r, 2 * np.pi * 5e6) for r in "xyz")
    setup = _amplitude_setup(LinearKernelModel(2e7, 0.0, 8))
    seq = ControlSequence(np.random.default_rng(3).uniform(-1, 1, (3, 4)), 1e-8, chans)
    u0 = np.eye(2)
    got = ev.evaluation_report(seq, setup, u0, 40, 5)
    ref = report_oracle(seq, setup, u0, 40, 5)
    assert np.abs(np.asarray(got["ptm"]) - ref["ptm"]).max() <= 1e-12


def test_ideal_model_amplitude_dispersion_solves_one_field(monkeypatch):
    # the fast path: one unit-drive field, rescaled for every draw
    calls = []
    real = IdealModel.field

    def counted(self, seq):
        calls.append(self.amplitude)
        return real(self, seq)

    monkeypatch.setattr(IdealModel, "field", counted)
    setup = _amplitude_setup(IdealModel())
    seq = ControlSequence(np.full((2, 4), 0.5), 1e-8, XY)
    ev.evaluation_report(seq, setup, np.eye(2), 40, 5)
    assert calls == [0.0]


def _per_draw_setup(drawn):
    """A drawn model parameter whose field each draw solves itself: kernel
    W or delta, or circuit alpha_L, drawn beside the drive amplitude and a
    term coefficient."""
    from hamforge.controlsys import CircuitModel, LinearKernelModel

    if drawn == "alpha_L":
        model, intervals, spread = CircuitModel(alpha_L=0.0, substeps=16), 8, (-1e-3, 1e-3)
        chans = (Channel("x", (1,), "x", 10.0), Channel("y", (1,), "y", 10.0))
    else:
        model, intervals = LinearKernelModel(2e7, 1e6, 8), 20
        spread = {"W": (1.5e7, 2.5e7), "delta": (-3e6, 3e6)}[drawn]
        chans = tuple(Channel(f"a{r}", (1,), r, 2 * np.pi * 5e6) for r in "xyz")
    setup = ev.EvaluationSetup(
        n_qubits=1, model=model, term_names=("offset",), term_mats=pauli_op([(1, "z")], 1.0, 1)[None],
        term_coeffs=np.array([1e6]),
        distributions=(ev.ParameterDistribution("amp", "uniform", (-0.05, 0.05), "model:amplitude"),
                       ev.ParameterDistribution(drawn, "uniform", spread, f"model:{drawn}"),
                       ev.ParameterDistribution("offset", "normal", (1e6, 2e6), "term:offset")))
    seq = ControlSequence(np.random.default_rng(18).uniform(-1, 1, (len(chans), intervals)), 1e-8, chans)
    return setup, seq


@pytest.mark.parametrize("where", [-1, 0, 1])
@pytest.mark.parametrize("drawn", ["W", "delta", "alpha_L"])
def test_per_draw_fields_match_the_oracle(drawn, where, monkeypatch):
    # every draw's own model solves one field, no more; n straddles the
    # block of draws, so a field reused across draws or blocks shows
    setup, seq = _per_draw_setup(drawn)
    block = _draws_per_block(setup, seq)
    assert block == {"alpha_L": 62, "W": 50, "delta": 50}[drawn]
    rng = np.random.default_rng(19)
    draws = np.array([[dd.sample(rng) for dd in setup.distributions] for _ in range(block + where)])
    solves, field = [], type(setup.model).field
    monkeypatch.setattr(type(setup.model), "field", lambda self, seq: solves.append(self) or field(self, seq))
    got = ev.exact_unitaries(seq, setup, draws)
    monkeypatch.undo()
    assert [m.params()[drawn] for m in solves] == draws[:, 1].tolist()
    for row, u in zip(draws, got):
        want = exact_unitary(seq, setup, dict(zip(("amp", drawn, "offset"), row)))
        assert np.abs(u - want).max() <= 1e-12


@pytest.mark.parametrize("drawn", ["W", "delta", "alpha_L"])
def test_per_draw_fields_of_no_draws(drawn, monkeypatch):
    # n = 0 returns an empty stack and solves no field
    setup, seq = _per_draw_setup(drawn)
    monkeypatch.setattr(type(setup.model), "field", lambda self, seq: pytest.fail("a field was solved"))
    assert ev.exact_unitaries(seq, setup, np.empty((0, 3))).shape == (0, 2, 2)


@pytest.mark.parametrize("drawn", ["W", "delta", "alpha_L"])
def test_per_draw_report_matches_per_sample_oracle(drawn, monkeypatch):
    setup, seq = _per_draw_setup(drawn)
    u0 = expm_herm_generator(pauli_op([(1, "x")], 1.0, 1), 0.3)
    _check_report(setup, seq, u0, _draws_per_block(setup, seq) + 1, None, monkeypatch)


# ---------------------------------------------------------------------------
# the report's interpolant against every draw propagated

def _check_interpolant(seq, setup, u0, n_mc, monkeypatch, seed=3):
    """Every output of the report within 1e-12 of the report that
    propagates each draw itself; returns the report's propagation count."""
    got = ev.evaluation_report(seq, setup, u0, n_mc, seed)
    with monkeypatch.context() as m:
        m.setattr(ev, "_propagators", lambda seq, setup, draws: (ev.exact_unitaries(seq, setup, draws), len(draws)))
        want = ev.evaluation_report(seq, setup, u0, n_mc, seed)
    assert want["propagations"] == n_mc
    assert np.abs(np.subtract(got["ptm"], want["ptm"])).max() <= 1e-12
    for key in ("fom", "fom_median", "fom_p20", "fom_p80", "orthogonality"):
        assert abs(got[key] - want[key]) <= 1e-12, key
    return got["propagations"]


_AMP = ev.ParameterDistribution("amp", "uniform", (-0.05, 0.05), "model:amplitude")


def _seq_80():
    return ControlSequence(np.random.default_rng(14).uniform(-1, 1, (2, 80)) * 0.4, 1e-8, XY)


@pytest.mark.parametrize("dists", [
    [_AMP],
    [ev.ParameterDistribution("offset", "point", (2e6,), "term:offset"), _AMP],
    [ev.ParameterDistribution("offset", "grid", ([-3e6, 0.0, 1e6],), "term:offset")],
    [ev.ParameterDistribution("offset", "normal", (1e6, 1e6), "term:offset")],
    [ev.ParameterDistribution("offset", "half_normal", (2e6,), "term:offset")],
], ids=["uniform", "point-beside-uniform", "grid", "normal", "half-normal"])
def test_one_dispersed_column_reads_its_interpolant(dists, monkeypatch):
    u0 = expm_herm_generator(pauli_op([(1, "x")], 1.0, 1), 0.3)
    assert _check_interpolant(_seq_80(), setup_1q(dists), u0, 200, monkeypatch) < 200 / 4


def test_a_field_solved_per_draw_reads_its_interpolant(monkeypatch):
    setup, seq = _per_draw_setup("W")
    setup = dataclasses.replace(setup, distributions=setup.distributions[1:2])
    u0 = expm_herm_generator(pauli_op([(1, "x")], 1.0, 1), 0.3)
    assert _check_interpolant(seq, setup, u0, 200, monkeypatch) < 200 / 4


DESIGN = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "design-2q-scale-evaluate.json"


@pytest.mark.parametrize("seed", [100, 101])
def test_design_report_propagates_a_grid_of_fewer_nodes(seed, monkeypatch):
    # the design fixture's uniform detuning and amplitude at n_mc = 1,000,
    # with the benchmark's sequence of the design seed
    if not DESIGN.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    cfg = cfgmod.load_config(DESIGN)
    u0 = cfgmod.total_target_unitary(cfg, cfgmod.build_subspaces(cfg, cfgmod.build_algebra(cfg)))
    x = restart_rng(seed, 0).uniform(-1.0, 1.0, cfg.gsa.dimension)
    seq = ControlSequence(x.reshape(len(cfg.channels), cfg.intervals), cfg.dt, cfg.channels)
    assert cfg.n_mc == 1000
    assert _check_interpolant(seq, cfgmod.build_evaluation_setup(cfg), u0, cfg.n_mc, monkeypatch, seed) <= 550


def test_wide_normal_offset_falls_back_to_the_draws(monkeypatch):
    # 80 steps under sigma = 3e6 rad/s: the pilot's decay asks for a grid
    # as costly as the draws, so the report pays the pilot and every draw
    setup = setup_1q([ev.ParameterDistribution("offset", "normal", (1e6, 3e6), "term:offset"), _AMP])
    u0 = expm_herm_generator(pauli_op([(1, "x")], 1.0, 1), 0.3)
    n_mc = 1000
    assert n_mc < _check_interpolant(_seq_80(), setup, u0, n_mc, monkeypatch) <= n_mc + n_mc / 8


def test_three_dispersed_columns_propagate_every_draw(monkeypatch):
    # a 10 x 10 x 10 pilot costs more than n_mc / 8
    setup, seq = _per_draw_setup("W")
    u0 = expm_herm_generator(pauli_op([(1, "x")], 1.0, 1), 0.3)
    assert _check_interpolant(seq, setup, u0, 1000, monkeypatch) == 1000
