import numpy as np
import pytest

from hamforge import objectives as ob
from hamforge import toggling as tg
from hamforge.controlsys import Channel, ControlSequence, IdealModel
from hamforge.evaluate import overlap_fidelity
from hamforge.liealg import find_c_subspace, find_lie_algebra
from hamforge.opcore import pauli_op, project
from hamforge.reach import haar_unitary
import _oracles as orc


def su2_setup():
    sx = pauli_op([(1, "x")], 1.0, 1)
    sy = pauli_op([(1, "y")], 1.0, 1)
    sz = pauli_op([(1, "z")], 1.0, 1)
    g = find_lie_algebra([sx, sy])
    return (sx, sy, sz), g, find_c_subspace(g, sz)


def test_objective_term_validation():
    with pytest.raises(ValueError):
        ob.ObjectiveTerm("nonsense", 1.0)
    with pytest.raises(ValueError):
        ob.ObjectiveTerm("primary_unitary", -1.0)
    with pytest.raises(ValueError):
        ob.ObjectiveTerm("robustness_first", 1.0, {})  # missing error name


def test_primary_unitary_cost_basics():
    rng = np.random.default_rng(0)
    u = haar_unitary(2, rng)
    assert ob.primary_unitary_cost(u, u) == pytest.approx(0.0, abs=1e-14)
    assert ob.primary_unitary_cost(np.exp(1.2j) * u, u) == pytest.approx(0.0, abs=1e-14)
    sx = pauli_op([(1, "x")], 1.0, 1)
    assert ob.primary_unitary_cost(np.eye(2), sx) == pytest.approx(1.0)
    # bounded in [0, 1] for unitary pairs
    for _ in range(10):
        v = ob.primary_unitary_cost(haar_unitary(2, rng), haar_unitary(2, rng))
        assert -1e-12 <= v <= 1.0 + 1e-12


def test_primary_unitary_cost_is_one_minus_the_overlap_fidelity_bit_for_bit():
    # sum conj(U) U_t is the exact conjugate of sum U conj(U_t): complex
    # products commute in IEEE arithmetic and a difference negates exactly
    rng = np.random.default_rng(22)
    for d in (2, 4, 8):
        for _ in range(20):
            u, t = haar_unitary(d, rng), haar_unitary(d, rng)
            direct = float(1.0 - abs(np.sum(u * t.conj())) / np.real(np.sum(t * t.conj())))
            assert ob.primary_unitary_cost(u, t) == direct == 1.0 - overlap_fidelity(u, t)


def test_zeroth_order_cost_values():
    c0 = np.array([1.0, 2.0, 0.0])
    t = 2.0
    assert ob.zeroth_order_cost(c0, c0 / t, t) == 0.0
    assert ob.zeroth_order_cost(c0, np.zeros(3), t) == pytest.approx(
        np.linalg.norm(c0) / t
    )


def test_zeroth_order_basis_invariance():
    # the residual norm does not depend on the orthonormal basis of C
    rng = np.random.default_rng(1)
    c0 = rng.normal(size=4)
    tgt = rng.normal(size=4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = ob.zeroth_order_cost(c0, tgt, 1.7)
    b = ob.zeroth_order_cost(q @ c0, q @ tgt, 1.7)
    assert a == pytest.approx(b)


def test_robustness_first_explicit_echo():
    # H_pri = w sx throughout: sz toggles as cos(2wt) sz + sin(2wt) sy;
    # over a full 2w period the average vanishes
    (sx, sy, sz), g, c = su2_setup()
    w = np.pi  # 2w t spans 2 pi over t in [0, 1]
    hp = w * sx
    cset = orc.step_c_integrals(hp, sz, c, 1.0, 1)
    assert ob.robustness_first_cost(cset.c0) < 1e-9
    # constant error with H_pri = 0 integrates without averaging
    zero = np.zeros((2, 2))
    cset = orc.step_c_integrals(zero, sz, c, 1.0, 1)
    v = orc.vector(sz, c.stack).real
    assert ob.robustness_first_cost(cset.c0) == pytest.approx(np.linalg.norm(v) * 1.0)
    zt = orc.step_c_integrals(zero, 0 * sz, c, 1.0, 1)
    assert ob.robustness_first_cost(zt.c0) == 0.0


def test_cross_pair_cost_single_step():
    # constant errors, H_pri = 0: ordered tensor is outer(a, b) T^2/2 and the
    # symmetrized cost is ||a (x) b + b (x) a|| T^2/2
    (sx, sy, sz), g, c = su2_setup()
    cerr = find_c_subspace(g, sx, extra_seeds=(sy,))
    a = orc.vector(sx, cerr.stack).real
    b = orc.vector(sy, cerr.stack).real
    t = 1.3
    tensor = np.outer(a, b) * t ** 2 / 2
    got = ob.robustness_cross_pair_cost(tensor)
    expect = np.linalg.norm(np.outer(a, b) + np.outer(b, a)) * t ** 2 / 2
    assert got == pytest.approx(expect)
    assert got > 0
    assert ob.robustness_cross_pair_cost(np.zeros((3, 3))) == 0.0
    # swapping the pair leaves the symmetrized cost unchanged
    assert ob.robustness_cross_pair_cost(tensor.T) == pytest.approx(got)


def test_higher_order_cost_single_dim():
    assert ob.higher_order_cost(np.array([[0.7]])) == 0.0  # only all-equal tuples


def test_higher_order_palindromic_zero():
    # sign-reversible mirror [A1..Ak, -Ak..-A1]: the toggled coefficient
    # path is time-symmetric, so the reversal residual and H1 both vanish
    (sx, sy, sz), g, c = su2_setup()
    rng = np.random.default_rng(2)
    half = [
        rng.normal() * sx + rng.normal() * sy
        for _ in range(3)
    ]
    seq = half + [-h for h in half[::-1]]
    dt = 0.5
    sh = orc.StepHamiltonians.from_operators(seq, [sz] * 6, dt)
    prop = orc.propagate_primary(sh)
    per = [orc.step_c_integrals(s, sz, c, dt, 2) for s in seq]
    tot = orc.compose_c_integrals(per, prop, c)
    assert ob.higher_order_cost(tot.c1_matrix()) < 1e-8
    # and the first Magnus term indeed vanishes
    _, h1, _ = orc.magnus_terms(tot, c)
    assert np.abs(h1).max() < 1e-10


def test_higher_order_sufficiency_random():
    # higher_order_cost(r=2) ~ 0 forces the first-order Magnus term to zero
    (sx, sy, sz), g, c = su2_setup()
    rng = np.random.default_rng(3)
    seq = [
        rng.normal() * sx + rng.normal() * sy
        for _ in range(4)
    ]
    dt = 0.4
    sh = orc.StepHamiltonians.from_operators(seq, [sz] * 4, dt)
    prop = orc.propagate_primary(sh)
    per = [orc.step_c_integrals(s, sz, c, dt, 2) for s in seq]
    tot = orc.compose_c_integrals(per, prop, c)
    cost = ob.higher_order_cost(tot.c1_matrix())
    _, h1, _ = orc.magnus_terms(tot, c)
    # |H1| is bounded by the residual (coefficient geometry), and a zero
    # residual would force H1 to vanish identically
    assert np.linalg.norm(h1) <= cost / tot.t_seq * np.sqrt(2) * 4


def test_higher_order_zero_pert_case():
    # H_pri = 0, constant pert: c1 = outer(v, v) T^2/2 is symmetric, so the
    # reversal residual |c_ij - c_ji| vanishes and H1 = 0 consistently
    (sx, sy, sz), g, c = su2_setup()
    zero = np.zeros((2, 2))
    cset = orc.step_c_integrals(zero, sx + sz, c, 1.2, 2)
    assert ob.higher_order_cost(cset.c1_matrix()) < 1e-12
    _, h1, _ = orc.magnus_terms(cset, c)
    assert np.abs(h1).max() < 1e-12


def test_effective_robustness_cost():
    (sx, sy, sz), g, c = su2_setup()
    cerr = find_c_subspace(g, sx, extra_seeds=(sy,))
    sp, se = c.stack, cerr.stack
    table = np.einsum("lab,sbc->lsac", se, sp) - np.einsum("sab,lbc->lsac", sp, se)
    assert ob.effective_robustness_cost(np.zeros((3, 3)), table) == 0.0
    # commuting spaces: zero regardless of the tensor
    table0 = np.zeros_like(table)
    rng = np.random.default_rng(4)
    assert ob.effective_robustness_cost(rng.normal(size=(3, 3)), table0) == 0.0
    # single constant step against direct double quadrature
    zero = np.zeros((2, 2))
    dt = 0.9
    a = sx * 0.6
    steps = orc.StepHamiltonians.from_operators([zero], [sz], dt, error_terms={"e": [a]})
    prop = orc.propagate_primary(steps)
    cross = orc.cross_c_integral(steps, "e", c, cerr, prop)
    got = ob.effective_robustness_cost(cross, table)
    vp = orc.vector(sz, c.stack).real
    ve = orc.vector(a, cerr.stack).real
    opref = np.einsum("s,l,lsac->ac", vp, ve, table) * dt ** 2 / 2
    assert got == pytest.approx(np.linalg.norm(opref), rel=1e-6)


# ---------------------------------------------------------------------------
# pipeline / total cost

W1MAX = 2 * np.pi * 20e6
CH = (Channel("amp", (1,), "amp", W1MAX), Channel("ph", (1,), "phase", np.pi))
HAD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
EPS = {"eps": "amplitude"}   # the relative drive error


def hadamard_pipeline(terms):
    (sx, sy, sz), g, c = su2_setup()
    comp = ob.PertComponent(sz, c, np.zeros(3))
    spec = ob.ObjectiveSpec(tuple(terms), target_unitary=HAD)
    return ob.CostPipeline(1, CH, 12, 1e-8, IdealModel(), None, [comp], EPS, c, spec)


def test_empty_spec_zero_total():
    pipe = hadamard_pipeline(())
    rep = pipe.evaluate(np.zeros(24))
    assert rep.total == 0.0


def test_perfect_primary_term():
    # a two-interval composite implementing the Hadamard up to phase:
    # rotation by pi about (x+z)/sqrt2 = H; build via y(pi/2) then x(pi)
    terms = (ob.ObjectiveTerm("primary_unitary", 1.0),)
    pipe = hadamard_pipeline(terms)
    # solve directly: find x with tiny cost via a short anneal, then check 0
    from hamforge.optimizer import GSAConfig, gsa_minimize, restart_rng

    cfg = GSAConfig(q_v=2.3, t0=2.0, t_max=4000, dimension=24, master_seed=3, schedule="standard")
    rng = restart_rng(3, 0)
    res = gsa_minimize(pipe, rng.uniform(-1, 1, 24), cfg, rng)
    assert res.best_e < 1e-3


def test_weight_linearity():
    terms = (
        ob.ObjectiveTerm("primary_unitary", 1.0),
        ob.ObjectiveTerm("zeroth_order_target", 1.0, {"component": 0}),
    )
    pipe1 = hadamard_pipeline(terms)
    terms2 = (
        ob.ObjectiveTerm("primary_unitary", 1.0),
        ob.ObjectiveTerm("zeroth_order_target", 2.0, {"component": 0}),
    )
    pipe2 = hadamard_pipeline(terms2)
    x = np.random.default_rng(5).uniform(-1, 1, 24)
    r1, r2 = pipe1.evaluate(x), pipe2.evaluate(x)
    assert r2.values[1] == pytest.approx(r1.values[1])
    assert r2.total == pytest.approx(r1.total + r1.values[1])


def test_total_cost_continuity():
    terms = (
        ob.ObjectiveTerm("primary_unitary", 1.0),
        ob.ObjectiveTerm("zeroth_order_target", 1.0, {"component": 0}),
        ob.ObjectiveTerm("robustness_first", 1.0, {"error": "eps"}),
        ob.ObjectiveTerm("higher_order_r", 1.0, {"order": 2, "space": "pert", "component": 0}),
    )
    pipe = hadamard_pipeline(terms)
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 24)
    f0 = pipe(x)
    for k in range(5):
        dx = np.zeros(24)
        dx[rng.integers(24)] = 1e-6
        assert abs(pipe(np.clip(x + dx, -1, 1)) - f0) < 1e-4


def test_total_cost_op_and_determinism():
    terms = (ob.ObjectiveTerm("primary_unitary", 1.0),)
    pipe = hadamard_pipeline(terms)
    x = np.random.default_rng(7).uniform(-1, 1, 24)
    rep = pipe.evaluate(pipe.sequence(x).values.ravel())
    assert rep.total == pipe(x)


def test_phase_invariance_of_costs():
    terms = (ob.ObjectiveTerm("primary_unitary", 1.0),)
    pipe = hadamard_pipeline(terms)
    x = np.random.default_rng(8).uniform(-1, 1, 24)
    fld = pipe.model.field(pipe.sequence(x))
    h_pri = np.einsum("kq,kab->qab", fld.b, pipe.axis_ops) + pipe.pri_internal
    u = orc.step_product(h_pri, fld.delta_t)
    a = ob.primary_unitary_cost(u, HAD)
    b = ob.primary_unitary_cost(np.exp(0.4j) * u, HAD)
    assert a == pytest.approx(b)


def test_second_amplitude_derivative_of_a_drive_linear_model_is_zero():
    terms = (
        ob.ObjectiveTerm("robustness_second", 1.0, {"errors": ["eps", "eps"]}),
    )
    pipe = hadamard_pipeline(terms)
    rep = pipe.evaluate(np.random.default_rng(9).uniform(-1, 1, 24))
    assert rep.values[0] == 0.0  # dH = eps H_c is exactly linear in eps


CIRCUIT_CONFIG = {
    "system": {
        "n_qubits": 1,
        "terms": [{"name": "detuning", "strings": [{"pauli": [[1, "z"]]}],
                   "assign": "pert", "component": 1, "coeff": 0.0}],
    },
    "control": {
        "channels": [
            {"name": "x", "qubits": [1], "role": "x", "scale": 10.0},
            {"name": "y", "qubits": [1], "role": "y", "scale": 10.0},
        ],
        "intervals": 4, "dt": 1e-08, "substeps": 4, "model": "circuit",
    },
    "errors": [
        {"name": "eps", "kind": "amplitude"},
        {"name": "alpha_L", "kind": "model_param", "param": "alpha_L"},
    ],
    "targets": {"u_target": "hadamard"},
    "objectives": [
        {"kind": "primary_unitary", "weight": 20},
        {"kind": "robustness_first", "weight": 1, "error": "eps"},
        {"kind": "robustness_first", "weight": 1, "error": "alpha_L"},
        {"kind": "robustness_second", "weight": 1, "errors": ["alpha_L", "alpha_L"]},
    ],
}


def circuit_pipeline():
    from hamforge.config import build_pipeline, parse_config

    return build_pipeline(parse_config(CIRCUIT_CONFIG))


def count_adjoint_calls(monkeypatch):
    calls = []
    real = tg.adjoint_matrix_batch

    def counted(lam, vecs, frame):
        calls.append(frame.stack)
        return real(lam, vecs, frame)

    monkeypatch.setattr(tg, "adjoint_matrix_batch", counted)
    return calls


def test_circuit_pipeline_solves_one_field_per_evaluation(monkeypatch):
    # one nominal field solve carries every derivative the terms read;
    # the build solves none
    from hamforge.controlsys import CircuitModel

    real = CircuitModel.field
    calls = []

    def counted(self, seq, jets=()):
        calls.append((self.cp.alpha_l, tuple(jets)))
        return real(self, seq, jets)

    monkeypatch.setattr(CircuitModel, "field", counted)
    pipe = circuit_pipeline()
    assert calls == []
    rep = pipe.evaluate(np.random.default_rng(10).uniform(-1, 1, 8))
    [(alpha_l, jets)] = calls
    assert alpha_l == 0.0 and set(jets) == {"amplitude", "alpha_L", ("alpha_L", "alpha_L")}
    assert all(np.isfinite(rep.values))


def test_circuit_mixed_second_term_is_three_times_the_alpha_term():
    # the alpha_L channel is cubic in the drive at alpha_L = 0, so
    # d2b/deps dalpha_L = 3 db/dalpha_L; both terms share one error space
    from hamforge.config import build_pipeline, parse_config

    cfg = dict(CIRCUIT_CONFIG, objectives=[
        {"kind": "robustness_first", "weight": 1, "error": "alpha_L"},
        {"kind": "robustness_second", "weight": 1, "errors": ["eps", "alpha_L"]},
        {"kind": "robustness_second", "weight": 1, "errors": ["alpha_L", "eps"]},
    ])
    pipe = build_pipeline(parse_config(cfg))
    first, mixed, swapped = pipe.evaluate(np.random.default_rng(12).uniform(-1, 1, 8)).values
    assert first > 0
    assert mixed == pytest.approx(3 * first, rel=1e-12)
    assert swapped == pytest.approx(mixed, rel=1e-12)


def test_nonlinear_circuit_amplitude_error_is_the_field_derivative():
    # with alpha_L != 0 the field is not linear in the drive, so the
    # amplitude error's dH is the drive-error derivative of the field (up
    # to 90% away from H_c at full drive), not H_c; it equals a model_param
    # error on the model's amplitude parameter, and its second order is not 0
    from hamforge.config import build_pipeline, parse_config

    circuit = dict(CIRCUIT_CONFIG["control"], circuit={"alpha_l": -5e-3})
    errors = CIRCUIT_CONFIG["errors"] + [{"name": "amp", "kind": "model_param", "param": "amplitude"}]
    terms = [{"kind": kind, "weight": 1, key: val} for kind, key, val in (
        ("robustness_first", "error", "eps"),
        ("robustness_first", "error", "amp"),
        ("robustness_second", "errors", ["eps", "eps"]),
        ("robustness_second", "errors", ["amp", "amp"]),
    )]
    cfg = dict(CIRCUIT_CONFIG, control=circuit, errors=errors, objectives=terms)
    pipe = build_pipeline(parse_config(cfg))
    first_eps, first_amp, second_eps, second_amp = pipe.evaluate(np.ones(8)).values
    assert first_eps == pytest.approx(first_amp, rel=1e-12)
    assert second_eps > 1e-3 * first_eps
    assert second_eps == pytest.approx(second_amp, rel=1e-12)


def test_error_on_a_parameter_the_model_lacks_fails_at_build():
    from dataclasses import replace

    from hamforge.config import ConfigError, build_pipeline, parse_config

    errors = [{"name": "bw", "kind": "model_param", "param": "W"}]
    terms = [{"kind": "robustness_first", "weight": 1, "error": "bw"}]
    with pytest.raises(ConfigError, match=r"errors\[0\]\.param.*'W'"):
        parse_config(dict(CIRCUIT_CONFIG, errors=errors, objectives=terms))
    # past the parser, the pipeline's own check still turns it into a ConfigError
    cfg = parse_config(dict(CIRCUIT_CONFIG, objectives=terms,
                            errors=[dict(errors[0], param="alpha_L")]))
    cfg = replace(cfg, errors=(dict(cfg.errors[0], param="W"),))
    with pytest.raises(ConfigError, match="'W'"):
        build_pipeline(cfg)


def count_step_nodes(monkeypatch):
    """The frequencies nu of every `StepNodes` built, one per subspace."""
    calls = []
    real = tg.StepNodes
    monkeypatch.setattr(tg, "StepNodes", lambda nu, *rest: calls.append(nu) or real(nu, *rest))
    return calls


# the terms of the anneal-1q-hadamard benchmark: an r=3 and an r=2 request
# and a cross on one subspace
HADAMARD_TERMS = (
    ob.ObjectiveTerm("primary_unitary", 20.0),
    ob.ObjectiveTerm("zeroth_order_target", 4.0),
    ob.ObjectiveTerm("robustness_first", 1.0, {"error": "eps"}),
    ob.ObjectiveTerm("higher_order_r", 4.0, {"order": 2}),
    ob.ObjectiveTerm("higher_order_r", 0.5, {"order": 2, "space": "eps"}),
    ob.ObjectiveTerm("effective_robustness", 1.0, {"error": "eps"}),
    ob.ObjectiveTerm("higher_order_r", 1.0, {"order": 3}),
)


def test_requests_on_one_subspace_share_one_set_of_step_nodes(monkeypatch):
    pipe = hadamard_pipeline(HADAMARD_TERMS)
    calls = count_step_nodes(monkeypatch)
    for seed in (14, 15):
        x = np.random.default_rng(seed).uniform(-1, 1, 24)
        before = len(calls)
        rep = pipe.evaluate(x)
        # one frequency 0 and one pair per step on su(2)
        assert [nu.shape for nu in calls[before:]] == [(12, 2)]
        # each term alone builds its own nodes, to the same bits
        for term, value in zip(HADAMARD_TERMS, rep.values):
            assert hadamard_pipeline((term,)).evaluate(x).values == (value,)


def test_one_adjoint_eigendecomposition_per_distinct_subspace(monkeypatch):
    # the component space and both error spaces have bitwise-equal bases
    pipe = circuit_pipeline()
    calls = count_adjoint_calls(monkeypatch)
    for seed in (11, 12):
        before = len(calls)
        pipe.evaluate(np.random.default_rng(seed).uniform(-1, 1, 8))
        assert len(calls) - before == 1


def two_space_pipeline():
    """2 qubits, drive on qubit 1: C_pert = span{x1 z2, y1 z2, z1 z2} and
    C_err = span{x1, y1, z1} are different subspaces."""
    x1, y1 = pauli_op([(1, "x")], 1.0, 2), pauli_op([(1, "y")], 1.0, 2)
    z1z2 = pauli_op([(1, "z"), (2, "z")], 1.0, 2)
    g = find_lie_algebra([x1, y1])
    c_pert = find_c_subspace(g, z1z2)
    c_err = find_c_subspace(g, x1, extra_seeds=(y1,))
    comp = ob.PertComponent(z1z2, c_pert, None)
    terms = (
        ob.ObjectiveTerm("robustness_first", 1.0, {"error": "eps"}),
        ob.ObjectiveTerm("effective_robustness", 1.0, {"error": "eps", "component": 0}),
        ob.ObjectiveTerm("higher_order_r", 1.0, {"order": 2, "space": "eps"}),
    )
    spec = ob.ObjectiveSpec(terms)
    return ob.CostPipeline(2, CH, 12, 1e-8, IdealModel(), None, [comp], EPS, c_err, spec)


TWO_SPACE_CONFIG = {
    "system": {
        "n_qubits": 2,
        "terms": [{"name": "zz", "strings": [{"pauli": [[1, "z"], [2, "z"]]}],
                   "assign": "pert", "coeff": 1.0}],
    },
    "control": {
        "channels": [
            {"name": "amp", "qubits": [1], "role": "amp", "scale": W1MAX},
            {"name": "ph", "qubits": [1], "role": "phase", "scale": np.pi},
        ],
        "intervals": 12, "dt": 1e-8,
    },
    "errors": [{"name": "eps", "kind": "amplitude"}],
    "objectives": [
        {"kind": "robustness_first", "weight": 1, "error": "eps"},
        {"kind": "effective_robustness", "weight": 1, "error": "eps", "component": 1},
        {"kind": "higher_order_r", "weight": 1, "order": 2, "space": "eps"},
    ],
}


def test_a_problem_files_error_subspace_holds_the_field_operators():
    # the component's span{x1 z2, y1 z2, z1 z2} does not hold the drive's
    # x1 and y1, so the error subspace is not the component's, and the
    # costs are those of the same problem built by hand
    from hamforge.config import build_pipeline, parse_config

    pipe = build_pipeline(parse_config(TWO_SPACE_CONFIG))
    assert project(pipe.axis_ops, pipe.err_space.stack)[1].max() < 1e-12
    assert project(pipe.axis_ops, pipe.components[0].subspace.stack)[1].min() > 0.5
    x = np.random.default_rng(16).uniform(-1, 1, 24)
    got, want = pipe.evaluate(x).values, two_space_pipeline().evaluate(x).values
    assert min(want) > 1e-3
    assert got == pytest.approx(want, rel=1e-10)


def test_distinct_error_subspace_keeps_its_own_eigendata(monkeypatch):
    pipe = two_space_pipeline()
    calls = count_adjoint_calls(monkeypatch)
    nodes = count_step_nodes(monkeypatch)
    x = np.random.default_rng(13).uniform(-1, 1, 24)
    rep = pipe.evaluate(x)
    assert len(calls) == 2
    assert not np.array_equal(calls[0], calls[1])
    # the nodes of each subspace, which the cross pairs
    assert len(nodes) == 2
    assert rep.values[2] > 0
    # effective robustness against the sequential cross integral, whose
    # toggles come from conjugation by the step unitaries
    comp = pipe.components[0]
    fld = pipe.model.field(pipe.sequence(x))
    h_ctrl = np.einsum("kq,kab->qab", fld.b, pipe.axis_ops)
    qn = h_ctrl.shape[0]
    steps = orc.StepHamiltonians(
        h_ctrl, np.broadcast_to(comp.matrix, h_ctrl.shape), {"eps": h_ctrl}, fld.delta_t
    )
    prop = orc.propagate_primary(steps)
    cross = orc.cross_c_integral(steps, "eps", comp.subspace, pipe.err_space, prop)
    t_seq = qn * fld.delta_t
    sp, se = comp.subspace.stack, pipe.err_space.stack
    table = np.einsum("lab,sbc->lsac", se, sp) - np.einsum("sab,lbc->lsac", sp, se)
    want = ob.effective_robustness_cost(cross, table) / (
        t_seq ** 2 * pipe.comp_scale[0] * pipe.err_scale * 2.0
    )
    assert want > 1e-3
    assert rep.values[1] == pytest.approx(want, rel=1e-12)


W2 = 0.7 * W1MAX
CH2 = CH + (Channel("amp2", (2,), "amp", W2), Channel("ph2", (2,), "phase", np.pi))


def uncoupled_pipeline():
    """Two uncoupled qubits, each driven: H_pert = z1 toggles in
    span{x1, y1, z1} and the amplitude error in the six one-qubit
    directions, both proper subspaces of su(4)."""
    x1, y1, z1 = (pauli_op([(1, a)], 1.0, 2) for a in "xyz")
    x2, y2 = pauli_op([(2, "x")], 1.0, 2), pauli_op([(2, "y")], 1.0, 2)
    g = find_lie_algebra([x1, y1, x2, y2])
    comp = ob.PertComponent(z1, find_c_subspace(g, z1), None)
    c_err = find_c_subspace(g, x1, extra_seeds=(y1, x2, y2))
    terms = (
        ob.ObjectiveTerm("primary_unitary", 1.0),
        ob.ObjectiveTerm("zeroth_order_target", 1.0),
        ob.ObjectiveTerm("robustness_first", 1.0, {"error": "eps"}),
        ob.ObjectiveTerm("higher_order_r", 1.0, {"order": 3}),
        ob.ObjectiveTerm("higher_order_r", 1.0, {"order": 3, "space": "eps"}),
        ob.ObjectiveTerm("effective_robustness", 1.0, {"error": "eps"}),
        ob.ObjectiveTerm("robustness_cross_pair", 1.0, {"errors": ["eps", "eps"]}),
    )
    spec = ob.ObjectiveSpec(terms, target_unitary=np.kron(HAD, HAD))
    return ob.CostPipeline(2, CH2, 12, 1e-8, IdealModel(), None, [comp], EPS, c_err, spec)


def schur_of_the_adjoint(lam, vecs, frame):
    """(nu, F) from the real Schur form of the (Q, m, m) adjoint matrices,
    as the reference path for the frame."""
    h = (vecs * lam[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return orc.real_frame(h, frame.stack)


def _distinct_frequencies(nu):
    """The number of distinct frequencies of each step, at 1e-9 of the largest."""
    gaps = np.diff(np.sort(nu, axis=-1), axis=-1)
    return 1 + np.sum(gaps > 1e-9 * np.abs(nu).max(axis=-1, keepdims=True), axis=-1)


@pytest.mark.parametrize("build, width", [(uncoupled_pipeline, 48), (two_space_pipeline, 24)])
def test_proper_subspaces_get_the_groups_and_costs_of_the_adjoint_eigh(monkeypatch, build, width):
    # the frame of a proper subspace carries columns outside its span at
    # frequency 0, so each step has the groups of distinct frequencies of
    # the Schur form of the adjoint, and the costs match that form's
    pipe = build()
    assert all(f.pairs.shape[1] > len(f.stack) for f in (*pipe.comp_frames, pipe.err_frame))
    nodes = count_step_nodes(monkeypatch)
    for seed in (17, 18):
        x = np.random.default_rng(seed).uniform(-1, 1, width)
        got = pipe.evaluate(x).values
        with monkeypatch.context() as m:
            m.setattr(tg, "adjoint_matrix_batch", schur_of_the_adjoint)
            want = pipe.evaluate(x).values
        frame_nu, schur_nu = nodes[: len(nodes) // 2], nodes[len(nodes) // 2 :]
        for a, b in zip(frame_nu, schur_nu):
            assert np.array_equal(_distinct_frequencies(a), _distinct_frequencies(b))
        nodes.clear()
        assert all(v > 1e-6 for v in want)
        assert got == pytest.approx(want, rel=1e-12)


def test_an_evaluation_takes_one_eigendecomposition(monkeypatch):
    # of the (Q, d, d) step Hamiltonians, whatever the subspaces and terms
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(np.shape(a)) or real(a))
    for pipe, width, d in ((hadamard_pipeline(HADAMARD_TERMS), 24, 2), (uncoupled_pipeline(), 48, 4)):
        calls.clear()
        pipe.evaluate(np.random.default_rng(19).uniform(-1, 1, width))
        assert calls == [(12, d, d)]


def circuit_error_ops(pipe, x):
    """Primary Hamiltonians and, per error channel, the per-step dH from the
    model's field derivatives, as the sequential engine takes them."""
    fld = pipe.model.field(pipe.sequence(x), ("amplitude", "alpha_L"))
    h_pri = np.einsum("kq,kab->qab", fld.b, pipe.axis_ops)
    scale = pipe.model.param_scale("alpha_L")
    ops = {
        "eps": np.einsum("kq,kab->qab", fld.sensitivities["amplitude"], pipe.axis_ops),
        "alpha_L": np.einsum("kq,kab->qab", fld.sensitivities["alpha_L"] * scale, pipe.axis_ops),
    }
    return h_pri, ops, fld.delta_t


def test_cross_pair_of_one_channel_matches_the_sequential_engine():
    from hamforge.config import build_pipeline, parse_config

    cfg = dict(CIRCUIT_CONFIG, objectives=[
        {"kind": "robustness_cross_pair", "weight": 1, "errors": ["alpha_L", "alpha_L"]},
    ])
    pipe = build_pipeline(parse_config(cfg))
    x = np.random.default_rng(14).uniform(-1, 1, 8)
    [got] = pipe.evaluate(x).values
    h_pri, ops, dt = circuit_error_ops(pipe, x)
    c_err = pipe.err_space
    steps = orc.StepHamiltonians(h_pri, ops["alpha_L"], {}, dt)
    per = [
        orc.step_c_integrals(h, e, c_err, dt, 2)
        for h, e in zip(h_pri, ops["alpha_L"])
    ]
    c1 = orc.compose_c_integrals(per, orc.propagate_primary(steps), c_err).c1_matrix()
    t_seq, err_scale = len(h_pri) * dt, 10.0 * np.sqrt(2)
    want = ob.robustness_cross_pair_cost(c1) / (t_seq * err_scale) ** 2
    assert want > 1e-6
    assert got == pytest.approx(want, rel=1e-12)


def test_cross_pair_of_two_channels_matches_the_sequential_engine():
    # the sequential cross integral puts h_pert at the later time: the j1
    # channel's dH takes that slot for c(j1, j2), the j2 channel's for c(j2, j1)
    from hamforge.config import build_pipeline, parse_config

    cfg = dict(CIRCUIT_CONFIG, objectives=[
        {"kind": "robustness_cross_pair", "weight": 1, "errors": ["eps", "alpha_L"]},
    ])
    pipe = build_pipeline(parse_config(cfg))
    x = np.random.default_rng(15).uniform(-1, 1, 8)
    [got] = pipe.evaluate(x).values
    h_pri, ops, dt = circuit_error_ops(pipe, x)
    c_err = pipe.err_space
    prop = orc.propagate_primary(orc.StepHamiltonians(h_pri, h_pri, {}, dt))

    def cross(later, earlier):
        steps = orc.StepHamiltonians(h_pri, ops[later], {earlier: ops[earlier]}, dt)
        return orc.cross_c_integral(steps, earlier, c_err, c_err, prop)

    t_seq, err_scale = len(h_pri) * dt, 10.0 * np.sqrt(2)
    ab, ba = cross("eps", "alpha_L"), cross("alpha_L", "eps")
    want = ob.robustness_cross_pair_cost(ab, ba) / (t_seq * err_scale) ** 2
    assert want > 1e-6
    assert got == pytest.approx(want, rel=1e-12)
    # both channel orders count, so the pair is symmetric in its channels
    swapped = build_pipeline(parse_config(dict(cfg, objectives=[
        {"kind": "robustness_cross_pair", "weight": 1, "errors": ["alpha_L", "eps"]},
    ])))
    assert swapped.evaluate(x).values[0] == pytest.approx(got, rel=1e-12)


def test_a_built_pipeline_pickles_and_evaluates_bit_identically():
    import pickle

    from hamforge.config import build_pipeline, parse_config

    cfg = dict(CIRCUIT_CONFIG, objectives=[
        {"kind": "primary_unitary", "weight": 20},
        {"kind": "zeroth_order_target", "weight": 4, "component": 1},
        {"kind": "robustness_first", "weight": 1, "error": "alpha_L"},
        {"kind": "robustness_second", "weight": 1, "errors": ["eps", "alpha_L"]},
        {"kind": "robustness_second", "weight": 1, "errors": ["eps", "eps"]},
        {"kind": "robustness_cross_pair", "weight": 1, "errors": ["eps", "eps"]},
        {"kind": "robustness_cross_pair", "weight": 1, "errors": ["eps", "alpha_L"]},
        {"kind": "higher_order_r", "weight": 1, "order": 3, "space": "pert", "component": 1},
        {"kind": "higher_order_r", "weight": 1, "order": 2, "space": "alpha_L"},
        {"kind": "effective_robustness", "weight": 1, "error": "eps", "component": 1},
    ])
    pipe = build_pipeline(parse_config(cfg))
    copy = pickle.loads(pickle.dumps(pipe))
    x = np.random.default_rng(16).uniform(-1, 1, 8)
    rep, again = pipe.evaluate(x), copy.evaluate(x)
    assert again.labels == rep.labels and len(rep.labels) == 10
    assert again.values == rep.values
    assert all(np.isfinite(rep.values))
