import json
from pathlib import Path

import numpy as np
import pytest

from hamforge import cli
from hamforge import config as cfgmod
from hamforge.config import sequence_from_dict, write_sequence
from hamforge.controlsys import IdealModel
from hamforge.opcore import SubspaceError
from hamforge.optimizer import OptimizationResult
from _oracles import exact_unitary
from conftest import chain_problem


def _config_1q(h_target=True):
    cfg = {
        "seed": 3,
        "system": {
            "n_qubits": 1,
            "terms": [{
                "name": "detuning", "strings": [{"pauli": [[1, "z"]]}],
                "assign": "pert", "component": 1, "coeff": 0.0, "dist": "detuning",
            }],
        },
        "control": {
            "channels": [
                {"name": "amp", "qubits": [1], "role": "amp", "scale": 2 * np.pi * 20e6},
                {"name": "ph", "qubits": [1], "role": "phase", "scale": np.pi},
            ],
            "intervals": 6,
            "dt": 1e-8,
            "model": "ideal",
        },
        "distributions": {
            "detuning": {"kind": "uniform", "args": [-2 * np.pi * 1e6, 2 * np.pi * 1e6]},
            "amp_err": {"kind": "uniform", "args": [-0.05, 0.05]},
        },
        "errors": [{"name": "eps", "kind": "amplitude", "dist": "amp_err"}],
        "targets": {"u_target": "hadamard"},
        "evaluation": {"n_mc": 150, "scale_samples": 300, "scale_batch": 100},
    }
    if h_target:
        cfg["targets"]["h_target"] = {"1": {"strings": [{"pauli": [[1, "z"]]}]}}
    return cfg


def _write_config(tmp_path, cfg):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_scale_writes_range(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["scale", "--config", _write_config(tmp_path, _config_1q()), "--out", str(out)])
    assert code == cli.EXIT_OK
    rep = json.loads((out / "scale.json").read_text())
    assert rep["achievable"] is True
    assert rep["s_minus"] <= rep["s_plus"]
    assert rep["convergence_history"]
    assert rep["convergence_history"][-1][0] == rep["samples_used"]


def _strict(name):
    raise ValueError(f"{name} is not strict JSON")


def test_cli_scale_writes_an_end_without_an_optimum_as_null(tmp_path):
    # four vertices of the design fixture's 15-dimensional subspace give a
    # degenerate hull, whose LPs reach no optimum at either end
    fixtures = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
    path = fixtures / "design-2q-scale-evaluate.json"
    if not path.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    cfg = json.loads(path.read_text())
    cfg["evaluation"]["scale_samples"] = 4
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="degenerate hull"):
        code = cli.main(["scale", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_INFEASIBLE
    rep = json.loads((out / "scale.json").read_text(), parse_constant=_strict)
    assert rep["achievable"] is False
    assert rep["s_minus"] is None and rep["s_plus"] is None
    assert rep["convergence_history"] == [[4, None, None]]


def test_cli_scale_on_the_3_qubit_chain_with_small_batches_exits_0(tmp_path):
    # scale_batch 16 is below m + 1 = 64; a search that solved its first
    # batches stopped HiGHS at "Unknown" on this seed and exited 1 with a
    # traceback, while one solve per end over the 1,000 vertices has finite ends
    cfg = chain_problem(3)
    cfg["seed"] = 100
    cfg["evaluation"]["scale_batch"] = 16
    out = tmp_path / "out"
    code = cli.main(["scale", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    rep = json.loads((out / "scale.json").read_text(), parse_constant=_strict)
    assert rep["achievable"] is True and rep["samples_used"] == 1000
    assert -1 < rep["s_minus"] < 0 < rep["s_plus"] < 1
    assert rep["convergence_history"] == [[1000, rep["s_minus"], rep["s_plus"]]]


def test_cli_scale_without_target_is_a_validation_error(tmp_path):
    out = tmp_path / "out"
    cfg = _config_1q(h_target=False)
    code = cli.main(["scale", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert json.loads((out / "scale.json").read_text())["achievable"] is False


def _write_sequence(tmp_path, cfg):
    seq = sequence_from_dict({
        "dt": cfg["control"]["dt"],
        "channels": [
            dict(ch, values=list(np.random.default_rng(17).uniform(-1, 1, 6)))
            for ch in cfg["control"]["channels"]
        ],
    })
    seq_path = tmp_path / "sequence.json"
    write_sequence(seq, str(seq_path))
    return seq_path


def test_cli_evaluate_reports_fom_and_seed_override(tmp_path):
    cfg = _config_1q()
    seq_path = _write_sequence(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main([
        "evaluate", "--config", _write_config(tmp_path, cfg), "--seed", "41",
        "--out", str(out), str(seq_path),
    ])
    assert code == cli.EXIT_OK
    rep = json.loads((out / "evaluate.json").read_text())
    assert 0.0 <= rep["fom"] <= 1.0
    assert rep["seed"] == 41
    assert rep["n_mc"] == 150
    # two dispersed columns: a 10 x 10 grid would cost more than n_mc / 8,
    # so the report propagates every draw and no pilot line
    assert rep["propagations"] == 150


def _config_optimize(e_target=None):
    cfg = _config_1q()
    cfg["objectives"] = [
        {"kind": "primary_unitary", "weight": 20},
        {"kind": "zeroth_order_target", "weight": 4, "component": 1},
        {"kind": "robustness_first", "weight": 1, "error": "eps"},
        {"kind": "higher_order_r", "weight": 2, "order": 2, "space": "pert", "component": 1},
    ]
    cfg["optimizer"] = {"schedule": "standard", "T0": 2.0, "stages": [[40, 2.0]]}
    if e_target is not None:
        cfg["optimizer"]["e_target"] = e_target
    return cfg


def test_cli_optimize_writes_consistent_cost(tmp_path):
    from hamforge.config import build_pipeline, parse_config, read_sequence

    cfg = _config_optimize()
    out = tmp_path / "out"
    code = cli.main([
        "optimize", "--config", _write_config(tmp_path, cfg), "--threads", "1", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    rep = json.loads((out / "optimize.json").read_text())
    weighted = sum(rep["weights"][k] * v for k, v in rep["terms"].items())
    assert len(rep["terms"]) == 4
    assert abs(rep["f_tot"] - weighted) <= 1e-12 * abs(rep["f_tot"])
    seq = read_sequence(rep["sequence_file"])
    again = build_pipeline(parse_config(cfg)).evaluate(seq.values.ravel())
    assert abs(rep["f_tot"] - again.total) <= 1e-12 * abs(rep["f_tot"])
    assert rep["iterations"] > 0


def test_cli_optimize_above_energy_target_exits_budget(tmp_path):
    out = tmp_path / "out"
    cfg = _config_optimize(e_target=1e-30)
    code = cli.main([
        "optimize", "--config", _write_config(tmp_path, cfg), "--threads", "1", "--out", str(out),
    ])
    assert code == cli.EXIT_BUDGET
    assert json.loads((out / "optimize.json").read_text())["f_tot"] > 1e-30


@pytest.mark.parametrize("t_dep", [-1e-7, 0.0, float("inf")])
def test_cli_evaluate_rejects_a_relaxation_time_that_is_not_finite_and_positive(
    tmp_path, capsys, t_dep
):
    cfg = _config_1q()
    cfg["evaluation"]["t_dep"] = t_dep
    seq_path = _write_sequence(tmp_path, cfg)
    code = cli.main([
        "evaluate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
        str(seq_path),
    ])
    assert code == cli.EXIT_VALIDATION
    assert "evaluation.t_dep" in capsys.readouterr().err


@pytest.mark.parametrize("command, evaluation, key_path", [
    ("landscape", {"landscape": {"axis1": {"dist": "nope", "values": [0.0]},
                                 "axis2": {"dist": "amp_err", "values": [0.0]}}},
     "evaluation.landscape.axis1.dist"),
    ("landscape", {"landscape": {"axis1": {"values": [0.0]},
                                 "axis2": {"dist": "amp_err", "values": [0.0]}}},
     "evaluation.landscape.axis1.dist"),
    ("landscape", {"landscape": {"axis1": {"dist": "detuning", "values": [0.0]},
                                 "axis2": {"dist": "amp_err"}}},
     "evaluation.landscape.axis2.values"),
    ("simulate", {"simulate_params": {"nope": 1.0}}, "evaluation.simulate_params"),
], ids=["unknown-dist", "missing-dist", "missing-values", "unknown-simulate-param"])
def test_cli_rejects_evaluation_settings_naming_no_distribution(
    tmp_path, capsys, command, evaluation, key_path
):
    cfg = _config_1q()
    cfg["evaluation"].update(evaluation)
    seq_path = _write_sequence(tmp_path, cfg)
    code = cli.main([
        command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
        str(seq_path),
    ])
    assert code == cli.EXIT_VALIDATION
    assert key_path in capsys.readouterr().err


def test_cli_evaluate_rejects_a_distribution_that_nothing_claims(tmp_path, capsys):
    cfg = _config_1q()
    cfg["distributions"]["spare"] = {"kind": "uniform", "args": [-1, 1]}
    seq_path = _write_sequence(tmp_path, cfg)
    code = cli.main([
        "evaluate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
        str(seq_path),
    ])
    assert code == cli.EXIT_VALIDATION
    assert "distributions.spare" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("evaluate", "n_mc", 0),
    ("evaluate", "n_mc", 2.5),
    ("evaluate", "n_mc", True),
    ("scale", "scale_samples", 0),
    ("scale", "scale_samples", "300"),
    ("simulate", "n_cycles", -1),
    ("simulate", "n_cycles", 7.0),
])
def test_cli_rejects_sample_and_cycle_counts_out_of_range(tmp_path, capsys, command, key, value):
    cfg = _config_1q()
    cfg["evaluation"][key] = value
    seq_path = _write_sequence(tmp_path, cfg)
    extra = [] if command == "scale" else [str(seq_path)]
    code = cli.main([
        command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), *extra,
    ])
    assert code == cli.EXIT_VALIDATION
    assert f"evaluation.{key}" in capsys.readouterr().err


def test_cli_simulate_accepts_zero_cycles(tmp_path):
    cfg = _config_1q()
    cfg["evaluation"]["n_cycles"] = 0
    seq_path = _write_sequence(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(out),
                     str(seq_path)])
    assert code == cli.EXIT_OK
    assert (out / "survival.csv").read_text().splitlines() == [
        "cycle,survival_probability", "0,1"
    ]


def test_cli_algebra_reports_the_full_su2(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["algebra", "--config", _write_config(tmp_path, _config_1q()), "--out", str(out)])
    assert code == cli.EXIT_OK
    rep = json.loads((out / "algebra.json").read_text())
    assert rep["generator_count"] == 2       # x and y of the one drive
    assert rep["dimension"] == rep["full_algebra_dimension"] == 3
    assert rep["universal"] is True


def test_cli_subspace_contains_the_target(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["subspace", "--config", _write_config(tmp_path, _config_1q()), "--out", str(out)])
    assert code == cli.EXIT_OK
    rep = json.loads((out / "subspace.json").read_text())
    assert rep["algebra_dimension"] == 3
    comp = rep["components"]["1"]
    assert comp["dimension"] == 3            # z toggles through all of su(2)
    assert comp["target_in_subspace"] is True
    assert comp["target_residual"] <= 1e-12


def _library_view(cfg, seq_path):
    pc = cfgmod.parse_config(cfg)
    u0 = cfgmod.total_target_unitary(pc, cfgmod.build_subspaces(pc, cfgmod.build_algebra(pc)))
    return cfgmod.read_sequence(str(seq_path)), cfgmod.build_evaluation_setup(pc), u0


def test_cli_landscape_matches_per_point_oracle(tmp_path, monkeypatch):
    cfg = _config_1q()
    detuning = [-2 * np.pi * 1e6, -2 * np.pi * 2e5, 0.0, 2 * np.pi * 7e5]
    amp_err = [-0.05, 0.01, 0.04]
    cfg["evaluation"]["landscape"] = {
        "axis1": {"dist": "detuning", "values": detuning},
        "axis2": {"dist": "amp_err", "values": amp_err},
    }
    seq_path = _write_sequence(tmp_path, cfg)
    solves = []
    field = IdealModel.field

    def counted(self, seq, jets=()):
        solves.append(self.amplitude)
        return field(self, seq, jets)

    monkeypatch.setattr(IdealModel, "field", counted)
    out = tmp_path / "out"
    code = cli.main(["landscape", "--config", _write_config(tmp_path, cfg), "--out", str(out), str(seq_path)])
    monkeypatch.undo()
    assert code == cli.EXIT_OK
    assert solves == [0.0]   # the blocked path: one unit-drive field for the whole grid
    rows = np.loadtxt(out / "landscape.csv", delimiter=",", skiprows=1)
    assert rows[:, :2].tolist() == [[a, b] for a in detuning for b in amp_err]
    seq, setup, u0 = _library_view(cfg, seq_path)
    for v1, v2, fid in rows:
        u = exact_unitary(seq, setup, {"detuning": v1, "amp_err": v2})
        want = abs(np.sum(u.conj() * u0)) / np.real(np.sum(u0.conj() * u0))
        assert abs(fid - want) <= 1e-12


def test_cli_simulate_matches_oracle(tmp_path):
    cfg = _config_1q()
    params = {"detuning": 2 * np.pi * 3e5, "amp_err": 0.03}
    cfg["evaluation"].update(simulate_params=params, initial_state="plus", n_cycles=7)
    seq_path = _write_sequence(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(out), str(seq_path)])
    assert code == cli.EXIT_OK
    rows = np.loadtxt(out / "survival.csv", delimiter=",", skiprows=1)
    seq, setup, _ = _library_view(cfg, seq_path)
    u = exact_unitary(seq, setup, params)
    psi0 = np.full(2, 1 / np.sqrt(2), dtype=complex)
    want = [abs(np.vdot(psi0, np.linalg.matrix_power(u, n) @ psi0)) ** 2 for n in range(8)]
    assert rows[:, 0].tolist() == list(range(8))
    assert np.abs(rows[:, 1] - want).max() <= 1e-12


def _fail_if_called(*args, **kwargs):
    raise AssertionError("this stage must not run")


@pytest.mark.parametrize("bad, path, detail", [
    ({"kind": "zeroth_order_target", "component": 2}, "objectives[4].component", "2"),
    ({"kind": "robustness_first", "error": "nope"}, "objectives[4].error", "'nope'"),
    ({"kind": "effective_robustness", "error": "nope"}, "objectives[4].error", "'nope'"),
    ({"kind": "higher_order_r", "order": 2, "space": "nope"}, "objectives[4].space", "'nope'"),
    ({"kind": "higher_order_r", "order": 4}, "objectives[4].order", "4"),
    (None, "objectives[0].kind", "u_target"),
], ids=["unknown-component", "first-unknown-error", "effective-unknown-error",
        "unknown-space", "order-4", "primary-without-target"])
def test_cli_optimize_rejects_an_objective_that_refers_to_nothing(
    tmp_path, capsys, monkeypatch, bad, path, detail
):
    # the check runs before the scale gate and before any annealing
    cfg = _config_optimize()
    cfg["targets"]["s_target"] = 0.5
    if bad is None:
        del cfg["targets"]["u_target"]   # objectives[0] is primary_unitary
    else:
        cfg["objectives"].append(dict(bad, weight=1))
    monkeypatch.setattr(cli, "_scale_range", _fail_if_called)
    monkeypatch.setattr(cli, "parallel_restarts", _fail_if_called)
    code = cli.main(["optimize", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"config error: {path}" in err and detail in err


def _bad_model_param(cfg):
    cfg["errors"].append({"name": "bw", "kind": "model_param", "param": "W"})
    cfg["objectives"].append({"kind": "robustness_first", "weight": 1, "error": "bw"})


def _channels(*specs, model=None, n_qubits=None):
    """Replace the control channels with (qubits, role) specs."""
    def mutate(cfg):
        cfg["control"]["channels"] = [
            {"qubits": list(q), "role": role, "scale": 1e8} for q, role in specs
        ]
        if model is not None:
            cfg["control"]["model"] = model
        if n_qubits is not None:
            cfg["system"]["n_qubits"] = n_qubits
    return mutate


def _no_h_pert(cfg):
    cfg["system"]["terms"][0]["assign"] = "pri"
    cfg["objectives"] = cfg["objectives"][:1]


def _set(section, key, value):
    return lambda c: c.setdefault(section, {}).update({key: value})


def _term(key, value):
    return lambda c: c["system"]["terms"][0].update({key: value})


def _model(model, **section):
    return lambda c: c["control"].update({"model": model, **section})


def _h_target(targets):
    return lambda c: c["targets"].update(h_target=targets)


def _objective(**term):
    return lambda c: c["objectives"].append(dict(term, weight=1))


def _second_dist(param, model="ideal"):
    """Two errors on `param`, each with its own dist."""
    def mutate(cfg):
        kind = "amplitude" if param == "amplitude" else "model_param"
        cfg["control"]["model"] = model
        cfg["distributions"]["amp_b"] = {"kind": "uniform", "args": [-1e-3, 1e-3]}
        cfg["errors"] = [{"name": "eps", "kind": kind, "param": param, "dist": "amp_err"},
                         {"name": "amp_b", "kind": kind, "param": param, "dist": "amp_b"}]
    return mutate


_BAD_PAULI = {"strings": [{"pauli": [[1, "q"]]}]}
_X_TERM = {"strings": [{"pauli": [[1, "x"]]}], "assign": "pri"}   # unnamed: "term<k>"
_AXIS = {"dist": "detuning", "values": [0.0]}
_NAN, _INF = float("nan"), float("inf")


def _dist(kind, args):
    """The detuning distribution, which the H_pert term claims, as kind(args)."""
    return lambda c: c["distributions"]["detuning"].update(kind=kind, args=args)


def _string(pauli, factor=1):
    return _term("strings", [{"pauli": pauli, "factor": factor}])


_BAD_KEYS = {
    "u-target-3x3": (lambda c: c["targets"].update(u_target={"matrix_re": np.eye(3).tolist()}),
                     "targets.u_target has shape (3, 3), not (2, 2) for 1 qubit(s)"),
    "u-target-no-matrix": (lambda c: c["targets"].update(u_target={"foo": 1}),
                           "targets.u_target.foo: unknown key (the keys are ['matrix_re', 'matrix_im'])"),
    "u-target-only-im": (lambda c: c["targets"].update(u_target={"matrix_im": [[0, 0], [0, 0]]}),
                         "targets.u_target needs a gate name or a 'matrix_re' matrix"),
    "u-target-not-unitary": (lambda c: c["targets"].update(u_target={"matrix_re": [[1, 1], [1, 1]]}),
                             "targets.u_target is not unitary to 1e-8"),
    "unknown-model-param": (_bad_model_param,
                            "errors[1].param: the model has no parameter 'W' (it has ['amplitude'])"),
    "no-channels": (_set("control", "channels", []), "control.channels: no control channel"),
    "qubit-out-of-range": (lambda c: c["control"]["channels"][0].update(qubits=[2]),
                           "control.channels[0].qubits: [2] not all in 1..1"),
    # channel sets in which a channel would drive nothing
    "circuit-z": (_channels(((1,), "x"), ((1,), "y"), ((1,), "z"), model="circuit"),
                  "control.channels[2]: the circuit model has no z row"),
    "circuit-two-groups": (_channels(((1,), "x"), ((1,), "y"), ((2,), "x"), model="circuit", n_qubits=2),
                           "control.channels[2]: the circuit model drives one channel group"),
    "phase-without-amp": (_channels(((1,), "x"), ((1,), "phase")),
                          "control.channels[1]: a 'phase' channel needs an 'amp' channel"),
    "lone-phase": (_channels(((1,), "phase")),
                   "control.channels[0]: a 'phase' channel needs an 'amp' channel"),
    "second-amp": (_channels(((1,), "amp"), ((1,), "phase"), ((1,), "amp")),
                   "control.channels[2]: a second 'amp' channel on qubits [1]"),
    "unknown-gate": (lambda c: c["targets"].update(u_target="toffoli"),
                     "targets.u_target: unknown named gate 'toffoli'"),
    "gate-does-not-fit": (lambda c: c["targets"].update(u_target="cnot"),
                          "targets.u_target: gate 'cnot' does not fit 1 qubit(s)"),
    "no-h-pert": (_no_h_pert, "system.terms: no Hamiltonian term is assigned to H_pert"),
    # the file as a whole
    "invalid-json": (lambda c: "{not json", "config is not valid JSON: "),
    "not-an-object": (lambda c: "[1, 2]", "config must be an object, got [1, 2]"),
    "missing-key": (lambda c: c["system"].pop("n_qubits"), "system.n_qubits: missing required key"),
    "seed-negative": (lambda c: c.update(seed=-1), "seed must be an integer >= 0, got -1"),
    "n-qubits-not-a-number": (_set("system", "n_qubits", "two"),
                              "system.n_qubits must be an integer >= 1, got 'two'"),
    # system.terms
    "bad-pauli-term": (_term("strings", _BAD_PAULI["strings"]),
                       "system.terms[0].strings: bad Pauli string spec: unknown Pauli axis 'q'"),
    "assign-neither": (_term("assign", "both"),
                       "system.terms[0].assign must be one of ['pri', 'pert'], got 'both'"),
    "term-unknown-dist": (_term("dist", "nope"),
                          "system.terms[0].dist references unknown distribution 'nope'"),
    "component-not-a-number": (_term("component", "one"),
                               "system.terms[0].component must be an integer, got 'one'"),
    "pauli-factor-nan": (_string([[1, "z"]], _NAN),
                         "system.terms[0].strings[0].factor must be a finite number, got nan"),
    "pauli-factor-bool": (_string([[1, "z"]], True),
                          "system.terms[0].strings[0].factor must be a finite number, got True"),
    "pauli-qubit-float": (_string([[1.5, "z"]]),
                          "system.terms[0].strings[0].pauli must be an integer, got 1.5"),
    "h-pert-zero": (_string([[1, "z"]], 0), "system.terms: H_pert^1 is zero"),
    "term-name-twice": (lambda c: c["system"]["terms"].append(dict(_X_TERM, name="detuning")),
                        "system.terms[1].name: 'detuning' is already the name of system.terms[0]"),
    "term-default-name-twice": (lambda c: (_term("name", "term1")(c), c["system"]["terms"].append(_X_TERM)),
                                "system.terms[1].name: 'term1' is already the name of system.terms[0]"),
    # control
    "intervals-below-1": (_set("control", "intervals", 0),
                          "control.intervals must be an integer >= 1, got 0"),
    "intervals-not-a-number": (_set("control", "intervals", "six"),
                               "control.intervals must be an integer >= 1, got 'six'"),
    "dt-zero": (_set("control", "dt", 0), "control.dt must be a finite number > 0.0, got 0.0"),
    "substeps-below-1": (_set("control", "substeps", 0),
                         "control.substeps must be an integer >= 1, got 0"),
    "unknown-model": (_model("quantum"),
                      "control.model must be one of ['ideal', 'kernel', 'circuit'], got 'quantum'"),
    "unknown-role": (lambda c: c["control"]["channels"][0].update(role="w"),
                     "control.channels[0].role: unknown channel role 'w'"),
    "kernel-w-not-positive": (_model("kernel", kernel={"W": 0}),
                              "control.kernel.W must be a finite number > 0.0, got 0.0"),
    "kernel-resolution-guard": (_model("kernel", kernel={"W": 1e9}),
                                "control.dt: resolution guard: delta_t=1.250e-09 exceeds 0.1/W"),
    "circuit-capacitance": (_model("circuit", circuit={"c_tank": 0}),
                            "control.circuit: capacitances and inductance must be positive"),
    "circuit-unknown-key": (_model("circuit", circuit={"r_foo": 1}),
                            "control.circuit.r_foo: unknown key (the keys are ['r_source', "),
    # the circuit constants are the model's fields: alpha_L as in errors[k].param
    "circuit-alpha-l-lowercase": (_model("circuit", circuit={"alpha_l": -5e-3}),
                                  "control.circuit.alpha_l: unknown key (the keys are ['r_source', 'r_series',"
                                  " 'c_match', 'c_tank', 'l_0', 'alpha_L', 'kappa_i', 'kappa_o', 'omega_r',"
                                  " 'omega_max', 'r_load'])"),
    # unknown keys, which used to be dropped without a word
    "optimizer-misspelt": (lambda c: c.update(optimiser=c.pop("optimizer")),
                           "optimiser: unknown key (the keys are ['seed', 'system', 'control',"
                           " 'distributions', 'errors', 'targets', 'objectives', 'optimizer', 'evaluation'])"),
    "s-target-misspelt": (_set("targets", "s_targt", 0.5),
                          "targets.s_targt: unknown key (the keys are ['u_target', 'h_target', 's_target'])"),
    "n-mc-misspelt": (_set("evaluation", "n_mc_typo", 10),
                      "evaluation.n_mc_typo: unknown key (the keys are ['scale_samples', 'sampler',"
                      " 'scale_batch', 'walk_burn', 'walk_thin', 'n_mc', 't_dep', 'n_cycles',"
                      " 'initial_state', 'simulate_params', 'landscape'])"),
    "objective-component-misspelt": (lambda c: c["objectives"][1].update(compnent=1),
                                     "objectives[1].compnent: unknown key (the keys are ['kind', 'weight',"
                                     " 'component', 'error', 'errors', 'space', 'order'])"),
    "circuit-value-not-a-number": (_model("circuit", circuit={"c_tank": "big"}),
                                   "control.circuit.c_tank must be a finite number, got 'big'"),
    # distributions and errors
    "unclaimed-dist": (lambda c: c["distributions"].update(spare={"kind": "uniform", "args": [-1, 1]}),
                       "distributions.spare is not the 'dist' of any term or error"),
    "bad-dist-args": (lambda c: c["distributions"]["amp_err"].update(args=[0.05, -0.05]),
                      "distributions.amp_err: uniform((0.05, -0.05)): need a < b"),
    "dist-kind-unknown": (_dist("weird", [0]),
                          "distributions.detuning: unknown distribution kind 'weird'"),
    "dist-normal-one-arg": (_dist("normal", [0.5]),
                            "distributions.detuning: normal takes args [mu, sigma] of finite numbers,"
                            " got [0.5]"),
    "dist-normal-three-args": (_dist("normal", [0, 1, 2]),
                               "distributions.detuning: normal takes args [mu, sigma] of finite"
                               " numbers, got [0, 1, 2]"),
    "dist-point-no-arg": (_dist("point", []),
                          "distributions.detuning: point takes args [x] of finite numbers, got []"),
    "dist-uniform-strings": (_dist("uniform", ["a", "b"]),
                             "distributions.detuning: uniform takes args [a, b] of finite numbers,"
                             " got ['a', 'b']"),
    "dist-uniform-infinite": (_dist("uniform", [0, _INF]),
                              "distributions.detuning: uniform takes args [a, b] of finite numbers,"
                              " got [0, inf]"),
    "dist-grid-empty": (_dist("grid", [[]]),
                        "distributions.detuning: grid takes args [[x, ...]] of finite numbers, got [[]]"),
    "dist-grid-not-a-list": (_dist("grid", [3.0]),
                             "distributions.detuning: grid takes args [[x, ...]] of finite numbers,"
                             " got [3.0]"),
    "dist-claimed-twice": (lambda c: c["errors"][0].update(dist="detuning"),
                           "errors[0].dist: 'detuning' is already the dist of term:detuning"),
    "two-amplitude-dists": (_second_dist("amplitude"),
                            "errors[1].dist: 'amp_b' draws model:amplitude, which 'amp_err' already draws"),
    "two-alpha-l-dists": (_second_dist("alpha_L", "circuit"),
                          "errors[1].dist: 'amp_b' draws model:alpha_L, which 'amp_err' already draws"),
    "error-kind": (lambda c: c["errors"][0].update(kind="phase"),
                   "errors[0].kind must be one of ['amplitude', 'model_param'], got 'phase'"),
    "model-param-without-param": (lambda c: c["errors"].append({"name": "x", "kind": "model_param"}),
                                  "errors[1].param: missing required key"),
    "error-name-twice": (lambda c: c["errors"].append({"name": "eps", "kind": "amplitude"}),
                         "errors[1].name: 'eps' is already the name of errors[0]"),
    "amplitude-error-unknown-param": (lambda c: c["errors"].append({"name": "x", "kind": "amplitude",
                                                                    "param": "W"}),
                                      "errors[1].param: the model has no parameter 'W'"
                                      " (it has ['amplitude'])"),
    "amplitude-error-other-param": (lambda c: (_model("circuit")(c), c["errors"].append(
                                        {"name": "x", "kind": "amplitude", "param": "alpha_L"})),
                                    "errors[1].param: kind 'amplitude' varies 'amplitude', not 'alpha_L'"),
    # targets
    "u-target-not-numeric": (lambda c: c["targets"].update(u_target={"matrix_re": [["a", 0], [0, 1]]}),
                             "targets.u_target: could not convert string to float: 'a'"),
    "u-target-infinite": (lambda c: c["targets"].update(u_target={"matrix_re": [[_INF, 0], [0, 1]]}),
                          "targets.u_target.matrix_re must be a finite number, got inf"),
    "u-target-nan": (lambda c: c["targets"].update(u_target={"matrix_re": [[1, 0], [0, 1]],
                                                             "matrix_im": [[0, _NAN], [0, 0]]}),
                     "targets.u_target.matrix_im must be a finite number, got nan"),
    "h-target-key-not-an-integer": (_h_target({"x": {"strings": [{"pauli": [[1, "z"]]}]}}),
                                    "targets.h_target.x: the key is not an integer component id:"
                                    " invalid literal for int() with base 10: 'x'"),
    "h-target-no-pert-term": (_h_target({"1": {"strings": [{"pauli": [[1, "z"]]}]},
                                         "2": {"strings": [{"pauli": [[1, "x"]]}]}}),
                              "targets.h_target.2: no H_pert term has component 2"),
    "h-target-bad-pauli": (_h_target({"1": _BAD_PAULI}),
                           "targets.h_target.1.strings: bad Pauli string spec: unknown Pauli axis 'q'"),
    "h-target-zero": (_h_target({"1": {"strings": [{"pauli": [[1, "z"]], "factor": 0}]}}),
                      "targets.h_target.1: H_target^1 is zero"),
    # objectives and optimizer
    "objective-component": (lambda c: c["objectives"][1].update(component=2),
                            "objectives[1].component: 2 is not one of [1]"),
    "objective-component-bool": (lambda c: c["objectives"][1].update(component=True),
                                 "objectives[1].component must be an integer, got True"),
    "objective-component-float": (lambda c: c["objectives"][1].update(component=1.0),
                                  "objectives[1].component must be an integer, got 1.0"),
    "objective-weight-not-a-number": (lambda c: c["objectives"][0].update(weight="heavy"),
                                      "objectives[0].weight must be a finite number, got 'heavy'"),
    "objective-kind": (lambda c: c["objectives"][0].update(kind="nope"),
                       "objectives[0]: unknown objective kind 'nope'"),
    "objective-unknown-error": (_objective(kind="robustness_first", error="nope"),
                                "objectives[4].error: 'nope' is not one of ['eps']"),
    "objective-errors-unknown": (_objective(kind="robustness_second", errors=["eps", "nope"]),
                                 "objectives[4].errors: 'nope' is not one of ['eps']"),
    "objective-errors-not-a-pair": (_objective(kind="robustness_cross_pair", errors="eps"),
                                    "objectives[4].errors must name two error channels, got 'eps'"),
    "objective-unknown-space": (_objective(kind="higher_order_r", order=2, space="nope"),
                                "objectives[4].space: 'nope' is not one of ['pert', 'eps']"),
    "objective-order": (_objective(kind="higher_order_r", order=4),
                        "objectives[4].order: 4 is not one of [2, 3]"),
    "objective-order-float": (_objective(kind="higher_order_r", order=2.0),
                              "objectives[4].order must be an integer, got 2.0"),
    "objective-without-target": (_set("targets", "u_target", None),
                                 "objectives[0].kind: primary_unitary needs a target unitary"),
    "optimizer-q-v": (_set("optimizer", "q_v", 3.5), "optimizer: q_v must lie in (1, 3)"),
    "optimizer-t-max-0": (_set("optimizer", "t_max", 0),
                          "optimizer: t_max, dimension and restarts must be >= 1"),
    "optimizer-e-target-negative": (_set("optimizer", "e_target", -1),
                                    "optimizer: E_target must be >= 0"),
    "stage-t-max-below-1": (_set("optimizer", "stages", [[0, 2.0]]),
                            "optimizer.stages[0][0] must be an integer >= 1, got 0"),
    "stage-t0-not-positive": (_set("optimizer", "stages", [[40, 0.0]]),
                              "optimizer.stages[0][1] must be a finite number > 0.0, got 0.0"),
    "stage-not-a-pair": (_set("optimizer", "stages", [[40]]),
                         "optimizer.stages[0] must be a [t_max, T0] pair, got [40]"),
    "stages-empty": (_set("optimizer", "stages", []), "optimizer.stages: no annealing stage"),
    # evaluation
    "sampler-unknown": (_set("evaluation", "sampler", "mcmc"),
                        "evaluation.sampler must be one of ['auto', 'qr', 'walk'], got 'mcmc'"),
    "scale-batch-0": (_set("evaluation", "scale_batch", 0),
                      "evaluation.scale_batch must be an integer >= 1, got 0"),
    "walk-burn-negative": (_set("evaluation", "walk_burn", -1),
                           "evaluation.walk_burn must be an integer >= 0, got -1"),
    "walk-thin-0": (_set("evaluation", "walk_thin", 0),
                    "evaluation.walk_thin must be an integer >= 1, got 0"),
    "initial-state-unknown": (_set("evaluation", "initial_state", "minus"),
                              "evaluation.initial_state: unknown named state 'minus'"),
    "initial-state-zero": (_set("evaluation", "initial_state", [0, 0]),
                           "evaluation.initial_state has zero norm"),
    "initial-state-shape": (_set("evaluation", "initial_state", [1, 0, 0]),
                            "evaluation.initial_state has shape (3,), not (2,)"),
    "initial-state-nan": (_set("evaluation", "initial_state", [_NAN, 1]),
                          "evaluation.initial_state must hold finite numbers, got [nan, 1]"),
    "initial-state-bool": (_set("evaluation", "initial_state", [True, "0"]),
                           "evaluation.initial_state must hold finite numbers, got [True, '0']"),
    "initial-state-not-numeric": (_set("evaluation", "initial_state", ["up", 0]),
                                  "evaluation.initial_state: "),
    "landscape-unknown-dist": (_set("evaluation", "landscape", {"axis1": dict(_AXIS, dist="nope"),
                                                                "axis2": _AXIS}),
                               "evaluation.landscape.axis1.dist references unknown distribution 'nope'"),
    "landscape-empty-values": (_set("evaluation", "landscape", {"axis1": _AXIS,
                                                                "axis2": dict(_AXIS, values=[])}),
                               "evaluation.landscape.axis2.values must be a non-empty list of numbers"),
    "landscape-values-not-numbers": (_set("evaluation", "landscape", {"axis1": dict(_AXIS, values=["a"]),
                                                                      "axis2": _AXIS}),
                                     "evaluation.landscape.axis1.values must be a finite number, got 'a'"),
    "simulate-param-not-a-number": (_set("evaluation", "simulate_params", {"detuning": "x"}),
                                    "evaluation.simulate_params.detuning must be a finite number, got 'x'"),
}


@pytest.mark.parametrize("case", list(_BAD_KEYS))
def test_cli_optimize_rejects_a_bad_problem_key_by_its_path(tmp_path, capsys, monkeypatch, case):
    mutate, message = _BAD_KEYS[case]
    cfg = _config_optimize()
    text = mutate(cfg)     # a row may give the file's text in place of the mutated config
    path = tmp_path / "problem.json"
    path.write_text(text if isinstance(text, str) else json.dumps(cfg))
    monkeypatch.setattr(cli, "parallel_restarts", _fail_if_called)
    code = cli.main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["h-target-bad-pauli", "initial-state-unknown", "sampler-unknown",
                                  "objective-unknown-error", "objective-unknown-space",
                                  "objective-order", "objective-without-target"])
@pytest.mark.parametrize("command", ["algebra", "subspace", "scale", "optimize", "evaluate",
                                     "landscape", "simulate"])
def test_every_command_checks_the_whole_file_at_load(tmp_path, capsys, command, case):
    mutate, message = _BAD_KEYS[case]
    cfg = _config_optimize()
    mutate(cfg)
    extra = [str(_write_sequence(tmp_path, cfg))] if command in ("evaluate", "landscape", "simulate") else []
    code = cli.main([command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), *extra])
    assert code == cli.EXIT_VALIDATION
    assert f"config error: {message}" in capsys.readouterr().err


def test_cli_simulate_rejects_an_unknown_named_state(tmp_path, capsys):
    cfg = _config_1q()
    cfg["evaluation"]["initial_state"] = "minus"
    seq_path = _write_sequence(tmp_path, cfg)
    code = cli.main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
                     str(seq_path)])
    assert code == cli.EXIT_VALIDATION
    assert "config error: evaluation.initial_state: unknown named state 'minus'" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config-missing", "config-is-a-directory", "sequence-is-a-directory",
                                  "out-is-a-file"])
def test_cli_a_path_it_cannot_read_or_write_exits_2(tmp_path, capsys, case):
    # a PermissionError takes the same way out, but no row can make one
    # where the tests run as root
    cfg = _config_1q()
    paths = {"config": _write_config(tmp_path, cfg), "sequence": str(_write_sequence(tmp_path, cfg)),
             "out": str(tmp_path / "out")}
    key, bad = {"config-missing": ("config", tmp_path / "nope.json"),
                "config-is-a-directory": ("config", tmp_path),
                "sequence-is-a-directory": ("sequence", tmp_path),
                "out-is-a-file": ("out", paths["sequence"])}[case]
    paths[key] = str(bad)
    code = cli.main(["evaluate", "--config", paths["config"], "--out", paths["out"], paths["sequence"]])
    assert code == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("file error: ") and f"'{bad}'" in err


def test_cli_optimize_to_an_out_that_is_a_file_spends_no_budget(tmp_path, capsys, monkeypatch):
    # --out names a file: the command stops at the file error before it
    # evaluates a single cost, where it used to anneal in full first
    from hamforge.objectives import CostPipeline

    calls = []
    real = CostPipeline.evaluate
    monkeypatch.setattr(CostPipeline, "evaluate", lambda self, x: calls.append(1) or real(self, x))
    cfg = _config_optimize()
    bad = _write_sequence(tmp_path, cfg)
    code = cli.main(["optimize", "--config", _write_config(tmp_path, cfg), "--threads", "1",
                     "--out", str(bad)])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("file error: ")
    assert calls == []


def _config_outside(cfg):
    """The target H_target^1 = identity, which no 1-qubit C-subspace holds."""
    cfg["targets"]["h_target"] = {"1": {"strings": [{"pauli": []}]}}
    return cfg


def test_cli_scale_target_outside_its_subspace_exits_infeasible(tmp_path):
    out = tmp_path / "out"
    cfg = _config_outside(_config_1q())
    code = cli.main(["scale", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_INFEASIBLE
    rep = json.loads((out / "scale.json").read_text())
    assert rep["achievable"] is False and "outside subspace" in rep["reason"]


def _gated_configs():
    outside = _config_outside(_config_optimize())
    far = _config_optimize()
    far["targets"]["s_target"] = 1e3
    return {"h-target-outside": (outside, "lies outside C_1"),
            "s-target-outside-range": (far, "outside the achievable range")}


@pytest.mark.parametrize("gate", ["h-target-outside", "s-target-outside-range"])
def test_cli_optimize_feasibility_gates_exit_infeasible(tmp_path, capsys, monkeypatch, gate):
    cfg, message = _gated_configs()[gate]
    monkeypatch.setattr(cli, "parallel_restarts", _fail_if_called)
    code = cli.main(["optimize", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INFEASIBLE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("gate", ["h-target-outside", "s-target-outside-range"])
def test_cli_optimize_force_skips_the_feasibility_gates(tmp_path, monkeypatch, gate):
    cfg, _ = _gated_configs()[gate]
    cfg["optimizer"]["stages"] = [[3, 2.0]]
    monkeypatch.setattr(cli, "_scale_range", _fail_if_called)
    out = tmp_path / "out"
    code = cli.main(["optimize", "--config", _write_config(tmp_path, cfg), "--out", str(out), "--force"])
    assert code == cli.EXIT_OK
    rep = json.loads((out / "optimize.json").read_text())
    assert rep["iterations"] == 3 and np.isfinite(rep["f_tot"])


def _raise_subspace_error(*args, **kwargs):
    raise SubspaceError("conjugated perturbation leaves its subspace")


@pytest.mark.parametrize("case", ["target-5e-8-off-its-subspace", "scale-gate-subspace-error"])
def test_cli_optimize_membership_failures_exit_infeasible(tmp_path, capsys, monkeypatch, case):
    cfg = _config_optimize()
    cfg["targets"]["s_target"] = 0.5
    if case == "target-5e-8-off-its-subspace":
        # relative residual 5e-8 off C_1: the subspace report, the H_target
        # gate and the vertex sampler share one membership tolerance
        cfg["targets"]["h_target"]["1"]["strings"].append({"pauli": [], "factor": 5e-8})
        out = tmp_path / "sub"
        assert cli.main(["subspace", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "subspace.json").read_text())["components"]["1"]
        assert rep["target_in_subspace"] is False and rep["target_residual"] > 1e-8
        message = "lies outside C_1"
    else:
        monkeypatch.setattr(cli, "_scale_range", _raise_subspace_error)
        message = "infeasible target: conjugated perturbation leaves its subspace"
    capsys.readouterr()
    monkeypatch.setattr(cli, "parallel_restarts", _fail_if_called)
    code = cli.main(["optimize", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INFEASIBLE
    assert message in capsys.readouterr().err


def test_cli_threads_default_comes_from_the_environment(monkeypatch):
    import argparse

    monkeypatch.setenv("HAMFORGE_THREADS", "3")
    assert cli._threads(argparse.Namespace(threads=None)) == 3
    assert cli._threads(argparse.Namespace(threads=2)) == 2


# flags and environment: (argv after the command, HAMFORGE_THREADS, message)
_BAD_INVOCATIONS = {
    "seed-negative": (["--seed", "-1"], None, "argument --seed: must be an integer >= 0, got '-1'"),
    "seed-not-an-integer": (["--seed", "x"], None, "argument --seed: must be an integer >= 0, got 'x'"),
    "threads-0": (["--threads", "0"], None, "argument --threads: must be an integer >= 1, got '0'"),
    "threads-env-not-an-integer": ([], "two", "HAMFORGE_THREADS must be an integer >= 1, got 'two'"),
    "threads-env-0": ([], "0", "HAMFORGE_THREADS must be an integer >= 1, got '0'"),
}


@pytest.mark.parametrize("case", list(_BAD_INVOCATIONS))
@pytest.mark.parametrize("command", ["scale", "optimize", "evaluate"])
def test_cli_rejects_a_bad_flag_or_environment_by_its_name(tmp_path, capsys, monkeypatch, command, case):
    argv, threads, message = _BAD_INVOCATIONS[case]
    if threads is None:
        monkeypatch.delenv("HAMFORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("HAMFORGE_THREADS", threads)
    monkeypatch.setattr(cli, "parallel_restarts", _fail_if_called)
    cfg = _config_optimize()
    extra = [str(_write_sequence(tmp_path, cfg))] if command == "evaluate" else []
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
                  *argv, *extra])
    assert exit_.value.code == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_cli_threads_from_the_flag_or_the_environment(tmp_path, monkeypatch):
    seen = []

    def restarts(pipe, cfg, workers, x_init):
        seen.append(workers)
        return OptimizationResult(np.zeros(12), 1.0, 1)

    monkeypatch.setattr(cli, "parallel_restarts", restarts)
    path = _write_config(tmp_path, _config_optimize())
    for env, argv, want in (("", [], 1), ("3", [], 3), ("3", ["--threads", "2"], 2)):
        monkeypatch.setenv("HAMFORGE_THREADS", env)
        cli.main(["optimize", "--config", path, "--out", str(tmp_path / "out"), *argv])
        assert seen.pop() == want


def _seq_channel(key, value):
    return lambda s: s["channels"][0].update({key: value})


# sequence files: (mutation of a valid sequence dict or its text, message)
_BAD_SEQUENCES = {
    "invalid-json": (lambda s: "{not json", "sequence is not valid JSON: "),
    "not-an-object": (lambda s: "[1, 2]", "sequence must be an object, got [1, 2]"),
    "dt-missing": (lambda s: s.pop("dt"), "sequence.dt: missing required key"),
    "unknown-key": (lambda s: s.update(intervals=6),
                    "sequence.intervals: unknown key (the keys are ['dt', 'channels'])"),
    "channel-unknown-key": (_seq_channel("scales", 1.0),
                            "sequence.channels[0].scales: unknown key (the keys are ['name', 'qubits',"
                            " 'role', 'scale', 'values'])"),
    "dt-zero": (lambda s: s.update(dt=0), "sequence.dt must be a finite number > 0.0, got 0.0"),
    "channels-not-a-list": (lambda s: s.update(channels={}), "sequence.channels must be a list, got {}"),
    "no-channels": (lambda s: s.update(channels=[]), "sequence.channels: values must be (n_channels, P)"),
    "name-not-a-string": (_seq_channel("name", 5), "sequence.channels[0].name must be a string, got 5"),
    "qubits-missing": (lambda s: s["channels"][0].pop("qubits"),
                       "sequence.channels[0].qubits: missing required key"),
    "qubits-not-integers": (_seq_channel("qubits", ["a"]),
                            "sequence.channels[0].qubits must be an integer, got 'a'"),
    "role-unknown": (_seq_channel("role", "w"), "sequence.channels[0].role: unknown channel role 'w'"),
    "scale-not-a-number": (_seq_channel("scale", "big"),
                           "sequence.channels[0].scale must be a finite number, got 'big'"),
    "values-missing": (lambda s: s["channels"][1].pop("values"),
                       "sequence.channels[1].values: missing required key"),
    "values-not-numbers": (_seq_channel("values", ["a"] * 6),
                           "sequence.channels[0].values must be a finite number, got 'a'"),
    "values-unequal": (lambda s: s["channels"][1].update(values=[0.0] * 5),
                       "sequence.channels[1].values has 5 entries, not 6"),
    "values-out-of-range": (_seq_channel("values", [2.0] * 6),
                            "sequence.channels: control values must lie in [-1, 1]"),
    # the channels of the problem file, key by key
    "qubits-not-the-problems": (_seq_channel("qubits", [3]),
                                "sequence.channels[0].qubits is (3,), not (1,) as in control.channels[0]"),
    "role-not-the-problems": (_seq_channel("role", "x"),
                              "sequence.channels[0].role is 'x', not 'amp' as in control.channels[0]"),
    "name-not-the-problems": (_seq_channel("name", "drive"),
                              "sequence.channels[0].name is 'drive', not 'amp' as in control.channels[0]"),
    "phase-channel-dropped": (lambda s: s["channels"].pop(1),
                              "sequence.channels: 1 channels, not 2 as in control.channels"),
    # the time grid of the problem file: dt and the interval count
    "dt-not-the-problems": (lambda s: s.update(dt=3e-08),
                            "sequence.dt is 3e-08, not 1e-08 as in control.dt"),
    "intervals-not-the-problems": (lambda s: [ch.update(values=ch["values"][:4]) for ch in s["channels"]],
                                   "sequence.channels[0].values has 4 entries, not 6 as in control.intervals"),
}


@pytest.mark.parametrize("case", list(_BAD_SEQUENCES))
def test_cli_evaluate_rejects_a_bad_sequence_key_by_its_path(tmp_path, capsys, case):
    mutate, message = _BAD_SEQUENCES[case]
    cfg = _config_1q()
    seq_path = _write_sequence(tmp_path, cfg)
    seq = json.loads(seq_path.read_text())
    text = mutate(seq)
    seq_path.write_text(text if isinstance(text, str) else json.dumps(seq))
    code = cli.main(["evaluate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
                     str(seq_path)])
    assert code == cli.EXIT_VALIDATION
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["landscape", "simulate"])
def test_every_sequence_command_checks_the_sequence(tmp_path, capsys, command):
    cfg = _config_1q()
    cfg["evaluation"]["landscape"] = {"axis1": _AXIS, "axis2": _AXIS}
    seq_path = _write_sequence(tmp_path, cfg)
    seq = json.loads(seq_path.read_text())
    for key, value, message in (("qubits", None, "sequence.channels[0].qubits: missing required key"),
                                ("dt", 3e-08, "sequence.dt is 3e-08, not 1e-08 as in control.dt")):
        bad = json.loads(json.dumps(seq))
        if value is None:
            bad["channels"][0].pop(key)
        else:
            bad[key] = value
        seq_path.write_text(json.dumps(bad))
        code = cli.main([command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
                         str(seq_path)])
        assert code == cli.EXIT_VALIDATION
        assert f"config error: {message}" in capsys.readouterr().err
