import json

import numpy as np
import pytest

from hamforge import cli
from hamforge import config as cfgmod
from hamforge.config import ConfigError, sequence_from_dict, write_sequence
from hamforge.controlsys import IdealModel
from _oracles import exact_unitary


def test_initial_state_normalizes_vector():
    psi = cli._initial_state([3.0, 4.0j], 1)
    assert np.allclose(psi, [0.6, 0.8j])


def test_initial_state_rejects_zero_vector():
    with pytest.raises(ConfigError, match="initial_state.*zero norm"):
        cli._initial_state([0.0, 0.0], 1)


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
    return cfgmod.read_sequence(str(seq_path)), cfgmod.build_evaluation_setup(pc), u0.entries


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
        solves.append(self.amp_factor)
        return field(self, seq, jets)

    monkeypatch.setattr(IdealModel, "field", counted)
    out = tmp_path / "out"
    code = cli.main(["landscape", "--config", _write_config(tmp_path, cfg), "--out", str(out), str(seq_path)])
    monkeypatch.undo()
    assert code == cli.EXIT_OK
    assert solves == [1.0]   # the blocked path: one unit-drive field for the whole grid
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
