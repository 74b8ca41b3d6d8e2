import json

import numpy as np
import pytest

from hamforge import cli
from hamforge.config import ConfigError, sequence_from_dict, write_sequence


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


def test_cli_evaluate_reports_fom_and_seed_override(tmp_path):
    cfg = _config_1q()
    seq = sequence_from_dict({
        "dt": cfg["control"]["dt"],
        "channels": [
            dict(ch, values=list(np.random.default_rng(17).uniform(-1, 1, 6)))
            for ch in cfg["control"]["channels"]
        ],
    })
    seq_path = tmp_path / "sequence.json"
    write_sequence(seq, str(seq_path))
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
