"""The problem-file reader: the initial-state reader, the models' own
substeps, and a static check that every ConfigError the library can raise
has a row in a CLI table of bad keys (`test_cli._BAD_KEYS` for the problem
file, `test_cli._BAD_SEQUENCES` for sequence files)."""
import ast
import re
from pathlib import Path

import numpy as np
import pytest

from hamforge import config as cfgmod
from hamforge.config import ConfigError
from test_cli import _BAD_KEYS, _BAD_SEQUENCES, _config_1q

SRC = Path(__file__).resolve().parents[1] / "src" / "hamforge"


def test_initial_state_normalizes_vector():
    psi = cfgmod._initial_state([3.0, 4.0j], 1)
    assert np.allclose(psi, [0.6, 0.8j])


def test_initial_state_rejects_zero_vector():
    with pytest.raises(ConfigError, match="initial_state.*zero norm"):
        cfgmod._initial_state([0.0, 0.0], 1)


@pytest.mark.parametrize("model, substeps", [("ideal", 1), ("kernel", 8), ("circuit", 16)])
def test_a_file_without_substeps_keeps_the_model_default(model, substeps):
    raw = _config_1q()
    raw["control"].update(model=model, kernel={"W": 2 * np.pi * 10e6})
    assert cfgmod.parse_config(raw).model.substeps == substeps


def _pattern(message) -> str:
    """Regex of the texts a message expression can produce."""
    if isinstance(message, ast.JoinedStr):
        return "".join(
            re.escape(part.value) if isinstance(part, ast.Constant) else ".*"
            for part in message.values
        )
    if isinstance(message, ast.Constant):
        return re.escape(message.value)
    return ".*"


def _config_error_sites():
    """(file:line, message regex) of each `raise ConfigError(message)` and
    of each `config._at(prefix)` block, which re-raises a library error as
    a ConfigError whose message starts with the prefix."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                call, tail = node.exc, ""
            elif isinstance(node, ast.withitem) and isinstance(node.context_expr, ast.Call):
                call, tail = node.context_expr, ".*"
            else:
                continue
            name = getattr(call.func, "id", None)
            if (name, tail) in (("ConfigError", ""), ("_at", ".*")):
                yield f"{path.name}:{call.lineno}", _pattern(call.args[0]) + tail


def test_every_config_error_has_a_row_in_the_cli_table():
    sites = list(_config_error_sites())
    assert len(sites) > 30
    messages = [message for _, message in [*_BAD_KEYS.values(), *_BAD_SEQUENCES.values()]]
    missing = [site for site, pattern in sites if not any(re.search(pattern, m) for m in messages)]
    assert missing == []


def test_a_null_value_counts_as_absent():
    raw = _config_1q()
    raw["seed"] = None
    raw["control"]["substeps"] = None
    raw["system"]["terms"][0]["dist"] = None
    raw["distributions"].pop("detuning")
    raw["targets"]["s_target"] = None
    raw["evaluation"].update(t_dep=None, scale_batch=None, landscape=None)
    cfg = cfgmod.parse_config(raw)
    assert (cfg.seed, cfg.model.substeps, cfg.s_target, cfg.t_dep, cfg.landscape) == (0, 1, None, None, None)
    assert "batch" not in cfg.scale_args
