"""The problem-file reader: the initial-state reader, the models' own
substeps, and a static check that every ConfigError the library can raise
has a row in a CLI table of bad keys (`test_cli._BAD_KEYS` for the problem
file, `test_cli._BAD_SEQUENCES` for sequence files).  A second static
check keeps the library off private numpy and scipy modules, but for
the HiGHS binding of the scale-range LPs."""
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


@pytest.mark.parametrize(
    "dist, ref",
    [
        ({"kind": "uniform", "args": [-3.0, 1.0]}, 2.0),
        ({"kind": "normal", "args": [5.0, 0.5]}, 0.5),
        ({"kind": "grid", "args": [[1.0, -4.0]]}, 4.0),
    ],
)
def test_a_pert_term_without_coeff_takes_its_dists_halfwidth(dist, ref):
    raw = _config_1q()
    raw["distributions"]["detuning"] = dist
    cfg = cfgmod.parse_config(raw)
    assert np.array_equal(cfg.pert[1], ref * np.diag([1.0, -1.0]))


def test_the_target_unitary_and_the_zeroth_order_target_use_s_target():
    # H_pert = (2 pi 1 MHz) z, the detuning's half-width, and H_target = z:
    # at s_target the target is s ||H_pert|| z / ||z|| = s (2 pi 1 MHz) z
    from scipy.linalg import expm

    raw = _config_1q()
    raw["targets"]["s_target"] = 0.5
    raw["objectives"] = [{"kind": "zeroth_order_target", "weight": 1}]
    cfg = cfgmod.parse_config(raw)
    subspaces = cfgmod.build_subspaces(cfg, cfgmod.build_algebra(cfg))
    z = np.diag([1.0, -1.0])
    h = 0.5 * 2 * np.pi * 1e6 * z
    want = cfg.u_target @ expm(-1j * h * cfg.t_seq)
    assert np.abs(cfgmod.total_target_unitary(cfg, subspaces) - want).max() <= 1e-12
    pipe = cfgmod.build_pipeline(cfg)
    got = np.tensordot(pipe.comp_target[0], pipe.components[0].subspace.stack, axes=(0, 0))
    assert np.abs(got - h).max() <= 1e-12 * np.abs(h).max()
    assert pipe.comp_scale[0] == pytest.approx(np.sqrt(2) * 0.5 * 2 * np.pi * 1e6, rel=1e-14)


def _private(module: str) -> bool:
    """numpy._* or scipy.*._*: a module that numpy or scipy may change without notice."""
    top, *rest = module.split(".")
    return top in ("numpy", "scipy") and any(part.startswith("_") for part in rest)


# The one private import the library makes, and the module that makes it:
# scipy's HiGHS model object, which keeps each end of the scale range as one
# model that grows by the vertices pricing adds and re-solves from its last
# basis, at less per-call overhead than the public linprog.  Over the 24
# design seeds (6 alternating rounds, one BLAS thread) the two ends of a
# range take 2.5-3.8 ms through it, against 11.6-13.9 ms for the same pricing
# with a fresh linprog per round and 18.1-23.2 ms for one linprog per end
# over every vertex.  It ships only as this binding (from scipy 1.15, the
# floor in pyproject.toml).
# Tier-1 runs it, so a change to it fails the LP tests of test_reach.
PRIVATE_BINDING = {("reach.py", "scipy.optimize._highspy._core"),
                   ("reach.py", "scipy.optimize._highspy._core._Highs")}


def test_no_module_imports_a_private_numpy_or_scipy_module():
    found, binding = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            binding |= {(path.name, name) for name in names} & PRIVATE_BINDING
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if _private(name) and (path.name, name) not in PRIVATE_BINDING]
    assert found == []
    assert binding == PRIVATE_BINDING   # no stale exception
    assert _private("numpy._core.einsumfunc") and _private("scipy.linalg._flapack")
    assert not _private("numpy.linalg") and not _private("scipy.optimize")
