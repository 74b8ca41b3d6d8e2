"""Problem configuration.  `parse_config` is the one reader of the problem
file: it checks all of it into a `ProblemConfig` of final, typed values,
from which the builders below derive the library objects.  A bad value
or a key the schema does not name raises `ConfigError`, whose message
starts with the key path (exit 2) and, for an unknown key, lists the keys.

Schema, as `key: type = default, check`; a key without a default is
required, and null counts as absent.  int: an integer, not a float or
bool; num: a finite int or float.  Bounds: inclusive for int, exclusive
for num.

seed: int = 0, >= 0 (the master seed of every random stream)
system.n_qubits: int, >= 1
system.terms[k] = []: name: str = "term<k>", unique; strings: list of
    {pauli: [[qubit: int, axis], ...], factor: num = 1}, qubits in 1..n_qubits,
    once each, axis x|y|z; assign: "pri"|"pert"; coeff: num = 0 (rad/s);
    dist: a distribution = none.  A 'pert' term adds ref_coeff * strings to
    H_pert^component, with component: int = 1 and ref_coeff: num = 0,
    where 0 means |coeff|, else the half-width of dist, else 1.  At least
    one term is 'pert', and every H_pert^component is nonzero.
control.channels[k]: name: str = "ch<k>"; qubits: list of int in
    1..n_qubits; role: "x"|"y"|"z"|"amp"|"phase"; scale: num (rad/s, rad
    for phase).  The set obeys `controlsys.drive_groups` and the model.
control.intervals: int, >= 1; control.dt: num, > 0 (s)
control.model: "ideal"|"kernel"|"circuit" = "ideal"; control.substeps:
    int = the model's own (ideal 1, kernel 8, circuit 16), >= 1
control.kernel and control.circuit hold fields of the model by name:
control.kernel (model kernel): W: num, > 0, with dt / substeps <= 0.1 / W
    (rad/s); delta: num = 0 (rad/s); average: bool = false
control.circuit = {}: nums for the circuit constants of
    `controlsys.CircuitModel` (r_source, ..., alpha_L, ..., r_load), which
    hold the defaults and the check
distributions.<name>: kind: str = "point"; args: list = [0], nums checked
    per kind by `evaluate.ParameterDistribution`; the dist of one term or
    error, and a term or model parameter has at most one
errors[k] = []: name: str, unique; kind: "amplitude"|"model_param"; param: str =
    "amplitude", the parameter of the model that the error varies, required
    for kind model_param ('amplitude' is the relative drive error, any other
    parameter is expanded in units of its natural scale); kind amplitude
    varies 'amplitude' only, while model_param may name any parameter,
    'amplitude' included; dist: a distribution = none
targets: u_target = none: "identity"|"hadamard"|"cnot" or {matrix_re,
    matrix_im = 0: lists of nums}, a 2^n_qubits unitary to 1e-8; h_target.<w> =
    none: {strings}, nonzero, w an integer component id; s_target: num =
    none, the scale factor under the joint normalisation of `reach`
objectives[k] = []: kind: str in `objectives.KINDS`; weight: num > 0;
    the parameters of the kind, references checked by
    `objectives.check_references`: component: a component id = the first;
    error: an errors[k].name; errors: two of them; space: "pert" or one of
    them; order: 2|3; kind primary_unitary needs targets.u_target
optimizer: q_v, q_a, T0 (t0), e_target: num; t_max, restarts: int;
    schedule: str; all with the defaults and checks of
    `optimizer.GSAConfig`; stages = [[t_max, T0]]: a non-empty list of
    [int >= 1, num > 0] pairs
evaluation: n_mc: int = 1000, >= 1; scale_samples: int = 1000, >= 1;
    sampler: "auto"|"qr"|"walk"; scale_batch: int, >= 1; walk_burn: int,
    >= 0; walk_thin: int, >= 1 (these four default to the sampler, batch,
    n_burn and n_thin of `reach.find_scale_range`); t_dep: num = none, > 0
    (s); n_cycles: int = 50, >= 0; initial_state: "zero"|"plus" or a list
    of 2^n_qubits nums, not all 0, = "zero", normalised when read;
    simulate_params: {distribution: num} = {}; landscape = none: {axis1,
    axis2}, each {dist: a distribution, values: non-empty list of num}
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .controlsys import (
    Channel,
    CircuitModel,
    ControlModel,
    ControlSequence,
    IdealModel,
    LinearKernelModel,
    field_operators,
)
from .evaluate import EvaluationSetup, ParameterDistribution
from .liealg import LieAlgebraBasis, find_c_subspace, find_lie_algebra
from .objectives import PARAMS, CostPipeline, ObjectiveSpec, ObjectiveTerm, check_references
from .opcore import pauli_string_op
from .optimizer import GSAConfig
from .reach import SAMPLERS, Component, joint_normalisation
from .toggling import expm_batch


class ConfigError(ValueError):
    """Invalid problem configuration; the message starts with the key path."""


_GATES = {
    "identity": lambda n: np.eye(2 ** n),
    "hadamard": lambda n: np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    "cnot": lambda n: np.eye(4)[[0, 1, 3, 2]],
}

# optimizer keys and their types; each sets the GSAConfig field of its name in lower case
_GSA_KEYS = {
    "q_v": float, "q_a": float, "T0": float, "t_max": int, "e_target": float, "restarts": int,
    "schedule": str,
}

# evaluation keys of reach.find_scale_range: (file key, argument, type, bound)
_SCALE_KEYS = (
    ("scale_samples", "j_samples", int, 1),
    ("sampler", "sampler", SAMPLERS, None),
    ("scale_batch", "batch", int, 1),
    ("walk_burn", "n_burn", int, 0),
    ("walk_thin", "n_thin", int, 1),
)
_EVAL_KEYS = ("n_mc", "t_dep", "n_cycles", "initial_state", "simulate_params", "landscape")
_CHANNEL_KEYS = ("name", "qubits", "role", "scale")


@dataclass(frozen=True)
class TermSpec:
    name: str
    matrix_unit: np.ndarray      # unit-coefficient operator
    coeff: float                 # nominal coefficient, rad/s
    assign: str                  # 'pri' | 'pert'


@dataclass(frozen=True)
class ProblemConfig:
    """The checked problem file: every field is a final, typed value."""

    n_qubits: int
    channels: tuple[Channel, ...]
    intervals: int
    dt: float
    model: ControlModel
    terms: tuple[TermSpec, ...]
    pert: dict                   # component id -> H_pert^w (rad/s), ids ascending
    h_target: dict               # component id -> H_target^w, unnormalised
    errors: tuple[dict, ...]
    distributions: dict
    u_target: np.ndarray | None
    s_target: float | None
    objectives: tuple[ObjectiveTerm, ...]
    gsa: GSAConfig
    stages: tuple[tuple[int, float], ...]
    seed: int
    # the evaluation section
    n_mc: int
    scale_args: dict             # reach.find_scale_range keywords
    t_dep: float | None
    n_cycles: int
    initial_state: np.ndarray    # normalised
    simulate_params: dict        # distribution name -> value
    landscape: tuple | None      # ((dist, values), (dist, values))

    @property
    def t_seq(self) -> float:
        return self.intervals * self.dt

    @property
    def evaluation(self) -> dict:
        """The evaluation section by its file keys, with its defaults; the
        scale-range keys the file leaves to `reach.find_scale_range` are absent."""
        return {
            **{key: self.scale_args[arg] for key, arg, *_ in _SCALE_KEYS if arg in self.scale_args},
            **{key: getattr(self, key) for key in _EVAL_KEYS},
        }


_MISSING = object()
_LIBRARY_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)
_TYPES = {
    int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
    list: "a list", dict: "an object",
}


def _check(value, where: str, kind, low=None):
    """`value` as `kind`: one of _TYPES (an int counts as a float) or a
    tuple of the allowed values.  An int is at least `low`, a float above
    it.  ConfigError names the key path `where`."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        want = f"one of {list(kind)}"
    else:
        if kind is float and type(value) is int:
            value = float(value)
        if (
            isinstance(value, (list, tuple) if kind is list else kind)
            and not (kind is int and isinstance(value, bool))
            and not (kind is float and not math.isfinite(value))
            and (low is None or (value >= low if kind is int else value > low))
        ):
            return value
        want = _TYPES[kind] + ("" if low is None else f" {'>=' if kind is int else '>'} {low}")
    raise ConfigError(f"{where} must be {want}, got {value!r}")


def _only(d, path: str, keys):
    """`d`; if it is an object with a key outside `keys`, a ConfigError
    at that key's path that lists `keys`."""
    for key in d if isinstance(d, dict) else ():
        if key not in keys:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"{where}: unknown key (the keys are {list(keys)})")
    return d


def _get(d: dict, key: str, path: str, kind, low=None, default=_MISSING, keys=None):
    """`d[key]` checked by `_check` at the key path `path.key`, and by
    `_only` against `keys` if given, or `default` when the key is absent
    or null."""
    where = f"{path}.{key}" if path else key
    if d.get(key) is None:
        if default is _MISSING:
            raise ConfigError(f"{where}: missing required key")
        return default
    value = _check(d[key], where, kind, low)
    return value if keys is None else _only(value, where, keys)


def _entries(d: dict, key: str, path: str, keys) -> list:
    """(key path, object with no key outside `keys`) of each entry of the
    list `d[key]`, [] by default."""
    where = f"{path}.{key}" if path else key
    return [
        (f"{where}[{k}]", _only(_check(e, f"{where}[{k}]", dict), f"{where}[{k}]", keys))
        for k, e in enumerate(_get(d, key, path, list, default=[]))
    ]


class _at:
    """Re-raise a library error from the block as a ConfigError: `prefix`
    (the key path and ': ', or a section and '.' before a message that
    starts with its own key) and the library's message."""

    def __init__(self, prefix: str):
        self.prefix = prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, _LIBRARY_ERRORS) and not isinstance(exc, ConfigError):
            raise ConfigError(f"{self.prefix}{exc}") from exc


def _known(name: str, where: str, distributions) -> str:
    if name not in distributions:
        raise ConfigError(f"{where} references unknown distribution {name!r}")
    return name


def _strings_matrix(strings, n_qubits: int, path: str) -> np.ndarray:
    with _at(f"{path}: bad Pauli string spec: "):
        pairs = [
            (_get(_only(s, f"{path}[{k}]", ("pauli", "factor")), "factor", f"{path}[{k}]", float,
                  default=1.0),
             [(_check(q, f"{path}[{k}].pauli", int), ax) for q, ax in s["pauli"]])
            for k, s in enumerate(strings)
        ]
        return pauli_string_op(pairs, n_qubits)


def _u_target(ut, n: int) -> np.ndarray:
    """targets.u_target, a gate name or {matrix_re, matrix_im}, as a
    unitary (d, d) matrix."""
    d = 2 ** n
    if isinstance(ut, str):
        if ut not in _GATES:
            raise ConfigError(f"targets.u_target: unknown named gate {ut!r}")
        m = _GATES[ut](n)
        if m.shape[0] != d:
            raise ConfigError(f"targets.u_target: gate {ut!r} does not fit {n} qubit(s)")
        return m.astype(complex)
    _only(ut, "targets.u_target", ("matrix_re", "matrix_im"))
    re = ut.get("matrix_re") if isinstance(ut, dict) else None
    if re is None:
        raise ConfigError("targets.u_target needs a gate name or a 'matrix_re' matrix")
    im = 0.0 if ut.get("matrix_im") is None else ut["matrix_im"]
    with _at("targets.u_target: "):
        m = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    if m.shape != (d, d):
        raise ConfigError(f"targets.u_target has shape {m.shape}, not ({d}, {d}) for {n} qubit(s)")
    for key, part in (("matrix_re", re), ("matrix_im", im)):
        for x in np.asarray(part, dtype=object).ravel():
            _check(x, f"targets.u_target.{key}", float)
    if not np.abs(m.conj().T @ m - np.eye(d)).max() <= 1e-8:
        raise ConfigError("targets.u_target is not unitary to 1e-8")
    return m


def load_config(path: str) -> ProblemConfig:
    with open(path) as f, _at("config is not valid JSON: "):
        raw = json.load(f)
    return parse_config(raw)


def _channel(path: str, k: int, ch: dict) -> Channel:
    """The k-th entry `ch` of a channel list, at the key path `path`."""
    qubits = tuple(_check(q, f"{path}.qubits", int) for q in _get(ch, "qubits", path, list))
    name = _get(ch, "name", path, str, default=f"ch{k}")
    role, scale = _get(ch, "role", path, str), _get(ch, "scale", path, float)
    with _at(f"{path}.role: "):
        return Channel(name, qubits, role, scale)


def _model(ctrl: dict, dt: float) -> ControlModel:
    """The control model; a file without `substeps` keeps the model's."""
    name = _get(ctrl, "model", "control", ("ideal", "kernel", "circuit"), default="ideal")
    substeps = _get(ctrl, "substeps", "control", int, 1, default=None)
    sub = {} if substeps is None else {"substeps": substeps}
    if name == "ideal":
        return IdealModel(**sub)
    if name == "kernel":
        kc = _get(ctrl, "kernel", "control", dict, keys=("W", "delta", "average"))
        model = LinearKernelModel(_get(kc, "W", "control.kernel", float, 0.0),
                                  _get(kc, "delta", "control.kernel", float, default=0.0),
                                  average=_get(kc, "average", "control.kernel", bool, default=False), **sub)
        with _at("control.dt: "):
            model.check_step(dt / model.substeps)
        return model
    keys = [f.name for f in fields(CircuitModel) if f.name not in ("amplitude", "substeps")]
    cc = _get(ctrl, "circuit", "control", dict, default={}, keys=keys)
    values = {key: _check(v, f"control.circuit.{key}", float) for key, v in cc.items()}
    with _at("control.circuit: "):
        return CircuitModel(**values, **sub)


def parse_config(raw: dict) -> ProblemConfig:
    """Read and check the whole problem file (see the module docstring)."""
    raw = _only(_check(raw, "config", dict), "", ("seed", "system", "control", "distributions", "errors",
                                                  "targets", "objectives", "optimizer", "evaluation"))
    sysc = _get(raw, "system", "", dict, keys=("n_qubits", "terms"))
    n = _get(sysc, "n_qubits", "system", int, 1)

    ctrl = _get(raw, "control", "", dict,
                keys=("channels", "intervals", "dt", "model", "substeps", "kernel", "circuit"))
    channels = []
    for k, (path, ch) in enumerate(_entries(ctrl, "channels", "control", _CHANNEL_KEYS)):
        channels.append(_channel(path, k, ch))
        if not all(1 <= q <= n for q in channels[-1].qubits):
            raise ConfigError(f"{path}.qubits: {list(channels[-1].qubits)} not all in 1..{n}")
    intervals = _get(ctrl, "intervals", "control", int, 1)
    dt = _get(ctrl, "dt", "control", float, 0.0)
    model = _model(ctrl, dt)
    with _at("control."):
        model.channel_groups(channels)

    # distributions; the term or error that names one becomes its target
    dists = {}
    for name, spec in _get(raw, "distributions", "", dict, default={}).items():
        path = f"distributions.{name}"
        spec = _only(_check(spec, path, dict), path, ("kind", "args"))
        kind = _get(spec, "kind", path, str, default="point")
        args = tuple(_get(spec, "args", path, list, default=(0.0,)))
        with _at(f"{path}: "):
            dists[name] = ParameterDistribution(name, kind, args)
    claimed, drawn = {}, {}   # dist -> what it draws, and back

    def claim(entry: dict, path: str, owner: str):
        name = _get(entry, "dist", path, str, default=None)
        if name is not None and drawn.setdefault(owner, _known(name, f"{path}.dist", dists)) != name:
            raise ConfigError(f"{path}.dist: {name!r} draws {owner}, which {drawn[owner]!r} already draws")
        if name is None or claimed.setdefault(name, owner) == owner:
            return name
        raise ConfigError(f"{path}.dist: {name!r} is already the dist of {claimed[name]}")

    terms, pert, named = [], {}, {}
    for k, (path, t) in enumerate(_entries(sysc, "terms", "system", (
            "name", "strings", "assign", "coeff", "dist", "component", "ref_coeff"))):
        name = _get(t, "name", path, str, default=f"term{k}")
        if named.setdefault(name, path) != path:
            raise ConfigError(f"{path}.name: {name!r} is already the name of {named[name]}")
        mat = _strings_matrix(_get(t, "strings", path, list), n, f"{path}.strings")
        assign = _get(t, "assign", path, ("pri", "pert"))
        coeff = _get(t, "coeff", path, float, default=0.0)
        dist = claim(t, path, f"term:{name}")
        terms.append(TermSpec(name, mat, coeff, assign))
        if assign == "pert":
            ref = _get(t, "ref_coeff", path, float, default=0.0)
            ref = ref or abs(coeff) or (dist is not None and dists[dist].halfwidth()) or 1.0
            w = _get(t, "component", path, int, default=1)
            pert[w] = pert.setdefault(w, np.zeros_like(mat)) + ref * mat
    if not pert:
        raise ConfigError("system.terms: no Hamiltonian term is assigned to H_pert")
    pert = dict(sorted(pert.items()))
    for w, mat in pert.items():
        if not mat.any():
            raise ConfigError(f"system.terms: H_pert^{w} is zero")

    errors, named = [], {}
    for path, e in _entries(raw, "errors", "", ("name", "kind", "param", "dist")):
        name = _get(e, "name", path, str)
        if named.setdefault(name, path) != path:
            raise ConfigError(f"{path}.name: {name!r} is already the name of {named[name]}")
        kind = _get(e, "kind", path, ("amplitude", "model_param"))
        param = _get(e, "param", path, str, default=_MISSING if kind == "model_param" else "amplitude")
        if param not in model.params():
            raise ConfigError(
                f"{path}.param: the model has no parameter {param!r}"
                f" (it has {sorted(model.params())})"
            )
        if kind == "amplitude" and param != "amplitude":
            raise ConfigError(f"{path}.param: kind 'amplitude' varies 'amplitude', not {param!r}")
        errors.append({"name": name, "param": param, "dist": claim(e, path, f"model:{param}")})

    distributions = {}
    for name, d in dists.items():
        if name not in claimed:
            raise ConfigError(f"distributions.{name} is not the 'dist' of any term or error")
        distributions[name] = replace(d, applies_to=claimed[name])

    tgt = _get(raw, "targets", "", dict, default={}, keys=("u_target", "h_target", "s_target"))
    u_target = _u_target(tgt["u_target"], n) if tgt.get("u_target") is not None else None
    h_target = {}
    for key, spec in _get(tgt, "h_target", "targets", dict, default={}).items():
        path = f"targets.h_target.{key}"
        with _at(f"{path}: the key is not an integer component id: "):
            w = int(key)
        if w not in pert:
            raise ConfigError(f"{path}: no H_pert term has component {w!r}")
        strings = _get(_only(_check(spec, path, dict), path, ("strings",)), "strings", path, list)
        h_target[w] = _strings_matrix(strings, n, f"{path}.strings")
        if not h_target[w].any():
            raise ConfigError(f"{path}: H_target^{w} is zero")

    # files number perturbation components by id; objectives address them
    # by their position among the ids in use
    objectives = []
    for path, o in _entries(raw, "objectives", "", ("kind", "weight", *PARAMS)):
        kind, weight = _get(o, "kind", path, str), _get(o, "weight", path, float)
        params = {key: v for key, v in o.items() if key not in ("kind", "weight")}
        with _at(f"{path}: "):
            term = ObjectiveTerm(kind, weight, params)
        with _at(f"{path}."):
            check_references(term, pert, [e["name"] for e in errors], u_target is not None)
        if "component" in params:
            w = list(pert).index(params["component"])
            term = replace(term, params={**params, "component": w})
        objectives.append(term)

    opt = _get(raw, "optimizer", "", dict, default={}, keys=(*_GSA_KEYS, "stages"))
    given = [key for key in _GSA_KEYS if opt.get(key) is not None]
    settings = {key.lower(): _get(opt, key, "optimizer", _GSA_KEYS[key]) for key in given}
    with _at("optimizer: "):
        gsa = GSAConfig(dimension=len(channels) * intervals, **settings)
    stages, pairs = [], _get(opt, "stages", "optimizer", list, default=[[gsa.t_max, gsa.t0]])
    if not pairs:
        raise ConfigError("optimizer.stages: no annealing stage")
    for k, stage in enumerate(pairs):
        path = f"optimizer.stages[{k}]"
        if not (isinstance(stage, (list, tuple)) and len(stage) == 2):
            raise ConfigError(f"{path} must be a [t_max, T0] pair, got {stage!r}")
        t_max = _check(stage[0], f"{path}[0]", int, 1)
        stages.append((t_max, _check(stage[1], f"{path}[1]", float, 0.0)))

    ev = _get(raw, "evaluation", "", dict, default={}, keys=(*(k for k, *_ in _SCALE_KEYS), *_EVAL_KEYS))
    scale = {"j_samples": 1000}   # the one find_scale_range argument without a default
    for key, arg, kind, low in _SCALE_KEYS:
        if ev.get(key) is not None:
            scale[arg] = _get(ev, key, "evaluation", kind, low)
    simulate = _get(ev, "simulate_params", "evaluation", dict, default={})
    for name, value in simulate.items():
        _known(name, "evaluation.simulate_params", distributions)
        _check(value, f"evaluation.simulate_params.{name}", float)
    landscape = _get(ev, "landscape", "evaluation", dict, default=None, keys=("axis1", "axis2"))
    if landscape:
        landscape = tuple(_landscape_axis(landscape, a, distributions) for a in ("axis1", "axis2"))
    return ProblemConfig(
        n_qubits=n,
        channels=tuple(channels),
        intervals=intervals,
        dt=dt,
        model=model,
        terms=tuple(terms),
        pert=pert,
        h_target=dict(sorted(h_target.items())),
        errors=tuple(errors),
        distributions=distributions,
        u_target=u_target,
        s_target=_get(tgt, "s_target", "targets", float, default=None),
        objectives=tuple(objectives),
        gsa=gsa,
        stages=tuple(stages),
        seed=_get(raw, "seed", "", int, 0, default=0),
        n_mc=_get(ev, "n_mc", "evaluation", int, 1, default=1000),
        scale_args=scale,
        t_dep=_get(ev, "t_dep", "evaluation", float, 0.0, default=None),
        n_cycles=_get(ev, "n_cycles", "evaluation", int, 0, default=50),
        initial_state=_initial_state(ev.get("initial_state", "zero"), n),
        simulate_params=simulate,
        landscape=landscape or None,
    )


def _landscape_axis(ls: dict, axis: str, distributions: dict) -> tuple:
    path = f"evaluation.landscape.{axis}"
    spec = _get(ls, axis, "evaluation.landscape", dict, keys=("dist", "values"))
    name = _known(_get(spec, "dist", path, str), f"{path}.dist", distributions)
    values = [_check(v, f"{path}.values", float) for v in _get(spec, "values", path, list)]
    if not values:
        raise ConfigError(f"{path}.values must be a non-empty list of numbers")
    return name, np.asarray(values, dtype=float)


def _initial_state(spec, n_qubits: int) -> np.ndarray:
    """evaluation.initial_state, a state name or a vector, normalised."""
    d = 2 ** n_qubits
    if isinstance(spec, str):
        if spec == "zero":
            return np.eye(1, d, dtype=complex)[0]
        if spec == "plus":
            return np.full(d, 1.0 / np.sqrt(d), dtype=complex)
        raise ConfigError(f"evaluation.initial_state: unknown named state {spec!r}")
    with _at("evaluation.initial_state: "):
        psi = np.asarray(spec, dtype=complex)
    if psi.shape != (d,):
        raise ConfigError(f"evaluation.initial_state has shape {psi.shape}, not ({d},)")
    if not np.isfinite(psi).all() or any(isinstance(x, (bool, str)) for x in spec):
        raise ConfigError(f"evaluation.initial_state must hold finite numbers, got {spec!r}")
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ConfigError("evaluation.initial_state has zero norm")
    return psi / norm


# ---------------------------------------------------------------------------
# derived objects

def build_algebra(cfg: ProblemConfig) -> LieAlgebraBasis:
    """The algebra generated by the operators of the field rows and the primary terms."""
    pri = [t.matrix_unit for t in cfg.terms if t.assign == "pri"]
    return find_lie_algebra([*field_operators(cfg.channels, cfg.n_qubits), *pri])


def build_subspaces(cfg: ProblemConfig, g: LieAlgebraBasis):
    """Component id -> CSubspace of its reference perturbation."""
    return {w: find_c_subspace(g, mat) for w, mat in cfg.pert.items()}


def scale_components(cfg: ProblemConfig, subspaces) -> list[Component]:
    """Each perturbation component with its C_w and H_target^w, projected
    once, in the order of the component ids."""
    return [Component.of(mat, subspaces[w], cfg.h_target.get(w)) for w, mat in cfg.pert.items()]


def build_pipeline(cfg: ProblemConfig, g=None, subspaces=None) -> CostPipeline:
    g = g or build_algebra(cfg)
    subspaces = subspaces or build_subspaces(cfg, g)
    zero = np.zeros((2 ** cfg.n_qubits,) * 2, dtype=complex)
    pri_internal = sum((t.coeff * t.matrix_unit for t in cfg.terms if t.assign == "pri"), zero)
    # the minimal subspace of every toggled control error, seeded by the field rows
    seeds = field_operators(cfg.channels, cfg.n_qubits)
    err_space = find_c_subspace(g, seeds[0], extra_seeds=tuple(seeds[1:])) if cfg.errors else None
    # a config changed after parsing meets the pipeline's own checks
    try:
        return CostPipeline(
            cfg.n_qubits, cfg.channels, cfg.intervals, cfg.dt, cfg.model, pri_internal,
            scale_components(cfg, subspaces), {e["name"]: e["param"] for e in cfg.errors},
            err_space, ObjectiveSpec(cfg.objectives, cfg.u_target, cfg.s_target or 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_evaluation_setup(cfg: ProblemConfig) -> EvaluationSetup:
    return EvaluationSetup(
        n_qubits=cfg.n_qubits,
        model=cfg.model,
        term_names=tuple(t.name for t in cfg.terms),
        term_mats=np.stack([t.matrix_unit for t in cfg.terms]),
        term_coeffs=np.asarray([t.coeff for t in cfg.terms], dtype=float),
        distributions=tuple(cfg.distributions.values()),
    )


def total_target_unitary(cfg: ProblemConfig, subspaces) -> np.ndarray:
    """U_target exp(-i H_target T_seq), H_target the sum of the zeroth-order
    targets at s_target (`reach.joint_normalisation`), in rad/s.  Under
    --force, the part of H_target^w outside C_w, which no sequence
    reaches, drops out."""
    d = 2 ** cfg.n_qubits
    u = cfg.u_target if cfg.u_target is not None else np.eye(d, dtype=complex)
    comps = scale_components(cfg, subspaces)
    _, _, targets = joint_normalisation(comps, cfg.s_target or 0.0)
    h = sum((np.tensordot(vec, c.subspace.stack, axes=(0, 0)) for c, vec in zip(comps, targets)),
            np.zeros((d, d), dtype=complex))
    return u @ expm_batch(h[None], cfg.t_seq)[0] if np.abs(h).max() > 0 else u


# ---------------------------------------------------------------------------
# sequence files

def sequence_to_dict(seq: ControlSequence) -> dict:
    channels = [asdict(ch) | {"qubits": list(ch.qubits), "values": row.tolist()}
                for ch, row in zip(seq.channels, seq.values)]
    return {"dt": seq.dt, "channels": channels}


def sequence_from_dict(d: dict, problem: ProblemConfig | None = None) -> ControlSequence:
    """Read and check a sequence file: dt: num, > 0 (s); channels[k]: the
    keys of control.channels[k] plus values: list of num in [-1, 1], of
    one length across channels; the channels, dt and interval count are
    those of the `problem` file, when it is given.  A bad key raises
    ConfigError with its key path under `sequence`."""
    d = _only(_check(d, "sequence", dict), "sequence", ("dt", "channels"))
    dt = _get(d, "dt", "sequence", float, 0.0)
    channels, values = [], []
    for k, (path, ch) in enumerate(_entries(d, "channels", "sequence", (*_CHANNEL_KEYS, "values"))):
        channels.append(_channel(path, k, ch))
        values.append([_check(v, f"{path}.values", float) for v in _get(ch, "values", path, list)])
        if len(values[-1]) != len(values[0]):
            raise ConfigError(f"{path}.values has {len(values[-1])} entries, not {len(values[0])}")
    with _at("sequence.channels: "):
        seq = ControlSequence(np.asarray(values, dtype=float), dt, tuple(channels))
    if problem is None:
        return seq
    if len(channels) != len(problem.channels):
        raise ConfigError(f"sequence.channels: {len(channels)} channels,"
                          f" not {len(problem.channels)} as in control.channels")
    for k, (ch, want) in enumerate(zip(channels, problem.channels)):
        for key in _CHANNEL_KEYS:
            if getattr(ch, key) != getattr(want, key):
                raise ConfigError(f"sequence.channels[{k}].{key} is {getattr(ch, key)!r},"
                                  f" not {getattr(want, key)!r} as in control.channels[{k}]")
    if dt != problem.dt:
        raise ConfigError(f"sequence.dt is {dt!r}, not {problem.dt!r} as in control.dt")
    if seq.intervals != problem.intervals:
        raise ConfigError(f"sequence.channels[0].values has {seq.intervals} entries,"
                          f" not {problem.intervals} as in control.intervals")
    return seq


def write_sequence(seq: ControlSequence, path: str) -> None:
    with open(path, "w") as f:
        json.dump(sequence_to_dict(seq), f, indent=1)


def read_sequence(path: str, problem=None) -> ControlSequence:
    with open(path) as f, _at("sequence is not valid JSON: "):
        raw = json.load(f)
    return sequence_from_dict(raw, problem)
