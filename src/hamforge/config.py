"""Problem configuration: JSON schema, validation and object builders.

A problem file describes the system (qubits + internal Hamiltonian terms
with dispersion), the control section (channels, model, discretization),
systematic error channels, targets, the weighted objective list, the
annealer settings and the evaluation protocol.  Builders turn the parsed
dictionary into the library objects used by the CLI commands.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .controlsys import (
    Channel,
    CircuitModel,
    CircuitParams,
    ControlModel,
    ControlSequence,
    IdealModel,
    LinearKernelModel,
    LinearKernelParams,
    axis_operators,
    field_axes,
)
from .evaluate import EvaluationSetup, ParameterDistribution
from .liealg import CSubspace, LieAlgebraBasis, find_c_subspace, find_lie_algebra
from .objectives import (
    CostPipeline,
    ErrorChannel,
    ObjectiveSpec,
    ObjectiveTerm,
    PertComponent,
)
from .opcore import pauli_string_op, project
from .optimizer import GSAConfig


class ConfigError(ValueError):
    """Invalid problem configuration; message carries the key path."""


_GATES = {
    "identity": lambda n: np.eye(2 ** n),
    "hadamard": lambda n: np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    "cnot": lambda n: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    ),
}


@dataclass(frozen=True)
class TermSpec:
    name: str
    matrix_unit: np.ndarray      # unit-coefficient operator
    coeff: float                 # nominal coefficient, rad/s
    ref_coeff: float             # reference magnitude for pert subspaces
    assign: str                  # 'pri' | 'pert'
    component: int               # 1-based pert component
    dist: str | None


@dataclass(frozen=True)
class ProblemConfig:
    n_qubits: int
    channels: tuple[Channel, ...]
    intervals: int
    dt: float
    model: ControlModel
    terms: tuple[TermSpec, ...]
    errors: tuple[dict, ...]
    distributions: dict
    u_target: np.ndarray | None
    h_target_strings: dict              # component -> strings spec (or empty)
    s_target: float | None
    f_target: float | None
    objectives: tuple[ObjectiveTerm, ...]
    gsa: GSAConfig
    stages: tuple[tuple[int, float], ...]
    evaluation: dict
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def t_seq(self) -> float:
        return self.intervals * self.dt


def _req(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing required key {path}.{key}")
    return d[key]


def _strings_matrix(strings, n_qubits: int, path: str) -> np.ndarray:
    try:
        pairs = [
            (s.get("factor", 1.0), [(int(q), ax) for q, ax in s["pauli"]])
            for s in strings
        ]
        return pauli_string_op(pairs, n_qubits)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad Pauli string spec at {path}: {exc}") from exc


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
    re = ut.get("matrix_re", ut.get("matrix")) if isinstance(ut, dict) else None
    if re is None:
        raise ConfigError("targets.u_target needs a gate name or a 'matrix_re' matrix")
    try:
        m = np.asarray(re, dtype=float) + 1j * np.asarray(ut.get("matrix_im", 0.0), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"targets.u_target: {exc}") from exc
    if m.shape != (d, d):
        raise ConfigError(f"targets.u_target has shape {m.shape}, not ({d}, {d}) for {n} qubit(s)")
    if np.abs(m.conj().T @ m - np.eye(d)).max() > 1e-8:
        raise ConfigError("targets.u_target is not unitary to 1e-8")
    return m


def _dist_halfwidth(d: ParameterDistribution) -> float:
    if d.kind == "uniform":
        return 0.5 * abs(d.args[1] - d.args[0])
    if d.kind == "normal":
        return abs(d.args[1])
    if d.kind == "half_normal":
        return abs(d.args[0])
    if d.kind == "grid":
        vals = np.asarray(d.args[0], dtype=float)
        return float(np.abs(vals).max())
    return abs(d.args[0])


def load_config(path: str) -> ProblemConfig:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ProblemConfig:
    sysc = _req(raw, "system", "")
    n = int(_req(sysc, "n_qubits", "system"))
    if n < 1:
        raise ConfigError("system.n_qubits must be >= 1")

    ctrl = _req(raw, "control", "")
    channels = []
    for k, ch in enumerate(_req(ctrl, "channels", "control")):
        try:
            qubits = tuple(int(q) for q in _req(ch, "qubits", f"control.channels[{k}]"))
            channels.append(
                Channel(
                    ch.get("name", f"ch{k}"),
                    qubits,
                    _req(ch, "role", f"control.channels[{k}]"),
                    float(_req(ch, "scale", f"control.channels[{k}]")),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"control.channels[{k}]: {exc}") from exc
        if not all(1 <= q <= n for q in qubits):
            raise ConfigError(f"control.channels[{k}].qubits: {list(qubits)} not all in 1..{n}")
    intervals = int(_req(ctrl, "intervals", "control"))
    dt = float(_req(ctrl, "dt", "control"))
    substeps = int(ctrl.get("substeps", 1))

    model_name = ctrl.get("model", "ideal")
    if model_name == "ideal":
        model: ControlModel = IdealModel(substeps)
    elif model_name == "kernel":
        kc = _req(ctrl, "kernel", "control")
        model = LinearKernelModel(
            LinearKernelParams(float(_req(kc, "W", "control.kernel")), float(kc.get("delta", 0.0))),
            substeps,
            average=bool(kc.get("average", False)),
        )
    elif model_name == "circuit":
        cc = ctrl.get("circuit", {})
        keys = {
            "r_source", "r_series", "c_match", "c_tank", "l_0", "alpha_l",
            "kappa_i", "kappa_o", "omega_r", "omega_max", "r_load",
        }
        bad = set(cc) - keys
        if bad:
            raise ConfigError(f"unknown control.circuit keys: {sorted(bad)}")
        model = CircuitModel(CircuitParams(**cc), substeps)
    else:
        raise ConfigError(f"unknown control.model {model_name!r}")
    try:
        model.channel_groups(channels)
    except ValueError as exc:
        raise ConfigError(f"control.{exc}") from exc

    # distributions (consumers attach applies_to below)
    dists_raw = raw.get("distributions", {})
    dist_specs = {}
    for name, spec in dists_raw.items():
        dist_specs[name] = (spec.get("kind", "point"), tuple(spec.get("args", (0.0,))))
    dist_used: dict[str, str] = {}

    def claim(name: str | None, target: str, path: str):
        if name is None:
            return
        if name not in dist_specs:
            raise ConfigError(f"{path} references unknown distribution {name!r}")
        if name in dist_used and dist_used[name] != target:
            raise ConfigError(
                f"distribution {name!r} claimed by both {dist_used[name]} and {target}"
            )
        dist_used[name] = target

    terms = []
    for k, t in enumerate(sysc.get("terms", [])):
        path = f"system.terms[{k}]"
        name = t.get("name", f"term{k}")
        mat = _strings_matrix(_req(t, "strings", path), n, path)
        assign = _req(t, "assign", path)
        if assign not in ("pri", "pert"):
            raise ConfigError(f"{path}.assign must be 'pri' or 'pert'")
        coeff = float(t.get("coeff", 0.0))
        dist = t.get("dist")
        claim(dist, f"term:{name}", path)
        ref = t.get("ref_coeff")
        terms.append(
            TermSpec(
                name,
                mat,
                coeff,
                float(ref) if ref is not None else 0.0,  # resolved after dists
                assign,
                int(t.get("component", 1)),
                dist,
            )
        )

    errors = []
    for k, e in enumerate(raw.get("errors", [])):
        path = f"errors[{k}]"
        kind = _req(e, "kind", path)
        if kind not in ("amplitude", "model_param"):
            raise ConfigError(f"{path}.kind must be 'amplitude' or 'model_param'")
        param = e.get("param", "amplitude" if kind == "amplitude" else None)
        if kind == "model_param" and not param:
            raise ConfigError(f"{path} needs a 'param' name")
        if kind == "model_param" and param not in model.params():
            raise ConfigError(
                f"{path}.param: model {model_name!r} has no parameter {param!r}"
                f" (it has {sorted(model.params())})"
            )
        dist = e.get("dist")
        claim(dist, f"model:{param}", path)
        errors.append({"name": _req(e, "name", path), "kind": kind, "param": param, "dist": dist})

    # resolve ParameterDistribution objects with their targets
    distributions = {}
    for name, (kind, args) in dist_specs.items():
        target = dist_used.get(name)
        if target is None:
            raise ConfigError(f"distributions.{name} is not the 'dist' of any term or error")
        try:
            distributions[name] = ParameterDistribution(name, kind, args, target)
        except ValueError as exc:
            raise ConfigError(f"distributions.{name}: {exc}") from exc

    # reference coefficients for pert terms default to the dispersion width
    resolved_terms = []
    for t in terms:
        ref = t.ref_coeff
        if ref == 0.0:
            if t.coeff != 0.0:
                ref = abs(t.coeff)
            elif t.dist is not None:
                ref = _dist_halfwidth(distributions[t.dist]) or 1.0
            else:
                ref = 1.0
        resolved_terms.append(
            TermSpec(t.name, t.matrix_unit, t.coeff, ref, t.assign, t.component, t.dist)
        )

    tgt = raw.get("targets", {})
    u_target = _u_target(tgt["u_target"], n) if tgt.get("u_target") is not None else None
    h_target_strings = {
        int(w): spec for w, spec in (tgt.get("h_target") or {}).items()
    }
    s_target = tgt.get("s_target")
    f_target = tgt.get("f_target")

    # files number perturbation components by id; terms address them by
    # their position among the ids in use
    component_ids = sorted({t.component for t in terms if t.assign == "pert"})
    objectives = []
    for k, o in enumerate(raw.get("objectives", [])):
        path = f"objectives[{k}]"
        kind = _req(o, "kind", path)
        weight = float(_req(o, "weight", path))
        params = {key: v for key, v in o.items() if key not in ("kind", "weight")}
        if "component" in params:
            if params["component"] not in component_ids:
                raise ConfigError(
                    f"{path}.component: no H_pert term has component {params['component']!r}"
                )
            params["component"] = component_ids.index(params["component"])
        try:
            objectives.append(ObjectiveTerm(kind, weight, params))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    opt = raw.get("optimizer", {})
    try:
        gsa = GSAConfig(
            q_v=float(opt.get("q_v", 2.62)),
            q_a=float(opt.get("q_a", -5.0)),
            t0=float(opt.get("T0", 10.0)),
            t_max=int(opt.get("t_max", 50000)),
            e_target=float(opt.get("e_target", 0.0)),
            dimension=len(channels) * intervals,
            restarts=int(opt.get("restarts", 1)),
            master_seed=int(raw.get("seed", 0)),
            schedule=opt.get("schedule", "verbatim"),
        )
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
    stages = tuple(
        (int(tm), float(t0)) for tm, t0 in opt.get("stages", [[gsa.t_max, gsa.t0]])
    )

    ev = raw.get("evaluation", {})
    _check_evaluation(ev, distributions)

    return ProblemConfig(
        n_qubits=n,
        channels=tuple(channels),
        intervals=intervals,
        dt=dt,
        model=model,
        terms=tuple(resolved_terms),
        errors=tuple(errors),
        distributions=distributions,
        u_target=u_target,
        h_target_strings=h_target_strings,
        s_target=float(s_target) if s_target is not None else None,
        f_target=float(f_target) if f_target is not None else None,
        objectives=tuple(objectives),
        gsa=gsa,
        stages=stages,
        evaluation=ev,
        seed=int(raw.get("seed", 0)),
        raw=raw,
    )


def _check_evaluation(ev: dict, distributions: dict) -> None:
    """Reject a relaxation time that is not finite and positive, sample
    and cycle counts that are not integers in range, and landscape axes
    or simulate overrides that name no distribution."""
    for key, least in (("n_mc", 1), ("scale_samples", 1), ("n_cycles", 0)):
        value = ev.get(key)
        if value is not None and not (
            isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least
        ):
            raise ConfigError(f"evaluation.{key} must be an integer >= {least}, got {value!r}")
    t_dep = ev.get("t_dep")
    if t_dep is not None and not (
        isinstance(t_dep, (int, float)) and math.isfinite(t_dep) and t_dep > 0
    ):
        raise ConfigError(f"evaluation.t_dep must be a finite positive time, got {t_dep!r}")
    if ev.get("landscape"):
        for axis in ("axis1", "axis2"):
            path = f"evaluation.landscape.{axis}"
            spec = _req(ev["landscape"], axis, "evaluation.landscape")
            name = _req(spec, "dist", path)
            if name not in distributions:
                raise ConfigError(f"{path}.dist references unknown distribution {name!r}")
            try:
                values = np.asarray(_req(spec, "values", path), dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}.values: {exc}") from exc
            if values.ndim != 1 or values.size == 0:
                raise ConfigError(f"{path}.values must be a non-empty list of numbers")
    for name in ev.get("simulate_params", {}):
        if name not in distributions:
            raise ConfigError(
                f"evaluation.simulate_params references unknown distribution {name!r}"
            )


# ---------------------------------------------------------------------------
# derived objects

def build_generators(cfg: ProblemConfig) -> list[np.ndarray]:
    """The operators of the field rows plus primary internal terms."""
    pri = [t.matrix_unit for t in cfg.terms if t.assign == "pri"]
    return [*axis_operators(field_axes(cfg.channels), cfg.n_qubits), *pri]


def build_algebra(cfg: ProblemConfig) -> LieAlgebraBasis:
    return find_lie_algebra(build_generators(cfg))


def pert_components(cfg: ProblemConfig):
    """Component index -> reference H_pert^w matrix (rad/s)."""
    comps: dict[int, np.ndarray] = {}
    for t in cfg.terms:
        if t.assign != "pert":
            continue
        comps.setdefault(t.component, np.zeros_like(t.matrix_unit))
        comps[t.component] = comps[t.component] + t.ref_coeff * t.matrix_unit
    if not comps:
        raise ConfigError("system.terms: no Hamiltonian term is assigned to H_pert")
    return dict(sorted(comps.items()))


def build_subspaces(cfg: ProblemConfig, g: LieAlgebraBasis):
    """Component index -> CSubspace of its reference perturbation."""
    return {w: find_c_subspace(g, mat) for w, mat in pert_components(cfg).items()}


def target_operators(cfg: ProblemConfig):
    """Component index -> unnormalized H_target^w matrix or None."""
    comps = pert_components(cfg)
    out = {}
    for w in comps:
        spec = cfg.h_target_strings.get(w)
        if spec is None:
            out[w] = None
        else:
            out[w] = _strings_matrix(spec["strings"], cfg.n_qubits, f"targets.h_target[{w}]")
    return out


def scale_components(cfg: ProblemConfig, subspaces):
    """(H_pert_w, C_w, H_target_w) triples for reach.find_scale_range."""
    tgts = target_operators(cfg)
    return [(mat, subspaces[w], tgts[w]) for w, mat in pert_components(cfg).items()]


def component_target_vectors(cfg: ProblemConfig, subspaces) -> dict:
    """Component -> |H_target^w>> in rad/s under the joint normalization
    convention: H0bar_w = s * that_w * ||(+)_w H_pert^w||."""
    comps = pert_components(cfg)
    tgts = target_operators(cfg)
    # H_pert^w lies in C_w, its own seed
    pvecs = [project(m, subspaces[w].stack)[0].real for w, m in comps.items()]
    pnorm = math.sqrt(sum(float(v @ v) for v in pvecs))
    tvecs = {}
    for w in comps:
        if tgts[w] is None:
            tvecs[w] = np.zeros(subspaces[w].dim)
        else:
            # the part inside C_w: all of H_target^w once the feasibility gate
            # has passed; under --force the part that no sequence reaches drops out
            tvecs[w] = project(tgts[w], subspaces[w].stack)[0].real
    tnorm = math.sqrt(sum(float(v @ v) for v in tvecs.values()))
    s = cfg.s_target if cfg.s_target is not None else 0.0
    return {w: s * pnorm * v / tnorm if tnorm else np.zeros_like(v) for w, v in tvecs.items()}


def _same_span(a: CSubspace, b: CSubspace) -> bool:
    if a.stack.shape != b.stack.shape:
        return False
    # rows of g are the coefficients of b's elements in a's basis
    g, _ = project(b.stack, a.stack)
    return bool(abs(np.linalg.norm(g @ g.conj().T) ** 2 - a.dim) < 1e-6 * a.dim + 1e-9)


def error_subspace(cfg: ProblemConfig, g: LieAlgebraBasis, reuse=()) -> CSubspace:
    """Minimal subspace holding every toggled control-error operator; the
    seeds are the operators of the field rows.  Reuses a structurally
    identical subspace from `reuse` so per-candidate work is shared."""
    seeds = axis_operators(field_axes(cfg.channels), cfg.n_qubits)
    space = find_c_subspace(g, seeds[0], extra_seeds=tuple(seeds[1:]))
    for cand in reuse:
        if _same_span(cand, space):
            return cand
    return space


def build_pipeline(cfg: ProblemConfig, g=None, subspaces=None) -> CostPipeline:
    g = g or build_algebra(cfg)
    subspaces = subspaces or build_subspaces(cfg, g)
    tvecs = component_target_vectors(cfg, subspaces)
    comps = [
        PertComponent(mat, subspaces[w], tvecs[w])
        for w, mat in pert_components(cfg).items()
    ]
    pri_internal = np.zeros((2 ** cfg.n_qubits,) * 2, dtype=complex)
    for t in cfg.terms:
        if t.assign == "pri":
            pri_internal = pri_internal + t.coeff * t.matrix_unit
    err_space = None
    err_channels = []
    if cfg.errors:
        err_space = error_subspace(cfg, g, reuse=list(subspaces.values()))
        for e in cfg.errors:
            err_channels.append(
                ErrorChannel(e["name"], e["kind"], e["param"] or "", err_space)
            )
    spec = ObjectiveSpec(cfg.objectives, target_unitary=cfg.u_target)
    try:
        return CostPipeline(
            cfg.n_qubits,
            cfg.channels,
            cfg.intervals,
            cfg.dt,
            cfg.model,
            pri_internal,
            comps,
            err_channels,
            spec,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_evaluation_setup(cfg: ProblemConfig) -> EvaluationSetup:
    names, mats, coeffs = [], [], []
    for t in cfg.terms:
        names.append(t.name)
        mats.append(t.matrix_unit)
        coeffs.append(t.coeff)
    d = 2 ** cfg.n_qubits
    return EvaluationSetup(
        n_qubits=cfg.n_qubits,
        channels=cfg.channels,
        dt=cfg.dt,
        model=cfg.model,
        term_names=tuple(names),
        term_mats=np.stack(mats) if mats else np.zeros((0, d, d), dtype=complex),
        term_coeffs=np.asarray(coeffs, dtype=float),
        distributions=tuple(cfg.distributions.values()),
    )


def total_target_unitary(cfg: ProblemConfig, subspaces) -> np.ndarray:
    """U_target exp(-i H_target T_seq) with H_target in real units."""
    from .toggling import expm_batch

    d = 2 ** cfg.n_qubits
    u = cfg.u_target if cfg.u_target is not None else np.eye(d, dtype=complex)
    tvecs = component_target_vectors(cfg, subspaces)
    h = np.zeros((d, d), dtype=complex)
    for w, vec in tvecs.items():
        h = h + np.tensordot(vec, subspaces[w].stack, axes=(0, 0))
    if np.abs(h).max() > 0:
        uh = expm_batch(h[None], cfg.t_seq)[0]
        u = u @ uh
    return u


# ---------------------------------------------------------------------------
# sequence files

def sequence_to_dict(seq: ControlSequence) -> dict:
    return {
        "dt": seq.dt,
        "channels": [
            {
                "name": ch.name,
                "qubits": list(ch.qubits),
                "role": ch.role,
                "scale": ch.scale,
                "values": [float(v) for v in seq.values[k]],
            }
            for k, ch in enumerate(seq.channels)
        ],
    }


def sequence_from_dict(d: dict) -> ControlSequence:
    chans = []
    vals = []
    for ch in d["channels"]:
        chans.append(Channel(ch["name"], tuple(ch["qubits"]), ch["role"], float(ch["scale"])))
        vals.append(ch["values"])
    return ControlSequence(np.asarray(vals, dtype=float), float(d["dt"]), tuple(chans))


def write_sequence(seq: ControlSequence, path: str) -> None:
    with open(path, "w") as f:
        json.dump(sequence_to_dict(seq), f, indent=1)


def read_sequence(path: str) -> ControlSequence:
    with open(path) as f:
        return sequence_from_dict(json.load(f))
