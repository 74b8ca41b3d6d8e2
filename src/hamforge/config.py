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
)
from .evaluate import EvaluationSetup, ParameterDistribution
from .liealg import CSubspace, LieAlgebraBasis, contains, find_c_subspace, find_lie_algebra
from .objectives import (
    CostPipeline,
    ErrorChannel,
    ObjectiveSpec,
    ObjectiveTerm,
    PertComponent,
)
from .opcore import Operator, pauli_string_op
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
    u_target: Operator | None
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
        return pauli_string_op(pairs, n_qubits).entries.copy()
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad Pauli string spec at {path}: {exc}") from exc


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
            channels.append(
                Channel(
                    ch.get("name", f"ch{k}"),
                    tuple(int(q) for q in _req(ch, "qubits", f"control.channels[{k}]")),
                    _req(ch, "role", f"control.channels[{k}]"),
                    float(_req(ch, "scale", f"control.channels[{k}]")),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"control.channels[{k}]: {exc}") from exc
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
    u_target = None
    if "u_target" in tgt and tgt["u_target"] is not None:
        ut = tgt["u_target"]
        if isinstance(ut, str):
            if ut not in _GATES:
                raise ConfigError(f"unknown named gate {ut!r}")
            m = _GATES[ut](n)
            if m.shape[0] != 2 ** n:
                raise ConfigError(f"gate {ut!r} does not fit {n} qubit(s)")
        else:
            m = np.asarray(ut.get("matrix_re", ut.get("matrix")), dtype=float) + 1j * np.asarray(
                ut.get("matrix_im", np.zeros((2 ** n, 2 ** n))), dtype=float
            )
        u_target = Operator(m, n)
    h_target_strings = {
        int(w): spec for w, spec in (tgt.get("h_target") or {}).items()
    }
    s_target = tgt.get("s_target")
    f_target = tgt.get("f_target")

    objectives = []
    for k, o in enumerate(raw.get("objectives", [])):
        path = f"objectives[{k}]"
        kind = _req(o, "kind", path)
        weight = float(_req(o, "weight", path))
        params = {key: v for key, v in o.items() if key not in ("kind", "weight")}
        if "component" in params:
            params["component"] = int(params["component"]) - 1  # 1-based in files
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

def _channel_axis_operators(cfg: ProblemConfig) -> list[Operator]:
    """One operator per distinct (qubits, axis) that the control channels
    drive, in channel order: x and y for drive roles, z for 'z'."""
    axes = []
    for ch in cfg.channels:
        for ax in ("x", "y") if ch.role in ("amp", "phase", "x", "y") else ("z",):
            if (ch.qubits, ax) not in axes:
                axes.append((ch.qubits, ax))
    return [
        Operator(m, cfg.n_qubits, hermitian_hint=True)
        for m in axis_operators(axes, cfg.n_qubits)
    ]


def build_generators(cfg: ProblemConfig) -> list[Operator]:
    """Control-channel axis operators plus primary internal terms."""
    ops = _channel_axis_operators(cfg)
    for t in cfg.terms:
        if t.assign == "pri":
            ops.append(Operator(t.matrix_unit, cfg.n_qubits))
    return ops


def build_algebra(cfg: ProblemConfig, tol: float = 1e-7) -> LieAlgebraBasis:
    return find_lie_algebra(build_generators(cfg), tol)


def pert_components(cfg: ProblemConfig):
    """Component index -> reference H_pert^w matrix (rad/s)."""
    comps: dict[int, np.ndarray] = {}
    for t in cfg.terms:
        if t.assign != "pert":
            continue
        comps.setdefault(t.component, np.zeros_like(t.matrix_unit))
        comps[t.component] = comps[t.component] + t.ref_coeff * t.matrix_unit
    if not comps:
        raise ConfigError("no Hamiltonian term is assigned to H_pert")
    return dict(sorted(comps.items()))


def build_subspaces(cfg: ProblemConfig, g: LieAlgebraBasis, tol: float = 1e-7):
    """Component index -> CSubspace of its reference perturbation."""
    out = {}
    for w, mat in pert_components(cfg).items():
        out[w] = find_c_subspace(g, Operator(mat, cfg.n_qubits), tol, label=f"C{w}")
    return out


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
    comps = pert_components(cfg)
    tgts = target_operators(cfg)
    out = []
    for w, mat in comps.items():
        ht = tgts[w]
        out.append(
            (
                Operator(mat, cfg.n_qubits),
                subspaces[w],
                Operator(ht, cfg.n_qubits) if ht is not None else None,
            )
        )
    return out


def component_target_vectors(cfg: ProblemConfig, subspaces) -> dict:
    """Component -> |H_target^w>> in rad/s under the joint normalization
    convention: H0bar_w = s * that_w * ||(+)_w H_pert^w||."""
    from .opcore import vectorize

    comps = pert_components(cfg)
    tgts = target_operators(cfg)
    pvecs = {
        w: np.asarray(vectorize(Operator(m, cfg.n_qubits), subspaces[w].basis), dtype=float)
        for w, m in comps.items()
    }
    pnorm = math.sqrt(sum(float(v @ v) for v in pvecs.values()))
    tvecs = {}
    for w in comps:
        if tgts[w] is None:
            tvecs[w] = np.zeros(len(subspaces[w].basis))
        else:
            tvecs[w] = np.asarray(
                vectorize(Operator(tgts[w], cfg.n_qubits), subspaces[w].basis), dtype=float
            )
    tnorm = math.sqrt(sum(float(v @ v) for v in tvecs.values()))
    s = cfg.s_target if cfg.s_target is not None else 0.0
    out = {}
    for w in comps:
        if tnorm == 0.0:
            out[w] = np.zeros(len(subspaces[w].basis))
        else:
            out[w] = s * pnorm * tvecs[w] / tnorm
    return out


def _same_span(a: CSubspace, b: CSubspace) -> bool:
    if a.dim != b.dim or a.n_qubits != b.n_qubits:
        return False
    sa, sb = a.basis.stack(), b.basis.stack()
    g = np.einsum("aij,bij->ab", sa.conj(), sb)
    return bool(abs(np.linalg.norm(g.conj().T @ g) ** 2 - a.dim) < 1e-6 * a.dim + 1e-9)


def error_subspace(cfg: ProblemConfig, g: LieAlgebraBasis, reuse=(), tol: float = 1e-7) -> CSubspace:
    """Minimal subspace holding every toggled control-error operator; the
    seeds are the channel axis operators.  Reuses a structurally identical
    subspace from `reuse` so per-candidate work is shared."""
    seeds = _channel_axis_operators(cfg)
    space = find_c_subspace(g, seeds[0], tol, extra_seeds=tuple(seeds[1:]), label="C_err")
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
    # component indices in objective params refer to positions in `comps`
    order = {w: i for i, w in enumerate(pert_components(cfg))}
    fixed_terms = []
    for term in cfg.objectives:
        p = dict(term.params)
        if "component" in p:
            p["component"] = order.get(p["component"] + 1, p["component"])
        fixed_terms.append(ObjectiveTerm(term.kind, term.weight, p))
    spec = ObjectiveSpec(tuple(fixed_terms), target_unitary=cfg.u_target)
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


def total_target_unitary(cfg: ProblemConfig, subspaces) -> Operator:
    """U_target exp(-i H_target T_seq) with H_target in real units."""
    from .toggling import expm_batch

    d = 2 ** cfg.n_qubits
    u = cfg.u_target.entries if cfg.u_target is not None else np.eye(d)
    tvecs = component_target_vectors(cfg, subspaces)
    h = np.zeros((d, d), dtype=complex)
    for w, vec in tvecs.items():
        h = h + np.tensordot(vec, subspaces[w].basis.stack(), axes=(0, 0))
    if np.abs(h).max() > 0:
        uh = expm_batch(h[None], cfg.t_seq)[0]
        u = u @ uh
    return Operator(u, cfg.n_qubits)


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
