"""Cost-function library and the weighted total cost driving optimization.

Each objective is a nonnegative residual that vanishes exactly when its
condition holds: primary-unitary overlap, zeroth-order average
Hamiltonian against a target, first/second-order control-error averages,
the symmetrized cross pair, reversal-symmetry conditions killing a
Magnus order, and the commutator cross term between the error and
perturbation channels.  `CostPipeline` wires a control model, a
Hamiltonian partitioning and a term list into one callable f_tot(x)
suitable for the annealer; all unit-bearing residuals are divided by
fixed scales chosen at build time so the weighted sum mixes comparable
magnitudes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controlsys import ControlModel, ControlSequence, axis_operators, jet_key
from .liealg import CSubspace
from .opcore import Operator
from . import toggling as tg

KINDS = (
    "primary_unitary",
    "zeroth_order_target",
    "robustness_first",
    "robustness_second",
    "robustness_cross_pair",
    "higher_order_r",
    "effective_robustness",
)


@dataclass(frozen=True)
class ObjectiveTerm:
    kind: str
    weight: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise ValueError("weights must be positive and finite")
        need = {
            "robustness_first": ("error",),
            "robustness_second": ("errors",),
            "robustness_cross_pair": ("errors",),
            "effective_robustness": ("error",),
            "higher_order_r": ("order",),
        }
        for key in need.get(self.kind, ()):
            if key not in self.params:
                raise ValueError(f"{self.kind} term requires parameter {key!r}")


@dataclass(frozen=True)
class ObjectiveSpec:
    terms: tuple[ObjectiveTerm, ...]
    target_unitary: Operator | None = None
    target_vectors: dict = field(default_factory=dict)   # component -> |H_target>>


@dataclass(frozen=True)
class CostReport:
    labels: tuple[str, ...]
    values: tuple[float, ...]
    weights: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(np.dot(self.values, self.weights))

    def as_dict(self) -> dict:
        return {l: v for l, v in zip(self.labels, self.values)}


# ---------------------------------------------------------------------------
# individual criteria

def primary_unitary_cost(u_final: Operator | np.ndarray, u_target: Operator | np.ndarray) -> float:
    """1 - |Tr(U U_target^dag)| / Tr(U_target U_target^dag); phase-free."""
    u = u_final.entries if isinstance(u_final, Operator) else u_final
    t = u_target.entries if isinstance(u_target, Operator) else u_target
    overlap = abs(np.sum(u * t.conj()))
    return float(1.0 - overlap / np.real(np.sum(t * t.conj())))


def zeroth_order_cost(c0: np.ndarray, target: np.ndarray, t_seq: float) -> float:
    """||c0 - target * T_seq|| / T_seq (target is |H_target>>, rad/s)."""
    return float(np.linalg.norm(c0 - np.asarray(target) * t_seq) / t_seq)


def robustness_first_cost(c0_err: np.ndarray) -> float:
    return float(np.linalg.norm(c0_err))


def robustness_second_cost(c0_err2: np.ndarray) -> float:
    return float(np.linalg.norm(c0_err2))


def robustness_cross_pair_cost(cross: np.ndarray) -> float:
    """Norm of the index-symmetrized ordered pair tensor c_ij + c_ji."""
    c = np.asarray(cross)
    return float(np.linalg.norm(c + c.T))


def higher_order_cost(cints: tg.CIntegralSet, r: int) -> float:
    """Reversal-symmetry residual whose vanishing kills the (r-1)th Magnus
    term: root-sum-square of |c_{i1..ir} + (-1)^{r-1} c_{ir..i1}| over all
    non-all-equal index tuples (the sign follows the antisymmetry of the
    nested-commutator kernel F_r)."""
    if r not in (2, 3):
        raise ValueError("order r must be 2 or 3")
    if cints.order < r:
        raise ValueError("integral set does not carry the requested order")
    m = len(cints.c0)
    if r == 2:
        c = cints.c1_matrix()
        diff = c - c.T
        return float(np.sqrt(max(np.sum(diff ** 2) - 0.0, 0.0)))
    c = cints.c2_tensor()
    diff = c + np.transpose(c, (2, 1, 0))
    mask = np.ones((m, m, m), dtype=bool)
    idx = np.arange(m)
    mask[idx, idx, idx] = False
    return float(np.linalg.norm(diff[mask]))


def effective_robustness_cost(c_cross: np.ndarray, comm_table: np.ndarray) -> float:
    """||sum_{s,l} c_cross[s,l] [h_err^l, h_pert^s]||_HS.

    comm_table[l, s] holds the commutator matrices; c_cross is indexed
    (pert, err) with the perturbation at the later time.
    """
    op = np.einsum("sl,lsij->ij", c_cross, comm_table)
    return float(np.linalg.norm(op))


# ---------------------------------------------------------------------------
# error channels

@dataclass(frozen=True)
class ErrorChannel:
    """One systematic-error direction of the control system.

    kind 'amplitude' is the multiplicative drive error: the control field
    of drive (1 + eps) times the nominal one, so dH = eps * H_c when the
    model is linear in its drive; kind 'model_param' differentiates the
    control-system map with respect to the named parameter, scaled by the
    parameter's natural magnitude so the expansion variable is
    dimensionless.  Every other derivative, second and mixed ones
    included, comes from the model's field derivatives.
    """

    name: str
    kind: str                     # 'amplitude' | 'model_param'
    param: str = ""
    subspace: CSubspace | None = None

    def __post_init__(self):
        if self.kind not in ("amplitude", "model_param"):
            raise ValueError(f"unknown error kind {self.kind!r}")


@dataclass(frozen=True)
class PertComponent:
    """One perturbation component H_pert^w with its subspace and target."""

    matrix: np.ndarray            # reference operator, rad/s
    subspace: CSubspace
    target_vec: np.ndarray | None # |H_target>> in the subspace, rad/s, or None


# ---------------------------------------------------------------------------
# the pipeline

class CostPipeline:
    """Precompiled evaluation of f_tot over control vectors in [-1,1]^D.

    Deterministic and stateless per call; a single instance may be
    shared read-only across worker processes.
    """

    def __init__(
        self,
        n_qubits: int,
        channels,
        intervals: int,
        dt: float,
        model: ControlModel,
        pri_internal: np.ndarray | None,
        components: list[PertComponent],
        errors: list[ErrorChannel],
        spec: ObjectiveSpec,
        unit_scale: float | None = None,
    ):
        self.n_qubits = n_qubits
        self.d = 2 ** n_qubits
        self.channels = tuple(channels)
        self.p_intervals = intervals
        self.dt = dt
        self.model = model
        self.spec = spec
        self.components = list(components)
        self.errors = {e.name: e for e in errors}
        self.pri_internal = (
            np.zeros((self.d, self.d), dtype=complex) if pri_internal is None else pri_internal
        )

        scales = [abs(c.scale) for c in self.channels if c.role != "phase"]
        self.unit_scale = unit_scale or (max(scales) if scales else 1.0)
        self.err_scale = self.unit_scale * np.sqrt(self.d)

        # axis operators of the field rows, resolved on a probe run
        probe = ControlSequence(np.zeros((len(self.channels), intervals)), dt, self.channels)
        fld = model.field(probe)
        self.delta_t = fld.delta_t
        self.q_steps = fld.q_steps
        self.axis_ops = axis_operators(fld.axes, n_qubits)

        # one shared array per distinct basis: the per-candidate eigendata,
        # toggles and their prefixes are cached on its identity
        distinct: list[np.ndarray] = []

        def shared(stack):
            for s in distinct:
                if s.shape == stack.shape and np.array_equal(s, stack):
                    return s
            distinct.append(stack)
            return stack

        # per-component static data
        self.comp_stacks = [shared(c.subspace.basis.stack()) for c in self.components]
        self.comp_seed = [
            np.einsum("aij,ij->a", s.conj(), c.matrix)
            for s, c in zip(self.comp_stacks, self.components)
        ]
        self.comp_scale = []
        for c, seed in zip(self.components, self.comp_seed):
            if c.target_vec is not None and np.linalg.norm(c.target_vec) > 0:
                self.comp_scale.append(float(np.linalg.norm(c.target_vec)))
            else:
                self.comp_scale.append(float(np.linalg.norm(seed)))
        self.err_stacks = {
            name: shared(e.subspace.basis.stack()) for name, e in self.errors.items()
        }

        # commutator tables for effective robustness terms
        self.cross_tables = {}
        for term in spec.terms:
            if term.kind == "effective_robustness":
                w = term.params.get("component", 0)
                ename = term.params["error"]
                key = (w, ename)
                if key not in self.cross_tables:
                    se = self.err_stacks[ename]
                    sp = self.comp_stacks[w]
                    table = np.einsum("lab,sbc->lsac", se, sp) - np.einsum(
                        "sab,lbc->lsac", sp, se
                    )
                    self.cross_tables[key] = table

        self._plan()

    # -- requirement planning ------------------------------------------------

    def _plan(self):
        self.need_comp_order = [1] * len(self.components)
        self.need_err = {}         # name -> max order of error-space integrals
        self.need_cross = set()    # (component, error) pairs
        self.need_err_cross = set()  # ordered (j_later, j_earlier) error pairs
        self.need_second = []      # (j1, j2) pairs
        for term in self.spec.terms:
            p = term.params
            if term.kind == "higher_order_r":
                space = p.get("space", "pert")
                if space == "pert":
                    w = p.get("component", 0)
                    self.need_comp_order[w] = max(self.need_comp_order[w], p["order"])
                else:
                    self.need_err[space] = max(self.need_err.get(space, 1), p["order"])
            elif term.kind == "robustness_first":
                self.need_err.setdefault(p["error"], 1)
            elif term.kind == "robustness_cross_pair":
                j1, j2 = p["errors"]
                if j1 == j2:
                    self.need_err[j1] = max(self.need_err.get(j1, 1), 2)
                else:
                    # joint ordered tensors in both channel orders
                    self.need_err.setdefault(j1, 1)
                    self.need_err.setdefault(j2, 1)
                    self.need_err_cross.add((j1, j2))
                    self.need_err_cross.add((j2, j1))
            elif term.kind == "robustness_second":
                self.need_second.append(tuple(p["errors"]))
            elif term.kind == "effective_robustness":
                self.need_cross.add((p.get("component", 0), p["error"]))
                self.need_err.setdefault(p["error"], 1)
        # the field derivatives that the error terms read, solved with the field
        jets = {self._jet(name) for name in self.need_err}
        jets |= {self._jet(*pair) for pair in self.need_second}
        self.jets = tuple(sorted(jets - {None}, key=str))

    def _jet(self, *names: str):
        """Field-derivative key of the named error channels, or None when all
        are 'amplitude' errors of a drive-linear model: dH = eps H_c needs
        no field derivative."""
        if self.model.drive_linear and all(self.errors[n].kind == "amplitude" for n in names):
            return None
        params = []
        for n in names:
            e = self.errors[n]
            if e.kind == "model_param" and e.param not in self.model.params():
                raise KeyError(f"error {n!r}: model has no parameter {e.param!r}")
            # an 'amplitude' error differentiates along the relative drive error
            params.append("amplitude" if e.kind == "amplitude" else e.param)
        return jet_key(*params)

    # -- per-candidate evaluation ---------------------------------------------

    def sequence(self, x: np.ndarray) -> ControlSequence:
        v = np.asarray(x, dtype=float).reshape(len(self.channels), self.p_intervals)
        return ControlSequence(v, self.dt, self.channels)

    def _error_step_ops(self, names, fld, h_ctrl):
        """Per-step derivative of H along the named error channels (one
        or two); None for a second derivative that vanishes."""
        key = self._jet(*names)
        if key is None:
            return h_ctrl if len(names) == 1 else None  # dH = eps H_c is linear in eps
        b = fld.sensitivities[key]
        for n in names:
            e = self.errors[n]
            if e.kind == "model_param":
                b = b * self.model.param_scale(e.param)
        return np.einsum("kq,kab->qab", b, self.axis_ops)

    def _space_cache(self, stack, h_pri, dt, cache):
        """Adjoint eigendata (nu, V) of one distinct subspace and the prefix
        products of its toggle matrices D(U_q^dag) = V diag(e^{i nu dt}) V^dag."""
        key = id(stack)
        if key not in cache:
            nu, vecs = np.linalg.eigh(tg.adjoint_matrix_batch(h_pri, stack))
            cache[key] = (nu, vecs, tg.prefix_toggles(tg.eigen_toggles(nu, vecs, dt)))
        return cache[key]

    def evaluate(self, x: np.ndarray) -> CostReport:
        fld = self.model.field(self.sequence(x), self.jets)
        dt = fld.delta_t
        h_ctrl = np.einsum("kq,kab->qab", fld.b, self.axis_ops)
        h_pri = h_ctrl + self.pri_internal
        t_seq = h_pri.shape[0] * dt
        cache: dict = {}

        # component integral sets
        comp_sets, comp_step = [], []
        for w, comp in enumerate(self.components):
            order = self.need_comp_order[w]
            nu, vecs, e_prev = self._space_cache(self.comp_stacks[w], h_pri, dt, cache)
            y = np.einsum("qba,b->qa", vecs.conj(), self.comp_seed[w].astype(complex))
            c0, c1, c2 = tg.batch_step_cints(nu, vecs, y, dt, order)
            comp_sets.append(
                _integral_set(comp.subspace, order, tg.compose_batch(e_prev, c0, c1, c2), t_seq)
            )
            comp_step.append((nu, vecs, y, c0, e_prev))

        # error-space integral sets plus caches for cross terms
        err_sets = {}
        err_step = {}
        for name, order in self.need_err.items():
            stack = self.err_stacks[name]
            eops = self._error_step_ops((name,), fld, h_ctrl)
            nu, vecs, e_prev = self._space_cache(stack, h_pri, dt, cache)
            seeds = np.einsum("aij,qij->qa", stack.conj(), eops)
            y = np.einsum("qba,qb->qa", vecs.conj(), seeds.astype(complex))
            c0, c1, c2 = tg.batch_step_cints(nu, vecs, y, dt, order)
            err_sets[name] = _integral_set(
                self.errors[name].subspace, order, tg.compose_batch(e_prev, c0, c1, c2), t_seq
            )
            err_step[name] = (nu, vecs, y, c0, e_prev)

        # joint ordered tensors (later slot, earlier slot) from the step data
        # above: distinct error channels, and (component, error)
        def joint(later, earlier):
            nu_a, v_a, y_a, c0_a, ep_a = later
            nu_b, v_b, y_b, c0_b, ep_b = earlier
            steps = tg.batch_step_cross(nu_a, v_a, y_a, nu_b, v_b, y_b, dt)
            return tg.compose_cross_batch(steps, c0_a, c0_b, ep_a, ep_b)

        err_cross = {(ja, jb): joint(err_step[ja], err_step[jb]) for ja, jb in self.need_err_cross}
        cross = {(w, name): joint(comp_step[w], err_step[name]) for w, name in self.need_cross}

        # second-derivative zeroth integrals
        second_c0 = {}
        for (j1, j2) in set(self.need_second):
            ops2 = self._error_step_ops((j1, j2), fld, h_ctrl)
            if ops2 is None:
                second_c0[(j1, j2)] = None
                continue
            stack = self.err_stacks[j1]
            nu, vecs, e_prev = self._space_cache(stack, h_pri, dt, cache)
            seeds = np.einsum("aij,qij->qa", stack.conj(), ops2)
            y = np.einsum("qba,qb->qa", vecs.conj(), seeds.astype(complex))
            c0 = tg.batch_step_cints(nu, vecs, y, dt, 1)[0]
            second_c0[(j1, j2)] = tg.compose_batch(e_prev, c0)[0]

        # final unitary only when some term needs it
        u_final = None

        labels, values, weights = [], [], []
        for term in self.spec.terms:
            p = term.params
            if term.kind == "primary_unitary":
                if u_final is None:
                    u_final = tg.prefix_products(tg.expm_batch(h_pri, dt))[-1]
                val = primary_unitary_cost(u_final, self.spec.target_unitary.entries)
                label = "primary_unitary"
            elif term.kind == "zeroth_order_target":
                w = p.get("component", 0)
                tgt = self.components[w].target_vec
                tgt = np.zeros_like(comp_sets[w].c0) if tgt is None else tgt
                val = zeroth_order_cost(comp_sets[w].c0, tgt, t_seq) / self.comp_scale[w]
                label = f"zeroth_order[{w}]"
            elif term.kind == "robustness_first":
                name = p["error"]
                val = robustness_first_cost(err_sets[name].c0) / (t_seq * self.err_scale)
                label = f"robustness_first[{name}]"
            elif term.kind == "robustness_second":
                j1, j2 = p["errors"]
                c0 = second_c0[(j1, j2)]
                val = 0.0 if c0 is None else robustness_second_cost(c0) / (t_seq * self.err_scale)
                label = f"robustness_second[{j1},{j2}]"
            elif term.kind == "robustness_cross_pair":
                j1, j2 = p["errors"]
                if j1 == j2:
                    val = robustness_cross_pair_cost(err_sets[j1].c1_matrix())
                else:
                    # symmetrized over index order and channel order
                    va = robustness_cross_pair_cost(err_cross[(j1, j2)])
                    vb = robustness_cross_pair_cost(err_cross[(j2, j1)])
                    val = float(np.hypot(va, vb))
                val = val / (t_seq * self.err_scale) ** 2
                label = f"robustness_cross_pair[{j1},{j2}]"
            elif term.kind == "higher_order_r":
                space = p.get("space", "pert")
                r = p["order"]
                if space == "pert":
                    w = p.get("component", 0)
                    scale = self.comp_scale[w] * t_seq
                    val = higher_order_cost(comp_sets[w], r) / scale ** r
                    label = f"higher_order[{w},r={r}]"
                else:
                    scale = self.err_scale * t_seq
                    val = higher_order_cost(err_sets[space], r) / scale ** r
                    label = f"higher_order[{space},r={r}]"
            else:  # effective_robustness
                w = p.get("component", 0)
                name = p["error"]
                table = self.cross_tables[(w, name)]
                val = effective_robustness_cost(cross[(w, name)], table) / (
                    t_seq ** 2 * self.comp_scale[w] * self.err_scale * 2.0
                )
                label = f"effective_robustness[{w},{name}]"
            labels.append(label)
            values.append(val)
            weights.append(term.weight)
        return CostReport(tuple(labels), tuple(values), tuple(weights))

    def __call__(self, x: np.ndarray) -> float:
        return self.evaluate(x).total


def _integral_set(subspace, order, tensors, t_seq) -> tg.CIntegralSet:
    """CIntegralSet from composed (c0, c1, c2) tensors, flattened."""
    t0, t1, t2 = tensors
    flat = [None if t is None else t.ravel() for t in (t1, t2)]
    return tg.CIntegralSet(subspace, order, t0, *flat, t_seq)
