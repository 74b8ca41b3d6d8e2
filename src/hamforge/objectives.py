"""Cost-function library and the weighted total cost driving optimization.

Each objective is a nonnegative residual that vanishes exactly when its
condition holds.  `CostPipeline` wires a control model, a Hamiltonian
partitioning and a term list into one callable f_tot(x) for the annealer.
It resolves each term once, at build time, into a label, the tensors it
reads and a value function; `evaluate` computes each tensor once however
many terms read it.  A request ("pert", w) toggles H_pert^w in its
subspace C_w, a request ("err", names) the first (one name) or second
(two names) derivative of H along error channels in the error subspace,
each to the highest order read: c0 (order 1), c1 (2) or c2 (3).  A cross
tensor c_ij = int_0^T dt1 int_0^t1 dt2 a_i(t1) b_j(t2) pairs two
requests, the first at the later time.  Per request the toggled
coefficients are summed at Gauss-Legendre nodes in time, their lab-frame
nodal values formed only where a higher order or a cross reads them, with
no per-step tensors (see "Composition" in `toggling`).

Kinds, the tensors they read and their normalization, with T the sequence
duration, s_w = ||H_target^w>>|| (||H_pert^w>>|| without a target) and
E = sqrt(d) max |scale| over the non-phase channels:

- primary_unitary: the final propagator U;
  1 - |Tr(U U_target^dag)| / Tr(U_target U_target^dag).
- zeroth_order_target (w): c0 of ("pert", w); ||c0 - |H_target^w>> T|| / (T s_w).
- robustness_first (j): c0 of ("err", (j,)); ||c0|| / (T E).
- robustness_second (j1, j2): c0 of ("err", (j1, j2)); ||c0|| / (T E).
- robustness_cross_pair (j1, j2): c1 of ("err", (j1,)) if j1 = j2, else
  the cross tensors of ("err", (j1,)) and ("err", (j2,)) in both orders;
  root-sum-square of ||c + c^T||, / (T E)^2.
- higher_order_r (space, r): c_{r-1} of ("pert", w) or ("err", (space,));
  root-sum-square of c_{i1..ir} + (-1)^{r-1} c_{ir..i1} over the
  non-all-equal index tuples, / (T s_w)^r or / (T E)^r.
- effective_robustness (w, j): the cross tensor of ("pert", w) over
  ("err", (j,)); ||sum_{s,l} c_sl [h_err^l, h_pert^s]||_HS / (2 T^2 s_w E).

Error channels.  An error channel names one parameter of the control
model, and every channel toggles in the one error subspace, which holds
the operators of the field rows.  'amplitude' is the relative drive error:
the field of drive (1 + eps) times the nominal one.  Every other name is a
model parameter, expanded in units of its natural scale
(`ControlModel.param_scale`) so that eps is dimensionless.  The error
Hamiltonian of channels j1.. is dH = sum_k (d^n b_k / d eps_j1..) axis_k,
and every field derivative, the amplitude ones included, comes from
`ControlModel.field`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .controlsys import ControlModel, ControlSequence, axis_operators, field_axes, jet_key
from .evaluate import overlap_fidelity
from .liealg import CSubspace
from .opcore import project
from . import toggling as tg


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
        for key in KINDS[self.kind][0]:
            if key not in self.params:
                raise ValueError(f"{self.kind} term requires parameter {key!r}")


@dataclass(frozen=True)
class ObjectiveSpec:
    terms: tuple[ObjectiveTerm, ...]
    target_unitary: np.ndarray | None = None


@dataclass(frozen=True)
class CostReport:
    labels: tuple[str, ...]
    values: tuple[float, ...]
    weights: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(np.dot(self.values, self.weights))


# ---------------------------------------------------------------------------
# individual criteria

def primary_unitary_cost(u_final: np.ndarray, u_target: np.ndarray) -> float:
    """1 - |Tr(U U_target^dag)| / Tr(U_target U_target^dag); phase-free."""
    return 1.0 - overlap_fidelity(u_final, u_target)


def zeroth_order_cost(c0: np.ndarray, target: np.ndarray, t_seq: float) -> float:
    """||c0 - target * T_seq|| / T_seq (target is |H_target>>, rad/s)."""
    return float(np.linalg.norm(c0 - np.asarray(target) * t_seq) / t_seq)


def robustness_first_cost(c0_err: np.ndarray) -> float:
    """Norm of an error space's c0, for first and second derivatives alike."""
    return float(np.linalg.norm(c0_err))


def robustness_cross_pair_cost(*cross: np.ndarray) -> float:
    """Norm of the index-symmetrized ordered pair tensor c_ij + c_ji;
    root-sum-square over several tensors (both channel orders)."""
    return float(np.hypot.reduce([np.linalg.norm(c + c.T) for c in map(np.asarray, cross)]))


def higher_order_cost(c: np.ndarray) -> float:
    """Reversal-symmetry residual of the composed order-r tensor c
    (r = c.ndim, 2 or 3) whose vanishing kills the (r-1)th Magnus term:
    root-sum-square of |c_{i1..ir} + (-1)^{r-1} c_{ir..i1}| over all
    non-all-equal index tuples (the sign follows the antisymmetry of the
    nested-commutator kernel F_r)."""
    r = c.ndim
    if r not in (2, 3):
        raise ValueError("order r must be 2 or 3")
    diff = c + (-1) ** (r - 1) * np.transpose(c)
    idx = np.arange(c.shape[0])
    diff[(idx,) * r] = 0.0
    return float(np.sqrt(np.sum(diff ** 2)))


def effective_robustness_cost(c_cross: np.ndarray, comm_table: np.ndarray) -> float:
    """||sum_{s,l} c_cross[s,l] [h_err^l, h_pert^s]||_HS.

    comm_table[l, s] holds the commutator matrices; c_cross is indexed
    (pert, err) with the perturbation at the later time.
    """
    op = np.einsum("sl,lsij->ij", c_cross, comm_table)
    return float(np.linalg.norm(op))


# ---------------------------------------------------------------------------
# perturbation components

@dataclass(frozen=True)
class PertComponent:
    """One perturbation component H_pert^w with its subspace and target."""

    matrix: np.ndarray            # reference operator, rad/s
    subspace: CSubspace
    target_vec: np.ndarray | None # |H_target>> in the subspace, rad/s, or None


# ---------------------------------------------------------------------------
# terms resolved against a pipeline

UNITARY = ("unitary",)


@dataclass(frozen=True)
class ResolvedTerm:
    """One objective term bound to a pipeline: its value is
    cost(*tensors, *consts) / divisor.

    `reads` addresses the tensors: (kind, arg, r) is the order-r tensor of
    request (kind, arg), ("cross", later, earlier) the cross tensor of two
    requests, and UNITARY the final primary propagator.  `cost` is a
    module-level function, so the pipeline pickles.
    """

    label: str
    weight: float
    cost: Callable
    reads: tuple
    consts: tuple
    divisor: float


# One resolver per kind: (pipeline, params) -> (label, cost, reads, consts,
# divisor), on params that `check_references` has passed.

def _primary_unitary(pipe, p):
    return "primary_unitary", primary_unitary_cost, (UNITARY,), (pipe.target_unitary,), 1.0


def _zeroth_order_target(pipe, p):
    w = p.get("component", 0)
    tgt = pipe.components[w].target_vec
    tgt = np.zeros(pipe.comp_seed[w].size) if tgt is None else tgt
    reads = (("pert", w, 1),)
    return f"zeroth_order[{w}]", zeroth_order_cost, reads, (tgt, pipe.t_seq), pipe.comp_scale[w]


def _robustness(pipe, names):
    """robustness_first of one error channel, robustness_second of two."""
    names = tuple(names)
    label = f"robustness_{('first', 'second')[len(names) - 1]}[{','.join(names)}]"
    reads = (("err", names, 1),)
    return label, robustness_first_cost, reads, (), pipe.t_seq * pipe.err_scale


def _robustness_cross_pair(pipe, p):
    j1, j2 = p["errors"]
    a, b = ("err", (j1,)), ("err", (j2,))
    # symmetrized over index order and, for distinct channels, channel order
    reads = (("err", (j1,), 2),) if j1 == j2 else (("cross", a, b), ("cross", b, a))
    scale = (pipe.t_seq * pipe.err_scale) ** 2
    return f"robustness_cross_pair[{j1},{j2}]", robustness_cross_pair_cost, reads, (), scale


def _higher_order_r(pipe, p):
    r, space = int(p["order"]), p.get("space", "pert")
    if space == "pert":
        w = p.get("component", 0)
        key, label, scale = ("pert", w), f"higher_order[{w},r={r}]", pipe.comp_scale[w]
    else:
        key, label = ("err", (space,)), f"higher_order[{space},r={r}]"
        scale = pipe.err_scale
    return label, higher_order_cost, ((*key, r),), (), (scale * pipe.t_seq) ** r


def _effective_robustness(pipe, p):
    w, name = p.get("component", 0), p["error"]
    se, sp = pipe.err_frame.stack, pipe.comp_frames[w].stack
    table = np.einsum("lab,sbc->lsac", se, sp) - np.einsum("sab,lbc->lsac", sp, se)
    reads = (("cross", ("pert", w), ("err", (name,))),)
    scale = pipe.t_seq ** 2 * pipe.comp_scale[w] * pipe.err_scale * 2.0
    return f"effective_robustness[{w},{name}]", effective_robustness_cost, reads, (table,), scale


def check_references(term: ObjectiveTerm, components, errors, target: bool) -> None:
    """Check what the parameters of `term` refer to: component is one of
    `components`, error one of `errors`, errors two of them, space 'pert'
    or one of them, order 2 or 3, component and order are integers (not
    bools), and primary_unitary has a target unitary.  A ValueError starts
    with the key."""
    p, errors = term.params, list(errors)
    pools = {"component": list(components), "error": errors, "errors": errors,
             "space": ["pert", *errors], "order": [2, 3]}
    if term.kind == "primary_unitary" and not target:
        raise ValueError("kind: primary_unitary needs a target unitary (targets.u_target)")
    if "errors" in p and not (isinstance(p["errors"], (list, tuple)) and len(p["errors"]) == 2):
        raise ValueError(f"errors must name two error channels, got {p['errors']!r}")
    for key, value in p.items():
        if key in ("component", "order") and (
            isinstance(value, bool) or not isinstance(value, (int, np.integer))
        ):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        for v in value if key == "errors" else [value]:
            if key in pools and v not in pools[key]:
                raise ValueError(f"{key}: {v!r} is not one of {pools[key]}")


# kind -> (required parameters, resolver)
KINDS = {
    "primary_unitary": ((), _primary_unitary),
    "zeroth_order_target": ((), _zeroth_order_target),
    "robustness_first": (("error",), lambda pipe, p: _robustness(pipe, (p["error"],))),
    "robustness_second": (("errors",), lambda pipe, p: _robustness(pipe, p["errors"])),
    "robustness_cross_pair": (("errors",), _robustness_cross_pair),
    "higher_order_r": (("order",), _higher_order_r),
    "effective_robustness": (("error",), _effective_robustness),
}


# ---------------------------------------------------------------------------
# the pipeline

class CostPipeline:
    """Precompiled evaluation of f_tot over control vectors in [-1,1]^D.

    `errors` maps each error channel's name to the model parameter it
    varies, and `err_space` is the one subspace they all toggle in.
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
        errors: dict[str, str],
        err_space: CSubspace | None,
        spec: ObjectiveSpec,
    ):
        d = 2 ** n_qubits
        self.channels = tuple(channels)
        self.p_intervals = intervals
        self.dt = dt
        self.model = model
        self.components = list(components)
        self.errors = dict(errors)
        self.err_space = err_space
        self.target_unitary = spec.target_unitary
        self.pri_internal = (
            np.zeros((d, d), dtype=complex) if pri_internal is None else pri_internal
        )

        scales = [abs(c.scale) for c in self.channels if c.role != "phase"]
        self.err_scale = (max(scales) if scales else 1.0) * np.sqrt(d)

        self.t_seq = intervals * dt
        self.axis_ops = axis_operators(field_axes(self.channels), n_qubits)

        # one frame per distinct basis: the per-candidate frequencies, frame,
        # toggles and their prefixes are cached on its identity
        distinct: dict = {}

        def shared(stack):
            key = (stack.shape, stack.tobytes())
            if key not in distinct:
                distinct[key] = tg.AdjointFrame(stack)
            return distinct[key]

        self.comp_frames = [shared(c.subspace.stack) for c in self.components]
        # Hermitian operators on a Hermitian basis: real coefficients
        self.comp_seed = [project(c.matrix, c.subspace.stack)[0].real for c in self.components]
        self.comp_scale = []
        for c, seed in zip(self.components, self.comp_seed):
            if c.target_vec is not None and np.linalg.norm(c.target_vec) > 0:
                self.comp_scale.append(float(np.linalg.norm(c.target_vec)))
            else:
                self.comp_scale.append(float(np.linalg.norm(seed)))
        self.err_frame = None if err_space is None else shared(err_space.stack)

        self.requests: dict = {}   # (kind, arg) -> highest order read
        self.err_seeds: dict = {}  # error names -> (field jet, (m, K) coefficients of the rows)
        self.crosses: list = []    # (later, earlier) request pairs
        self.unitary = False
        self.terms: list[ResolvedTerm] = []
        target = self.target_unitary is not None
        for k, term in enumerate(spec.terms):
            try:
                check_references(term, range(len(components)), self.errors, target)
            except ValueError as exc:
                raise ValueError(f"objectives[{k}].{exc}") from exc
            label, cost, reads, consts, divisor = KINDS[term.kind][1](self, term.params)
            self.terms.append(ResolvedTerm(label, term.weight, cost, reads, consts, divisor))
            for address in reads:
                self._read(address)
        self.labels = tuple(t.label for t in self.terms)
        self.weights = tuple(t.weight for t in self.terms)
        # the field derivatives that the error requests read, solved with the field
        self.jets = tuple(sorted({jet for jet, _ in self.err_seeds.values()}, key=str))

    # -- build-time resolution -----------------------------------------------

    def _read(self, address):
        """Register the request, cross pair or propagator behind one address."""
        if address == UNITARY:
            self.unitary = True
        elif address[0] == "cross":
            for side in address[1:]:
                self._read((*side, 1))
            if address[1:] not in self.crosses:
                self.crosses.append(address[1:])
        else:
            kind, arg, order = address
            if kind == "err" and arg not in self.err_seeds:
                # dH along the channels is sum_k (d^n b_k / d eps^n) axis_k, in
                # units of each model parameter's natural magnitude
                params = [self.errors[n] for n in arg]
                scale = np.prod([self.model.param_scale(p) for p in params])
                coef = project(self.axis_ops, self.err_frame.stack)[0].real.T
                self.err_seeds[arg] = (jet_key(*params), coef * scale)
            self.requests[kind, arg] = max(self.requests.get((kind, arg), 1), order)

    # -- per-candidate evaluation ---------------------------------------------

    def sequence(self, x: np.ndarray) -> ControlSequence:
        v = np.asarray(x, dtype=float).reshape(len(self.channels), self.p_intervals)
        return ControlSequence(v, self.dt, self.channels)

    def _toggled(self, key, fld):
        """Subspace frame of request `key` and the coefficients (Q, m) of the
        operator it toggles, per step."""
        kind, arg = key
        if kind == "pert":
            seed = self.comp_seed[arg]
            return self.comp_frames[arg], np.broadcast_to(seed, (fld.q_steps, seed.size))
        jet, coef = self.err_seeds[arg]
        return self.err_frame, (coef @ fld.sensitivities[jet]).T

    def evaluate(self, x: np.ndarray) -> CostReport:
        fld = self.model.field(self.sequence(x), self.jets)
        dt = fld.delta_t
        h_pri = np.einsum("kq,kab->qab", fld.b, self.axis_ops) + self.pri_internal

        # every request once; the one eigendecomposition of the step
        # Hamiltonians gives the final unitary, the step rule of every
        # subspace and, per distinct subspace, the spectral frame, which
        # also gives the toggle matrices, their prefix products and the
        # rotations at the nodes
        lam, vecs = np.linalg.eigh(h_pri)
        rule = tg.step_rule(lam[:, -1] - lam[:, 0], dt)
        eig, steps, got = {}, {}, {}
        for key, order in self.requests.items():
            frame, seeds = self._toggled(key, fld)
            if id(frame) not in eig:
                nu, f = tg.adjoint_matrix_batch(lam, vecs, frame)
                e_prev = tg.prefix_toggles(tg.eigen_toggles(nu, f, dt))
                eig[id(frame)] = nu, f, tg.StepNodes(nu, f, rule), e_prev
            nu, f, nodes, e_prev = eig[id(frame)]
            y = np.einsum("qba,qb->qa", f, seeds)
            lab = any(key in pair for pair in self.crosses)
            c0, c = tg.batch_step_cints(nu, f, y, dt, order, nodes, lab)
            nodal, totals = tg.compose_batch(e_prev, c0, c, nodes, order)
            steps[key] = nodes, nodal
            for r, tot in enumerate(totals[:order], 1):
                got[(*key, r)] = tot
        for later, earlier in self.crosses:
            (n_p, (l_p, _)), (n_e, (_, g1_e)) = steps[later], steps[earlier]
            w = tg.batch_step_cross(n_p, n_e)
            got[("cross", later, earlier)] = tg.compose_cross_batch(w, l_p, g1_e)
        if self.unitary:
            got[UNITARY] = tg.ordered_product(tg.eig_exp(lam, vecs, dt))

        values = tuple(
            t.cost(*(got[a] for a in t.reads), *t.consts) / t.divisor for t in self.terms
        )
        return CostReport(self.labels, values, self.weights)

    def __call__(self, x: np.ndarray) -> float:
        return self.evaluate(x).total
