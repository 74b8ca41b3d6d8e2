"""Cost-function library and the weighted total cost driving optimization.

Each objective is a nonnegative residual that vanishes exactly when its
condition holds.  `CostPipeline` wires a control model, a Hamiltonian
partitioning and a term list into one callable f_tot(x) for the annealer.
It resolves each term once, at build time, into a label, the tensors it
reads and a value function.  A request ("pert", w) toggles H_pert^w in
its subspace C_w, a request ("err", names) the first (one name) or
second (two names) derivative of H along error channels in the error
subspace, each to the highest order read: c0 (order 1), c1 (2) or c2
(3).  A cross tensor c_ij = int_0^T dt1 int_0^t1 dt2 a_i(t1) b_j(t2)
pairs two requests, the first at the later time.

The build groups the requests by frame in one plan: requests on one
basis stack share a frame, and the error subspace takes the basis of the
first component subspace with its span, so on a span that both hold
every request shares one frame.  `tensors(x)` is the forward pass: one
field, one eigendecomposition of the step Hamiltonians and one step
rule; per frame one spectral frame, one toggle prefix and one set of
nodes, then its requests; then the cross tensors and the unitary.  It
returns each tensor a term reads, computed once however many terms read
it, and `evaluate(x)` reads the costs off it.  Per request the toggled
coefficients are summed at Gauss-Legendre nodes in time, their lab-frame
nodal values formed only where a higher order or a cross reads them, with
no per-step tensors (see "Composition" in `toggling`).

Kinds, the tensors they read and their normalization, with T the sequence
duration, s_w = ||H_target^w>>||, the zeroth-order target of component w
at the spec's scale factor under the joint normalisation of `reach`
(||H_pert^w>>|| where that target is zero), and E = sqrt(d) max |scale|
over the non-phase channels:

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

from .controlsys import ControlModel, ControlSequence, field_operators, jet_key
from .evaluate import overlap_fidelity
from .liealg import CSubspace
from .opcore import SPAN_TOL, project
from .reach import Component, joint_normalisation
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
    target_unitary: np.ndarray | None
    s_target: float               # scale factor of the zeroth-order targets


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
    reads = (("pert", w, 1),)
    consts = (pipe.comp_target[w], pipe.t_seq)
    return f"zeroth_order[{w}]", zeroth_order_cost, reads, consts, pipe.comp_scale[w]


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
    se, sp = pipe.err_space.stack, pipe.components[w].subspace.stack
    table = np.einsum("lab,sbc->lsac", se, sp) - np.einsum("sab,lbc->lsac", sp, se)
    reads = (("cross", ("pert", w), ("err", (name,))),)
    scale = pipe.t_seq ** 2 * pipe.comp_scale[w] * pipe.err_scale * 2.0
    return f"effective_robustness[{w},{name}]", effective_robustness_cost, reads, (table,), scale


# the parameters whose references a term may check
PARAMS = ("component", "error", "errors", "space", "order")


def check_references(term: ObjectiveTerm, components, errors, target: bool) -> None:
    """Check what the parameters of `term` refer to: component is one of
    `components`, error one of `errors`, errors two of them, space 'pert'
    or one of them, order 2 or 3, component and order are integers (not
    bools), and primary_unitary has a target unitary.  A ValueError starts
    with the key."""
    p, errors = term.params, list(errors)
    pools = dict(zip(PARAMS, (list(components), errors, errors, ["pert", *errors], [2, 3])))
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

def _same_span(a: CSubspace, b: CSubspace) -> bool:
    return a.stack.shape == b.stack.shape and project(b.stack, a.stack)[1].max() <= SPAN_TOL


class CostPipeline:
    """Precompiled evaluation of f_tot over control vectors in [-1,1]^D.

    `errors` maps each error channel's name to the model parameter it
    varies, and `err_space` is the one subspace they all toggle in: the
    first component subspace with the span of the one given, else that
    one.  `reads` holds every address the terms read, once.  `plan` maps
    each frame, one per distinct basis stack, to its requests, each with
    its highest order read, whether a cross reads its nodal values, and
    its field jet and seed (`_plan`).  `tensors(x)` is the forward pass
    and `evaluate(x)` the read-out.  Deterministic and stateless per call;
    a single instance may be shared read-only across worker processes.
    """

    def __init__(
        self,
        n_qubits: int,
        channels,
        intervals: int,
        dt: float,
        model: ControlModel,
        pri_internal: np.ndarray | None,
        components: list[Component],
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
        self.err_space = next((c.subspace for c in self.components if err_space is not None
                               and _same_span(c.subspace, err_space)), err_space)
        self.target_unitary = spec.target_unitary
        self.pri_internal = (
            np.zeros((d, d), dtype=complex) if pri_internal is None else pri_internal
        )

        scales = [abs(c.scale) for c in self.channels if c.role != "phase"]
        self.err_scale = (max(scales) if scales else 1.0) * np.sqrt(d)

        self.t_seq = intervals * dt
        self.axis_ops = field_operators(self.channels, n_qubits)
        _, _, self.comp_target = joint_normalisation(self.components, spec.s_target)
        # s_w: the norm of the target, else of the perturbation
        self.comp_scale = [
            float(np.linalg.norm(t) or np.linalg.norm(c.seed))
            for c, t in zip(self.components, self.comp_target)
        ]

        self.terms: list[ResolvedTerm] = []
        target = self.target_unitary is not None
        for k, term in enumerate(spec.terms):
            try:
                check_references(term, range(len(components)), self.errors, target)
            except ValueError as exc:
                raise ValueError(f"objectives[{k}].{exc}") from exc
            label, cost, reads, consts, divisor = KINDS[term.kind][1](self, term.params)
            self.terms.append(ResolvedTerm(label, term.weight, cost, reads, consts, divisor))
        self.labels = tuple(t.label for t in self.terms)
        self.weights = tuple(t.weight for t in self.terms)
        self.reads = tuple(dict.fromkeys(a for t in self.terms for a in t.reads))
        self.crosses = tuple(a for a in self.reads if a[0] == "cross")
        self.plan = self._plan()
        # the field derivatives that the error requests read, solved with the field
        jets = {jet for requests in self.plan.values() for _, _, jet, _ in requests.values()}
        self.jets = tuple(sorted(jets - {None}, key=str))

    def _plan(self) -> dict:
        """frame -> {request: (highest order read, lab, jet, seed)}, lab
        when a cross reads the request's nodal values.  The seed of
        ("pert", w) is the (m,) coefficients of H_pert^w, that of ("err",
        names) the (m, K) ones of the field rows, which the field
        derivative `jet` weighs per step."""
        orders = {side: 1 for cross in self.crosses for side in cross[1:]}
        for kind, arg, r in (a for a in self.reads if a[0] in ("pert", "err")):
            orders[kind, arg] = max(orders.get((kind, arg), 1), r)
        frames, plan = {}, {}
        for (kind, arg), order in orders.items():
            if kind == "pert":
                space, jet, seed = self.components[arg].subspace, None, self.components[arg].seed
            else:
                # dH along the channels is sum_k (d^n b_k / d eps^n) axis_k, in
                # units of each model parameter's natural magnitude
                params = [self.errors[n] for n in arg]
                scale = np.prod([self.model.param_scale(p) for p in params])
                space, jet = self.err_space, jet_key(*params)
                seed = project(self.axis_ops, space.stack)[0].real.T * scale
            stack = space.stack
            frame = frames.setdefault((stack.shape, stack.tobytes()), tg.AdjointFrame(stack))
            lab = any((kind, arg) in cross for cross in self.crosses)
            plan.setdefault(frame, {})[kind, arg] = order, lab, jet, seed
        return plan

    def sequence(self, x: np.ndarray) -> ControlSequence:
        v = np.asarray(x, dtype=float).reshape(len(self.channels), self.p_intervals)
        return ControlSequence(v, self.dt, self.channels)

    def tensors(self, x: np.ndarray) -> dict:
        """The forward pass: each address in `reads` -> its tensor at x."""
        fld = self.model.field(self.sequence(x), self.jets)
        dt = fld.delta_t
        h_pri = np.einsum("kq,kab->qab", fld.b, self.axis_ops) + self.pri_internal
        # the one eigendecomposition gives the unitary, the step rule and, per
        # frame, the spectral frame, the toggles and the rotations at the nodes
        lam, vecs = np.linalg.eigh(h_pri)
        rule = tg.step_rule(lam[:, -1] - lam[:, 0], dt)
        got, steps = {}, {}
        for frame, requests in self.plan.items():
            nu, f = tg.adjoint_matrix_batch(lam, vecs, frame)
            e_prev = tg.prefix_toggles(tg.eigen_toggles(nu, f, dt))
            nodes = tg.StepNodes(nu, f, rule)
            for key, (order, lab, jet, seed) in requests.items():
                y = np.einsum("qba,qb->qa", f, np.broadcast_to(seed, f.shape[:2]) if jet is None
                              else (seed @ fld.sensitivities[jet]).T)
                c0, c = tg.batch_step_cints(nu, f, y, dt, order, nodes, lab)
                nodal, totals = tg.compose_batch(e_prev, c0, c, nodes, order)
                steps[key] = nodes, nodal
                got.update(((*key, r), tot) for r, tot in enumerate(totals[:order], 1))
        for cross in self.crosses:
            (n_p, (l_p, _)), (n_e, (_, g1_e)) = steps[cross[1]], steps[cross[2]]
            got[cross] = tg.compose_cross_batch(tg.batch_step_cross(n_p, n_e), l_p, g1_e)
        if UNITARY in self.reads:
            got[UNITARY] = tg.ordered_product(tg.eig_exp(lam, vecs, dt))
        return {a: got[a] for a in self.reads}

    def evaluate(self, x: np.ndarray) -> CostReport:
        got = self.tensors(x)
        values = tuple(t.cost(*(got[a] for a in t.reads), *t.consts) / t.divisor for t in self.terms)
        return CostReport(self.labels, values, self.weights)

    def __call__(self, x: np.ndarray) -> float:
        return self.evaluate(x).total
