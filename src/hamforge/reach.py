"""Achievable-set characterization for zeroth-order average Hamiltonians.

The reachable set of time-averaged toggled perturbations is the convex
hull of conjugated perturbation vectors.  This module samples that hull
(Haar via QR for full unitary algebras, a group random walk otherwise),
rotates it so the target direction is the first coordinate, and bounds
the achievable scaling factor range [s-, s+] with two linear programs, one
per end, each priced over every sampled vertex and solved over the few
dozen that bind.  The range is an inner bound, since the sampled hull lies
inside the reachable one: every end is low, 21% on the 2-qubit design
problem and 72% on its 3-qubit extension.  So the s_target gate of
`hamforge optimize` can reject a reachable target; --force passes it.

Joint normalisation.  A `Component` w holds the coefficients p_w of
H_pert^w and t_w of H_target^w in its subspace C_w.  A scale factor s is
the point s T^ along the unit joint target T^ = (+)_w t_w / ||(+) t||, in
units of ||(+)_w p_w||, so component w's zeroth-order target at s is
s ||(+) p|| t_w / ||(+) t|| (`joint_normalisation`, the one implementation).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .liealg import CSubspace, LieAlgebraBasis
from .opcore import SPAN_TOL, SubspaceError, project
from .toggling import expm_batch, prefix_products

SAMPLERS = ("auto", "qr", "walk")   # vertex samplers; "auto" picks by the algebra


# ---------------------------------------------------------------------------
# random unitaries

def haar_unitary(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary from a QR-decomposed complex Ginibre matrix.

    With ``count`` it returns a (count, dim, dim) stack that consumes the
    same stream as ``count`` sequential calls.
    """
    g = rng.standard_normal((2, dim, dim) if count is None else (count, 2, dim, dim))
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _walk_unitaries(
    gstack: np.ndarray,
    n_burn: int,
    n_thin: int,
    n_sample: int,
    rng: np.random.Generator,
):
    """Raw random-walk samples (n_sample, d, d) on e^{g_pri}: left-multiply
    exp(sum p_h h), with every move's p drawn and exponentiated at once.
    The walk is the scan `prefix_products` of the moves from the identity,
    and sample k = 1 .. n_sample is its state after n_burn + k n_thin moves."""
    p = rng.standard_normal((n_burn + n_sample * n_thin, gstack.shape[0]))
    moves = expm_batch(1j * np.tensordot(p, gstack, axes=(1, 0)), 1.0)
    walk = prefix_products(np.concatenate([np.eye(gstack.shape[-1])[None], moves]))
    return walk[n_burn + n_thin * np.arange(1, n_sample + 1)]


# ---------------------------------------------------------------------------
# linear programming (HiGHS dual simplex)

@dataclass(frozen=True)
class LPResult:
    status: str                    # 'optimal' | 'infeasible'
    value: float = np.nan          # the end v1 @ x at the optimum, NaN without one


def lp_solve(vertices: np.ndarray, sign: float) -> LPResult:
    """One end of the scale range: max sign * v1 @ x over convex weights x
    of the (J, m) vertex rows whose mean has no transverse part, with two
    slacks that hold v1 @ x inside [-1, 1].  One HiGHS model, solved by its
    dual simplex without presolve (Huangfu & Hall, Math. Prog. Comp. 10,
    2018), priced over every vertex and solved over those that bind (Gilmore
    & Gomory, Oper. Res. 9, 1961; Bixby et al., Oper. Res. 40, 1992): from
    the k = 2(m + 2) of largest sign * v1, each optimum adds up to k vertices
    whose reduced cost under its row duals is below HiGHS's dual feasibility
    tolerance, and re-solves from its basis, until none prices in.  A solve
    without an optimum is followed by one over every vertex.

    HiGHS reads "Infeasible", or on some degenerate hulls stops at
    "Unknown" with an infeasible primal solution: either, over every vertex,
    is an end without an optimum.  Any other stop without a verdict raises
    RuntimeError naming HiGHS's status.
    """
    # imported here: scipy.optimize costs ~20 MB that only LP callers should pay
    from scipy.optimize._highspy._core import _Highs

    m = vertices.shape[1]
    highs = _Highs()
    for key, val in (("output_flag", False), ("presolve", "off"), ("solver", "simplex"),
                     ("simplex_strategy", 1)):   # 1: dual
        highs.setOptionValue(key, val)
    b = np.zeros(m + 2)
    b[0], b[m], b[m + 1] = 1.0, 1.0, -1.0    # sum x = 1, v1.x + s1 = 1, v1.x - s2 = -1
    highs.addRows(m + 2, b, b, 0, np.zeros(1, np.int32), np.zeros(0, np.int32), b[:0])
    # columns x >= 0, one row each: the slacks s1, s2, then the vertices;
    # HiGHS drops their zero entries
    v1 = vertices[:, :1]
    cols = np.vstack([np.eye(m + 2)[m:] * [[1.0], [-1.0]], np.hstack([np.ones_like(v1), vertices[:, 1:], v1, v1])])
    cost = np.concatenate([[0.0, 0.0], -sign * v1[:, 0]])
    (count, rows), k = cols.shape, 2 * (m + 2)
    tol = highs.getOptionValue("dual_feasibility_tolerance")[1]
    active, new = np.zeros(count, dtype=bool), np.concatenate([[0, 1], 2 + np.argsort(cost[2:])[:k]])
    while len(new):
        n = len(new)
        active[new] = True
        highs.addCols(n, cost[new], np.zeros(n), np.full(n, np.inf), n * rows, np.arange(0, n * rows, rows, dtype=np.int32),
                      np.tile(np.arange(rows, dtype=np.int32), n), cols[new].ravel())
        highs.run()
        verdict = highs.modelStatusToString(highs.getModelStatus())
        if verdict == "Optimal":   # price the vertices outside the model by its row duals
            reduced = np.where(active, np.inf, cost - cols @ highs.getSolution().row_dual)
            new = np.argsort(reduced)[:k]
            new = new[reduced[new] < -tol]
        else:
            new = np.flatnonzero(~active)
    if verdict == "Optimal":
        return LPResult("optimal", -sign * highs.getObjectiveValue())
    primal = highs.solutionStatusToString(highs.getInfo().primal_solution_status)
    if verdict == "Infeasible" or (verdict, primal) == ("Unknown", "Infeasible"):
        return LPResult("infeasible")
    raise RuntimeError(f"LP solver stopped without a verdict: HiGHS status {verdict!r}")


# ---------------------------------------------------------------------------
# components and the joint normalisation

@dataclass(frozen=True)
class Component:
    """One perturbation component w, each operator projected onto C_w once:
    ``seed`` p_w and ``target`` t_w, the real coefficients of H_pert^w and
    H_target^w (zeros without a target), and ``target_resid``, H_target^w's
    relative residual off C_w (0 without one).  A scale factor s is
    measured along the unit joint target (+)_w t_w / ||(+) t||, in units
    of ||(+)_w p_w|| (the module docstring)."""

    matrix: np.ndarray            # H_pert^w, rad/s
    subspace: CSubspace           # C_w
    seed: np.ndarray              # p_w
    target: np.ndarray            # t_w
    target_resid: float

    @classmethod
    def of(cls, matrix: np.ndarray, subspace: CSubspace, target: np.ndarray | None = None):
        # Hermitian operators on a Hermitian basis: real coefficients
        seed = project(matrix, subspace.stack)[0].real
        coeff, resid = (np.zeros(subspace.dim), 0.0) if target is None else project(target, subspace.stack)
        return cls(matrix, subspace, seed, coeff.real, float(resid))


def joint_normalisation(components, s: float):
    """(||(+)_w p_w||, ||(+)_w t_w||, the zeroth-order target of each
    component at scale s, s ||(+) p|| t_w / ||(+) t|| in rad/s, or zeros
    when every target is zero)."""
    pnorm = np.linalg.norm(np.concatenate([c.seed for c in components]))
    tnorm = np.linalg.norm(np.concatenate([c.target for c in components]))
    scaled = [s * pnorm * c.target / tnorm if tnorm else np.zeros_like(c.target) for c in components]
    return pnorm, tnorm, scaled


# ---------------------------------------------------------------------------
# vertices and scale ranges

@dataclass(frozen=True)
class ScaleRange:
    """Inner bound [s_minus, s_plus] on the scale range along the target
    direction, from one LP per end priced over all ``samples_used`` vertices.

    An end whose LP reached no optimum is NaN, here and in the one
    ``(samples_used, s_minus, s_plus)`` row of ``convergence_history``;
    ``achievable`` is False only when both ends are NaN.
    """

    s_minus: float
    s_plus: float
    achievable: bool
    samples_used: int
    convergence_history: list = field(default_factory=list)


def _completion_from_direction(t0: np.ndarray) -> np.ndarray:
    """Orthogonal matrix whose first row is t0 (unit) itself: the Householder
    reflection I - 2 w w^T / ||w||^2, w = e1 - t0 (the identity at w = 0),
    with w_1 = sum_{i>1} t0_i^2 / (1 + t0_1) when t0_1 > 0, so that no
    cancellation spoils w near e1 (Golub & Van Loan, 4th ed., sec. 5.1.3)."""
    w = -t0.copy()
    w[0] = t0[1:] @ t0[1:] / (1.0 + t0[0]) if t0[0] > 0 else 1.0 - t0[0]
    tmat = np.eye(t0.size) - 2.0 * np.outer(w, w / (w @ w or 1.0))
    tmat[0] = t0
    return tmat


def _pick_sampler(g: LieAlgebraBasis, sampler: str) -> str:
    if sampler != "auto":
        return sampler
    d = 2 ** g.n_qubits
    return "qr" if g.dim >= d * d - 1 else "walk"


def sample_vertices(
    g: LieAlgebraBasis,
    components,
    j_samples: int,
    sampler: str,
    rng: np.random.Generator,
    n_burn: int,
    n_thin: int,
) -> np.ndarray:
    """The (J, m) unit rows v^j = T (+)_w |u_j^dag H_w u_j>>_w / ||(+)_w p_w||
    of a list of `Component`, with T the rotation that takes the unit
    joint target to the first axis; the settings are those of
    `find_scale_range`."""
    for c in components:
        if c.target_resid > SPAN_TOL:
            raise SubspaceError(f"target outside subspace (relative residual {c.target_resid:.3e})")
    pnorm, tnorm, _ = joint_normalisation(components, 0.0)
    if tnorm == 0.0:
        raise ValueError("all-zero target; nothing to scale against")
    tmat = _completion_from_direction(np.concatenate([c.target for c in components]) / tnorm)

    dim = 2 ** g.n_qubits
    if _pick_sampler(g, sampler) == "qr":
        us = haar_unitary(dim, rng, j_samples)
    else:
        us = _walk_unitaries(g.stack, n_burn, n_thin, j_samples, rng)
    parts = []
    for c in components:
        coeff, resid = project(us.conj().swapaxes(-1, -2) @ c.matrix @ us, c.subspace.stack)
        if (resid > 1e-6).any():
            raise SubspaceError(
                "conjugated perturbation leaves its subspace; "
                "the sampler wandered outside e^{g_pri}"
            )
        parts.append(coeff.real)
    return ((1.0 / pnorm) * np.concatenate(parts, axis=1)) @ tmat.T


def find_scale_range(
    g: LieAlgebraBasis,
    components,
    j_samples: int,
    sampler: str = "auto",
    rng: np.random.Generator | None = None,
    batch: int = 200,
    n_burn: int = 100,
    n_thin: int = 10,
) -> ScaleRange:
    """Range of achievable scale factors of a list of `Component`, under
    the joint normalisation (see the module docstring): the two ends of
    `lp_solve`, each priced over all ``j_samples`` sampled vertices and
    solved over the ones that bind.  Both ends without an optimum mean the
    target direction is not achievable at any scale.  The range is an inner
    bound (see the module docstring).  ``batch`` is accepted and ignored:
    the benchmark harness and the ``scale_batch`` file key still pass it.
    """
    rng = rng or np.random.default_rng()
    if j_samples < sum(c.subspace.dim for c in components) + 1:
        warnings.warn("fewer samples than subspace dimension + 1: degenerate hull")
    vertices = sample_vertices(g, components, j_samples, sampler, rng, n_burn, n_thin)
    s_plus, s_minus = (lp_solve(vertices, sign).value for sign in (+1.0, -1.0))
    achievable = not (np.isnan(s_plus) and np.isnan(s_minus))
    return ScaleRange(float(s_minus), float(s_plus), achievable, j_samples, [(j_samples, s_minus, s_plus)])
