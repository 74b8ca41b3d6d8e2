"""Achievable-set characterization for zeroth-order average Hamiltonians.

The reachable set of time-averaged toggled perturbations is the convex
hull of conjugated perturbation vectors.  This module samples that hull
(Haar via QR for full unitary algebras, a group random walk otherwise),
rotates it so the target direction is the first coordinate, and bounds
the achievable scaling factor range [s-, s+] with two linear programs,
one per end: each is one HiGHS model that every batch of vertices grows
by its columns and that is re-solved from its last optimal basis.  The
range is an inner bound, since the sampled hull lies inside the reachable
one: every end is low, 21% on the 2-qubit design problem and 72% on its
3-qubit extension.  So the s_target gate of `hamforge optimize` can reject
a reachable target; --force passes it.

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
from .opcore import SPAN_TOL, RowSpace, SubspaceError, project
from .toggling import expm_batch, prefix_products

CONVERGE_TOL = 1e-3   # scale-range search: stop once both ends move less per batch
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
# linear programming (HiGHS dual simplex, warm-started across batches)

@dataclass(frozen=True)
class LPResult:
    status: str                    # 'optimal' | 'infeasible'
    value: float = np.nan          # the end v1 @ x at the optimum, NaN without one


class HullLP:
    """One end of the scale range: max sign * v1 @ x over convex weights x
    of the vertex rows added so far whose mean has no transverse part, with
    two slacks that hold v1 @ x inside [-1, 1].  One HiGHS model whose rows
    are fixed when built; `add` appends a batch of vertices as columns, and
    `lp_solve` re-solves the grown model from its last basis."""

    def __init__(self, sign: float, m: int):
        # imported here: scipy.optimize costs ~20 MB that only LP callers should pay
        from scipy.optimize._highspy._core import _Highs

        self.sign, self.m, self.highs = sign, m, _Highs()
        for key, val in (("output_flag", False), ("presolve", "off"), ("solver", "simplex"),
                         ("simplex_strategy", 1)):   # 1: dual
            self.highs.setOptionValue(key, val)
        b = np.zeros(m + 2)
        b[0], b[m], b[m + 1] = 1.0, 1.0, -1.0    # sum x = 1, v1.x + s1 = 1, v1.x - s2 = -1
        self.highs.addRows(m + 2, b, b, 0, np.zeros(1, np.int32), np.zeros(0, np.int32), b[:0])
        self._add_cols(np.zeros(2), np.eye(m + 2)[m:] * [[1.0], [-1.0]])   # s1, s2

    def add(self, vertices: np.ndarray):
        if vertices.ndim != 2 or vertices.shape[1] != self.m:
            raise ValueError(f"inconsistent LP shapes: vertex rows {vertices.shape} against m = {self.m}")
        v1 = vertices[:, :1]
        self._add_cols(-self.sign * v1[:, 0], np.hstack([np.ones_like(v1), vertices[:, 1:], v1, v1]))

    def _add_cols(self, cost: np.ndarray, cols: np.ndarray):
        """Columns x >= 0, the rows of ``cols``, with ``cost`` to minimise;
        HiGHS drops their zero entries."""
        n, rows = cols.shape
        index = np.tile(np.arange(rows, dtype=np.int32), n)
        start = np.arange(0, n * rows, rows, dtype=np.int32)
        self.highs.addCols(n, cost, np.zeros(n), np.full(n, np.inf), n * rows, start, index, cols.ravel())


def lp_solve(lp: HullLP) -> LPResult:
    """Re-solve one end of the scale range: a `HullLP`, grown by each
    batch's vertices, from its last optimal basis (or wherever its last
    solve stopped).

    HiGHS's dual simplex without presolve (Huangfu & Hall, Math. Prog.
    Comp. 10, 2018) then pays only for the pivots the new columns need.
    A stop other than optimal or infeasible raises RuntimeError naming
    HiGHS's status.
    """
    lp.highs.run()
    verdict = lp.highs.modelStatusToString(lp.highs.getModelStatus())
    if verdict == "Optimal":
        return LPResult("optimal", -lp.sign * lp.highs.getObjectiveValue())
    if verdict == "Infeasible":
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
    """Inner bound [s_minus, s_plus] on the scale range along the target direction.

    An end whose LP reached no optimum is NaN, here and in the
    ``(samples, s_minus, s_plus)`` rows of ``convergence_history``;
    ``achievable`` is False only when both ends are NaN.
    """

    s_minus: float
    s_plus: float
    achievable: bool
    samples_used: int
    convergence_history: list = field(default_factory=list)


def _completion_from_direction(t0: np.ndarray) -> np.ndarray:
    """Orthogonal matrix whose first row is t0 (unit) itself, completed
    from the unit vectors by the row space."""
    rows = RowSpace(t0.size)
    for v in (t0, *np.eye(t0.size)):
        rows.try_add(v)
    return np.vstack([t0, rows.q[1:].real])


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
    the joint normalisation (see the module docstring).

    Vertices accumulate in batches.  Each end is one `HullLP`, grown by
    every batch's vertices and re-solved from its last optimal basis; the
    search stops early once both ends of the range move less than
    CONVERGE_TOL over the last batch, and is capped at ``j_samples``.
    Both LPs infeasible means the target direction is not achievable at
    any scale.  The range is an inner bound (see the module docstring).
    """
    rng = rng or np.random.default_rng()
    mtot = sum(c.subspace.dim for c in components)
    if j_samples < mtot + 1:
        warnings.warn("fewer samples than subspace dimension + 1: degenerate hull")
    vertices = sample_vertices(g, components, j_samples, sampler, rng, n_burn, n_thin)
    ends = [HullLP(sign, vertices.shape[1]) for sign in (+1.0, -1.0)]
    history = []
    s_plus = s_minus = np.nan
    used = 0
    for k in range(batch, j_samples + batch, batch):
        k = min(k, j_samples)
        prev_plus, prev_minus = s_plus, s_minus
        for lp in ends:
            lp.add(vertices[used:k])
        s_plus, s_minus = (lp_solve(lp).value for lp in ends)
        history.append((k, s_minus, s_plus))
        used = k
        # NaN never compares below the tolerance, so an end without an
        # optimum keeps the search going to the cap
        if (
            abs(s_plus - prev_plus) < CONVERGE_TOL
            and abs(s_minus - prev_minus) < CONVERGE_TOL
            and k >= mtot + 1
        ):
            break
    if np.isnan(s_plus) and np.isnan(s_minus):
        return ScaleRange(np.nan, np.nan, False, used, history)
    return ScaleRange(float(s_minus), float(s_plus), True, used, history)
