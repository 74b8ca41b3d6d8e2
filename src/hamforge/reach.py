"""Achievable-set characterization for zeroth-order average Hamiltonians.

The reachable set of time-averaged toggled perturbations is the convex
hull of conjugated perturbation vectors.  This module samples that hull
(Haar via QR for full unitary algebras, a group random walk otherwise),
rotates it so the target direction is the first coordinate, and bounds
the achievable scaling factor range [s-, s+] with two linear programs.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .liealg import LieAlgebraBasis
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
# linear programming (HiGHS dual simplex through scipy)

@dataclass(frozen=True)
class LPResult:
    status: str                    # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None = None
    value: float | None = None


def lp_solve(objective: np.ndarray, eq_matrix: np.ndarray, eq_rhs: np.ndarray) -> LPResult:
    """Maximize objective @ x subject to eq_matrix @ x = eq_rhs, x >= 0.

    Solved by HiGHS's dual simplex without
    presolve, the fastest variant on the scale-range LPs (Huangfu & Hall,
    Math. Prog. Comp. 10, 2018).  A solver stop other than optimal,
    infeasible or unbounded raises RuntimeError.
    """
    # imported here: scipy.optimize costs ~20 MB that only LP callers should pay
    from scipy.optimize import linprog

    c = np.asarray(objective, dtype=float)
    a = np.atleast_2d(np.asarray(eq_matrix, dtype=float))
    b = np.asarray(eq_rhs, dtype=float)
    if a.shape != (b.size, c.size):
        raise ValueError("inconsistent LP shapes")
    res = linprog(
        -c, A_eq=a, b_eq=b, bounds=(0.0, None), method="highs-ds", options={"presolve": False}
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    if status is None:
        raise RuntimeError(f"LP solver stopped without a verdict: {res.message}")
    if status != "optimal":
        return LPResult(status)
    return LPResult("optimal", res.x, float(c @ res.x))


# ---------------------------------------------------------------------------
# vertex sets and scale ranges

@dataclass(frozen=True)
class VertexSet:
    """Transformed conjugation vertices v^j = T (+)_w |u_j^dag H_w u_j>>_w."""

    vertices: np.ndarray          # (J, m_total), unit rows


@dataclass(frozen=True)
class ScaleRange:
    """Achievable scale range [s_minus, s_plus] along the target direction.

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
) -> VertexSet:
    """Build the vertex set for a list of (H_pert_w, C_w, H_target_w); the
    settings are those of `find_scale_range`."""
    mode = _pick_sampler(g, sampler)

    def coefficients(m, c, what):
        coeff, resid = project(m, c.stack)
        if resid > SPAN_TOL:
            raise SubspaceError(f"{what} outside subspace (relative residual {resid:.3e})")
        return coeff.real

    perts = [coefficients(h, c, "perturbation") for (h, c, _) in components]
    targets = [
        np.zeros(c.dim) if ht is None else coefficients(ht, c, "target")
        for (_, c, ht) in components
    ]
    pcat = np.concatenate(perts)
    alpha = 1.0 / np.linalg.norm(pcat)
    tcat = np.concatenate(targets)
    tnorm = np.linalg.norm(tcat)
    if tnorm == 0.0:
        raise ValueError("all-zero target; nothing to scale against")
    tmat = _completion_from_direction(tcat / tnorm)

    dim = 2 ** g.n_qubits
    if mode == "qr":
        us = haar_unitary(dim, rng, j_samples)
    else:
        us = _walk_unitaries(g.stack, n_burn, n_thin, j_samples, rng)
    parts = []
    for (h, c, _) in components:
        coeff, resid = project(us.conj().swapaxes(-1, -2) @ h @ us, c.stack)
        if (resid > 1e-6).any():
            raise SubspaceError(
                "conjugated perturbation leaves its subspace; "
                "the sampler wandered outside e^{g_pri}"
            )
        parts.append(coeff.real)
    rows = (alpha * np.concatenate(parts, axis=1)) @ tmat.T
    return VertexSet(rows)


def _scale_lps(vertices: np.ndarray):
    """Solve LP+ / LP- on the current vertex rows; None where no optimum.

    The variables are the J convex weights x and two slacks that hold
    v1 @ x inside [-1, 1]; the other coordinates of the mean must vanish.
    """
    j, m = vertices.shape
    v1 = vertices[:, 0]
    a = np.zeros((m + 2, j + 2))
    a[0, :j] = 1.0
    a[1:m, :j] = vertices[:, 1:].T
    a[m, :j], a[m, j] = v1, 1.0            # v1.x + s1 = 1
    a[m + 1, :j], a[m + 1, j + 1] = v1, -1.0   # v1.x - s2 = -1
    b = np.zeros(m + 2)
    b[0], b[m], b[m + 1] = 1.0, 1.0, -1.0
    out = []
    for sign in (+1.0, -1.0):
        c = np.concatenate([sign * v1, [0.0, 0.0]])
        res = lp_solve(c, a, b)
        out.append(sign * res.value if res.status == "optimal" else None)
    return out  # [s_plus, s_minus]


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
    """Range of achievable scaling factors along the (normalized) target,
    measured against the jointly normalized direct-sum perturbation.

    Vertices accumulate in batches; the search stops early once both ends
    of the range move less than CONVERGE_TOL over the last batch, and is
    capped at ``j_samples``.  Both LPs infeasible means the target
    direction is not achievable at any scale.
    """
    rng = rng or np.random.default_rng()
    mtot = sum(c.dim for (_, c, _) in components)
    if j_samples < mtot + 1:
        warnings.warn("fewer samples than subspace dimension + 1: degenerate hull")
    vs = sample_vertices(g, components, j_samples, sampler, rng, n_burn, n_thin)
    history = []
    s_plus = s_minus = np.nan
    used = 0
    for k in range(batch, j_samples + batch, batch):
        k = min(k, j_samples)
        prev_plus, prev_minus = s_plus, s_minus
        s_plus, s_minus = (np.nan if s is None else s for s in _scale_lps(vs.vertices[:k]))
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
