"""Primary-propagator integration and the C-integral engine.

The time-ordered integrals

    c_{i1..ir}(T) = int_0^T dt1 ... int_0^{t_{r-1}} dt_r c_{i1}(t1)...c_{ir}(tr)

of toggling-frame coefficients are assembled from closed forms per
piecewise-constant step and composed with the chain rule.  Per step the
coefficient flow is |H_tog(t)>> = exp(i M t)|H_pert>> with the Hermitian
adjoint matrix M_ij = <<h_i|[H_pri, h_j]>> (purely imaginary entries, so
exp(iMt) is real orthogonal), and the nested integrals over eigenvalue
tuples reduce to divided differences of f(x) = exp(xT) on the imaginary
axis: I_r(nu_1..nu_r) = f[0, i p_1, .., i p_r] with prefix sums
p_k = nu_1 + .. + nu_k.

Toggle matrices.  Over a whole step the flow is D(U_q^dag) = exp(i M_q dt)
= V_q diag(e^{i nu_q dt}) V_q^dag, so `eigen_toggles` builds it from the
same eigenpairs (nu_q, V_q) as the step integrals.  The independent check,
which conjugates the basis by U_q, is `toggle_matrices` in
`tests/_oracles.py`.  `prefix_products` chains ordered step products in
log depth.

General kernel.  Divided differences are evaluated with sorted nodes so
the recursion always divides by the largest spread, and switch to a
Taylor series when the whole node cluster is narrower than `tol`
(removable singularities).  This is the path of `nested_exp_integral`,
of every r <= 2 table, and of the sequential reference engine
(`step_cints_raw` in `tests/_oracles.py`).  The threshold
DEFAULT_DEGEN_TOL = 0.2 is wide on purpose.  The direct differences lose
~eps / (spread * T) to cancellation, and at r = 3 one more division by a
node gap of similar size leaves errors of order eps / (spread * T)^2 in
units of T^3 / 6.  Against 40-digit arithmetic the worst r = 3 entry is
1.7e-9 at a threshold of 1e-3, ~1e-12 at 0.05 and below 1e-13 at 0.2.
SERIES_TERMS = 10 keeps the series exact to rounding up to width 0.25.

r = 3 grid (`_int3_grid`, used by `batch_step_cints`).  The nodes of
entry (a, b, c) are {0, a, a+b, a+b+c}.  Dividing by the (0, a+b+c) pair
leaves two 3-node subsets, and both are shifted entries of the m x m
r = 2 table I2 that the batch already holds:

    I3(a, b, c) = (e^{i a T} I2(b, c) - I2(a, b)) / (i (a+b+c))

so the Q m^3 grid costs one complex multiply, subtract and divide per
entry, with no transcendental call and no sort.  The identity divides by
|a+b+c| where the sorted recursion divides by the full node spread, so it
amplifies the rounding error of I2 by up to spread / |a+b+c|.  Two kinds
of entry go to the general kernel instead:

* |a+b+c| < SHIFT_KAPPA * spread.  SHIFT_KAPPA = 0.25 caps the extra
  amplification at 4x.  Adjoint spectra carry exact zeros and +/- pairs,
  so 9% of the entries of the 2-qubit benchmark grids have a+b+c = 0
  whatever the bound.  With tol = 0.2 the fallback takes 18% of the
  entries at 0.25; at a series width of 0.05 it took 16-18% at 0.25,
  against 11-14% at 0.1 and 28-29% at 0.5.
* Clusters with spread * T < tol, which the kernel sums as a series.
  The identity would inherit the cancellation of I2 described above.

Divided differences of exp: McCurdy, Ng & Parlett, Math. Comp. 43 (1984);
Higham, Functions of Matrices, SIAM (2008).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .liealg import CSubspace

DEFAULT_DEGEN_TOL = 0.2   # |w*T| cluster width below which the series branch runs
SERIES_TERMS = 10         # terms of that series
SHIFT_KAPPA = 0.25        # r=3 grid: shift identity needs |a+b+c| >= this * spread


# ---------------------------------------------------------------------------
# divided differences of exp(x*T) at nodes x = i*w (w real)

def _factorial(k: int) -> float:
    out = 1.0
    for i in range(2, k + 1):
        out *= i
    return out


def _sinc(x):
    return np.sinc(np.asarray(x) / np.pi)


def _g_pair(wa, wb, t):
    """f[i*wa, i*wb] for f(x) = exp(x t); stable for any separation."""
    return t * np.exp(0.5j * (wa + wb) * t) * _sinc(0.5 * (wb - wa) * t)


def _h_complete(ys, kmax):
    """Complete homogeneous symmetric polynomials h_0..h_kmax of the rows."""
    h = [np.ones_like(ys[0])]
    for k in range(kmax):
        h.append(h[-1] * ys[0])
    for y in ys[1:]:
        for k in range(1, kmax + 1):
            h[k] += y * h[k - 1]
    return h


def _dd_taylor(w, t, drop):
    """Series for f[i*w_0,..,i*w_r] with a narrow node cluster.

    drop = r = number of divided-difference levels; leading term T^r/r!.
    About the mean node, f[..] = e^{i wbar T} T^r sum_k i^k h_k(y T)/(k+r)!
    with y = w - wbar; the sums over even and odd k are real.
    """
    wbar = np.mean(w, axis=-1)
    ys = [(w[..., k] - wbar) * t for k in range(w.shape[-1])]
    h = _h_complete(ys, SERIES_TERMS - 1)
    re = sum((-1) ** (k // 2) / _factorial(k + drop) * h[k] for k in range(0, SERIES_TERMS, 2))
    im = sum((-1) ** (k // 2) / _factorial(k + drop) * h[k] for k in range(1, SERIES_TERMS, 2))
    return t ** drop * np.exp(1j * wbar * t) * (re + 1j * im)


def _dd2_sorted(w, t, tol):
    """f[i*w0, i*w1, i*w2] with w sorted ascending along the last axis."""
    spread = w[..., 2] - w[..., 0]
    cluster = spread * t < tol
    safe = np.where(cluster, 1.0, spread)
    ga = _g_pair(w[..., 0], w[..., 1], t)
    gb = _g_pair(w[..., 1], w[..., 2], t)
    direct = (gb - ga) / (1j * safe)
    if w.ndim == 1:
        return _dd_taylor(w, t, 2) if cluster else direct
    if np.any(cluster):
        direct[cluster] = _dd_taylor(w[cluster], t, 2)
    return direct


def _dd3_sorted(w, t, tol):
    """f[i*w0,..,i*w3] with w sorted ascending along the last axis."""
    spread = w[..., 3] - w[..., 0]
    cluster = spread * t < tol
    if w.ndim == 1:
        if cluster:
            return _dd_taylor(w, t, 3)
        return (_dd2_sorted(w[1:4], t, tol) - _dd2_sorted(w[0:3], t, tol)) / (1j * spread)
    # the recursion runs only where the series does not
    out = np.empty(spread.shape, dtype=complex)
    far = ~cluster
    wf = w[far]
    out[far] = (_dd2_sorted(wf[:, 1:4], t, tol) - _dd2_sorted(wf[:, 0:3], t, tol)) / (
        1j * spread[far]
    )
    out[cluster] = _dd_taylor(w[cluster], t, 3)
    return out


def _nodes(prefixes):
    """Stack (0, prefix_1, .., prefix_r) along a new last axis, sorted."""
    z = np.zeros_like(prefixes[0])
    return np.sort(np.stack([z, *prefixes], axis=-1), axis=-1)


def _int1_plus(nu, t):
    """int_0^t exp(i nu s) ds, vectorized."""
    nu = np.asarray(nu, dtype=float)
    return _g_pair(np.zeros_like(nu), nu, t)


def _int2_plus(nu1, nu2, t, tol=DEFAULT_DEGEN_TOL):
    """Ordered double integral of exp(i nu1 t1) exp(i nu2 t2), t1 > t2."""
    n1 = np.asarray(nu1, dtype=float)
    n2 = np.asarray(nu2, dtype=float)
    return _dd2_sorted(_nodes([n1 + 0 * n2, n1 + n2]), t, tol)


def _int3_plus(nu1, nu2, nu3, t, tol=DEFAULT_DEGEN_TOL):
    n1 = np.asarray(nu1, dtype=float)
    n2 = np.asarray(nu2, dtype=float)
    n3 = np.asarray(nu3, dtype=float)
    p1 = n1 + 0 * n2 + 0 * n3
    p2 = n1 + n2 + 0 * n3
    p3 = n1 + n2 + n3
    return _dd3_sorted(_nodes([p1, p2, p3]), t, tol)


def _int3_grid(nu, i2, t, tol=DEFAULT_DEGEN_TOL):
    """I3 on the (Q, m, m, m) grid of nu (Q, m) from its r=2 table i2 (Q, m, m).

    Shift identity where it is well conditioned, `_int3_plus` on the rest
    (see the module docstring).
    """
    p1 = nu[:, :, None, None]
    p2 = (nu[:, :, None] + nu[:, None, :])[..., None]
    p3 = p2 + nu[:, None, None, :]
    lo = np.minimum(np.minimum(p1, 0.0), np.minimum(p2, p3))
    hi = np.maximum(np.maximum(p1, 0.0), np.maximum(p2, p3))
    spread = hi - lo
    ill = (np.abs(p3) < SHIFT_KAPPA * spread) | (spread * t < tol)
    phase = np.exp(1j * nu * t)
    out = phase[:, :, None, None] * i2[:, None, :, :] - i2[:, :, :, None]
    out /= 1j * np.where(ill, 1.0, p3)
    q, a, b, c = np.nonzero(ill)
    out[q, a, b, c] = _int3_plus(nu[q, a], nu[q, b], nu[q, c], t, tol)
    return out


def nested_exp_integral(lambdas: Sequence[float], t: float, tol: float = DEFAULT_DEGEN_TOL) -> complex:
    """I(l_1..l_r) = int_0^T dt1..int_0^{t_{r-1}} dt_r e^{-i l_1 t1}..e^{-i l_r tr}.

    Closed form for r in {1,2,3}; near-degenerate eigenvalue sums switch
    to a series branch (threshold |sum * T| < tol).
    """
    lam = [float(x) for x in lambdas]
    r = len(lam)
    if r == 1:
        out = _int1_plus(-lam[0], t)
    elif r == 2:
        out = _int2_plus(-lam[0], -lam[1], t, tol)
    elif r == 3:
        out = _int3_plus(-lam[0], -lam[1], -lam[2], t, tol)
    else:
        raise ValueError("order r must be 1, 2 or 3")
    return complex(out)


# ---------------------------------------------------------------------------
# primary propagation

def _eig_exp(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """V diag(e^{-i w t}) V^dag for a stack of eigendata (w, V)."""
    return np.einsum("...ab,...b,...cb->...ac", v, np.exp(-1j * w * t), v.conj())


def expm_batch(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for a stack (..., d, d) of Hermitian matrices."""
    return _eig_exp(*np.linalg.eigh(h), t)


def prefix_products(a: np.ndarray) -> np.ndarray:
    """Inclusive ordered products out[q] = a[q] .. a[1] a[0] of a (Q, n, n) stack.

    Work-efficient scan (Blelloch 1990): multiply neighbouring pairs, scan
    the pairs, then fill in the even entries; 2 ceil(log2 Q) batched matmuls.
    """
    n = a.shape[0]
    if n <= 1:
        return a.copy()
    half = n // 2
    pairs = prefix_products(a[1 : 2 * half : 2] @ a[0 : 2 * half : 2])
    out = np.empty_like(a)
    out[0] = a[0]
    out[1::2] = pairs
    out[2::2] = a[2::2] @ pairs[: (n - 1) // 2]
    return out


# ---------------------------------------------------------------------------
# per-step integrals

def adjoint_matrix_batch(h_pri: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Batched (Q, m, m) adjoint matrices, without a span-closure check.

    M_ba = <<h_b|[H, h_a]>> is linear in H: one (Q, d^2) x (d^2, m^2)
    product with T[k, l, b, a] = (h_b^* h_a^T - h_a^T h_b^*)[k, l].
    """
    m, d = stack.shape[0], stack.shape[-1]
    sc = stack.conj()
    t = np.einsum("bkj,alj->klba", sc, stack) - np.einsum("aik,bil->klba", stack, sc)
    return (h_pri.reshape(-1, d * d) @ t.reshape(d * d, m * m)).reshape(-1, m, m)


def _real(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.real)


def batch_step_cints(nu, v, y, dt, r_max, tol=DEFAULT_DEGEN_TOL):
    """Per-step tensors for all Q steps at once.

    nu (Q,m) real, v (Q,m,m) complex, y (Q,m) complex = V^dag seed.
    Returns c0 (Q,m) [, c1 (Q,m,m) [, c2 (Q,m,m,m)]] real.
    """
    e1 = _int1_plus(nu, dt)
    c0 = _real(np.einsum("qab,qb->qa", v, e1 * y))
    c1 = c2 = None
    if r_max >= 2:
        i2 = _int2_plus(nu[:, :, None], nu[:, None, :], dt, tol)
        t2 = i2 * y[:, :, None] * y[:, None, :]
        tmp = np.einsum("qjb,qab->qaj", v, t2)
        c1 = _real(np.einsum("qia,qaj->qij", v, tmp))
    if r_max >= 3:
        i3 = _int3_grid(nu, i2, dt, tol)
        t3 = i3 * y[:, :, None, None] * y[:, None, :, None] * y[:, None, None, :]
        c2 = _real(np.einsum("qia,qjb,qkc,qabc->qijk", v, v, v, t3, optimize=True))
    return c0, c1, c2


def batch_step_cross(nu_p, v_p, y_p, nu_e, v_e, y_e, dt, tol=DEFAULT_DEGEN_TOL):
    """Per-step cross tensors (Q, mp, me); slot order (later, earlier)."""
    i2 = _int2_plus(nu_p[:, :, None], nu_e[:, None, :], dt, tol)
    t2 = i2 * y_p[:, :, None] * y_e[:, None, :]
    tmp = np.einsum("qjb,qab->qaj", v_e, t2)
    return _real(np.einsum("qia,qaj->qij", v_p, tmp))


def eigen_toggles(nu: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """D(U_q^dag) = exp(i M_q dt) from the eigendata (nu, V) of the adjoint matrices."""
    return _real(_eig_exp(nu, v, -dt))


def prefix_toggles(dq: np.ndarray) -> np.ndarray:
    """E_prev[q] = D(U_1^dag) ... D(U_{q-1}^dag) (identity at q = 0)."""
    out = np.empty_like(dq)
    out[0] = np.eye(dq.shape[-1])
    # A B .. Z = (Z^T .. B^T A^T)^T: the scan of the transposes, transposed
    out[1:] = np.swapaxes(prefix_products(np.swapaxes(dq[:-1], -1, -2)), -1, -2)
    return out


def compose_batch(e_prev, c0, c1=None, c2=None):
    """Vectorized chain rule; `compose_raw` in `tests/_oracles.py` is the
    sequential fold it replaces."""
    a0 = np.einsum("qij,qj->qi", e_prev, c0)
    tot0 = a0.sum(axis=0)
    if c1 is None:
        return tot0, None, None
    a1 = np.einsum("qia,qaj->qij", e_prev, np.einsum("qab,qjb->qaj", c1, e_prev))
    s0_prev = np.cumsum(a0, axis=0) - a0
    tot1 = a1.sum(axis=0) + np.einsum("qi,qj->ij", a0, s0_prev)
    if c2 is None:
        return tot0, tot1, None
    a2 = np.einsum("qia,qjb,qkc,qabc->qijk", e_prev, e_prev, e_prev, c2, optimize=True)
    s1_prev = np.cumsum(a1, axis=0) - a1
    pairs = np.einsum("qi,qj->qij", a0, s0_prev)
    p2_prev = np.cumsum(pairs, axis=0) - pairs
    tot2 = (
        a2.sum(axis=0)
        + np.einsum("qi,qjk->ijk", a0, s1_prev)
        + np.einsum("qij,qk->ijk", a1, s0_prev)
        + np.einsum("qi,qjk->ijk", a0, p2_prev)
    )
    return tot0, tot1, tot2


def compose_cross_batch(cross_steps, c0p, c0e, e_prev_p, e_prev_e):
    """Vectorized cross chain rule (perturbation slot at the later time)."""
    a0p = np.einsum("qij,qj->qi", e_prev_p, c0p)
    a0e = np.einsum("qij,qj->qi", e_prev_e, c0e)
    across = np.einsum(
        "qia,qaj->qij", e_prev_p, np.einsum("qab,qjb->qaj", cross_steps, e_prev_e)
    )
    s0e_prev = np.cumsum(a0e, axis=0) - a0e
    return across.sum(axis=0) + np.einsum("qi,qj->ij", a0p, s0e_prev)


# ---------------------------------------------------------------------------
# whole-sequence tensors

@dataclass(frozen=True)
class CIntegralSet:
    """Time-ordered integral tensors of one subspace, flattened C-order."""

    subspace: CSubspace
    order: int
    c0: np.ndarray
    c1: np.ndarray | None
    c2: np.ndarray | None
    t_seq: float

    def c1_matrix(self) -> np.ndarray:
        m = len(self.c0)
        return self.c1.reshape(m, m)

    def c2_tensor(self) -> np.ndarray:
        m = len(self.c0)
        return self.c2.reshape(m, m, m)
