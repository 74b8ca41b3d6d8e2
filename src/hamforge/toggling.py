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
same eigenpairs (nu_q, V_q) as the step integrals; `toggle_matrices`,
which conjugates the basis by U_q, stays as the independent check.
`prefix_products` chains ordered step products in log depth.

General kernel.  Divided differences are evaluated with sorted nodes so
the recursion always divides by the largest spread, and switch to a
Taylor series when the whole node cluster is narrower than `tol`
(removable singularities).  This is the path of `nested_exp_integral`,
the sequential `step_cints_raw` and every r <= 2 table.  The threshold
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
from .opcore import Operator, vectorize

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

@dataclass(frozen=True)
class StepHamiltonians:
    """Discretized per-step Hamiltonians on a common grid of Q steps."""

    h_pri: np.ndarray                      # (Q, d, d) Hermitian
    h_pert: np.ndarray                     # (Q, d, d) Hermitian
    error_terms: dict                      # name -> (Q, d, d) Hermitian
    delta_t: float

    @property
    def q_steps(self) -> int:
        return self.h_pri.shape[0]

    @property
    def t_seq(self) -> float:
        return self.q_steps * self.delta_t

    @staticmethod
    def from_operators(h_pri, h_pert, delta_t, error_terms=None):
        pri = np.stack([np.asarray(h.entries) for h in h_pri])
        pert = np.stack([np.asarray(h.entries) for h in h_pert])
        err = {
            k: np.stack([np.asarray(h.entries) for h in v])
            for k, v in (error_terms or {}).items()
        }
        return StepHamiltonians(pri, pert, err, float(delta_t))


@dataclass(frozen=True)
class PrimaryPropagation:
    """Step unitaries U_q = exp(-i H_pri^q dt) and propagator prefixes.

    prefixes[q] is the time-ordered product propagating from 0 through
    step q (latest step applied on the left), so prefixes[-1] is
    U_pri(T_seq).
    """

    step_unitaries: np.ndarray   # (Q, d, d)
    prefixes: np.ndarray         # (Q, d, d)

    @property
    def final(self) -> np.ndarray:
        return self.prefixes[-1]


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


def propagate_primary(steps: StepHamiltonians) -> PrimaryPropagation:
    u = expm_batch(steps.h_pri, steps.delta_t)
    return PrimaryPropagation(u, prefix_products(u))


# ---------------------------------------------------------------------------
# per-step integrals

def adjoint_matrix(h_pri: np.ndarray, stack: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """Hermitian M with M_ij = <<h_i|[H_pri, h_j]>>; checks span closure."""
    comm = h_pri @ stack - stack @ h_pri
    m = np.einsum("aij,bij->ab", stack.conj(), comm)
    recon = np.einsum("ab,aij->bij", m, stack)
    resid = np.linalg.norm(comm - recon)
    scale = max(np.linalg.norm(comm), 1e-300)
    if resid > tol * scale and resid > tol * max(np.linalg.norm(h_pri), 1e-300):
        raise ValueError(
            f"ad-action of H_pri leaves the subspace (residual {resid:.3e})"
        )
    return m


def adjoint_matrix_batch(h_pri: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Batched (Q, m, m) adjoint matrices, no residual check (hot path).

    M_ba = <<h_b|[H, h_a]>> is linear in H: one (Q, d^2) x (d^2, m^2)
    product with T[k, l, b, a] = (h_b^* h_a^T - h_a^T h_b^*)[k, l].
    """
    m, d = stack.shape[0], stack.shape[-1]
    sc = stack.conj()
    t = np.einsum("bkj,alj->klba", sc, stack) - np.einsum("aik,bil->klba", stack, sc)
    return (h_pri.reshape(-1, d * d) @ t.reshape(d * d, m * m)).reshape(-1, m, m)


@dataclass(frozen=True)
class StepEigen:
    """Eigen data of the adjoint matrix plus the rotated seed vector."""

    nu: np.ndarray    # (m,) real
    v: np.ndarray     # (m, m) complex unitary
    y: np.ndarray     # (m,) complex, V^dag |H_pert>>


def _step_eigen(m_adj: np.ndarray, c_seed: np.ndarray) -> StepEigen:
    nu, v = np.linalg.eigh(m_adj)
    return StepEigen(nu, v, v.conj().T @ c_seed)


def _real(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.real)


def step_cints_raw(eig: StepEigen, dt: float, r_max: int, tol=DEFAULT_DEGEN_TOL):
    """(c0, c1, c2) tensors of one constant step, real arrays."""
    nu, v, y = eig.nu, eig.v, eig.y
    e1 = _int1_plus(nu, dt)
    c0 = _real(v @ (e1 * y))
    c1 = c2 = None
    if r_max >= 2:
        i2 = _int2_plus(nu[:, None], nu[None, :], dt, tol)
        t2 = i2 * y[:, None] * y[None, :]
        c1 = _real(v @ t2 @ v.T)
    if r_max >= 3:
        i3 = _int3_plus(nu[:, None, None], nu[None, :, None], nu[None, None, :], dt, tol)
        t3 = i3 * y[:, None, None] * y[None, :, None] * y[None, None, :]
        c2 = _real(np.einsum("ia,jb,kc,abc->ijk", v, v, v, t3, optimize=True))
    return c0, c1, c2


def step_cross_raw(eig_pert: StepEigen, eig_err: StepEigen, dt: float, tol=DEFAULT_DEGEN_TOL):
    """Single-step cross tensor: perturbation at the later time slot."""
    i2 = _int2_plus(eig_pert.nu[:, None], eig_err.nu[None, :], dt, tol)
    t2 = i2 * eig_pert.y[:, None] * eig_err.y[None, :]
    return _real(eig_pert.v @ t2 @ eig_err.v.T)


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
    """Vectorized chain rule; equivalent to compose_raw's sequential fold."""
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
# whole-sequence composition (chain rule with prefix accumulators)

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


def toggle_matrices(prop: PrimaryPropagation, stack: np.ndarray) -> np.ndarray:
    """D(U_q^dag) for every step, real orthogonal in a Hermitian basis."""
    u = prop.step_unitaries
    conj = np.einsum("qji,ajk,qkl->qail", u.conj(), stack, u)  # U^dag h_a U
    d = np.einsum("bij,qaij->qba", stack.conj(), conj)
    return _real(d)


def compose_raw(step_tensors, dq, r_max):
    """Chain-rule composition given per-step tensors and D(U_q^dag).

    step_tensors: list over q of (c0, c1, c2) in one subspace.
    dq: (Q, m, m) real toggle matrices of the same subspace.
    """
    m = dq.shape[-1]
    eye = np.eye(m)
    e = eye  # E_{q-1} = D(U_1^dag) ... D(U_{q-1}^dag)
    tot0 = np.zeros(m)
    tot1 = np.zeros((m, m)) if r_max >= 2 else None
    tot2 = np.zeros((m, m, m)) if r_max >= 3 else None
    s0 = np.zeros(m)                      # sum of toggled c0 prefixes
    s1 = np.zeros((m, m)) if r_max >= 3 else None
    p2 = np.zeros((m, m)) if r_max >= 3 else None  # sum_{q2>q3} c0xc0 prefix
    for q, (c0, c1, c2) in enumerate(step_tensors):
        a0 = e @ c0
        tot0 += a0
        if r_max >= 2:
            a1 = e @ c1 @ e.T
            tot1 += a1 + np.outer(a0, s0)
        if r_max >= 3:
            a2 = np.einsum("ia,jb,kc,abc->ijk", e, e, e, c2, optimize=True)
            tot2 += (
                a2
                + np.einsum("i,jk->ijk", a0, s1)
                + np.einsum("ij,k->ijk", a1, s0)
                + np.einsum("i,jk->ijk", a0, p2)
            )
            p2 += np.outer(a0, s0)
            s1 += a1
        s0 += a0
        e = e @ dq[q]
    return tot0, tot1, tot2


def compose_cross_raw(step_cross, step0_pert, step0_err, dq_pert, dq_err):
    """Cross chain rule: sum_q cross_tog(q) + sum_{q1>q2} c0p(q1) x c0e(q2)."""
    mp = dq_pert.shape[-1]
    me = dq_err.shape[-1]
    ep = np.eye(mp)
    ee = np.eye(me)
    tot = np.zeros((mp, me))
    s0e = np.zeros(me)
    for q in range(len(step_cross)):
        a0p = ep @ step0_pert[q]
        a0e = ee @ step0_err[q]
        across = ep @ step_cross[q] @ ee.T
        tot += across + np.outer(a0p, s0e)
        s0e += a0e
        ep = ep @ dq_pert[q]
        ee = ee @ dq_err[q]
    return tot


# ---------------------------------------------------------------------------
# module-level operations on spec types

def step_c_integrals(
    h_pri: Operator,
    h_pert: Operator,
    c_space: CSubspace,
    delta_t: float,
    r_max: int = 3,
    tol: float = DEFAULT_DEGEN_TOL,
) -> CIntegralSet:
    """C-integrals of a single constant step via the adjoint eigenbasis."""
    if r_max not in (1, 2, 3):
        raise ValueError("r_max must be 1, 2 or 3")
    stack = c_space.basis.stack()
    c_seed = np.asarray(vectorize(h_pert, c_space.basis), dtype=complex)
    m_adj = adjoint_matrix(np.asarray(h_pri.entries), stack)
    eig = _step_eigen(m_adj, c_seed)
    c0, c1, c2 = step_cints_raw(eig, delta_t, r_max, tol)
    return CIntegralSet(
        c_space,
        r_max,
        c0,
        c1.ravel() if c1 is not None else None,
        c2.ravel() if c2 is not None else None,
        delta_t,
    )


def compose_c_integrals(
    per_step: Sequence[CIntegralSet],
    prop: PrimaryPropagation,
    c_space: CSubspace,
) -> CIntegralSet:
    """Compose per-step C-integrals into whole-sequence tensors."""
    if len(per_step) != prop.step_unitaries.shape[0]:
        raise ValueError("step count mismatch between integrals and propagation")
    orders = {s.order for s in per_step}
    if len(orders) != 1:
        raise ValueError("per-step integral sets have mixed orders")
    r_max = orders.pop()
    m = len(per_step[0].c0)
    dq = toggle_matrices(prop, c_space.basis.stack())
    tensors = [
        (
            s.c0,
            s.c1.reshape(m, m) if s.c1 is not None else None,
            s.c2.reshape(m, m, m) if s.c2 is not None else None,
        )
        for s in per_step
    ]
    t0, t1, t2 = compose_raw(tensors, dq, r_max)
    t_seq = sum(s.t_seq for s in per_step)
    return CIntegralSet(
        c_space,
        r_max,
        t0,
        t1.ravel() if t1 is not None else None,
        t2.ravel() if t2 is not None else None,
        t_seq,
    )


def cross_c_integral(
    steps: StepHamiltonians,
    error_name: str,
    c_pert: CSubspace,
    c_err: CSubspace,
    prop: PrimaryPropagation,
    tol: float = DEFAULT_DEGEN_TOL,
) -> np.ndarray:
    """Whole-sequence cross integral: H_pert at the later time, the named
    error term at the earlier time.  Returns an (|C_pert|, |C_err|) array
    (flatten for the vector form)."""
    if error_name not in steps.error_terms:
        raise KeyError(error_name)
    stack_p = c_pert.basis.stack()
    stack_e = c_err.basis.stack()
    err = steps.error_terms[error_name]
    qn = steps.q_steps
    if prop.step_unitaries.shape[0] != qn:
        raise ValueError("step count mismatch")
    mp_adj = adjoint_matrix_batch(steps.h_pri, stack_p)
    me_adj = adjoint_matrix_batch(steps.h_pri, stack_e)
    cross_steps, c0p_steps, c0e_steps = [], [], []
    for q in range(qn):
        cp = np.einsum("aij,ij->a", stack_p.conj(), steps.h_pert[q])
        ce = np.einsum("aij,ij->a", stack_e.conj(), err[q])
        ep = _step_eigen(mp_adj[q], cp)
        ee = _step_eigen(me_adj[q], ce)
        cross_steps.append(step_cross_raw(ep, ee, steps.delta_t, tol))
        c0p_steps.append(_real(ep.v @ (_int1_plus(ep.nu, steps.delta_t) * ep.y)))
        c0e_steps.append(_real(ee.v @ (_int1_plus(ee.nu, steps.delta_t) * ee.y)))
    dqp = toggle_matrices(prop, stack_p)
    dqe = toggle_matrices(prop, stack_e)
    return compose_cross_raw(cross_steps, c0p_steps, c0e_steps, dqp, dqe)


def commutator_table(stack: np.ndarray) -> np.ndarray:
    """All pairwise commutators [h_i, h_j], shape (m, m, d, d)."""
    return np.einsum("iab,jbc->ijac", stack, stack) - np.einsum(
        "jab,ibc->ijac", stack, stack
    )


def magnus_terms(cints: CIntegralSet, c_space: CSubspace):
    """Zeroth, first and second average-Hamiltonian terms from C-integrals.

    H0 = (1/T) sum_i c0_i h_i
    H1 = -i/(2T) sum_ij c1_ij [h_i, h_j]
    H2 = -1/(6T) sum_ijk c2_ijk ([h_i,[h_j,h_k]] + [h_k,[h_j,h_i]])
    """
    stack = c_space.basis.stack()
    t = cints.t_seq
    n = c_space.n_qubits
    h0 = Operator(np.tensordot(cints.c0, stack, axes=(0, 0)) / t, n)
    h1 = h2 = None
    comm = commutator_table(stack) if cints.order >= 2 else None
    if cints.order >= 2:
        h1m = np.einsum("ij,ijab->ab", cints.c1_matrix(), comm)
        h1 = Operator(-0.5j * h1m / t, n)
    if cints.order >= 3:
        # F3(h_i, h_j, h_k) = [h_i, [h_j, h_k]] + [h_k, [h_j, h_i]]
        c2 = cints.c2_tensor()
        inner = np.einsum("ijk,jkab->iab", c2, comm)      # sum_jk c2_ijk [h_j,h_k]
        f3a = np.einsum("iab,ibc->ac", stack, inner) - np.einsum(
            "iab,ibc->ac", inner, stack
        )
        inner_rev = np.einsum("ijk,jiab->kab", c2, comm)  # sum_ij c2_ijk [h_j,h_i]
        f3b = np.einsum("kab,kbc->ac", stack, inner_rev) - np.einsum(
            "kab,kbc->ac", inner_rev, stack
        )
        h2 = Operator(-(f3a + f3b) / (6.0 * t), n)
    return h0, h1, h2
