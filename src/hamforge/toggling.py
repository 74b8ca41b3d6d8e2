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

Spectral components.  The adjoint spectrum of a step is {lambda_j -
lambda_k}, so it carries d - 1 exact zeros, and with resonant x/y drives
plus ZZ coupling the eigenvalues of H also come in +/- pairs: the
2-qubit benchmark steps have 9 distinct frequencies out of m = 15.  The
per-step tensors depend on an eigenvalue only through its spectral
projector, so `spectral_groups` merges adjacent sorted eigenvalues whose
phase gap (nu_{a+1} - nu_a) * dt is at most MERGE_KAPPA = 1e-13, once per
subspace and evaluation, and the kernels work on the u group frequencies
w (Q, u) and the components A (Q, m, u), A[:, :, g] = sum over a in g of
V[:, :, a] y[a]:

    c1_ij = Re sum_gh A_ig A_jh I2(w_g, w_h),
    c2_ijk = Re sum_ghl A_ig A_jh A_kl I3(w_g, w_h, w_l),

so the r = 3 grid has Q u^3 entries instead of Q m^3 (729 against 3,375
per 2-qubit step); c0 costs O(Q m^2) either way and keeps the
eigenvalues.  Steps with fewer than u groups are padded with A = 0
at their largest frequency.  When no eigenvalues merge, A = V * y.
Error bound: merging moves every eigenvalue by at most (k - 1) kappa / dt
for a group of k, so the node p_r moves by at most r times that; by
Hermite-Genocchi a divided difference of exp(x T) on the imaginary axis
changes by at most T^{r+1}/(r+1)! per unit shift of one node, so a merged
entry of I_r is off by at most (r/2) (k - 1) kappa T^r/r!: 3e-13 T^3/6
for the three frequencies {-2J, 0, 2J} of a pure ZZ step with 2 J dt just
under kappa, 2.1e-12 T^3/6 in the worst case k = m = 15.  At kappa =
1e-12 the ZZ case could reach 3e-12 T^3/6, above the 1e-12 T^r/r! to
which the tests hold the merged tensors.  The merged gaps on the 2-qubit
benchmark are rounding noise (<= 6e-15 in phase units, 16x below kappa)
and the smallest kept gap is 1.4e-4.

Toggle matrices.  Over a whole step the flow is D(U_q^dag) = exp(i M_q dt)
= V_q diag(e^{i nu_q dt}) V_q^dag, so `eigen_toggles` builds it from the
same eigenpairs (nu_q, V_q) as the step integrals.  The independent check,
which conjugates the basis by U_q, is `toggle_matrices` in
`tests/_oracles.py`.  `prefix_products` chains ordered step products in
log depth, and `ordered_product` forms only the last of them.

General kernel.  Divided differences are evaluated with sorted nodes so
the recursion always divides by the largest spread, and switch to a
Taylor series when the whole node cluster is narrower than DEGEN_TOL
(removable singularities).  This is the path of `nested_exp_integral`,
of every r <= 2 table, and of the sequential reference engine
(`step_cints_raw` in `tests/_oracles.py`).  The threshold
DEGEN_TOL = 0.2 is wide on purpose.  The direct differences lose
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

so the Q u^3 grid costs one complex multiply, subtract and divide per
entry, with no transcendental call and no sort.  The identity divides by
|a+b+c| where the sorted recursion divides by the full node spread, so it
amplifies the rounding error of I2 by up to spread / |a+b+c|.  Two kinds
of entry go to the general kernel instead:

* |a+b+c| < SHIFT_KAPPA * spread.  SHIFT_KAPPA = 0.25 caps the extra
  amplification at 4x.  Adjoint spectra carry exact zeros and +/- pairs,
  so 6.7% of the entries of the 2-qubit benchmark's u = 9 grids have
  a+b+c = 0 whatever the bound (9.0% of the unmerged m = 15 grids).
  With DEGEN_TOL = 0.2 the fallback takes 16.8% of the u-grid entries at 0.25
  (18.6% of the m-grid); on the m-grid at a series width of 0.05 it took
  16-18% at 0.25, against 11-14% at 0.1 and 28-29% at 0.5.
* Clusters with spread * T < DEGEN_TOL, which the kernel sums as a series.
  The identity would inherit the cancellation of I2 described above.

Divided differences of exp: McCurdy, Ng & Parlett, Math. Comp. 43 (1984);
Higham, Functions of Matrices, SIAM (2008).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .opcore import einsum

DEGEN_TOL = 0.2           # |w*T| cluster width below which the series branch runs
SERIES_TERMS = 10         # terms of that series
SHIFT_KAPPA = 0.25        # r=3 grid: shift identity needs |a+b+c| >= this * spread
MERGE_KAPPA = 1e-13       # adjoint eigenvalues closer than this phase gap (* dt) merge


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


def _dd2_sorted(w, t):
    """f[i*w0, i*w1, i*w2] with w sorted ascending along the last axis."""
    spread = w[..., 2] - w[..., 0]
    cluster = spread * t < DEGEN_TOL
    safe = np.where(cluster, 1.0, spread)
    ga = _g_pair(w[..., 0], w[..., 1], t)
    gb = _g_pair(w[..., 1], w[..., 2], t)
    direct = (gb - ga) / (1j * safe)
    if w.ndim == 1:
        return _dd_taylor(w, t, 2) if cluster else direct
    if np.any(cluster):
        direct[cluster] = _dd_taylor(w[cluster], t, 2)
    return direct


def _dd3_sorted(w, t):
    """f[i*w0,..,i*w3] with w sorted ascending along the last axis."""
    spread = w[..., 3] - w[..., 0]
    cluster = spread * t < DEGEN_TOL
    if w.ndim == 1:
        if cluster:
            return _dd_taylor(w, t, 3)
        return (_dd2_sorted(w[1:4], t) - _dd2_sorted(w[0:3], t)) / (1j * spread)
    # the recursion runs only where the series does not
    out = np.empty(spread.shape, dtype=complex)
    far = ~cluster
    wf = w[far]
    out[far] = (_dd2_sorted(wf[:, 1:4], t) - _dd2_sorted(wf[:, 0:3], t)) / (
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


def _int2_plus(nu1, nu2, t):
    """Ordered double integral of exp(i nu1 t1) exp(i nu2 t2), t1 > t2."""
    n1 = np.asarray(nu1, dtype=float)
    n2 = np.asarray(nu2, dtype=float)
    return _dd2_sorted(_nodes([n1 + 0 * n2, n1 + n2]), t)


def _int3_plus(nu1, nu2, nu3, t):
    n1 = np.asarray(nu1, dtype=float)
    n2 = np.asarray(nu2, dtype=float)
    n3 = np.asarray(nu3, dtype=float)
    p1 = n1 + 0 * n2 + 0 * n3
    p2 = n1 + n2 + 0 * n3
    p3 = n1 + n2 + n3
    return _dd3_sorted(_nodes([p1, p2, p3]), t)


def _int3_grid(nu, i2, t):
    """I3 on the (Q, n, n, n) grid of frequencies nu (Q, n) from their r=2
    table i2 (Q, n, n).

    Shift identity where it is well conditioned, `_int3_plus` on the rest
    (see the module docstring).
    """
    p1 = nu[:, :, None, None]
    p2 = (nu[:, :, None] + nu[:, None, :])[..., None]
    p3 = p2 + nu[:, None, None, :]
    lo = np.minimum(np.minimum(p1, 0.0), np.minimum(p2, p3))
    hi = np.maximum(np.maximum(p1, 0.0), np.maximum(p2, p3))
    spread = hi - lo
    ill = (np.abs(p3) < SHIFT_KAPPA * spread) | (spread * t < DEGEN_TOL)
    phase = np.exp(1j * nu * t)
    out = phase[:, :, None, None] * i2[:, None, :, :] - i2[:, :, :, None]
    out /= 1j * np.where(ill, 1.0, p3)
    q, a, b, c = np.nonzero(ill)
    out[q, a, b, c] = _int3_plus(nu[q, a], nu[q, b], nu[q, c], t)
    return out


def nested_exp_integral(lambdas: Sequence[float], t: float) -> complex:
    """I(l_1..l_r) = int_0^T dt1..int_0^{t_{r-1}} dt_r e^{-i l_1 t1}..e^{-i l_r tr}.

    Closed form for r in {1,2,3}; near-degenerate eigenvalue sums switch
    to a series branch (threshold |sum * T| < DEGEN_TOL).
    """
    lam = [float(x) for x in lambdas]
    r = len(lam)
    if r == 1:
        out = _int1_plus(-lam[0], t)
    elif r == 2:
        out = _int2_plus(-lam[0], -lam[1], t)
    elif r == 3:
        out = _int3_plus(-lam[0], -lam[1], -lam[2], t)
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


def ordered_product(u: np.ndarray) -> np.ndarray:
    """U_{Q-1} .. U_1 U_0 of each (..., Q, n, n) stack, multiplying
    neighbouring pairs in ceil(log2 Q) rounds of batched matmuls."""
    while u.shape[-3] > 1:
        n = u.shape[-3]
        pairs = u[..., 1 : n - n % 2 : 2, :, :] @ u[..., 0 : n - n % 2 : 2, :, :]
        if n % 2:
            pairs[..., -1, :, :] = u[..., -1, :, :] @ pairs[..., -1, :, :]
        u = pairs
    return u[..., 0, :, :]


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


@dataclass(frozen=True)
class SpectralGroups:
    """Distinct adjoint frequencies of each step (see the module docstring).

    w (Q, u) holds one frequency per group, ascending; steps with fewer
    than u groups repeat their largest frequency, and those padded groups
    carry no weight.  onehot (Q, m, u) maps eigenvector columns to groups,
    None when no two eigenvalues of any step merge (then w is nu).
    """

    w: np.ndarray
    onehot: np.ndarray | None


def spectral_groups(nu: np.ndarray, dt: float) -> SpectralGroups:
    """Merge the adjacent sorted eigenvalues of nu (Q, m) whose phase gap
    (nu_{a+1} - nu_a) * dt is at most MERGE_KAPPA."""
    split = np.diff(nu, axis=-1) * dt > MERGE_KAPPA
    if split.all():
        return SpectralGroups(nu, None)
    q, m = nu.shape
    gid = np.zeros((q, m), dtype=np.intp)
    np.cumsum(split, axis=-1, out=gid[:, 1:])
    u = int(gid[:, -1].max()) + 1
    rows = np.arange(q)[:, None]
    w = np.repeat(nu[:, -1:], u, axis=-1)
    w[rows, gid] = nu
    onehot = np.zeros((q, m, u))
    onehot[rows, np.arange(m), gid] = 1.0
    return SpectralGroups(w, onehot)


def _components(v, y, groups):
    """Spectral components A (Q, m, u): column g sums V[:, :, a] y[a] over group g."""
    a = v * y[:, None, :]
    return a if groups.onehot is None else a @ groups.onehot


def batch_step_cints(nu, v, y, dt, r_max, groups=None):
    """Per-step tensors for all Q steps at once.

    nu (Q,m) real, v (Q,m,m) complex, y (Q,m) complex = V^dag seed;
    groups is `spectral_groups(nu, dt)`, formed here when not given.
    Returns c0 (Q,m) [, c1 (Q,m,m) [, c2 (Q,m,m,m)]] real.  c0 costs
    O(Q m^2) with or without the grouping, so it takes the eigenvalues.
    """
    c0 = _real(np.einsum("qab,qb->qa", v, _int1_plus(nu, dt) * y))
    c1 = c2 = None
    if r_max >= 2:
        if groups is None:
            groups = spectral_groups(nu, dt)
        w, a = groups.w, _components(v, y, groups)
        i2 = _int2_plus(w[:, :, None], w[:, None, :], dt)
        c1 = _real(a @ i2 @ np.swapaxes(a, -1, -2))
    if r_max >= 3:
        i3 = _int3_grid(w, i2, dt)
        c2 = _real(einsum("qig,qjh,qkl,qghl->qijk", a, a, a, i3))
    return c0, c1, c2


def batch_step_cross(v_p, y_p, groups_p, v_e, y_e, groups_e, dt):
    """Per-step cross tensors (Q, mp, me); slot order (later, earlier).
    Each slot takes the eigenvectors, rotated seed and `spectral_groups`
    of its subspace."""
    i2 = _int2_plus(groups_p.w[:, :, None], groups_e.w[:, None, :], dt)
    a_p, a_e = _components(v_p, y_p, groups_p), _components(v_e, y_e, groups_e)
    return _real(a_p @ i2 @ np.swapaxes(a_e, -1, -2))


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
    a2 = einsum("qia,qjb,qkc,qabc->qijk", e_prev, e_prev, e_prev, c2)
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

