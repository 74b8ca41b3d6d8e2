"""Primary-propagator integration and the C-integral engine.

The time-ordered integrals

    c_{i1..ir}(T) = int_0^T dt1 ... int_0^{t_{r-1}} dt_r c_{i1}(t1)...c_{ir}(tr)

of toggling-frame coefficients are assembled from closed forms per
piecewise-constant step and composed with the chain rule.  Per step the
coefficient flow is |H_tog(t)>> = exp(i M t)|H_pert>> with the Hermitian
adjoint matrix M_ij = <<h_i|[H_pri, h_j]>> (purely imaginary entries, so
exp(iMt) is real orthogonal), and the nested integrals over frequency
tuples reduce to divided differences of f(x) = exp(xT) on the imaginary
axis: I_r(nu_1..nu_r) = f[0, i p_1, .., i p_r] with prefix sums
p_k = nu_1 + .. + nu_k.

Spectral frame.  M is never diagonalized: the eigh H_q = V diag(lambda)
V^dag that the propagator takes anyway gives ad H (v_j v_k^dag) =
(lambda_j - lambda_k) v_j v_k^dag (the Kronecker-sum spectrum; Horn &
Johnson, Topics in Matrix Analysis, CUP 1991, 4.4).
`adjoint_matrix_batch` projects this orthonormal basis E_c of the d x d
matrices onto the stack, F_ic = <<h_i|E_c>> (Q, m, p) with frequencies
nu (Q, p): the pairs E = v_j v_k^dag, j != k, nu = lambda_j - lambda_k,
and E = sum_j H_rj v_j v_j^dag, nu = 0, for the rows of a Helmert matrix
H (H_0j = 1/sqrt(d); row 0, the identity, is dropped when its weight in
the span is at most machine eps).  So F F^dag = I_m, F diag(nu) F^dag =
M, and f(M) = F diag(f(nu)) F^dag on a span closed under ad H.  A stack
spanning su(d), as every benchmark stack does, has p = m and a unitary
F.  On a proper subspace a column projects onto an eigenvector of M with
its own frequency or onto zero; a dead column (weight sum_i |F_ic|^2 <=
eps) takes the step's largest weighted frequency before grouping, so it
adds no group, and it moves A by at most eps ||seed||.

Spectral components.  The frequencies carry d - 1 exact zeros, and with
resonant x/y drives plus ZZ coupling the eigenvalues of H also come in
+/- pairs: the 2-qubit benchmark steps have 9 distinct frequencies out of
m = 15.  The per-step tensors depend on a frequency only through its
spectral projector, so `spectral_groups` merges the sorted frequencies
whose phase gap (nu_{a+1} - nu_a) * dt is at most MERGE_KAPPA = 1e-13,
once per subspace and evaluation, and the kernels work on the u group
frequencies w (Q, u) and the components A (Q, m, u), y = F^dag seed,
A[:, :, g] = sum over a in g of F[:, :, a] y[a]:

    c0_i = Re sum_g A_ig I1(w_g),
    c1_ij = Re sum_gh A_ig A_jh I2(w_g, w_h),
    c2_ijk = Re sum_ghl A_ig A_jh A_kl I3(w_g, w_h, w_l),

so the r = 3 grid has Q u^3 entries instead of Q m^3 (729 against 3,375
per 2-qubit step).  Steps with fewer than u groups are padded with A = 0
at their largest frequency.  When no frequencies merge, A = F * y.  The
tables I1, I2 and the confluent J, K below depend on w and dt alone, so
`SpectralGroups` carries them and builds each once per subspace and
evaluation, whatever number of requests and crosses read it.
Error bound: merging moves every frequency by at most (k - 1) kappa / dt
for a group of k, so the node p_r moves by at most r times that; by
Hermite-Genocchi a divided difference of exp(x T) on the imaginary axis
changes by at most T^{r+1}/(r+1)! per unit shift of one node, so a merged
entry of I_r is off by at most (r/2) (k - 1) kappa T^r/r!: 3e-13 T^3/6
for the three frequencies {-2J, 0, 2J} of a pure ZZ step with 2 J dt just
under kappa, 2.1e-12 T^3/6 in the worst case k = m = 15.  At kappa =
1e-12 the ZZ case could reach 3e-12 T^3/6, above the 1e-12 T^r/r! to
which the tests hold the merged tensors.  The merged gaps on the 2-qubit
benchmark are rounding noise (<= 2.7e-15 in phase units over 200 controls,
37x below kappa) and the smallest kept gap is 1.0e-4.

Toggle matrices.  Over a whole step the flow is D(U_q^dag) = exp(i M_q dt)
= F_q diag(e^{i nu_q dt}) F_q^dag, so `eigen_toggles` builds it from the
same frame (nu_q, F_q) as the step integrals (a dead column moves it by
at most eps).  The independent check, which conjugates the basis by U_q,
is `toggle_matrices` in `tests/_oracles.py`.  `prefix_products` chains
ordered step products in log depth, and `ordered_product` forms only the
last of them.

Composition.  The chain rule toggles step q by the real orthogonal
E_prev[q] = D(U_1^dag) .. D(U_{q-1}^dag).  `compose_batch` takes a0_q =
E_prev[q] Re A_q I1, and where a higher order or a cross reads them it
rotates the components into the lab frame once, B_q = E_prev[q] A_q, and
contracts B with the step tables: a1_q = Re B_q I2 B_q^T per step, which
the cross-step prefix sums read, and only the sum over q of a2_q =
Re sum_ghl B_ig B_jh B_kl I3_ghl: I3 B^T, then B times that (Q, u, m, m),
then one real (m, 2Qu) x (2Qu, m^2) product of [Re B, -Im B] with its
real and imaginary parts.  At r = 3 that is Q u^3 m + Q u^2 m^2 +
2 Q u m^3 multiply-adds and no per-step c1 or c2, where the per-step c2
and its rotation built two Q m^3 tensors.  A cross adds sum_q Re B_p
I2(w_p, w_e) B_e^T to its prefix term.

General kernel.  Divided differences are evaluated with sorted nodes so
the recursion always divides by the largest spread, and switch to a
Taylor series when the whole node cluster is narrower than DEGEN_TOL
(removable singularities).  This is the path of every r <= 2 table and
of the sequential reference engine (`step_cints_raw` and
`nested_exp_integral` in `tests/_oracles.py`).  The threshold
DEGEN_TOL = 0.2 is wide on purpose.  The direct differences lose
~eps / (spread * T) to cancellation, and at r = 3 one more division by a
node gap of similar size leaves errors of order eps / (spread * T)^2 in
units of T^3 / 6.  Against 40-digit arithmetic the worst r = 3 entry is
1.7e-9 at a threshold of 1e-3, ~1e-12 at 0.05 and below 1e-13 at 0.2.
SERIES_TERMS = 10 keeps the series exact to rounding up to width 0.25.

r = 3 grid (`_int3_grid`, used by `batch_step_cints`).  The nodes of
entry (a, b, c) are {0, a, a+b, a+b+c}.  Dividing by the (0, a+b+c) pair
leaves two 3-node subsets, and both are shifted entries of the u x u
r = 2 table I2 that the subspace already holds:

    I3(a, b, c) = (e^{i a T} I2(b, c) - I2(a, b)) / (i (a+b+c))

so the Q u^3 grid costs one complex multiply, subtract and divide per
entry, with no transcendental call and no sort.  The identity divides by
|a+b+c| where the sorted recursion divides by the full node spread, so it
amplifies the rounding error of I2 by up to spread / |a+b+c|; it takes
the entries with |a+b+c| >= SHIFT_KAPPA * spread, which caps that at 4x.

Zero sums.  Adjoint spectra carry exact zeros and +/- pairs, so a+b+c = 0
on 26% of the 1-qubit benchmark's grid and 6.7% of the 2-qubit one.  A
sum with |a+b+c| T <= MERGE_KAPPA counts as zero and leaves the nodes
{0, 0, a, a+b}, read from the confluent tables J(a) = f[0, 0, a] and
K(a) = f[0, 0, 0, a] (Q, u): I3 = (I2(a, b) - J(a)) / (i (a+b)) when
|a+b| >= SHIFT_KAPPA * spread, and I3 = K(a) when |a+b| T <= MERGE_KAPPA
too.  J = (I1 - T) / (i a) and K = (J - T^2/2) / (i a), or for
|a| T < DEGEN_TOL the Taylor series of K and J = T^2/2 + i a K: the
operations of the general kernel on these nodes.  Error bound, derived
as the merge bound above: the rule moves the nodes a+b+c and, for K, a+b
by at most kappa / T each, so an entry is off by at most
2 (kappa / T) T^4/4! = (kappa / 2) T^3/6 = 5e-14 T^3/6, plus rounding.
Against 40-digit arithmetic over 4,600 drawn spectra with exact and
merge-level zero sums, the worst entry was 6.0e-14 T^3/6 from the shift
identity, 3.7e-14 from J and 4.4e-14 from K.

The general kernel `_int3_plus` takes the rest: node clusters with
spread * T < DEGEN_TOL, where the identities would inherit the
cancellation of I2 described above, and divisors |a+b+c| (or |a+b| after
a zero sum) below SHIFT_KAPPA * spread.  That is 6.6% of the 1-qubit
benchmark's grid entries, all clusters, and 10.7% of the 2-qubit ones
(31% and 16.8% without the zero rule).

Divided differences of exp: McCurdy, Ng & Parlett, Math. Comp. 43 (1984);
Higham, Functions of Matrices, SIAM (2008).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial

import numpy as np

DEGEN_TOL = 0.2           # |w*T| cluster width below which the series branch runs
SERIES_TERMS = 10         # terms of that series
SHIFT_KAPPA = 0.25        # r=3 grid: shift identity needs |a+b+c| >= this * spread
MERGE_KAPPA = 1e-13       # adjoint frequencies closer than this phase gap (* dt) merge


# ---------------------------------------------------------------------------
# divided differences of exp(x*T) at nodes x = i*w (w real)

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
    re = sum((-1) ** (k // 2) / factorial(k + drop) * h[k] for k in range(0, SERIES_TERMS, 2))
    im = sum((-1) ** (k // 2) / factorial(k + drop) * h[k] for k in range(1, SERIES_TERMS, 2))
    return t ** drop * np.exp(1j * wbar * t) * (re + 1j * im)


def _dd2_sorted(w, t):
    """f[i*w0, i*w1, i*w2] with w sorted ascending along the last axis."""
    spread = w[..., 2] - w[..., 0]
    cluster = spread * t < DEGEN_TOL
    safe = np.where(cluster, 1.0, spread)
    ga = _g_pair(w[..., 0], w[..., 1], t)
    gb = _g_pair(w[..., 1], w[..., 2], t)
    direct = (gb - ga) / (1j * safe)
    if np.any(cluster):
        direct[cluster] = _dd_taylor(w[cluster], t, 2)
    return direct


def _dd3_sorted(w, t):
    """f[i*w0,..,i*w3] with w sorted ascending along the last axis."""
    spread = w[..., 3] - w[..., 0]
    cluster = spread * t < DEGEN_TOL
    # the recursion runs only where the series does not
    out = np.empty(spread.shape, dtype=complex)
    far = ~cluster
    if far.any():
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


def _confluent(w, i1, t):
    """J(a) = f[0, 0, a] and K(a) = f[0, 0, 0, a] at the frequencies a = w
    from I1(a) = f[0, a]: divided differences where |a| T >= DEGEN_TOL,
    else K by the Taylor series of exp and J = T^2/2 + i a K."""
    small = np.abs(w) * t < DEGEN_TOL
    x = 1j * np.where(small, w, 0.0) * t
    k = t ** 3 * sum(x ** n / factorial(n + 3) for n in range(SERIES_TERMS))
    ia = 1j * np.where(small, 1.0, w)
    j = np.where(small, t * t / 2 + 1j * w * k, (i1 - t) / ia)
    return j, np.where(small, k, (j - t * t / 2) / ia)


def _int3_grid(groups):
    """I3 on the (Q, u, u, u) grid of the group frequencies from the tables
    of `groups`: the shift identity, the confluent tables where a+b+c is
    zero, and `_int3_plus` on the rest (see the module docstring)."""
    w, t, i2 = groups.w, groups.dt, groups.i2
    j, k = groups.confluent
    p1 = w[:, :, None, None]
    p2 = (w[:, :, None] + w[:, None, :])[..., None]
    p3 = p2 + w[:, None, None, :]
    lo = np.minimum(np.minimum(p1, 0.0), np.minimum(p2, p3))
    hi = np.maximum(np.maximum(p1, 0.0), np.maximum(p2, p3))
    spread = hi - lo
    # a+b+c = 0 leaves the nodes {0, 0, a, a+b}, and a+b = 0 too {0, 0, 0, a}
    zero = np.abs(p3) * t <= MERGE_KAPPA
    double = zero & (np.abs(p2) * t <= MERGE_KAPPA)
    phase = np.exp(1j * w * t)
    num = np.where(zero, j[:, :, None, None], phase[:, :, None, None] * i2[:, None]) - i2[..., None]
    den = np.where(zero, -p2, p3)
    ill = ~double & ((np.abs(den) < SHIFT_KAPPA * spread) | (spread * t < DEGEN_TOL))
    out = np.where(double, k[:, :, None, None], num / (1j * np.where(ill | double, 1.0, den)))
    q, a, b, c = np.nonzero(ill)
    out[q, a, b, c] = _int3_plus(w[q, a], w[q, b], w[q, c], t)
    return out


# ---------------------------------------------------------------------------
# primary propagation

def eig_exp(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """V diag(e^{-i w t}) V^dag for a stack of eigendata (w, V)."""
    return np.einsum("...ab,...b,...cb->...ac", v, np.exp(-1j * w * t), v.conj())


def expm_batch(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for a stack (..., d, d) of Hermitian matrices."""
    return eig_exp(*np.linalg.eigh(h), t)


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

@cache
def _frame_tables(d: int, identity: bool) -> tuple:
    """pairs and diffs of the frames of d x d matrices, read-only: the
    pairs j != k, then the Helmert rows, the first (the identity) if asked."""
    r, col = np.arange(1, d)[:, None], np.arange(d)
    diag = np.where(col < r, 1.0, np.where(col == r, -r, 0.0)) / np.sqrt(r * (r + 1))
    if identity:
        diag = np.vstack([np.full(d, d ** -0.5), diag])
    j, k = np.nonzero(1 - np.eye(d))
    vec, one = np.eye(d * d), np.eye(d)
    pairs = np.hstack([vec[:, j * d + k], vec[:, col * (d + 1)] @ diag.T]).astype(complex)
    diffs = np.hstack([one[:, j] - one[:, k], np.zeros((d, len(diag)))])
    pairs.setflags(write=False)
    diffs.setflags(write=False)
    return pairs, diffs


class AdjointFrame:
    """A subspace basis `stack` (m, d, d) and the constants of its spectral
    frame: rows (m, d^2), the conjugate basis; pairs (d^2, p), which takes
    the columns vec(v_j v_k^dag) of kron(V, conj V) to the frame matrices;
    and diffs (d, p), with nu = lambda diffs.  The identity is a frame
    matrix when the span's weight on it is above eps."""

    def __init__(self, stack: np.ndarray):
        m, d = stack.shape[0], stack.shape[-1]
        identity = np.sum(np.abs(np.trace(stack, axis1=1, axis2=2)) ** 2) / d > np.finfo(float).eps
        self.stack, self.rows = stack, stack.conj().reshape(m, d * d)
        self.pairs, self.diffs = _frame_tables(d, bool(identity))


def adjoint_matrix_batch(lam: np.ndarray, vecs: np.ndarray, frame: AdjointFrame):
    """The adjoint matrices of the subspace in factored form, M_q = F_q
    diag(nu_q) F_q^dag, from the eigendata lambda (Q, d), V (Q, d, d) of the
    step Hamiltonians: frequencies nu (Q, p) and frame F (Q, m, p), with the
    dead columns of a proper subspace (p > m) moved (see the module docstring)."""
    q, d = lam.shape
    kron = (vecs[:, :, None, :, None] * vecs.conj()[:, None, :, None, :]).reshape(q * d * d, d * d)
    cols = (kron @ frame.pairs).reshape(q, d * d, -1).transpose(1, 0, 2).reshape(d * d, -1)
    f = (frame.rows @ cols).reshape(len(frame.rows), q, -1).transpose(1, 0, 2)
    nu = lam @ frame.diffs
    if f.shape[2] > f.shape[1]:
        dead = np.sum(f.real ** 2 + f.imag ** 2, axis=1) <= np.finfo(float).eps
        nu = np.where(dead, np.where(dead, -np.inf, nu).max(axis=-1, keepdims=True), nu)
    return nu, f


def _real(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.real)


@dataclass(frozen=True)
class SpectralGroups:
    """Distinct adjoint frequencies of each step and the step tables that
    every request and cross on the subspace reads (see the module docstring).

    w (Q, u) holds one frequency per group, ascending; steps with fewer
    than u groups repeat their largest frequency, and those padded groups
    carry no weight.  onehot (Q, p, u) maps frame columns to groups, None
    when no two frequencies of any step merge (then w is nu, unsorted).  Each
    table is built on its first read: i1 = I1(w) (Q, u), i2 = I2(w, w)
    (Q, u, u) and confluent = (J(w), K(w)) (Q, u), as the r = 3 grid reads them.
    """

    w: np.ndarray
    onehot: np.ndarray | None
    dt: float

    @cached_property
    def i1(self):
        return _int1_plus(self.w, self.dt)

    @cached_property
    def i2(self):
        return _int2_plus(self.w[:, :, None], self.w[:, None, :], self.dt)

    @cached_property
    def confluent(self):
        return _confluent(self.w, self.i1, self.dt)


def spectral_groups(nu: np.ndarray, dt: float) -> SpectralGroups:
    """Merge the frequencies of nu (Q, p) that are adjacent once sorted and
    whose phase gap (nu_{a+1} - nu_a) * dt is at most MERGE_KAPPA."""
    order = np.argsort(nu, axis=-1)
    ordered = np.take_along_axis(nu, order, axis=-1)
    split = np.diff(ordered, axis=-1) * dt > MERGE_KAPPA
    if split.all():
        return SpectralGroups(nu, None, dt)
    q, p = nu.shape
    gid = np.zeros((q, p), dtype=np.intp)
    np.cumsum(split, axis=-1, out=gid[:, 1:])
    u = int(gid[:, -1].max()) + 1
    rows = np.arange(q)[:, None]
    w = np.repeat(ordered[:, -1:], u, axis=-1)
    w[rows, gid] = ordered
    onehot = np.zeros((q, p, u))
    onehot[rows, order, gid] = 1.0
    return SpectralGroups(w, onehot, dt)


def _components(v, y, groups):
    """Spectral components A (Q, m, u): column g sums F[:, :, a] y[a] over group g."""
    a = v * y[:, None, :]
    return a if groups.onehot is None else a @ groups.onehot


def batch_step_cints(nu, v, y, dt, r_max, groups=None):
    """Spectral components and step tables of all Q steps at once.

    nu (Q,p) real and v = F (Q,m,p) complex from `adjoint_matrix_batch`,
    y (Q,p) complex = F^dag seed;
    groups is `spectral_groups(nu, dt)`, formed here when not given, and
    carries the tables.  Returns A (Q,m,u) complex and the tables that the
    orders up to r_max read: I1 (Q,u) [, I2 (Q,u,u) [, I3 (Q,u,u,u)]],
    None above r_max; `compose_batch` contracts them.
    """
    if groups is None:
        groups = spectral_groups(nu, dt)
    i2 = groups.i2 if r_max >= 2 else None
    i3 = _int3_grid(groups) if r_max >= 3 else None
    return _components(v, y, groups), groups.i1, i2, i3


def batch_step_cross(groups_p, groups_e):
    """The cross table I2(w_p, w_e) (Q, up, ue) of two slots, (later,
    earlier); two slots on one subspace share its I2 table."""
    if groups_p is groups_e:
        return groups_p.i2
    return _int2_plus(groups_p.w[:, :, None], groups_e.w[:, None, :], groups_p.dt)


def eigen_toggles(nu: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """D(U_q^dag) = exp(i M_q dt) from the frame (nu, F) of the adjoint matrices."""
    return _real(eig_exp(nu, v, -dt))


def prefix_toggles(dq: np.ndarray) -> np.ndarray:
    """E_prev[q] = D(U_1^dag) ... D(U_{q-1}^dag) (identity at q = 0)."""
    out = np.empty_like(dq)
    out[0] = np.eye(dq.shape[-1])
    # A B .. Z = (Z^T .. B^T A^T)^T: the scan of the transposes, transposed
    out[1:] = np.swapaxes(prefix_products(np.swapaxes(dq[:-1], -1, -2)), -1, -2)
    return out


def _re_sum(b, t):
    """Re sum_{q,g} B[q, :, g] T[q, g, ...]: one real product of
    [Re B, -Im B] (m, 2Qu) with [Re T; Im T] (2Qu, ...)."""
    q, m, u = b.shape
    bt = np.swapaxes(b, 0, 1).reshape(m, q * u)
    tt = t.reshape(q * u, -1)
    out = np.concatenate([bt.real, -bt.imag], axis=1) @ np.concatenate([tt.real, tt.imag])
    return out.reshape(m, *t.shape[2:])


def compose_batch(e_prev, a, i1, i2=None, i3=None, lab=False):
    """Vectorized chain rule in the lab frame (see the module docstring);
    `compose_raw` in `tests/_oracles.py` is the sequential fold it replaces.

    Takes the output of `batch_step_cints` and returns (B, a0, (tot0,
    tot1, tot2)): B = E_prev A (Q,m,u), formed when I2 is given or `lab`
    asks for it (a cross reads it), else None; the toggled a0 (Q,m); and
    the composed tensors, None above the order of the tables.
    """
    # a0 the same way with or without B, so that it has the same bits
    a0 = np.einsum("qij,qj->qi", e_prev, _real(np.einsum("qag,qg->qa", a, i1)))
    tot0 = a0.sum(axis=0)
    if i2 is None and not lab:
        return None, a0, (tot0, None, None)
    # E_prev is real: one real product on the interleaved parts of A
    b = (e_prev @ np.ascontiguousarray(a).view(float)).view(complex)
    if i2 is None:
        return b, a0, (tot0, None, None)
    q, m, u = b.shape
    bt = np.swapaxes(b, -1, -2)
    a1 = _real(b @ i2 @ bt)
    s0_prev = np.cumsum(a0, axis=0) - a0
    # step q's share of tot1; its prefix is s1 + p2 of the sequential fold
    t1 = a1 + a0[:, :, None] * s0_prev[:, None, :]
    tot1 = t1.sum(axis=0)
    if i3 is None:
        return b, a0, (tot0, tot1, None)
    t2 = b[:, None] @ (i3.reshape(q, u * u, u) @ bt).reshape(q, u, u, m)
    s1_prev = (np.cumsum(t1, axis=0) - t1).reshape(q, m * m)
    prefix = a0.T @ s1_prev + (a1.reshape(q, m * m).T @ s0_prev).reshape(m, m * m)
    tot2 = _re_sum(b, t2) + prefix.reshape(m, m, m)
    return b, a0, (tot0, tot1, tot2)


def compose_cross_batch(i2x, b_p, a0_p, b_e, a0_e):
    """Vectorized cross chain rule (perturbation slot at the later time):
    sum_q Re(B_p I2x B_e^T) + sum_q a0p_q (x) s0e_q, with s0e_q the sum of
    the earlier slot's a0 before step q."""
    s0e_prev = np.cumsum(a0_e, axis=0) - a0_e
    return _re_sum(b_p, i2x @ np.swapaxes(b_e, -1, -2)) + a0_p.T @ s0e_prev
