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
Johnson, Topics in Matrix Analysis, CUP 1991, 4.4).  The frame is the
generalized Gell-Mann basis on those eigenvectors (Bertlmann & Krammer,
J. Phys. A 41, 235303 (2008)): the Helmert combinations sum_j H_rj v_j
v_j^dag at frequency 0 (H_0j = 1/sqrt(d); row 0, the identity, is dropped
when its weight in the span is at most machine eps), and per pair j < k
the symmetric and antisymmetric (E_jk +/- E_kj)/sqrt2, E_jk = v_j
v_k^dag, which ad H rotates into each other at omega = lambda_j -
lambda_k <= 0 (eigh sorts lambda).  `adjoint_matrix_batch` projects the
Helmert matrices and the E_jk, j < k, onto the stack, F_ic = <<h_i|E_c>>,
by one product of kron(V, conj V) = `opcore.conjugation`(V) with the
constant `AdjointFrame.pairs` (which carries the sqrt2 of the pairs);
F_kj = conj F_jk on a Hermitian basis, so
the frame is real, F = [F_H, X, Y] (Q, m, p) with X = sqrt2 Re F_jk and
Y = sqrt2 Im F_jk, at the frequencies nu (Q, k): zeros, then one omega
per pair.  On a span closed under ad H, F F^T = I_m, M X = i omega Y and
M Y = -i omega X.  A stack spanning su(d), as every benchmark stack
does, has p = m and an orthogonal F.  On a proper subspace a pair
projects onto eigenvectors of M at -/+ omega or onto zero; a dead pair
(weight sum_i |F_ic|^2 <= eps, the same for both members) takes omega =
0 before grouping, so it adds no group, and it moves R by at most eps
||seed||.

Spectral components.  The frequencies carry d - 1 exact zeros, and with
resonant x/y drives plus ZZ coupling the eigenvalues of H also come in
+/- pairs: the 2-qubit benchmark steps have 9 distinct adjoint
frequencies out of m = 15, 5 of them <= 0.  The per-step tensors depend
on a frequency only through its spectral projector, so `spectral_groups`
merges the sorted nu whose phase gap (nu_{a+1} - nu_a) * dt is at most
MERGE_KAPPA = 1e-13, once per subspace and evaluation, and mirrors them:
u = 2n - 1 group frequencies w (Q, u), w_{u-1-g} = -w_g, the half g < n
ascending to the zero group.  With y = F^T seed the coefficient flow of a
step is real, c(t) = sum_{g<n} R^c_g cos(w_g t) + R^s_g sin(w_g t) (the
zero group has no sine), and `_components` sums the real components R
(Q, m, u) = [R^c, R^s] over each group: R^c = F_H y_H + X y_X + Y y_Y and
R^s = X y_Y - Y y_X per pair.  So

    c0_i = sum_a R_ia T1_a,  c1_ij = sum_ab R_ia R_jb T2_ab,
    c2_ijk = sum_abc R_ia R_jb R_kc T3_abc

with the real tables T_r (Q, u, .., u) of the basis [cos, sin], and the
r = 3 table has Q u^3 entries instead of Q m^3 (729 against 3,375 per
2-qubit step).  Steps with fewer than n groups on the half are padded in
front with zeros of no weight, and so in +/- pairs.  Since I_r(-a, -b,
..) = conj I_r(a, b, ..), the complex tables I1 and the confluent J, K
(Q, n), I2 (Q, n, u) and the r = 3 grid (Q, n, u, u) are built on the
half alone, and `_real_table` forms T_r from them: (x_h + x_-h)/2 and
(x_h - x_-h)/2i on each later axis, the real and imaginary parts on the
first.  They depend on w and dt alone, so `SpectralGroups` carries them
and builds each once per subspace and evaluation, whatever number of
requests and crosses read it.
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
= F Rot F^T, Rot turning each pair by omega dt: X -> c X - s Y and Y ->
s X + c Y.  `eigen_toggles` builds it from the same frame as the step
integrals (a dead pair moves it by at most eps) as F [F_H, c X + s Y,
c Y - s X]^T, one real product of Q m^2 p multiply-adds where the
complex F diag(e^{i nu dt}) F^dag took four times as many.  The
independent check, which conjugates the basis by U_q, is
`toggle_matrices` in `tests/_oracles.py`.  `prefix_products` chains
ordered step products in log depth, and `ordered_product` forms only the
last of them.

Composition.  The chain rule toggles step q by the real orthogonal
E_prev[q] = D(U_1^dag) .. D(U_{q-1}^dag).  `compose_batch` takes a0_q =
E_prev[q] R_q T1, and where a higher order or a cross reads them it
rotates the components into the lab frame once, B_q = E_prev[q] R_q, and
contracts B with the step tables: a1_q = B_q T2 B_q^T per step, which the
cross-step prefix sums read, and only the sum over q of a2_q =
sum_abc B_ia B_jb B_kc T3_abc: T3 B^T, then B times that (Q, u, m, m),
then one (m, Qu) x (Qu, m^2) product.  All of it is real: at r = 3, Q
u^3 m + Q u^2 m^2 + Q u m^3 multiply-adds (2.4 million on the 2-qubit
benchmark), where complex components and tables took four times the
first two terms and twice the last (7.1 million).  A cross adds sum_q
B_p T2(w_p, w_e) B_e^T to its prefix term.

General kernel.  Divided differences are evaluated with sorted nodes so
the recursion always divides by the largest spread, and switch to a
Taylor series when the whole node cluster is narrower than DEGEN_TOL
(removable singularities).  Min/max sorting networks on 3 and 4 nodes
order the nodes entry by entry, and at r = 3 both 3-node differences
share their middle pair term f[x1, x2].  This is the path of every
r <= 2 table and of the sequential reference engine (`step_cints_raw` and
`nested_exp_integral` in `tests/_oracles.py`).  The threshold
DEGEN_TOL = 0.2 is wide on purpose.  The direct differences lose
~eps / (spread * T) to cancellation, and at r = 3 one more division by a
node gap of similar size leaves errors of order eps / (spread * T)^2 in
units of T^3 / 6.  Against 40-digit arithmetic the worst r = 3 entry is
1.7e-9 at a threshold of 1e-3, ~1e-12 at 0.05 and below 1e-13 at 0.2.
SERIES_TERMS = 10 keeps the series exact to rounding up to width 0.25.

r = 3 grid (`_int3_grid`, used by `batch_step_cints`).  The nodes of
entry (a, b, c) are {0, a, a+b, a+b+c}.  Dividing by the (0, a+b+c) pair
leaves two 3-node subsets, and both are shifted entries of the r = 2
table I2 that the subspace already holds, its rows past the middle the
conjugates of the half:

    I3(a, b, c) = (e^{i a T} I2(b, c) - I2(a, b)) / (i (a+b+c))

so the Q n u^2 half grid costs one complex multiply, subtract and divide
per entry, with no transcendental call and no sort.  The identity divides by
|a+b+c| where the sorted recursion divides by the full node spread, so it
amplifies the rounding error of I2 by up to spread / |a+b+c|; it takes
the entries with |a+b+c| >= SHIFT_KAPPA * spread, which caps that at 4x.

Zero sums.  Adjoint spectra carry exact zeros and +/- pairs, so a+b+c = 0
on 28% of the 1-qubit benchmark's half grid and 7.2% of the 2-qubit one.  A
sum with |a+b+c| T <= MERGE_KAPPA counts as zero and leaves the nodes
{0, 0, a, a+b}, read from the confluent tables J(a) = f[0, 0, a] and
K(a) = f[0, 0, 0, a] (Q, n): I3 = (I2(a, b) - J(a)) / (i (a+b)) when
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
a zero sum) below SHIFT_KAPPA * spread.  That is 5.3% of the 1-qubit
benchmark's half-grid entries, all clusters, and 9.9% of the 2-qubit ones
(1.2% clusters), over 200 random controls.

Divided differences of exp: McCurdy, Ng & Parlett, Math. Comp. 43 (1984);
Higham, Functions of Matrices, SIAM (2008).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial

import numpy as np

from .opcore import conjugation

DEGEN_TOL = 0.2           # |w*T| cluster width below which the series branch runs
SERIES_TERMS = 10         # terms of that series
SHIFT_KAPPA = 0.25        # r=3 grid: shift identity needs |a+b+c| >= this * spread
MERGE_KAPPA = 1e-13       # adjoint frequencies closer than this phase gap (* dt) merge
_K_SERIES = np.array([1 / factorial(n + 3) for n in range(1, SERIES_TERMS)])   # K's x^n, n >= 1


# ---------------------------------------------------------------------------
# divided differences of exp(x*T) at nodes x = i*w (w real)

def _sinc(x):
    return np.sinc(np.asarray(x) / np.pi)


def _g_pair(wa, wb, t):
    """f[i*wa, i*wb] for f(x) = exp(x t); stable for any separation."""
    return t * np.exp(0.5j * (wa + wb) * t) * _sinc(0.5 * (wb - wa) * t)


@cache
def _series(drop: int) -> np.ndarray:
    """Coefficients (b, c, 2, a) of the monomials e2^a e3^b e4^c of the
    elementary symmetric polynomials of mean-free nodes in the real and
    imaginary parts of sum_{k < SERIES_TERMS} i^k h_k / (k + drop)!.  With
    e1 = 0, h_k = -e2 h_{k-2} + e3 h_{k-3} - e4 h_{k-4}, and e_j = 0 past
    the drop + 1 nodes."""
    n = SERIES_TERMS
    h = np.zeros((n, n // 2, n // 3 + 1, n // 4 + 1 if drop > 2 else 1))
    h[0, 0, 0, 0] = 1.0
    for k in range(1, n):
        for j, sign in ((2, -1.0), (3, 1.0), (4, -1.0))[:drop]:
            if k >= j:
                h[k] += sign * np.roll(h[k - j], 1, axis=j - 2)
    coefs = np.zeros((2, *h.shape[1:]))
    for k in range(n):
        coefs[k % 2] += (-1) ** (k // 2) / factorial(k + drop) * h[k]
    return np.ascontiguousarray(coefs.transpose(2, 3, 0, 1))


def _dd_taylor(nodes, t, drop):
    """Series for f[i*w_0,..,i*w_r] at the r + 1 node arrays w_k of a
    narrow cluster.

    drop = r = number of divided-difference levels; leading term T^r/r!.
    About the mean node, f[..] = e^{i wbar T} T^r sum_k i^k h_k(y T)/(k+r)!
    with y = w - wbar.  The complete homogeneous polynomials h_k are
    polynomials in e2, e3, e4 of y T, which Newton's identities give from
    the power sums, so both sums contract `_series` with their powers:
    a few array operations, whatever the number of entries.
    """
    w = np.stack(nodes)
    wbar = w.mean(axis=0)
    y = (w - wbar) * t
    y2 = y * y
    p2 = y2.sum(axis=0)
    coefs = _series(drop)
    nb, nc, _, na = coefs.shape
    powers = np.empty((3, na, *wbar.shape))
    powers[:, 0] = 1.0
    powers[0, 1] = -0.5 * p2
    powers[1, 1] = (y2 * y).sum(axis=0) / 3.0
    powers[2, 1] = (0.5 * p2 * p2 - (y2 * y2).sum(axis=0)) / 4.0
    for k in range(2, na):
        np.multiply(powers[:, k - 1], powers[:, 1], out=powers[:, k])
    # sum over a by one product, then over b and c with e3^b e4^c
    s = (coefs.reshape(-1, na) @ powers[0]).reshape(nb * nc, 2, -1)
    mono = powers[1, :nb, None] * powers[2, None, :nc]
    s = (s * mono.reshape(nb * nc, 1, -1)).sum(axis=0)
    return t ** drop * np.exp(1j * wbar * t) * (s[0] + 1j * s[1])


_NETWORKS = {3: ((0, 1), (1, 2), (0, 1)), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def _sorted_nodes(*nodes):
    """The node arrays in ascending order, entry by entry (sorting networks, TAOCP 5.3.4)."""
    x = list(nodes)
    for i, j in _NETWORKS[len(x)]:
        x[i], x[j] = np.minimum(x[i], x[j]), np.maximum(x[i], x[j])
    return x


def _dd2(w0, w1, w2, g01, g12, t):
    """f[i*w0, i*w1, i*w2] of sorted nodes from g01 = f[i*w0, i*w1] and g12 = f[i*w1, i*w2]."""
    spread = w2 - w0
    cluster = spread * t < DEGEN_TOL
    out = (g12 - g01) / (1j * np.where(cluster, 1.0, spread))
    if np.any(cluster):
        out[cluster] = _dd_taylor([w0[cluster], w1[cluster], w2[cluster]], t, 2)
    return out


def _int1_plus(nu, t):
    """int_0^t exp(i nu s) ds, vectorized."""
    return _g_pair(0.0, nu, t)


def _int2_plus(nu1, nu2, t):
    """Ordered double integral of exp(i nu1 t1) exp(i nu2 t2), t1 > t2."""
    w0, w1, w2 = _sorted_nodes(0.0, nu1 + 0 * nu2, nu1 + nu2)
    return _dd2(w0, w1, w2, _g_pair(w0, w1, t), _g_pair(w1, w2, t), t)


def _int3_plus(nu1, nu2, nu3, t):
    """Ordered triple integral: f[0, i p1, i p2, i p3] at the prefix sums p of
    (nu1, nu2, nu3), by the sorted recursion or, for a narrow cluster, the series."""
    w = _sorted_nodes(0.0, nu1 + 0 * nu2 + 0 * nu3, nu1 + nu2 + 0 * nu3, nu1 + nu2 + nu3)
    spread = w[3] - w[0]
    cluster = spread * t < DEGEN_TOL
    # the recursion runs only where the series does not
    out = np.empty(spread.shape, dtype=complex)
    far = ~cluster
    if far.any():
        w0, w1, w2, w3 = (x[far] for x in w)
        g12 = _g_pair(w1, w2, t)
        upper = _dd2(w1, w2, w3, g12, _g_pair(w2, w3, t), t)
        out[far] = (upper - _dd2(w0, w1, w2, _g_pair(w0, w1, t), g12, t)) / (1j * spread[far])
    if cluster.any():
        out[cluster] = _dd_taylor([x[cluster] for x in w], t, 3)
    return out


def _confluent(w, i1, t):
    """J(a) = f[0, 0, a] and K(a) = f[0, 0, 0, a] at the frequencies a = w
    from I1(a) = f[0, a]: divided differences where |a| T >= DEGEN_TOL,
    else K by the Taylor series of exp, sum_n (i a T)^n / (n + 3)!, and
    J = T^2/2 + i a K."""
    small = np.abs(w) * t < DEGEN_TOL
    x = 1j * np.where(small, w, 0.0) * t
    powers = np.cumprod(np.broadcast_to(x[..., None], (*x.shape, SERIES_TERMS - 1)), axis=-1)
    k = t ** 3 * (1 / 6 + powers @ _K_SERIES)
    ia = 1j * np.where(small, 1.0, w)
    j = np.where(small, t * t / 2 + 1j * w * k, (i1 - t) / ia)
    return j, np.where(small, k, (j - t * t / 2) / ia)


def _int3_grid(groups):
    """I3 on the (Q, n, u, u) half grid, the first frequency on the half
    w_0..w_mid, from the tables of `groups`: the shift identity, the
    confluent tables where a+b+c is zero, and `_int3_plus` on the rest (see
    the module docstring)."""
    w, half, t, i2h = groups.w, groups.half, groups.dt, groups.i2
    # I2(-a, -b) = conj I2(a, b) gives the rows past the middle
    i2 = np.concatenate([i2h, i2h[:, :-1][:, ::-1, ::-1].conj()], axis=1)
    j, k = groups.confluent
    p1 = half[:, :, None, None]
    p2 = (half[:, :, None] + w[:, None, :])[..., None]
    p3 = p2 + w[:, None, None, :]
    # the nodes 0, a and a+b are the same for every c
    lo, hi = np.minimum(np.minimum(p1, 0.0), p2), np.maximum(np.maximum(p1, 0.0), p2)
    spread = np.maximum(hi, p3) - np.minimum(lo, p3)
    # a+b+c = 0 leaves the nodes {0, 0, a, a+b}, and a+b = 0 too {0, 0, 0, a}
    zero = np.abs(p3) * t <= MERGE_KAPPA
    double = zero & (np.abs(p2) * t <= MERGE_KAPPA)
    # the numerators times -i, for a real divisor
    phase = -1j * np.exp(1j * p1 * t)
    num = np.where(zero, -1j * j[:, :, None, None], phase * i2[:, None]) + 1j * i2h[..., None]
    den = np.where(zero, -p2, p3)
    ill = ~double & ((np.abs(den) < SHIFT_KAPPA * spread) | (spread * t < DEGEN_TOL))
    out = np.where(double, k[:, :, None, None], num / np.where(ill | double, 1.0, den))
    if ill.any():
        q, a, b, c = np.nonzero(ill)
        out[q, a, b, c] = _int3_plus(w[q, a], w[q, b], w[q, c], t)
    return out


# ---------------------------------------------------------------------------
# primary propagation

def eig_exp(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """V diag(e^{-i w t}) V^dag for a stack of eigendata (w, V)."""
    return np.einsum("...ab,...b,...cb->...ac", v, np.exp(-1j * w * t), v.conj())


_TAYLOR = np.array([1.0 / factorial(k) for k in range(19)])   # degree 18
_THETA = 1.3   # ||X||_1 bound after scaling: theta^19/19! = 1.2e-15


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ik...,kj...->ij...", a, b)


def expm_batch(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for a stack (..., d, d) of Hermitian matrices.

    Taylor polynomial of degree 18 in X = -i h t with scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)): one
    s = ceil(log2(max ||X||_1 / theta)), theta = 1.3, for the whole stack
    (s = 0 at or below theta), then p(X / 2^s) squared s times.  With h
    Hermitian ||X||_2 <= ||X||_1, and every e^{tau X} is unitary, so the
    remainder is at most theta^19/19! = 1.2e-15 before squaring.  p runs
    by Paterson & Stockmeyer (SIAM J. Comput. 2, 60 (1973)): X^2, X^3,
    X^4, then Horner in X^4 over blocks of degree 3, 7 products.  The
    matrix axes lead, (d, d, N), so each product is d^3 multiply-adds over
    contiguous length-N arrays, not N small matmuls.
    """
    h = np.asarray(h)
    *lead, d, _ = h.shape
    x = np.array(np.moveaxis(h.reshape(-1, d, d), 0, -1), dtype=complex, order="C")
    x *= -1j * t
    norm = np.abs(x).sum(axis=0).max(initial=0.0)
    s = int(np.ceil(np.log2(norm / _THETA))) if norm > _THETA else 0
    x *= 0.5 ** s
    x2 = _matmul(x, x)
    x3, x4 = _matmul(x2, x), _matmul(x2, x2)
    c, diag = _TAYLOR, np.arange(d)
    r = c[17] * x + c[18] * x2
    r[diag, diag] += c[16]
    for k in (12, 8, 4, 0):
        r = _matmul(x4, r)
        r += c[k + 1] * x
        r += c[k + 2] * x2
        r += c[k + 3] * x3
        r[diag, diag] += c[k]
    for _ in range(s):
        r = _matmul(r, r)
    return np.ascontiguousarray(np.moveaxis(r, -1, 0)).reshape(*lead, d, d)


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
    Helmert rows, the first (the identity) if asked, then sqrt2 times the
    pairs j < k."""
    r, col = np.arange(1, d)[:, None], np.arange(d)
    diag = np.where(col < r, 1.0, np.where(col == r, -r, 0.0)) / np.sqrt(r * (r + 1))
    if identity:
        diag = np.vstack([np.full(d, d ** -0.5), diag])
    j, k = np.triu_indices(d, 1)
    vec, one = np.eye(d * d), np.eye(d)
    pairs = np.hstack([vec[:, col * (d + 1)] @ diag.T, np.sqrt(2.0) * vec[:, j * d + k]]).astype(complex)
    diffs = np.hstack([np.zeros((d, len(diag))), one[:, j] - one[:, k]])
    pairs.setflags(write=False)
    diffs.setflags(write=False)
    return pairs, diffs


class AdjointFrame:
    """A subspace basis `stack` (m, d, d) and the constants of its spectral
    frame: rows (m, d^2), the conjugate basis; pairs (d^2, k), which takes
    the columns vec(v_j v_k^dag) of kron(V, conj V) to the Helmert matrices
    and sqrt2 E_jk, j < k; and diffs (d, k), with nu = lambda diffs.  The
    identity is a frame matrix when the span's weight on it is above eps."""

    def __init__(self, stack: np.ndarray):
        m, d = stack.shape[0], stack.shape[-1]
        identity = np.sum(np.abs(np.trace(stack, axis1=1, axis2=2)) ** 2) / d > np.finfo(float).eps
        self.stack, self.rows = stack, stack.conj().reshape(m, d * d)
        self.pairs, self.diffs = _frame_tables(d, bool(identity))


def adjoint_matrix_batch(lam: np.ndarray, vecs: np.ndarray, frame: AdjointFrame):
    """The adjoint matrices of the subspace in the real frame, from the
    eigendata lambda (Q, d) ascending, V (Q, d, d) of the step Hamiltonians:
    frequencies nu (Q, k), 0 for the h Helmert columns and
    omega = lambda_j - lambda_k <= 0 for the pairs j < k, and the real
    frame F (Q, m, h + 2 (k - h)) = [F_H, sqrt2 Re F_+, sqrt2 Im F_+],
    F F^T = I_m, with the dead pairs of a proper subspace at omega = 0 (see
    the module docstring)."""
    q, d = lam.shape
    cols = conjugation(vecs).reshape(q * d * d, d * d) @ frame.pairs
    cols = cols.reshape(q, d * d, -1).transpose(1, 0, 2).reshape(d * d, -1)
    f = (frame.rows @ cols).reshape(len(frame.rows), q, -1).transpose(1, 0, 2)
    nu = lam @ frame.diffs
    h = nu.shape[1] - d * (d - 1) // 2
    pair = f[:, :, h:]
    if 2 * nu.shape[1] - h > f.shape[1]:
        dead = np.sum(pair.real ** 2 + pair.imag ** 2, axis=1) <= 2 * np.finfo(float).eps
        nu[:, h:][dead] = 0.0
    return nu, np.concatenate([f[:, :, :h].real, pair.real, pair.imag], axis=2)


def _mirror_pairs(x: np.ndarray) -> np.ndarray:
    """x over all u = 2n - 1 frequencies of its last axis, w_{u-1-g} = -w_g,
    to twice its components on [cos, sin] of the half: x_g + x_-g, then
    (x_g - x_-g) / i but for the zero frequency."""
    n = (x.shape[-1] + 1) // 2
    lo, hi = x[..., :n], x[..., : -n - 1 : -1]
    return np.concatenate([lo + hi, 1j * (hi - lo)[..., :-1]], axis=-1)


def _real_table(x: np.ndarray) -> np.ndarray:
    """The real table of the basis [cos, sin] from the complex table x
    (Q, n, ..) of the frequencies w_g, r <= 3 axes of them: the first on the
    half g < n, the others on all of their groups (see the module docstring)."""
    if x.ndim == 4:
        x = _mirror_pairs(x.swapaxes(2, 3)).swapaxes(2, 3)
    if x.ndim > 2:
        x = 0.5 ** (x.ndim - 2) * _mirror_pairs(x)
    return np.concatenate([x.real, x[:, :-1].imag], axis=1)


@dataclass(frozen=True)
class SpectralGroups:
    """Distinct adjoint frequencies of each step and the step tables that
    every request and cross on the subspace reads (see the module docstring).

    w (Q, u) holds one frequency per group, u = 2n - 1 and antisymmetric,
    w_{u-1-g} = -w_g: the half w_0..w_{n-1} ascends to the zero group
    w_{n-1} = 0.  Steps with fewer than n groups on the half pad it in
    front with zeros that carry no weight, and so in +/- pairs.  onehot
    (Q, k, n) maps the frequencies nu to the half.  Each table is built on
    its first read, on the half alone: i1 = I1 (Q, n), i2 = I2 (Q, n, u)
    and confluent = (J, K) (Q, n), complex, as the r = 3 grid reads them,
    and t1 (Q, u), t2 (Q, u, u), their real tables.
    """

    w: np.ndarray
    onehot: np.ndarray
    dt: float

    @property
    def half(self):
        return self.w[:, : (self.w.shape[1] + 1) // 2]

    @cached_property
    def i1(self):
        return _int1_plus(self.half, self.dt)

    @cached_property
    def i2(self):
        return _int2_plus(self.half[:, :, None], self.w[:, None, :], self.dt)

    @cached_property
    def confluent(self):
        return _confluent(self.half, self.i1, self.dt)

    @cached_property
    def t1(self):
        return _real_table(self.i1)

    @cached_property
    def t2(self):
        return _real_table(self.i2)


def spectral_groups(nu: np.ndarray, dt: float) -> SpectralGroups:
    """Merge the frequencies of nu (Q, k), all <= 0 with a zero in every
    step, that are adjacent once sorted and whose phase gap
    (nu_{a+1} - nu_a) * dt is at most MERGE_KAPPA, and mirror them."""
    order = np.argsort(nu, axis=-1)
    ordered = np.take_along_axis(nu, order, axis=-1)
    q, k = nu.shape
    gid = np.zeros((q, k), dtype=np.intp)
    np.cumsum(np.diff(ordered, axis=-1) * dt > MERGE_KAPPA, axis=-1, out=gid[:, 1:])
    n = int(gid[:, -1].max()) + 1
    gid += n - 1 - gid[:, -1:]   # the zero group last in every step
    rows = np.arange(q)[:, None]
    half = np.zeros((q, n))
    half[rows, gid] = ordered
    half[:, -1] = 0.0
    onehot = np.zeros((q, k, n))
    onehot[rows, order, gid] = 1.0
    return SpectralGroups(np.concatenate([half, -half[:, -2::-1]], axis=1), onehot, dt)


def _components(v, y, groups):
    """Real spectral components R (Q, m, u): per group on the half, the
    coefficients of cos(w_g t), then of sin(w_g t) but the zero group's."""
    oh = groups.onehot
    h, k = 2 * oh.shape[1] - v.shape[2], oh.shape[1]
    y = y[:, None]
    cos = v[..., :k] * y[..., :k]
    cos[..., h:] += v[..., k:] * y[..., k:]
    sin = v[..., h:k] * y[..., k:] - v[..., k:] * y[..., h:k]
    return np.concatenate([cos @ oh, sin @ oh[:, h:, :-1]], axis=2)


def batch_step_cints(nu, v, y, dt, r_max, groups=None):
    """Spectral components and step tables of all Q steps at once.

    nu (Q,k) and the real frame v = F (Q,m,p) from `adjoint_matrix_batch`,
    y (Q,p) = F^T seed, real;
    groups is `spectral_groups(nu, dt)`, formed here when not given, and
    carries the tables.  Returns R (Q,m,u) and the real tables that the
    orders up to r_max read: T1 (Q,u) [, T2 (Q,u,u) [, T3 (Q,u,u,u)]],
    None above r_max; `compose_batch` contracts them.
    """
    if groups is None:
        groups = spectral_groups(nu, dt)
    t2 = groups.t2 if r_max >= 2 else None
    t3 = _real_table(_int3_grid(groups)) if r_max >= 3 else None
    return _components(v, y, groups), groups.t1, t2, t3


def batch_step_cross(groups_p, groups_e):
    """The real cross table T2(w_p, w_e) (Q, up, ue) of two slots, (later,
    earlier); two slots on one subspace share its T2 table."""
    if groups_p is groups_e:
        return groups_p.t2
    return _real_table(_int2_plus(groups_p.half[:, :, None], groups_e.w[:, None, :], groups_p.dt))


def eigen_toggles(nu: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """D(U_q^dag) = exp(i M_q dt) = F R F^T from the real frame (nu, F), R
    the rotations by omega dt of the pairs (X, Y)."""
    h, k = 2 * nu.shape[1] - v.shape[2], nu.shape[1]
    # (X + iY) e^{-i omega dt} = (c X + s Y) + i (c Y - s X)
    rot = (v[..., h:k] + 1j * v[..., k:]) * np.exp(-1j * dt * nu[:, None, h:])
    return v @ np.concatenate([v[..., :h], rot.real, rot.imag], axis=2).swapaxes(1, 2)


def prefix_toggles(dq: np.ndarray) -> np.ndarray:
    """E_prev[q] = D(U_1^dag) ... D(U_{q-1}^dag) (identity at q = 0)."""
    out = np.empty_like(dq)
    out[0] = np.eye(dq.shape[-1])
    # A B .. Z = (Z^T .. B^T A^T)^T: the scan of the transposes, transposed
    out[1:] = np.swapaxes(prefix_products(np.swapaxes(dq[:-1], -1, -2)), -1, -2)
    return out


def _step_sum(b, t):
    """sum_{q,g} B[q, :, g] T[q, g, ...]: one (m, Qu) x (Qu, ...) product."""
    q, m, u = b.shape
    return (np.swapaxes(b, 0, 1).reshape(m, q * u) @ t.reshape(q * u, -1)).reshape(m, *t.shape[2:])


def compose_batch(e_prev, a, i1, i2=None, i3=None, lab=False):
    """Vectorized chain rule in the lab frame (see the module docstring);
    `compose_raw` in `tests/_oracles.py` is the sequential fold it replaces.

    Takes the output of `batch_step_cints` and returns (B, a0, (tot0,
    tot1, tot2)): B = E_prev R (Q,m,u), formed when T2 is given or `lab`
    asks for it (a cross reads it), else None; the toggled a0 (Q,m); and
    the composed tensors, None above the order of the tables.
    """
    # a0 the same way with or without B, so that it has the same bits
    a0 = np.einsum("qij,qj->qi", e_prev, np.einsum("qag,qg->qa", a, i1))
    tot0 = a0.sum(axis=0)
    if i2 is None and not lab:
        return None, a0, (tot0, None, None)
    b = e_prev @ a
    if i2 is None:
        return b, a0, (tot0, None, None)
    q, m, u = b.shape
    bt = np.swapaxes(b, -1, -2)
    a1 = b @ i2 @ bt
    s0_prev = np.cumsum(a0, axis=0) - a0
    # step q's share of tot1; its prefix is s1 + p2 of the sequential fold
    t1 = a1 + a0[:, :, None] * s0_prev[:, None, :]
    tot1 = t1.sum(axis=0)
    if i3 is None:
        return b, a0, (tot0, tot1, None)
    t2 = b[:, None] @ (i3.reshape(q, u * u, u) @ bt).reshape(q, u, u, m)
    s1_prev = (np.cumsum(t1, axis=0) - t1).reshape(q, m * m)
    prefix = a0.T @ s1_prev + (a1.reshape(q, m * m).T @ s0_prev).reshape(m, m * m)
    tot2 = _step_sum(b, t2) + prefix.reshape(m, m, m)
    return b, a0, (tot0, tot1, tot2)


def compose_cross_batch(i2x, b_p, a0_p, b_e, a0_e):
    """Vectorized cross chain rule (perturbation slot at the later time):
    sum_q B_p T2x B_e^T + sum_q a0p_q (x) s0e_q, with s0e_q the sum of
    the earlier slot's a0 before step q."""
    s0e_prev = np.cumsum(a0_e, axis=0) - a0_e
    return _step_sum(b_p, i2x @ np.swapaxes(b_e, -1, -2)) + a0_p.T @ s0e_prev
