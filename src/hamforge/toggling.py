"""Primary-propagator integration and the C-integral engine.

The time-ordered integrals

    c_{i1..ir}(T) = int_0^T dt1 ... int_0^{t_{r-1}} dt_r c_{i1}(t1)...c_{ir}(tr)

of toggling-frame coefficients are quadrature sums over Gauss-Legendre
nodes in time within each piecewise-constant step, composed across the
steps with the chain rule.  Per step the coefficient flow is
|H_tog(t)>> = exp(i M t)|H_pert>> with the Hermitian adjoint matrix
M_ij = <<h_i|[H_pri, h_j]>> (purely imaginary entries, so exp(iMt) is
real orthogonal).

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
0, which moves the nodal values by at most eps ||seed||.

Step integrals by collocation.  Within a step the toggled coefficients
are c(tau) = G(tau) y, y = F^T seed and G(tau) = [F_H, c X - s Y, c Y + s
X] at c = cos(omega tau), s = sin(omega tau): entire in tau, with no
frequency above theta / dt, theta = max_q (lambda_max - lambda_min) dt,
which bounds |nu| dt on every subspace.  A step takes the k = GL_NODES =
14 Gauss-Legendre nodes tau_j with weights W_j, and S, the k x k matrix
that takes values at the nodes to the integrals int_0^tau_j of their
interpolating polynomial: S = A V^-1, V the Legendre-Vandermonde matrix
at the nodes and A the antiderivatives there (Trefethen, Spectral Methods
in MATLAB, SIAM 2000, ch. 12).  One panel serves while theta <= GL_THETA
= 5.25.  Above it the step splits into 2^s equal panels, s =
ceil(log2(theta / GL_THETA)), read once per evaluation the way
`expm_batch` reads its theta; S is then one panel's, and the composition
crosses the panels of a step the way it crosses steps.  Every subspace of
an evaluation takes the same nodes, so the two slots of a cross pair node
by node.  Nothing groups frequencies, sums a series or branches on
near-degeneracy: the error depends on theta per panel and k alone.
Against 40-digit arithmetic the worst r = 3 entry, all three frequencies
at -/+ theta, is 1.0e-15 T^3/6 at theta = 4.6, 2.8e-14 at 5.25 and
7.6e-13 at 6, which is why a panel stops at 5.25; r <= 2 stays at
rounding (<= 3e-15 T^r/r!).  Random spectra with ties, exact zeros and
+/- pairs up to theta = 20 stay within 5e-14 T^r/r! of the general
divided-difference kernel in `tests/_oracles.py`, except where that
kernel's own error near its series threshold (<= 1e-13) shows.  The
nodal values take Q K m reals per request, K = 14 2^s, so memory and
time grow linearly in theta past one panel, and no product is K x K.

Toggle matrices.  Over a whole step the flow is D(U_q^dag) = exp(i M_q dt)
= F Rot F^T, Rot turning each pair by omega dt: X -> c X - s Y and Y ->
s X + c Y.  `eigen_toggles` builds it from the same frame as the step
integrals (a dead pair moves it by at most eps) as F [F_H, c X + s Y,
c Y - s X]^T, one real product of Q m^2 p multiply-adds where the
complex F diag(e^{i nu dt}) F^dag took four times as many.  The
independent check, which conjugates the basis by U_q, is
`toggle_matrices` in `tests/_oracles.py`.  `prefix_products` chains
ordered step products in log depth, and `ordered_product` forms only the
last of them, in the (d, d, Q, ...) layout of `expm_batch`.

Composition.  The chain rule toggles step q by the real orthogonal
E_prev[q] = D(U_1^dag) .. D(U_{q-1}^dag).  Every request takes a0_q =
E_prev[q] Gbar_q y_q, the weighted step sum Gbar_q = sum_j W_j G_q(tau_j)
being shared by the requests on a subspace, and tot0 = sum_q a0_q.  A
higher order or a cross reads the lab-frame nodal values L_qj = E_prev[q]
G_q(tau_j) y_q (Q, K, m) and their running integrals G1 = (sum of the
panel integrals a1 = sum_j W_j L_j over the earlier panels) + S L: a step
of 2^s panels enters every running sum as 2^s steps of one panel.  Then,
with every sum over panels and nodes j, tot1 = sum W L (x) G1, G2 = (tot1
of the earlier panels) + S (L (x) G1) and tot2 = sum W L (x) G2, with G2
(Q K m^2 entries) unformed: tot2 = sum u (x) L (x) G1, u = S^T (W L), in
m (m, QK) x (QK, m) products, plus each panel's a1 against the earlier
tot1.  A cross is sum W L_p (x) G1_e, the later slot's values against the
earlier slot's running integrals (Hairer, Lubich & Wanner, Geometric
Numerical Integration, Springer 2006, ch. IV).
"""
from __future__ import annotations

from functools import cache
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

from .opcore import conjugation

GL_NODES = 14    # Gauss-Legendre nodes per panel
GL_THETA = 5.25  # the widest phase (lambda_max - lambda_min) dt that one panel takes


# ---------------------------------------------------------------------------
# primary propagation

def eig_exp(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """V diag(e^{-i w t}) V^dag of a stack of eigendata (w, V), as (d, d, ...)."""
    return np.einsum("...ab,...b,...cb->ac...", v, np.exp(-1j * w * t), v.conj(), order="C")


_TAYLOR = np.array([1.0 / factorial(k) for k in range(19)])   # degree 18
_THETA = 1.3   # ||X||_1 bound after scaling: theta^19/19! = 1.2e-15


def _matmul(a: np.ndarray, b: np.ndarray, tmp: np.ndarray, out=None) -> np.ndarray:
    """a b for stacks with the matrix axes leading, (n, n, ...): the outer
    products a[:, k] b[k] summed into out (new if not given) through the
    scratch tmp of the result's shape; neither may overlap a or b."""
    out = np.multiply(a[:, 0, None], b[None, 0], out=out)
    for k in range(1, a.shape[1]):
        out += np.multiply(a[:, k, None], b[None, k], out=tmp)
    return out


def expm_batch(h: np.ndarray, t: float, work: np.ndarray | None = None) -> np.ndarray:
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
    contiguous length-N arrays, not N small matmuls; every product and
    Horner term reuses one scratch array, and the Horner sum swaps between
    two buffers.  The seven (d, d, N) arrays fill 7 h.size entries of ``work``
    if given, reused across a caller's blocks; the result is a view of one.
    """
    h = np.asarray(h)
    *lead, d, _ = h.shape
    work = np.empty(7 * h.size, dtype=complex) if work is None else work[: 7 * h.size]
    x, tmp, o, x2, x3, x4, r = work.reshape(7, d, d, h.size // (d * d))
    x[...] = np.moveaxis(h.reshape(-1, d, d), 0, -1)
    x *= -1j * t
    norm = np.abs(x).sum(axis=0).max(initial=0.0)
    s = int(np.ceil(np.log2(norm / _THETA))) if norm > _THETA else 0
    x *= 0.5 ** s
    _matmul(x, x, tmp, x2)
    _matmul(x2, x, tmp, x3)
    _matmul(x2, x2, tmp, x4)
    c, diag = _TAYLOR, np.arange(d)
    np.add(np.multiply(x, c[17], out=r), np.multiply(x2, c[18], out=tmp), out=r)
    r[diag, diag] += c[16]
    for k in (12, 8, 4, 0):
        r, o = _matmul(x4, r, tmp, o), r
        for j, p in enumerate((x, x2, x3), k + 1):
            r += np.multiply(p, c[j], out=tmp)
        r[diag, diag] += c[k]
    for _ in range(s):
        r, o = _matmul(r, r, tmp, o), r
    return np.moveaxis(r, -1, 0).reshape(*lead, d, d)


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
    """U_{Q-1} .. U_1 U_0 of each stack of an (n, n, Q, ...) array (matrix
    axes first, steps third), pairing neighbours in ceil(log2 Q) rounds.  A
    product sums a[:, :, None] b[None] over its middle axis, two ufunc calls
    on fresh arrays; `_matmul`'s 2n - 1 pay only with reused buffers."""
    mul = lambda a, b: (a[:, :, None] * b[None]).sum(axis=1)
    while u.shape[2] > 1:
        n = u.shape[2]
        pairs = mul(u[:, :, 1 : n - n % 2 : 2], u[:, :, 0 : n - n % 2 : 2])
        if n % 2:
            pairs[:, :, -1] = mul(u[:, :, -1], pairs[:, :, -1])
        u = pairs
    return u[:, :, 0]


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


@cache
def _panel_rule(s: int) -> tuple:
    """Nodes (K,), weights (K,) and one panel's integration matrix S (k, k)
    of 2^s equal panels of k = GL_NODES nodes on [0, 1], K = 2^s k, read-only."""
    x, w = leggauss(GL_NODES)
    anti = legval(x, legint(np.eye(GL_NODES), lbnd=-1)).T   # int_-1^x_j P_n
    p = 2 ** s
    smat = np.linalg.solve(legvander(x, GL_NODES - 1).T, anti.T).T / (2 * p)
    tau = (np.arange(p)[:, None] + (x + 1) / 2).ravel() / p
    weights = np.tile(w / 2, p) / p
    for a in (tau, weights, smat):
        a.setflags(write=False)
    return tau, weights, smat


def step_rule(spread, dt: float) -> tuple:
    """Nodes tau (K,), weights W (K,) and panel matrix S (k, k) of steps of
    length dt whose frequencies are bounded by |spread| (steps first): 2^s
    panels with s = ceil(log2(theta / GL_THETA)) at theta = max |spread| dt
    above GL_THETA, else one."""
    theta = np.abs(spread).max(initial=0.0) * dt
    s = int(np.ceil(np.log2(theta / GL_THETA))) if theta > GL_THETA else 0
    tau, w, smat = _panel_rule(s)
    return tau * dt, w * dt, smat * dt


class StepNodes:
    """A `step_rule` on one subspace in one evaluation: its weights w (K,)
    and panel matrix s, the pair rotations cos and sin (Q, K, k - h) at
    the nodes, and the weighted step sum gbar = sum_j W_j G(tau_j)
    (Q, m, p) that every request on the subspace reads."""

    def __init__(self, nu: np.ndarray, v: np.ndarray, rule: tuple):
        tau, self.w, self.s = rule
        self.h, k = 2 * nu.shape[1] - v.shape[2], nu.shape[1]
        phase = nu[:, None, self.h :] * tau[:, None]
        self.cos, self.sin = np.cos(phase), np.sin(phase)
        cbar, sbar = (self.w @ self.cos)[:, None], (self.w @ self.sin)[:, None]
        x, y = v[..., self.h : k], v[..., k:]
        helmert = self.w.sum() * v[..., : self.h]
        self.gbar = np.concatenate([helmert, cbar * x - sbar * y, cbar * y + sbar * x], axis=2)


def batch_step_cints(nu, v, y, dt, r_max, nodes=None, lab=False):
    """Step integrals and nodal values of all Q steps at once, in each
    step's frame.

    nu (Q,k) and the real frame v = F (Q,m,p) from `adjoint_matrix_batch`,
    y (Q,p) = F^T seed, real; nodes is the subspace's `StepNodes`, formed
    here from `step_rule`(nu, dt) when not given.  Returns c0 = Gbar y
    (Q,m), the integral of the toggled coefficients over each step, and
    their values G(tau_j) y (Q,K,m) at the nodes when r_max >= 2 or `lab`
    asks for them (a cross reads them), else None; `compose_batch` takes
    them to the lab frame.
    """
    if nodes is None:
        nodes = StepNodes(nu, v, step_rule(nu, dt))
    c0 = np.einsum("qap,qp->qa", nodes.gbar, y)
    if r_max < 2 and not lab:
        return c0, None
    h, k, c, s = nodes.h, nu.shape[1], nodes.cos, nodes.sin
    yx, yy = y[:, None, h:k], y[:, None, k:]
    held = np.broadcast_to(y[:, None, :h], (*c.shape[:2], h))
    return c0, np.concatenate([held, c * yx + s * yy, c * yy - s * yx], axis=2) @ np.swapaxes(v, 1, 2)


def batch_step_cross(nodes_p: StepNodes, nodes_e: StepNodes) -> np.ndarray:
    """The cross table of two slots (later, earlier): node j of the later
    slot meets the earlier slot's running integral at node j, so the
    table is the weights of the one rule that both slots must share."""
    if not np.array_equal(nodes_p.w, nodes_e.w):
        raise ValueError("the two slots of a cross take different step rules")
    return nodes_p.w


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


def compose_batch(e_prev, c0, c=None, nodes=None, r_max=1):
    """Vectorized chain rule in the lab frame (see the module docstring);
    `compose_raw` in `tests/_oracles.py` is the sequential fold it replaces.

    Takes the output of `batch_step_cints` and its `StepNodes`, and returns
    (nodal, (tot0, tot1, tot2)): nodal = (L, G1) (Q,K,m) each, the
    lab-frame nodal values and their running integrals, when c is given
    (a cross reads them), else None; and the composed tensors, None above
    r_max.
    """
    # the toggled step integrals a0 the same way with or without nodal
    # values, so that they have the same bits
    a0 = np.einsum("qij,qj->qi", e_prev, c0)
    tot0 = a0.sum(axis=0)
    if c is None:
        return None, (tot0, None, None)
    # the running sums cross a step's 2^s panels, (Q 2^s, k, m), as they cross steps
    k, m = len(nodes.s), c.shape[2]
    l = (c @ np.swapaxes(e_prev, 1, 2)).reshape(-1, k, m)
    a1 = nodes.w[:k] @ l   # each panel's integral, as a product: a sum over axis 1 is ~6x slower
    g1 = nodes.s @ l + (np.cumsum(a1, axis=0) - a1)[:, None]
    nodal = l.reshape(c.shape), g1.reshape(c.shape)
    if r_max < 2:
        return nodal, (tot0, None, None)
    lw = l * nodes.w[:k, None]
    t1 = np.swapaxes(lw, 1, 2) @ g1   # each panel's share of tot1
    tot1 = t1.sum(axis=0)
    if r_max < 3:
        return nodal, (tot0, tot1, None)
    s1_prev = (np.cumsum(t1, axis=0) - t1).reshape(-1, m * m)
    u = (nodes.s.T @ lw).reshape(-1, m)
    lf, gf = l.reshape(-1, m), g1.reshape(-1, m)
    tot2 = np.stack([(u[:, a, None] * lf).T @ gf for a in range(m)])
    tot2 += (a1.T @ s1_prev).reshape(m, m, m)
    return nodal, (tot0, tot1, tot2)


def compose_cross_batch(w, l_p, g1_e):
    """Vectorized cross chain rule (perturbation slot at the later time):
    sum_qj W_j L_p (x) G1_e of the later slot's nodal values and the
    earlier slot's running integrals, one (m_p, QK) x (QK, m_e) product."""
    q, k, m = l_p.shape
    return (l_p * w[:, None]).reshape(q * k, m).T @ g1_e.reshape(q * k, -1)
