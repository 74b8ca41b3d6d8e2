"""Reference implementations that the tests compare the library against.

Each one reaches a library result by a different route: operator
algebra column by column, adjoint matrices (Q, m, m) whose complex eigh
and real Schur form the library's real spectral frame replaces, step
unitaries from an eigh in place
of the library's Taylor exponential, toggle matrices by conjugation with
the step unitaries, C-integrals by a sequential per-step fold with the
closed-form divided differences of e^{i nu t} (the general kernel) where
the library sums at Gauss-Legendre nodes in time, exact propagators by one scipy `expm`
per step and an ordered product, the linear control filters (the
circuit's block recursion and the kernel's response states) one step at
a time, the walk sampler one move at a time, and the scale-range LPs
built and solved from scratch for every batch where the library grows one
model per end.  No command of the tool runs them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import expm, schur
from scipy.optimize import linprog

from hamforge import toggling as tg
from hamforge.controlsys import _exp_moments, field_operators
from hamforge.evaluate import pauli_basis_stack
from hamforge.liealg import CSubspace
from hamforge.opcore import SPAN_TOL, SubspaceError, project


# ---------------------------------------------------------------------------
# operator algebra

def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product <<a|b>> = Tr(b a^dag)."""
    return complex(np.sum(np.conj(a) * b))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def expm_herm_generator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for a Hermitian h or stack (..., d, d) of them, as
    V e^{-i lambda t} V^dag from the eigendecomposition."""
    if np.abs(h - np.swapaxes(h.conj(), -1, -2)).max() >= 1e-10 * max(np.abs(h).max(), 1e-300):
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def reconstruct(c: np.ndarray, stack: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(c), stack, axes=(0, 0))


def vector(m: np.ndarray, stack: np.ndarray, tol: float = SPAN_TOL) -> np.ndarray:
    """Coefficients of m in the stack; SubspaceError if m leaves its span."""
    c, resid = project(m, stack)
    if resid > tol:
        raise SubspaceError(f"operator outside subspace: relative residual {resid:.3e}")
    return c


def _stack_columns(cols: list[np.ndarray], tol: float) -> np.ndarray:
    d = np.stack([np.asarray(c, dtype=complex) for c in cols], axis=1)
    if np.abs(d.imag).max() <= tol * max(np.abs(d).max(), 1e-300):
        return d.real.copy()
    return d


def rep_unitary(u: np.ndarray, stack: np.ndarray, tol: float = SPAN_TOL) -> np.ndarray:
    """D(U) with D(U)_ij = <<h_i|U h_j U^dag>>; |UHU^dag>> = D(U)|H>>.

    The span must be closed under conjugation by U (checked per column
    through the projection residual).
    """
    return _stack_columns([vector(u @ h @ u.conj().T, stack, tol) for h in stack], tol)


def rep_ad(g: np.ndarray, stack: np.ndarray, tol: float = SPAN_TOL) -> np.ndarray:
    """D(ad_g) with entries <<h_i|[g, h_j]>>; exp(D(ad_g)) = D(e^g)."""
    cols = []
    for h in stack:
        m = g @ h - h @ g
        if np.linalg.norm(m) < 1e-300 * max(np.linalg.norm(g), 1.0):
            cols.append(np.zeros(len(stack)))
            continue
        cols.append(vector(m, stack, tol))
    return _stack_columns(cols, tol)


# ---------------------------------------------------------------------------
# primary propagation and toggle matrices by conjugation

@dataclass(frozen=True)
class StepHamiltonians:
    """Per-step Hamiltonians on a common grid of Q steps."""

    h_pri: np.ndarray                      # (Q, d, d) Hermitian
    h_pert: np.ndarray                     # (Q, d, d) Hermitian
    error_terms: dict                      # name -> (Q, d, d) Hermitian
    delta_t: float

    @staticmethod
    def from_operators(h_pri, h_pert, delta_t, error_terms=None):
        def stack(ops):
            return np.stack([np.asarray(h) for h in ops])

        err = {k: stack(v) for k, v in (error_terms or {}).items()}
        return StepHamiltonians(stack(h_pri), stack(h_pert), err, float(delta_t))


@dataclass(frozen=True)
class PrimaryPropagation:
    """Step unitaries U_q = exp(-i H_pri^q dt) and their prefixes
    prefixes[q] = U_q .. U_0, so prefixes[-1] is U_pri(T_seq)."""

    step_unitaries: np.ndarray   # (Q, d, d)
    prefixes: np.ndarray         # (Q, d, d)

    @property
    def final(self) -> np.ndarray:
        return self.prefixes[-1]


def propagate_primary(steps: StepHamiltonians) -> PrimaryPropagation:
    u = expm_herm_generator(steps.h_pri, steps.delta_t)
    return PrimaryPropagation(u, tg.prefix_products(u))


def adjoint_matrix(h_pri: np.ndarray, stack: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """Hermitian M with M_ij = <<h_i|[H_pri, h_j]>> from the commutators;
    checks that the span is closed under ad H_pri."""
    comm = h_pri @ stack - stack @ h_pri
    m = np.einsum("aij,bij->ab", stack.conj(), comm)
    recon = np.einsum("ab,aij->bij", m, stack)
    resid = np.linalg.norm(comm - recon)
    scale = max(np.linalg.norm(comm), 1e-300)
    if resid > tol * scale and resid > tol * max(np.linalg.norm(h_pri), 1e-300):
        raise ValueError(f"ad-action of H_pri leaves the subspace (residual {resid:.3e})")
    return m


def adjoint_matrix_batch(h_pri: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Batched (Q, m, m) adjoint matrices, without a span-closure check.

    M_ba = <<h_b|[H, h_a]>> is linear in H: one (Q, d^2) x (d^2, m^2)
    product with T[k, l, b, a] = (h_b^* h_a^T - h_a^T h_b^*)[k, l].
    """
    m, d = stack.shape[0], stack.shape[-1]
    sc = stack.conj()
    t = np.einsum("bkj,alj->klba", sc, stack) - np.einsum("aik,bil->klba", stack, sc)
    return (h_pri.reshape(-1, d * d) @ t.reshape(d * d, m * m)).reshape(-1, m, m)


def real_frame(h_pri: np.ndarray, stack: np.ndarray):
    """(nu, F) in the layout of `toggling.adjoint_matrix_batch` from the
    real Schur form Z T Z^T of the real antisymmetric S = i M of each step.
    A 2 x 2 block (z1, z2) with S z1 = -omega z2 and omega <= 0 is the pair
    X = z1, Y = z2 (swapped if omega comes out positive), and the 1 x 1
    blocks, zero, are frame columns at frequency 0.  Every step keeps as
    many of those as the step with the fewest, and pairs the rest at
    omega = 0; a zero column stands in when a step has none."""
    s = np.real(1j * adjoint_matrix_batch(h_pri, stack))
    steps = []
    for sq in s:
        t, z = schur(sq, output="real")
        lower = np.diag(t, -1)
        starts = np.flatnonzero(lower)
        inner = set(starts) | set(starts + 1)
        singles = [z[:, i] for i in range(len(sq)) if i not in inner]
        pairs = [(z[:, i], z[:, i + 1], -lower[i]) if lower[i] > 0 else (z[:, i + 1], z[:, i], -t[i, i + 1])
                 for i in starts]
        steps.append((singles, pairs))
    h = min(len(singles) for singles, _ in steps)
    nus, frames = [], []
    for singles, pairs in steps:
        cols = singles[:h] or [np.zeros(len(stack))]
        extra = singles[h:]
        pairs = pairs + [(x, y, 0.0) for x, y in zip(extra[::2], extra[1::2])]
        nus.append([0.0] * len(cols) + [w for _, _, w in pairs])
        frames.append(np.stack(cols + [x for x, _, _ in pairs] + [y for _, y, _ in pairs], axis=1))
    return np.array(nus), np.array(frames)


def toggle_matrices(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """D(U_q^dag) for every step unitary U_q, real orthogonal in a
    Hermitian basis, by conjugating each basis element."""
    conj = np.einsum("qji,ajk,qkl->qail", u.conj(), stack, u)  # U^dag h_a U
    return np.real(np.einsum("bij,qaij->qba", stack.conj(), conj))


# ---------------------------------------------------------------------------
# the general kernel: divided differences of exp(x*T) at nodes x = i*w (w real)
#
# The ordered integral I_r(nu_1..nu_r) = int_0^T dt1 .. int_0^{t_{r-1}}
# dt_r e^{i nu_1 t1} .. e^{i nu_r tr} is the divided difference f[0, i p_1,
# .., i p_r] of f(x) = exp(x T) at the prefix sums p_k = nu_1 + .. + nu_k.
# Divided differences are evaluated with sorted nodes so the recursion
# always divides by the largest spread, and switch to a Taylor series when
# the whole node cluster is narrower than DEGEN_TOL (removable
# singularities).  Min/max sorting networks on 3 and 4 nodes order the
# nodes entry by entry, and at r = 3 both 3-node differences share their
# middle pair term f[x1, x2].  The threshold DEGEN_TOL = 1 is wide on
# purpose.  The direct differences lose ~eps / (spread * T) to
# cancellation, and at r = 3 one more division by a node gap of similar
# size leaves errors of order eps / (spread * T)^2 in units of T^3 / 6.
# Against 40-digit arithmetic the worst r = 3 entry is 1.7e-9 at a
# threshold of 1e-3, ~1e-12 at 0.05, 5e-14 at 0.2 and 2e-15 at 1.  Term k
# of the series is at most (spread * T)^k / k! of the leading one, so
# SERIES_TERMS = 20 truncates below 1e-17 up to width 1 (it must be even:
# `_series` keeps e2 powers below SERIES_TERMS // 2).  McCurdy, Ng &
# Parlett, Math. Comp. 43 (1984); Higham, Functions of Matrices, SIAM
# (2008).

DEGEN_TOL = 1.0           # |w*T| cluster width below which the series branch runs
SERIES_TERMS = 20         # terms of that series


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
        coefs[k % 2] += (-1) ** (k // 2) / math.factorial(k + drop) * h[k]
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



# ---------------------------------------------------------------------------
# sequential C-integral engine: one step at a time, general kernel at r = 3

@dataclass(frozen=True)
class StepEigen:
    """Eigen data of the adjoint matrix plus the rotated seed vector."""

    nu: np.ndarray    # (m,) real
    v: np.ndarray     # (m, m) complex unitary
    y: np.ndarray     # (m,) complex, V^dag |H_pert>>


def _step_eigen(m_adj: np.ndarray, c_seed: np.ndarray) -> StepEigen:
    nu, v = np.linalg.eigh(m_adj)
    return StepEigen(nu, v, v.conj().T @ c_seed)


def _step_c0(eig: StepEigen, dt: float) -> np.ndarray:
    return np.real(eig.v @ (_int1_plus(eig.nu, dt) * eig.y))


def nested_exp_integral(lambdas, t: float) -> complex:
    """I(l_1..l_r) = int_0^T dt1..int_0^{t_{r-1}} dt_r e^{-i l_1 t1}..e^{-i l_r tr}
    for r in {1, 2, 3}, by the general divided-difference kernel above."""
    kernel = (_int1_plus, _int2_plus, _int3_plus)[len(lambdas) - 1]
    return complex(kernel(*(np.array([-float(x)]) for x in lambdas), t)[0])


def step_cints_raw(eig: StepEigen, dt: float, r_max: int):
    """(c0, c1, c2) tensors of one constant step, real arrays."""
    nu, v, y = eig.nu, eig.v, eig.y
    c0 = _step_c0(eig, dt)
    c1 = c2 = None
    if r_max >= 2:
        i2 = _int2_plus(nu[:, None], nu[None, :], dt)
        c1 = np.real(v @ (i2 * y[:, None] * y[None, :]) @ v.T)
    if r_max >= 3:
        i3 = _int3_plus(nu[:, None, None], nu[None, :, None], nu[None, None, :], dt)
        t3 = i3 * y[:, None, None] * y[None, :, None] * y[None, None, :]
        c2 = np.real(np.einsum("ia,jb,kc,abc->ijk", v, v, v, t3, optimize=True))
    return c0, c1, c2


def step_cross_raw(eig_pert: StepEigen, eig_err: StepEigen, dt: float):
    """Single-step cross tensor: perturbation at the later time slot."""
    i2 = _int2_plus(eig_pert.nu[:, None], eig_err.nu[None, :], dt)
    t2 = i2 * eig_pert.y[:, None] * eig_err.y[None, :]
    return np.real(eig_pert.v @ t2 @ eig_err.v.T)


def compose_raw(step_tensors, dq, r_max):
    """Chain-rule composition given per-step tensors and D(U_q^dag).

    step_tensors: list over q of (c0, c1, c2) in one subspace.
    dq: (Q, m, m) real toggle matrices of the same subspace.
    """
    m = dq.shape[-1]
    e = np.eye(m)  # E_{q-1} = D(U_1^dag) ... D(U_{q-1}^dag)
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
    ep = np.eye(dq_pert.shape[-1])
    ee = np.eye(dq_err.shape[-1])
    tot = np.zeros((ep.shape[0], ee.shape[0]))
    s0e = np.zeros(ee.shape[0])
    for q in range(len(step_cross)):
        tot += ep @ step_cross[q] @ ee.T + np.outer(ep @ step0_pert[q], s0e)
        s0e += ee @ step0_err[q]
        ep = ep @ dq_pert[q]
        ee = ee @ dq_err[q]
    return tot


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


def step_c_integrals(h_pri: np.ndarray, h_pert: np.ndarray, c_space: CSubspace, delta_t: float,
                     r_max: int = 3) -> CIntegralSet:
    """C-integrals of a single constant step via the adjoint eigenbasis."""
    stack = c_space.stack
    c_seed = vector(h_pert, stack)
    eig = _step_eigen(adjoint_matrix(h_pri, stack), c_seed)
    c0, c1, c2 = step_cints_raw(eig, delta_t, r_max)
    flat = [None if c is None else c.ravel() for c in (c1, c2)]
    return CIntegralSet(c_space, r_max, c0, *flat, delta_t)


def compose_c_integrals(per_step, prop: PrimaryPropagation, c_space: CSubspace) -> CIntegralSet:
    """Compose per-step C-integrals into whole-sequence tensors."""
    r_max = per_step[0].order
    m = len(per_step[0].c0)
    dq = toggle_matrices(prop.step_unitaries, c_space.stack)
    tensors = [
        (s.c0, None if s.c1 is None else s.c1.reshape(m, m),
         None if s.c2 is None else s.c2.reshape(m, m, m))
        for s in per_step
    ]
    t0, t1, t2 = compose_raw(tensors, dq, r_max)
    flat = [None if t is None else t.ravel() for t in (t1, t2)]
    return CIntegralSet(c_space, r_max, t0, *flat, sum(s.t_seq for s in per_step))


def cross_c_integral(steps: StepHamiltonians, error_name: str, c_pert: CSubspace,
                     c_err: CSubspace, prop: PrimaryPropagation) -> np.ndarray:
    """Whole-sequence cross integral, (|C_pert|, |C_err|): H_pert at the
    later time, the named error term at the earlier time."""
    stack_p, stack_e = c_pert.stack, c_err.stack
    err = steps.error_terms[error_name]
    cross_steps, c0p_steps, c0e_steps = [], [], []
    for q in range(steps.h_pri.shape[0]):
        cp = np.einsum("aij,ij->a", stack_p.conj(), steps.h_pert[q])
        ce = np.einsum("aij,ij->a", stack_e.conj(), err[q])
        ep = _step_eigen(adjoint_matrix(steps.h_pri[q], stack_p), cp)
        ee = _step_eigen(adjoint_matrix(steps.h_pri[q], stack_e), ce)
        cross_steps.append(step_cross_raw(ep, ee, steps.delta_t))
        c0p_steps.append(_step_c0(ep, steps.delta_t))
        c0e_steps.append(_step_c0(ee, steps.delta_t))
    dqp = toggle_matrices(prop.step_unitaries, stack_p)
    dqe = toggle_matrices(prop.step_unitaries, stack_e)
    return compose_cross_raw(cross_steps, c0p_steps, c0e_steps, dqp, dqe)


def commutator_table(stack: np.ndarray) -> np.ndarray:
    """All pairwise commutators [h_i, h_j], shape (m, m, d, d)."""
    return np.einsum("iab,jbc->ijac", stack, stack) - np.einsum("jab,ibc->ijac", stack, stack)


def magnus_terms(cints: CIntegralSet, c_space: CSubspace):
    """Zeroth, first and second average-Hamiltonian terms from C-integrals.

    H0 = (1/T) sum_i c0_i h_i
    H1 = -i/(2T) sum_ij c1_ij [h_i, h_j]
    H2 = -1/(6T) sum_ijk c2_ijk ([h_i,[h_j,h_k]] + [h_k,[h_j,h_i]])
    """
    stack = c_space.stack
    t = cints.t_seq
    h0 = reconstruct(cints.c0, stack) / t
    h1 = h2 = None
    comm = commutator_table(stack) if cints.order >= 2 else None
    if cints.order >= 2:
        h1 = -0.5j * np.einsum("ij,ijab->ab", cints.c1_matrix(), comm) / t
    if cints.order >= 3:
        c2 = cints.c2_tensor()
        inner = np.einsum("ijk,jkab->iab", c2, comm)      # sum_jk c2_ijk [h_j,h_k]
        f3a = np.einsum("iab,ibc->ac", stack, inner) - np.einsum("iab,ibc->ac", inner, stack)
        inner_rev = np.einsum("ijk,jiab->kab", c2, comm)  # sum_ij c2_ijk [h_j,h_i]
        f3b = np.einsum("kab,kbc->ac", stack, inner_rev) - np.einsum("kab,kbc->ac", inner_rev, stack)
        h2 = -(f3a + f3b) / (6.0 * t)
    return h0, h1, h2


# ---------------------------------------------------------------------------
# the linear control filters

def block_propagate(epow: np.ndarray, force: np.ndarray):
    """Reference for `controlsys._block_propagate`: the states of x_{j+1} =
    E x_j + force_j from x = 0, with epow holding E^0..E^n and force
    (P, n, s).  The part c driven within each interval is stepped one
    step at a time for all intervals together, then the P boundary
    states one interval at a time; returns the (P, n+1, s) states and the
    final state."""
    p_int, n, s = force.shape
    e_t = epow[1].T
    c = np.zeros((p_int, n + 1, s), dtype=complex)
    for j in range(n):
        c[:, j + 1] = c[:, j] @ e_t + force[:, j]
    starts = np.empty((p_int, s), dtype=complex)
    x = np.zeros(s, dtype=complex)
    for k in range(p_int):
        starts[k] = x
        x = epow[n] @ x + c[k, n]
    return np.einsum("jab,pb->pja", epow, starts) + c, x


def kernel_responses(model, u: np.ndarray, h: float, n_states: int) -> np.ndarray:
    """Reference for `LinearKernelModel._responses`: the response states
    y_0.. stepped one substep at a time, y <- E y + u_k m with E = shift(h),
    each sampled before its step."""
    w = model.W
    idx = np.arange(n_states)
    lag = np.clip(np.subtract.outer(idx, idx), 0, None)
    comb = np.array([[math.comb(i, j) for j in idx] for i in idx])

    def shift(s):
        return math.exp(-w * s) * comb * s ** lag

    m = _exp_moments(w, h, n_states + 1)
    if model.average:
        sample, drive = comb * m[lag] / h, (h * m[:-1] - m[1:]) / h
    else:
        sample, drive = shift(h / 2), _exp_moments(w, h / 2, n_states)
    step, m = shift(h), m[:-1]
    ys = np.zeros(n_states, dtype=complex)
    out = np.empty((u.size, n_states), dtype=complex)
    for k, uk in enumerate(u.tolist()):
        out[k] = sample @ ys + uk * drive
        ys = step @ ys + uk * m
    return out.T


# ---------------------------------------------------------------------------
# exact propagators and fidelities for the evaluation layer

def sequential_product(u: np.ndarray) -> np.ndarray:
    """U_{Q-1} .. U_1 U_0 of each (..., Q, n, n) stack, by a left-to-right fold."""
    acc = u[..., 0, :, :]
    for q in range(1, u.shape[-3]):
        acc = u[..., q, :, :] @ acc
    return acc


def step_product(h: np.ndarray, dt: float) -> np.ndarray:
    """U_{Q-1} .. U_1 U_0 with U_q = expm(-i h_q dt), multiplied in sequence."""
    u = np.eye(h.shape[-1], dtype=complex)
    for hq in h:
        u = expm(-1j * dt * hq) @ u
    return u


def exact_unitary(seq, setup, values: dict) -> np.ndarray:
    """Total propagator of one parameter draw, step by step: `with_param`
    for every model parameter, then `field`, then one exponential per step
    and their ordered product.  Distributions that `values` omits sit at
    their nominal values."""
    values = {**{dd.name: dd.nominal() for dd in setup.distributions}, **values}
    model, coeffs = setup.model, np.array(setup.term_coeffs, dtype=float)
    for dd in setup.distributions:
        kind, target = dd.applies_to.split(":", 1)
        if kind == "model":
            model = model.with_param(target, values[dd.name])
        else:
            coeffs[setup.term_names.index(target)] = values[dd.name]
    fld = model.field(seq)
    ops = field_operators(seq.channels, setup.n_qubits)
    h_int = np.einsum("t,tab->ab", coeffs, setup.term_mats)
    return step_product(np.einsum("kq,kab->qab", fld.b, ops) + h_int, fld.delta_t)


def average_gate_fidelity(r: np.ndarray, u0: np.ndarray) -> float:
    """F = (d F_pro + 1)/(d + 1) of a transfer matrix R against the unitary
    U0, with F_pro = Tr(R0^T R)/d^2 and R0 built from the Pauli strings."""
    d = u0.shape[0]
    stack = pauli_basis_stack(int(round(np.log2(d))))
    r0 = np.array([[np.trace(a @ u0 @ b @ u0.conj().T).real for b in stack] for a in stack])
    f_pro = float(np.sum(r0 * r)) / d ** 2
    return (d * f_pro + 1.0) / (d + 1.0)


# ---------------------------------------------------------------------------
# the scale-range walk sampler

def walk_unitaries(gstack: np.ndarray, n_burn: int, n_thin: int, n_sample: int, rng):
    """Reference for `reach._walk_unitaries`, move by move: one draw of the
    coefficients p and one exponential exp(sum p_h h) per move, left-
    multiplied onto the walk; a sample after the burn-in and every n_thin
    moves."""
    x = np.eye(gstack.shape[-1], dtype=complex)

    def move(x):
        p = rng.standard_normal(gstack.shape[0])
        return expm_herm_generator(1j * np.tensordot(p, gstack, axes=(0, 0)), 1.0) @ x

    for _ in range(n_burn):
        x = move(x)
    out = []
    for _ in range(n_sample):
        for _ in range(n_thin):
            x = move(x)
        out.append(x)
    return np.stack(out)


# ---------------------------------------------------------------------------
# the scale-range LPs

def hull_lp_rows(vertices: np.ndarray):
    """(A_eq, b_eq) of the scale-range LPs on the vertex rows.  The columns
    are the J convex weights x and slacks s1, s2; the rows say that x sums
    to 1, that the transverse coordinates of the mean vanish, and that
    v1 @ x + s1 = 1 and v1 @ x - s2 = -1."""
    j, m = vertices.shape
    a = np.zeros((m + 2, j + 2))
    a[0, :j] = 1.0
    a[1:m, :j] = vertices[:, 1:].T
    a[m:, :j] = vertices[:, 0]
    a[m, j], a[m + 1, j + 1] = 1.0, -1.0
    b = np.zeros(m + 2)
    b[0], b[m], b[m + 1] = 1.0, 1.0, -1.0
    return a, b


def hull_lp(vertices: np.ndarray, sign: float):
    """LP+ (sign +1) or LP- (sign -1), max sign * v1 @ x on `hull_lp_rows`,
    built from scratch and solved by `scipy.optimize.linprog` (HiGHS's dual
    simplex, no presolve).  The library instead grows one HiGHS model per
    end by each batch and re-solves it from its last basis.  Returns
    linprog's result."""
    a, b = hull_lp_rows(vertices)
    c = np.concatenate([-sign * vertices[:, 0], [0.0, 0.0]])
    return linprog(c, A_eq=a, b_eq=b, bounds=(0.0, None), method="highs-ds", options={"presolve": False})


def scale_range_ends(vertices: np.ndarray) -> tuple[float, float]:
    """(s+, s-) of `hull_lp` on the vertex rows, NaN for an end without an
    optimum; a stop other than optimal or infeasible raises."""
    ends = []
    for sign in (+1.0, -1.0):
        res = hull_lp(vertices, sign)
        if res.status not in (0, 2):
            raise RuntimeError(res.message)
        ends.append(float(vertices[:, 0] @ res.x[:-2]) if res.status == 0 else np.nan)
    return tuple(ends)
