"""Reference implementations that the tests compare the library against.

Each one reaches a library result by a different route: operator
algebra column by column, adjoint matrices (Q, m, m) whose eigh the
library's spectral frame replaces, toggle matrices by conjugation with
the step unitaries, C-integrals by a sequential per-step fold with the general
divided-difference kernel, and exact propagators by one scipy `expm`
per step and an ordered product.  No command of the tool runs them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from hamforge import toggling as tg
from hamforge.controlsys import axis_operators, field_axes
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
    """exp(-i h t) for Hermitian h, via eigendecomposition."""
    if np.abs(h - h.conj().T).max() >= 1e-10 * max(np.abs(h).max(), 1e-300):
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


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
    u = tg.expm_batch(steps.h_pri, steps.delta_t)
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


def toggle_matrices(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """D(U_q^dag) for every step unitary U_q, real orthogonal in a
    Hermitian basis, by conjugating each basis element."""
    conj = np.einsum("qji,ajk,qkl->qail", u.conj(), stack, u)  # U^dag h_a U
    return tg._real(np.einsum("bij,qaij->qba", stack.conj(), conj))


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
    return tg._real(eig.v @ (tg._int1_plus(eig.nu, dt) * eig.y))


def nested_exp_integral(lambdas, t: float) -> complex:
    """I(l_1..l_r) = int_0^T dt1..int_0^{t_{r-1}} dt_r e^{-i l_1 t1}..e^{-i l_r tr}
    for r in {1, 2, 3}, by the general divided-difference kernel of `toggling`."""
    kernel = (tg._int1_plus, tg._int2_plus, tg._int3_plus)[len(lambdas) - 1]
    return complex(kernel(*(np.array([-float(x)]) for x in lambdas), t)[0])


def step_cints_raw(eig: StepEigen, dt: float, r_max: int):
    """(c0, c1, c2) tensors of one constant step, real arrays."""
    nu, v, y = eig.nu, eig.v, eig.y
    c0 = _step_c0(eig, dt)
    c1 = c2 = None
    if r_max >= 2:
        i2 = tg._int2_plus(nu[:, None], nu[None, :], dt)
        c1 = tg._real(v @ (i2 * y[:, None] * y[None, :]) @ v.T)
    if r_max >= 3:
        i3 = tg._int3_plus(nu[:, None, None], nu[None, :, None], nu[None, None, :], dt)
        t3 = i3 * y[:, None, None] * y[None, :, None] * y[None, None, :]
        c2 = tg._real(np.einsum("ia,jb,kc,abc->ijk", v, v, v, t3, optimize=True))
    return c0, c1, c2


def step_cross_raw(eig_pert: StepEigen, eig_err: StepEigen, dt: float):
    """Single-step cross tensor: perturbation at the later time slot."""
    i2 = tg._int2_plus(eig_pert.nu[:, None], eig_err.nu[None, :], dt)
    t2 = i2 * eig_pert.y[:, None] * eig_err.y[None, :]
    return tg._real(eig_pert.v @ t2 @ eig_err.v.T)


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
    ops = axis_operators(field_axes(seq.channels), setup.n_qubits)
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
