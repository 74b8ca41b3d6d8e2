"""Dense operator algebra for small qubit registers.

An operator on an n-qubit register is a plain complex (d, d) ndarray,
d = 2**n.  An orthonormal operator basis is a read-only (m, d, d) stack,
orthonormal under the Hilbert-Schmidt inner product
<<A|B>> = Tr(B A^dag).  The module provides Pauli-string operators,
Gram-Schmidt orthonormalization into such a stack, and the one projection
of operators onto a stack, which gives the vector representation

    |H>>_i   = <<h_i|H>>

together with the relative residual of H outside the span.  Coefficients
are complex; they are real when the basis and the operand share
(anti-)Hermitian type, and the real subspaces used downstream take their
real part.

Everything here is a pure function and is safe to call from concurrent
workers.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# Global tolerances (Hilbert-Schmidt units).
ORTHO_TOL = 1e-9     # basis orthonormality
SPAN_TOL = 1e-8      # span membership: relative residual of `project`
DEP_TOL = 1e-12      # Gram-Schmidt: relative norm below which an input is dependent

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class SubspaceError(ValueError):
    """Operator falls outside the span of a basis beyond tolerance."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def pauli_op(
    terms: Sequence[tuple[int, str]], coefficient: complex, n_qubits: int
) -> np.ndarray:
    """coefficient times a tensor product of Pauli factors.

    ``terms`` lists (qubit_index, axis) with 1-based qubit indices and
    axis in {'x','y','z'}; unlisted sites carry the identity.
    """
    seen = set()
    for q, ax in terms:
        if not 1 <= q <= n_qubits:
            raise ValueError(f"qubit index {q} out of range 1..{n_qubits}")
        if q in seen:
            raise ValueError(f"duplicate qubit index {q}")
        if ax not in ("x", "y", "z"):
            raise ValueError(f"unknown Pauli axis {ax!r}")
        seen.add(q)
    factors = {q: _PAULI[ax] for q, ax in terms}
    m = np.array([[1.0 + 0.0j]])
    for q in range(1, n_qubits + 1):
        m = np.kron(m, factors.get(q, _PAULI["i"]))
    return coefficient * m


def pauli_string_op(strings, n_qubits: int) -> np.ndarray:
    """Sum of weighted Pauli strings: strings = [(factor, [(q, ax), ...]), ...]."""
    m = np.zeros((2 ** n_qubits,) * 2, dtype=complex)
    for factor, term in strings:
        m += pauli_op(term, factor, n_qubits)
    return m


def gram_schmidt(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormalize a list of (d, d) matrices, dropping dependent ones,
    into a read-only (m, d, d) stack in input order.

    Vectors whose post-projection norm falls below DEP_TOL times the
    largest input norm are discarded.  Modified Gram-Schmidt with one
    re-orthogonalization pass.
    """
    if not len(mats):
        raise ValueError("empty input")
    mats = [np.asarray(m, dtype=complex) for m in mats]
    scale = max(np.linalg.norm(m) for m in mats)
    if scale == 0.0:
        raise ValueError("all inputs numerically zero")
    kept: list[np.ndarray] = []
    for m in mats:
        v = m.copy()
        for _ in range(2):  # re-orthogonalize for numerical safety
            for u in kept:
                v -= np.sum(u.conj() * v) * u
        nv = np.linalg.norm(v)
        if nv > DEP_TOL * scale:
            kept.append(v / nv)
    if not kept:
        raise ValueError("all inputs numerically zero after projection")
    return _as_readonly(np.stack(kept))


def project(m: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_a = <<h_a|m>> of m in the orthonormal stack, and the
    relative residual ||m - sum_a c_a h_a|| / ||m|| (0 for m = 0).

    ``m`` may carry leading batch axes (..., d, d); the coefficients are
    then (..., k) and the residual has shape (...).
    """
    m = np.asarray(m)
    c = np.einsum("aij,...ij->...a", stack.conj(), m)
    resid = np.linalg.norm(m - np.einsum("...a,aij->...ij", c, stack), axis=(-2, -1))
    return c, resid / np.maximum(np.linalg.norm(m, axis=(-2, -1)), 1e-300)


@lru_cache(maxsize=64)
def _einsum_path(subscripts: str, shapes: tuple) -> tuple:
    operands = [np.broadcast_to(0.0, s) for s in shapes]
    return tuple(np.einsum_path(subscripts, *operands, optimize="greedy")[0])


def einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """np.einsum along the greedy contraction path, searched once per
    (subscripts, operand shapes) rather than on every call."""
    path = _einsum_path(subscripts, tuple(np.shape(o) for o in operands))
    return np.einsum(subscripts, *operands, optimize=path)
