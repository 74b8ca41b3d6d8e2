"""Dense operator algebra for small qubit registers.

An operator on an n-qubit register is a plain complex (d, d) ndarray,
d = 2**n.  An orthonormal operator basis is a read-only (m, d, d) stack,
orthonormal under the Hilbert-Schmidt inner product
<<A|B>> = Tr(B A^dag).  The module provides Pauli-string operators, the
one orthonormaliser (`RowSpace`), the one conjugation product
(`conjugation`) and the one projection of operators onto a stack, which
gives the vector representation

    |H>>_i   = <<h_i|H>>

together with the relative residual of H outside the span.  Coefficients
are complex; they are real when the basis and the operand share
(anti-)Hermitian type, and the real subspaces used downstream take their
real part.

Everything here is a pure function, or an object local to its caller,
and is safe to call from concurrent workers.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

# Global tolerances (Hilbert-Schmidt units).
ORTHO_TOL = 1e-9     # basis orthonormality
SPAN_TOL = 1e-8      # span membership: relative residual of `project`
INDEP_TOL = 1e-7     # RowSpace: a unit candidate is new above this residual off the span

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class SubspaceError(ValueError):
    """Operator falls outside the span of a basis beyond tolerance."""


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


class RowSpace:
    """Incrementally orthonormalized span of vectorized operators: `q`
    holds one orthonormal row per accepted input, in input order, so the
    first row is parallel to the first input.  Classical Gram-Schmidt
    applied twice keeps them orthonormal to working precision (Giraud,
    Langou & Rozloznik, Comput. Math. Appl. 50, 1069 (2005)).  The rows
    and their conjugates fill one preallocated (2, cap, length) array, so
    it holds at most ``cap`` rows; `q` is a view of the filled ones."""

    def __init__(self, length: int, cap: int):
        self._rows = np.zeros((2, cap, length), dtype=complex)
        self.q = self._rows[0, :0]

    def try_add(self, m: np.ndarray) -> bool:
        """Add the operator if independent; return whether it was added."""
        v = m.ravel().astype(complex)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return False
        v = v / nv
        n = len(self.q)
        for _ in range(2):
            if n:
                v = v - self._rows[1, :n] @ v @ self.q
        r = np.linalg.norm(v)
        if r <= INDEP_TOL:
            return False
        self._rows[0, n] = v / r
        self._rows[1, n] = self._rows[0, n].conj()
        self.q = self._rows[0, : n + 1]
        return True


def conjugation(u: np.ndarray) -> np.ndarray:
    """kron(U, conj U) of each (..., d, d) unitary: the (..., d^2, d^2)
    matrix of X -> U X U^dag on row-major vec(X) (Wood, Biamonte & Cory,
    QIC 15, 759 (2015))."""
    d = u.shape[-1]
    k = u[..., :, None, :, None] * u.conj()[..., None, :, None, :]
    return k.reshape(*u.shape[:-2], d * d, d * d)


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
