"""Dense operator algebra for small qubit registers.

Operators are immutable wrappers around dense complex matrices on an
n-qubit Hilbert space (dim = 2**n).  The module provides Pauli-string
operators, orthonormal operator bases under the Hilbert-Schmidt geometry
<<A|B>> = Tr(B A^dag), and the vector representation of an operator
relative to such a basis:

    |H>>_i   = <<h_i|H>>

Coefficient vectors are returned real whenever the basis and the operand
share (anti-)Hermitian type, since those inner products are guaranteed
real; the subspaces used downstream are real vector spaces.

Everything here is a pure function over immutable values and is safe to
call from concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Global tolerance defaults (Hilbert-Schmidt units).
ORTHO_TOL = 1e-9     # basis orthonormality
SPAN_TOL = 1e-8      # span membership / reconstruction residual
HERM_TOL = 1e-10     # hermiticity, relative to max |entry|

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


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix on an n-qubit Hilbert space."""

    entries: np.ndarray
    n_qubits: int
    hermitian_hint: bool | None = None

    def __post_init__(self):
        m = _as_readonly(self.entries)
        object.__setattr__(self, "entries", m)
        d = 2 ** self.n_qubits
        if self.n_qubits < 1 or m.shape != (d, d):
            raise ValueError(
                f"entries shape {m.shape} does not match n_qubits={self.n_qubits}"
            )
        if self.hermitian_hint:
            scale = max(np.abs(m).max(), 1e-300)
            if np.abs(m - m.conj().T).max() >= HERM_TOL * scale:
                raise ValueError("hermitian_hint set but matrix is not Hermitian")

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    @staticmethod
    def from_matrix(m: np.ndarray, hermitian_hint: bool | None = None) -> "Operator":
        m = np.asarray(m, dtype=complex)
        n = int(round(np.log2(m.shape[0])))
        return Operator(m, n, hermitian_hint)

    def dagger(self) -> "Operator":
        return Operator(self.entries.conj().T, self.n_qubits, self.hermitian_hint)

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        m = self.entries
        scale = max(np.abs(m).max(), 1e-300)
        return bool(np.abs(m - m.conj().T).max() < tol * scale)

    def norm(self) -> float:
        """Hilbert-Schmidt (Frobenius) norm."""
        return float(np.linalg.norm(self.entries))

    # -- small value-type algebra used by the higher layers and tests --

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same(other)
        return Operator(self.entries + other.entries, self.n_qubits)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same(other)
        return Operator(self.entries - other.entries, self.n_qubits)

    def __mul__(self, c: complex) -> "Operator":
        return Operator(self.entries * c, self.n_qubits)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.entries, self.n_qubits)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same(other)
        return Operator(self.entries @ other.entries, self.n_qubits)

    def _check_same(self, other: "Operator"):
        if self.n_qubits != other.n_qubits:
            raise ValueError("operator dimension mismatch")


def pauli_op(
    terms: Sequence[tuple[int, str]], coefficient: complex, n_qubits: int
) -> Operator:
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
    herm = bool(np.isreal(coefficient)) and np.imag(coefficient) == 0
    return Operator(coefficient * m, n_qubits, hermitian_hint=herm or None)


def pauli_string_op(strings, n_qubits: int) -> Operator:
    """Sum of weighted Pauli strings: strings = [(factor, [(q, ax), ...]), ...]."""
    m = np.zeros((2 ** n_qubits,) * 2, dtype=complex)
    for factor, term in strings:
        m += pauli_op(term, factor, n_qubits).entries
    return Operator(m, n_qubits)


@dataclass(frozen=True)
class OperatorBasis:
    """Ordered, Hilbert-Schmidt-orthonormal list of operators."""

    elements: tuple[Operator, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("empty basis")
        n = self.elements[0].n_qubits
        if any(e.n_qubits != n for e in self.elements):
            raise ValueError("basis elements on different qubit counts")
        g = self.gram()
        if np.abs(g - np.eye(len(self.elements))).max() >= ORTHO_TOL:
            raise ValueError("basis is not orthonormal within tolerance")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def n_qubits(self) -> int:
        return self.elements[0].n_qubits

    @property
    def dim(self) -> int:
        return len(self.elements)

    def stack(self) -> np.ndarray:
        """(m, d, d) array of the basis matrices."""
        return np.stack([e.entries for e in self.elements])

    def gram(self) -> np.ndarray:
        s = self.stack()
        return np.einsum("aij,bij->ab", s.conj(), s)

    def all_hermitian(self) -> bool:
        return all(e.is_hermitian(1e-8) for e in self.elements)

    def all_antihermitian(self) -> bool:
        return all(
            np.abs(e.entries + e.entries.conj().T).max()
            < 1e-8 * max(np.abs(e.entries).max(), 1e-300)
            for e in self.elements
        )


def gram_schmidt(ops: Sequence[Operator], tol: float = 1e-10, label: str = "") -> OperatorBasis:
    """Orthonormalize a list of operators, dropping dependent ones.

    Vectors whose post-projection norm falls below ``tol`` times the
    largest input norm are discarded.  Modified Gram-Schmidt with one
    re-orthogonalization pass.
    """
    if not ops:
        raise ValueError("empty input")
    n = ops[0].n_qubits
    mats = [np.asarray(o.entries, dtype=complex) for o in ops]
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
        if nv > tol * scale:
            kept.append(v / nv)
    if not kept:
        raise ValueError("all inputs numerically zero after projection")
    return OperatorBasis(tuple(Operator(v, n) for v in kept), label=label)


def _project_coeffs(m: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Raw coefficients <<h_i|m>> for an orthonormal stack, no span check."""
    return np.einsum("aij,ij->a", stack.conj(), m)


def vectorize(h: Operator, basis: OperatorBasis, tol: float = SPAN_TOL) -> np.ndarray:
    """Coefficient vector |h>> in ``basis``; errors if h leaves the span.

    Returns a real array when the inner products are real to within the
    reconstruction tolerance (Hermitian operand on a Hermitian basis, or
    anti-Hermitian on anti-Hermitian), complex otherwise.
    """
    stack = basis.stack()
    c = _project_coeffs(h.entries, stack)
    recon = np.tensordot(c, stack, axes=(0, 0))
    nh = max(np.linalg.norm(h.entries), 1e-300)
    resid = np.linalg.norm(h.entries - recon)
    if resid > tol * nh:
        raise SubspaceError(
            f"operator outside subspace: residual {resid:.3e} > {tol:.1e} * {nh:.3e}"
        )
    if np.abs(c.imag).max() <= tol * max(np.abs(c).max(), 1e-300):
        return c.real.copy()
    return c
