"""Controllability machinery: Lie closure and minimal toggling subspaces.

`find_lie_algebra` computes an orthonormal basis of the smallest real Lie
algebra containing i*{generators}; `find_c_subspace` computes the minimal
real operator subspace containing every nested commutator of algebra
elements with a perturbation, which is also the span swept out by
conjugating the perturbation with the generated group.  Both hold their
basis as an orthonormal, read-only (m, d, d) stack.

Linear independence is decided by the rank of the stacked vectorized
operators, maintained incrementally: a candidate is independent when its
residual after projecting onto the orthonormalized row space exceeds the
singular-value threshold max(dims) * eps_machine * sigma_max (here
sigma_max = 1 because rows are unit-normalized).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opcore import ORTHO_TOL, _as_readonly, gram_schmidt

_EPS = np.finfo(float).eps
INDEP_TOL = 1e-7     # a unit candidate is new above this residual off the span


class _Basis:
    """An orthonormal (m, d, d) stack, checked once at construction."""

    stack: np.ndarray

    def __post_init__(self):
        s = _as_readonly(self.stack)
        if s.ndim != 3 or not len(s) or s.shape[1] != s.shape[2]:
            raise ValueError(f"a basis is a nonempty (m, d, d) stack, got shape {s.shape}")
        if np.abs(np.einsum("aij,bij->ab", s.conj(), s) - np.eye(len(s))).max() >= ORTHO_TOL:
            raise ValueError("basis is not orthonormal within tolerance")
        object.__setattr__(self, "stack", s)

    @property
    def dim(self) -> int:
        return len(self.stack)

    @property
    def n_qubits(self) -> int:
        return self.stack.shape[-1].bit_length() - 1


@dataclass(frozen=True, eq=False)
class LieAlgebraBasis(_Basis):
    stack: np.ndarray              # anti-Hermitian elements
    generator_count: int
    closure_depth: int             # nesting rounds performed


@dataclass(frozen=True, eq=False)
class CSubspace(_Basis):
    stack: np.ndarray              # Hermitian elements


class _RowSpace:
    """Incrementally orthonormalized span of vectorized operators."""

    def __init__(self, length: int):
        self.q = np.zeros((0, length), dtype=complex)
        # INDEP_TOL, or the rank threshold at sigma_max = 1 if that is larger
        self.thresh = max(INDEP_TOL, length * _EPS)

    def try_add(self, m: np.ndarray) -> bool:
        """Add the operator if independent; return whether it was added."""
        v = m.ravel().astype(complex)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return False
        v = v / nv
        for _ in range(2):
            if len(self.q):
                v = v - self.q.conj() @ v @ self.q
        r = np.linalg.norm(v)
        if r <= self.thresh:
            return False
        self.q = np.vstack([self.q, v / r])
        return True


def _closure(seeds, partners, bracket, cap: int):
    """Round-based closure of the independent seeds under bracket(b, p)
    with every partner p.

    Each round brackets the newest elements b with the partners only,
    appending independent results, and stops once a round adds nothing or
    the span reaches ``cap``.  Returns (elements, rounds performed).
    """
    rows = _RowSpace(seeds[0].size)
    elements = [m for m in seeds if rows.try_add(m)]
    current = list(elements)
    depth = 0
    while current and len(elements) < cap:
        new: list[np.ndarray] = []
        for b in current:
            for p in partners:
                c = bracket(b, p)
                if rows.try_add(c):
                    new.append(c)
                    if len(elements) + len(new) >= cap:
                        break
            else:
                continue
            break
        elements.extend(new)
        current = new
        depth += 1
    return elements, depth


def _traceless(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    return m - (np.trace(m) / d) * np.eye(d)


def find_lie_algebra(generators) -> LieAlgebraBasis:
    """Orthonormal basis of the real Lie algebra generated by i*{H_i}.

    Every round commutes the newest elements with the seed set, up to the
    2^{2N}-1 dimension cap.  Identity components of the generators are
    stripped first; they commute with everything and act on states only
    as a global phase.
    """
    generators = [np.asarray(g) for g in generators]
    if not generators:
        raise ValueError("empty generator list")
    d = generators[0].shape[0]
    if any(g.shape != (d, d) for g in generators):
        raise ValueError("generators on different qubit counts")
    seeds = [1j * _traceless(g) for g in generators]
    elements, depth = _closure(seeds, seeds, lambda h, g: h @ g - g @ h, d * d - 1)
    return LieAlgebraBasis(
        gram_schmidt(elements), generator_count=len(generators), closure_depth=depth
    )


def find_c_subspace(
    g: LieAlgebraBasis,
    h_pert: np.ndarray,
    extra_seeds: tuple[np.ndarray, ...] = (),
) -> CSubspace:
    """Orthonormal basis of span{ [g_1, ... [g_L, H_pert] ...], L >= 0 }.

    The first returned element is parallel to H_pert (Gram-Schmidt keeps
    the seed direction).  ``extra_seeds`` extends the computation to a
    time-dependent perturbation: the subspace then contains the span of
    all listed operators and their nested commutators.
    """
    h_pert = np.asarray(h_pert)
    scale = max(np.abs(h_pert).max(), 1e-300)
    if np.abs(h_pert - h_pert.conj().T).max() >= 1e-8 * scale:
        raise ValueError("H_pert must be Hermitian")
    d = h_pert.shape[0]
    if g.stack.shape[-1] != d:
        raise ValueError("algebra and perturbation dimension mismatch")
    seeds = [h_pert, *(np.asarray(s) for s in extra_seeds)]
    elements, _ = _closure(seeds, g.stack, lambda b, e: e @ b - b @ e, d * d)
    return CSubspace(gram_schmidt(elements))
