"""Controllability machinery: Lie closure and minimal toggling subspaces.

`find_lie_algebra` computes an orthonormal basis of the smallest real Lie
algebra containing i*{generators}; `find_c_subspace` computes the minimal
real operator subspace containing every nested commutator of algebra
elements with a perturbation, which is also the span swept out by
conjugating the perturbation with the generated group.  Both hold their
basis as an orthonormal, read-only (m, d, d) stack.

The closure grows one `opcore.RowSpace`: a candidate is kept when its
unit vector leaves more than `opcore.INDEP_TOL` off the span of the rows
kept so far, and the rows themselves, already orthonormal and in the
order the elements were kept, are the returned basis.  So the first
element of a C-subspace is parallel to H_pert, its first seed.

A closure stops when a round adds nothing or its span fills the space
that holds it, so it never brackets a complete span only to reject every
result; its rows are those of a closure run until a round adds nothing.
Commutators are traceless, so a closure of traceless seeds lies in su(d),
of dimension d^2 - 1, and any other in the d^2 Hermitian matrices.  On the
full algebra a C-subspace of traceless seeds always fills su(d): su(d) is
simple, so its adjoint representation is irreducible (J. E. Humphreys,
Introduction to Lie Algebras and Representation Theory, Springer GTM 9,
1972, secs. 19-20).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .opcore import ORTHO_TOL, RowSpace


class _Basis:
    """An orthonormal (m, d, d) stack, checked once at construction."""

    stack: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.stack, dtype=complex)
        s.setflags(write=False)
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


def _closure(seeds, partners, bracket, cap: int):
    """Round-based closure of the independent seeds under bracket(b, p)
    with every partner p.

    Each round brackets the newest elements b with the partners only,
    appending independent results, and stops once a round adds nothing or
    the span reaches ``cap``.  Returns (the orthonormal basis of the span,
    (m, d, d) in the order its elements were kept, rounds performed).
    """
    rows = RowSpace(seeds[0].size, cap)
    current = [m for m in seeds if rows.try_add(m)]
    depth = 0
    while current and len(rows.q) < cap:
        new: list[np.ndarray] = []
        for b, p in itertools.product(current, partners):
            if len(rows.q) == cap:
                break
            c = bracket(b, p)
            if rows.try_add(c):
                new.append(c)
        current = new
        depth += 1
    return rows.q.reshape(-1, *seeds[0].shape).copy(), depth


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
    basis, depth = _closure(seeds, seeds, lambda h, g: h @ g - g @ h, d * d - 1)
    return LieAlgebraBasis(basis, generator_count=len(generators), closure_depth=depth)


def find_c_subspace(
    g: LieAlgebraBasis,
    h_pert: np.ndarray,
    extra_seeds: tuple[np.ndarray, ...] = (),
) -> CSubspace:
    """Orthonormal basis of span{ [g_1, ... [g_L, H_pert] ...], L >= 0 }.

    The first returned element is parallel to H_pert (the row space keeps
    the seed direction); seeds that are all zero leave an empty stack,
    which raises ValueError.  ``extra_seeds`` extends the computation to a
    time-dependent perturbation: the subspace then contains the span of
    all listed operators and their nested commutators.  Seeds whose identity
    parts are at most ORTHO_TOL of their norms, far below INDEP_TOL, close in
    su(d) and stop at dimension d^2 - 1 (see the module docstring).
    """
    h_pert = np.asarray(h_pert)
    scale = max(np.abs(h_pert).max(), 1e-300)
    if np.abs(h_pert - h_pert.conj().T).max() >= 1e-8 * scale:
        raise ValueError("H_pert must be Hermitian")
    d = h_pert.shape[0]
    if g.stack.shape[-1] != d:
        raise ValueError("algebra and perturbation dimension mismatch")
    seeds = [h_pert, *(np.asarray(s) for s in extra_seeds)]
    traceless = all(abs(np.trace(s)) <= ORTHO_TOL * np.sqrt(d) * np.linalg.norm(s) for s in seeds)
    cap = d * d - 1 if traceless else d * d
    basis, _ = _closure(seeds, g.stack, lambda b, e: e @ b - b @ e, cap)
    return CSubspace(basis)
