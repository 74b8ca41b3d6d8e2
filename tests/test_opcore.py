import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamforge import opcore
from hamforge.liealg import CSubspace
from hamforge.opcore import SubspaceError, gram_schmidt, pauli_op, project
from _oracles import (
    commutator,
    expm_herm_generator,
    hs_inner,
    reconstruct,
    rep_ad,
    rep_unitary,
    vector,
)
from conftest import random_hermitian


def test_pauli_op_identity():
    op = pauli_op([], 1.0, 1)
    assert np.allclose(op, np.eye(2))


def test_pauli_op_zz():
    op = pauli_op([(1, "z"), (2, "z")], 1.0, 2)
    assert np.allclose(op, np.diag([1, -1, -1, 1]))


def test_pauli_op_single_site_scaled():
    # 0.5 * (1 (x) sigma_x), Kronecker product by hand
    sx = np.array([[0, 1], [1, 0]])
    expect = 0.5 * np.kron(np.eye(2), sx)
    op = pauli_op([(2, "x")], 0.5, 2)
    assert np.allclose(op, expect)


def test_pauli_op_errors():
    with pytest.raises(ValueError, match="duplicate"):
        pauli_op([(1, "x"), (1, "y")], 1.0, 2)
    with pytest.raises(ValueError, match="out of range"):
        pauli_op([(3, "x")], 1.0, 2)


def test_hs_inner_values(paulis1):
    assert hs_inner(paulis1["x"], paulis1["x"]) == pytest.approx(2)
    assert hs_inner(paulis1["x"], paulis1["y"]) == pytest.approx(0)
    n = paulis1["x"] * (1 / np.sqrt(2))
    assert hs_inner(n, n) == pytest.approx(1)


def test_hs_inner_conjugate_symmetry():
    rng = np.random.default_rng(0)
    a, b = random_hermitian(rng), random_hermitian(rng)
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
    assert abs(np.imag(hs_inner(a, b))) < 1e-10


def test_commutator_su2(paulis1):
    c = commutator(paulis1["x"], paulis1["y"])
    assert np.allclose(c, 2j * paulis1["z"])
    assert np.allclose(commutator(paulis1["z"], paulis1["z"]), 0)


def test_commutator_two_qubit():
    a = pauli_op([(1, "z")], 1.0, 2)
    b = pauli_op([(1, "x"), (2, "x")], 1.0, 2)
    expect = 2j * pauli_op([(1, "y"), (2, "x")], 1.0, 2)
    assert np.allclose(commutator(a, b), expect)


def test_gram_schmidt_drops_dependent(paulis1):
    basis = gram_schmidt([paulis1["x"], paulis1["x"] * 2, paulis1["y"]])
    assert len(basis) == 2


def test_gram_schmidt_orthonormal(paulis1):
    basis = gram_schmidt([paulis1["x"] + paulis1["y"], paulis1["x"]])
    assert len(basis) == 2
    assert np.abs(np.einsum("aij,bij->ab", basis.conj(), basis) - np.eye(2)).max() < 1e-9


def test_gram_schmidt_zero_input():
    with pytest.raises(ValueError):
        gram_schmidt([np.zeros((2, 2))])


def test_expm_basic(paulis1):
    u = expm_herm_generator(paulis1["x"], np.pi / 2)
    assert np.allclose(u, -1j * paulis1["x"], atol=1e-12)
    u0 = expm_herm_generator(paulis1["y"], 0.0)
    assert np.allclose(u0, np.eye(2))
    uz = expm_herm_generator(paulis1["z"], np.pi / 4)
    assert np.allclose(uz, np.diag(np.exp([-1j * np.pi / 4, 1j * np.pi / 4])))


def test_expm_rejects_nonhermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        expm_herm_generator(m, 1.0)


@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_expm_group_property(s, t, seed):
    h = random_hermitian(np.random.default_rng(seed))
    us = expm_herm_generator(h, s)
    ut = expm_herm_generator(h, t)
    ust = expm_herm_generator(h, s + t)
    assert np.abs((us @ ut) - ust).max() < 1e-9


def norm_pauli_basis(paulis1):
    return np.stack([paulis1[k] / np.sqrt(2) for k in "xyz"])


def test_vectorize_values(paulis1):
    b = norm_pauli_basis(paulis1)
    c, resid = project(paulis1["z"], b)
    assert np.allclose(c, [0, 0, np.sqrt(2)]) and resid < 1e-15
    c, _ = project(b[0], b)
    assert np.allclose(c, [1, 0, 0])
    c, _ = project(paulis1["x"] + paulis1["y"], b)
    assert np.allclose(c, [np.sqrt(2), np.sqrt(2), 0])
    # leading batch axes
    c, resid = project(np.stack([[paulis1["z"]], [paulis1["x"]]]), b)
    assert c.shape == (2, 1, 3) and resid.shape == (2, 1)
    assert np.allclose(c[:, 0], [[0, 0, np.sqrt(2)], [np.sqrt(2), 0, 0]])


def test_vectorize_outside_span(paulis1):
    b = paulis1["z"][None] / np.sqrt(2)
    _, resid = project(paulis1["x"] + paulis1["z"], b)
    assert resid == pytest.approx(np.sqrt(0.5))
    _, resid = project(np.zeros((2, 2)), b)
    assert resid == 0.0
    with pytest.raises(SubspaceError):
        vector(paulis1["x"], b)


def test_vectorize_projection_idempotent(paulis1):
    rng = np.random.default_rng(3)
    b = norm_pauli_basis(paulis1)
    h = random_hermitian(rng)
    h = h - np.eye(2) * (np.trace(h) / 2)
    c1 = vector(h, b)
    c2 = vector(reconstruct(c1, b), b)
    assert np.abs(c1 - c2).max() < 1e-10


def test_rep_unitary_identity(paulis1):
    b = norm_pauli_basis(paulis1)
    d = rep_unitary(np.eye(2), b)
    assert np.allclose(d, np.eye(3))


def test_rep_unitary_z_rotation(paulis1):
    # exp(-i sz pi/4) rotates x -> y in the adjoint representation
    b = norm_pauli_basis(paulis1)
    u = expm_herm_generator(paulis1["z"], np.pi / 4)
    d = rep_unitary(u, b)
    # conjugating each basis element explicitly
    for j, h in enumerate(b):
        m = u @ h @ u.conj().T
        col = [np.sum(hi.conj() * m) for hi in b]
        assert np.abs(d[:, j] - np.real(col)).max() < 1e-10
    assert np.abs(d @ d.T - np.eye(3)).max() < 1e-8


def test_rep_unitary_homomorphism(paulis1):
    rng = np.random.default_rng(5)
    b = norm_pauli_basis(paulis1)
    u1 = expm_herm_generator(random_hermitian(rng), 1.0)
    u2 = expm_herm_generator(random_hermitian(rng), 1.0)
    lhs = rep_unitary(u1 @ u2, b)
    rhs = rep_unitary(u1, b) @ rep_unitary(u2, b)
    assert np.abs(lhs - rhs).max() < 1e-8


def test_rep_ad_zero(paulis1):
    b = norm_pauli_basis(paulis1)
    g = 0j * paulis1["z"]
    assert np.abs(rep_ad(g, b)).max() == 0


def test_rep_ad_exp_consistency(paulis1):
    from scipy.linalg import expm

    rng = np.random.default_rng(11)
    b = norm_pauli_basis(paulis1)
    for _ in range(5):
        h = random_hermitian(rng, scale=2.0)
        h = h - np.eye(2) * (np.trace(h) / 2)
        g = 1j * h  # anti-Hermitian, |g| <= ~5
        lhs = expm(rep_ad(g, b))
        rhs = rep_unitary(expm_herm_generator(h, -1.0), b)  # e^g = e^{-i(-h)}
        assert np.abs(lhs - rhs).max() < 1e-7


def test_basis_rejects_nonorthonormal(paulis1):
    with pytest.raises(ValueError, match="not orthonormal"):
        CSubspace(np.stack([paulis1["x"], paulis1["x"]]) / np.sqrt(2))
    with pytest.raises(ValueError, match="not orthonormal"):
        CSubspace(paulis1["x"][None] * (1 + 1e-8) / np.sqrt(2))
    CSubspace(paulis1["x"][None] / np.sqrt(2))


# the contractions of evaluate.ptm (one unitary and a Monte-Carlo stack, 2 qubits)
_CONTRACTIONS = [
    ("...ij,bjk,...lk->...bil", [(4, 4), (16, 4, 4), (4, 4)]),
    ("...ij,bjk,...lk->...bil", [(50, 4, 4), (16, 4, 4), (50, 4, 4)]),
    ("ail,...bli->...ab", [(16, 4, 4), (50, 16, 4, 4)]),
]


@pytest.mark.parametrize("subscripts, shapes", _CONTRACTIONS)
def test_einsum_runs_the_planned_path_bit_for_bit_without_path_work(monkeypatch, subscripts, shapes):
    from hamforge.opcore import einsum

    rng = np.random.default_rng(len(subscripts) + sum(map(len, shapes)))
    ops = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    path = np.einsum_path(subscripts, *ops, optimize="greedy")[0]
    want = np.einsum(subscripts, *ops, optimize=path)
    assert np.array_equal(einsum(subscripts, *ops), want)
    # a numpy without bmm_einsum: np.einsum along the planned path
    with monkeypatch.context() as m:
        m.setattr(opcore, "bmm_einsum", None)
        assert np.array_equal(einsum(subscripts, *ops), want)

    def no_path(*args, **kwargs):
        raise AssertionError("einsum_path called on a planned contraction")

    # planned once per subscripts and shapes: later calls search and check
    # no path, neither directly nor inside np.einsum
    monkeypatch.setattr(np, "einsum_path", no_path)
    monkeypatch.setattr(pytest.importorskip("numpy._core.einsumfunc"), "einsum_path", no_path)
    assert np.array_equal(einsum(subscripts, *ops), want)
