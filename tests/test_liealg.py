import itertools

import numpy as np
import pytest

from hamforge.liealg import find_c_subspace, find_lie_algebra
from hamforge.opcore import pauli_op, pauli_string_op, project
from _oracles import commutator


def su2_gens():
    return [pauli_op([(1, "x")], 1.0, 1), pauli_op([(1, "y")], 1.0, 1)]


def test_su2_closure_dimension():
    g = find_lie_algebra(su2_gens())
    assert g.dim == 3
    assert g.generator_count == 2


def test_generators_on_different_qubit_counts_raise():
    with pytest.raises(ValueError, match="different qubit counts"):
        find_lie_algebra([*su2_gens(), pauli_op([(1, "x")], 1.0, 2)])


def test_c_subspace_rejects_a_non_hermitian_or_misfit_perturbation():
    g = find_lie_algebra(su2_gens())
    with pytest.raises(ValueError, match="H_pert must be Hermitian"):
        find_c_subspace(g, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        find_c_subspace(g, pauli_op([(1, "z"), (2, "z")], 1.0, 2))


def test_abelian_single_generator():
    g = find_lie_algebra([pauli_op([(1, "z")], 1.0, 1)])
    assert g.dim == 1


def test_two_qubit_universal():
    gens = [
        pauli_op([(1, "x")], 1.0, 2),
        pauli_op([(1, "y")], 1.0, 2),
        pauli_op([(2, "x")], 1.0, 2),
        pauli_op([(2, "y")], 1.0, 2),
        pauli_string_op(
            [(1.0, [(1, "x"), (2, "x")]), (1.0, [(1, "y"), (2, "y")]), (1.0, [(1, "z"), (2, "z")])],
            2,
        ),
    ]
    g = find_lie_algebra(gens)
    assert g.dim == 15


def test_closure_property():
    g = find_lie_algebra(su2_gens())
    for a, b in itertools.product(g.stack, repeat=2):
        c = commutator(a, b)
        if np.linalg.norm(c) < 1e-12:
            continue
        _, resid = project(c, g.stack)
        assert resid <= 1e-7, resid


def test_monotone_in_generators():
    g1 = find_lie_algebra([pauli_op([(1, "x")], 1.0, 1)])
    g2 = find_lie_algebra(su2_gens())
    assert g2.dim >= g1.dim


def test_order_independence():
    gens = [
        pauli_op([(1, "x")], 1.0, 2),
        pauli_op([(2, "y")], 1.0, 2),
        pauli_op([(1, "z"), (2, "z")], 1.0, 2),
    ]
    g1 = find_lie_algebra(gens)
    g2 = find_lie_algebra(gens[::-1])
    assert g1.dim == g2.dim
    _, resid = project(g1.stack, g2.stack)
    assert resid.max() <= 1e-7, resid


def test_c_subspace_single_qubit():
    g = find_lie_algebra(su2_gens())
    c = find_c_subspace(g, pauli_op([(1, "z")], 1.0, 1))
    assert c.dim == 3
    # first basis element parallel to the seed
    v, _ = project(pauli_op([(1, "z")], 1.0, 1), c.stack)
    assert abs(abs(v[0]) - np.linalg.norm(v)) < 1e-9


def test_c_subspace_invariance():
    g = find_lie_algebra(su2_gens())
    c = find_c_subspace(g, pauli_op([(1, "z")], 1.0, 1))
    for e in g.stack:
        for b in c.stack:
            _, resid = project(commutator(e, b), c.stack)
            assert resid <= 1e-7 or np.linalg.norm(commutator(e, b)) < 1e-12, resid


def test_c_dim_bounded_by_closure_with_pert():
    gens = [pauli_op([(1, "x")], 1.0, 2), pauli_op([(2, "x")], 1.0, 2)]
    hp = pauli_op([(1, "z")], 1.0, 2)
    g = find_lie_algebra(gens)
    c = find_c_subspace(g, hp)
    g_ext = find_lie_algebra(gens + [hp])
    assert c.dim <= g_ext.dim


def test_contains_reports_residual():
    g = find_lie_algebra([pauli_op([(1, "z")], 1.0, 1)])
    sx = pauli_op([(1, "x")], 1.0, 1)
    _, resid = project(sx, g.stack)
    assert resid == pytest.approx(1.0)     # all of sx lies outside
    _, resid = project(pauli_op([(1, "z")], 1.0, 1) * 1j, g.stack)
    assert resid <= 1e-7


def test_multi_seed_subspace():
    g = find_lie_algebra([pauli_op([(1, "z")], 1.0, 1)])  # abelian
    c = find_c_subspace(
        g,
        pauli_op([(1, "x")], 1.0, 1),
        extra_seeds=(pauli_op([(1, "y")], 1.0, 1),),
    )
    assert c.dim == 2


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        find_lie_algebra([])


def _is_orthonormal(stack):
    return np.abs(np.einsum("aij,bij->ab", stack.conj(), stack) - np.eye(len(stack))).max() <= 1e-13


def test_dependent_seeds_are_dropped():
    sx, sy, sz = (pauli_op([(1, ax)], 1.0, 1) for ax in "xyz")
    assert find_lie_algebra([sz, 2 * sz, -sz]).dim == 1
    g = find_lie_algebra([sz])
    c = find_c_subspace(g, sx + sy, extra_seeds=(2 * (sx + sy), sx, sy))
    assert c.dim == 2 and _is_orthonormal(c.stack)


def test_first_element_is_the_normalised_perturbation():
    rng = np.random.default_rng(7)
    gens = [pauli_op([(1, "x")], 1.0, 2), pauli_op([(1, "z"), (2, "z")], 1.0, 2)]
    g = find_lie_algebra(gens)
    for _ in range(3):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a + a.conj().T
        c = find_c_subspace(g, h)
        assert _is_orthonormal(c.stack) and _is_orthonormal(g.stack)
        assert np.abs(c.stack[0] - h / np.linalg.norm(h)).max() <= 1e-15


def test_zero_perturbation_is_rejected():
    g = find_lie_algebra(su2_gens())
    with pytest.raises(ValueError, match="nonempty"):
        find_c_subspace(g, np.zeros((2, 2)))
