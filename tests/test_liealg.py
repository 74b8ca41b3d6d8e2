import itertools

import numpy as np
import pytest

from hamforge.liealg import contains, find_c_subspace, find_lie_algebra
from hamforge.opcore import Operator, pauli_op, pauli_string_op, vectorize
from _oracles import commutator


def su2_gens():
    return [pauli_op([(1, "x")], 1.0, 1), pauli_op([(1, "y")], 1.0, 1)]


def test_su2_closure_dimension():
    g = find_lie_algebra(su2_gens())
    assert g.dim == 3
    assert g.generator_count == 2


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
    for a, b in itertools.product(g.basis.elements, repeat=2):
        c = commutator(a, b)
        if np.linalg.norm(c.entries) < 1e-12:
            continue
        ok, resid = contains(g, c, 1e-7)
        assert ok, resid


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
    for e in g1.basis.elements:
        ok, resid = contains(g2, e, 1e-7)
        assert ok, resid


def test_c_subspace_single_qubit():
    g = find_lie_algebra(su2_gens())
    c = find_c_subspace(g, pauli_op([(1, "z")], 1.0, 1))
    assert c.dim == 3
    # first basis element parallel to the seed
    v = vectorize(pauli_op([(1, "z")], 1.0, 1), c.basis)
    assert abs(abs(v[0]) - np.linalg.norm(v)) < 1e-9


def test_c_subspace_invariance():
    g = find_lie_algebra(su2_gens())
    c = find_c_subspace(g, pauli_op([(1, "z")], 1.0, 1))
    for e in g.basis.elements:
        for b in c.basis.elements:
            ok, resid = contains(c, commutator(e, b), 1e-7)
            assert ok or np.linalg.norm(commutator(e, b).entries) < 1e-12, resid


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
    ok, resid = contains(g, sx, 1e-7)
    assert not ok
    assert resid == pytest.approx(np.linalg.norm(sx.entries))
    ok, _ = contains(g, pauli_op([(1, "z")], 1.0, 1) * 1j, 1e-7)
    assert ok


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
