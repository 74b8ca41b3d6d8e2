import itertools

import numpy as np
import pytest

from hamforge import config, liealg
from hamforge.controlsys import field_operators
from hamforge.liealg import find_c_subspace, find_lie_algebra
from hamforge.opcore import RowSpace, pauli_op, pauli_string_op, project
from hamforge.reach import _walk_unitaries, haar_unitary
from _oracles import commutator
from conftest import DESIGN_FIXTURE, chain_problem


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


# ---------------------------------------------------------------------------
# the closure's cap: d^2 - 1 for traceless seeds, else d^2

def _z1_z2_zz():
    return (pauli_op(t, 1.0, 2) for t in ([(1, "z")], [(2, "z")], [(1, "z"), (2, "z")]))


def _local_gens():
    """x and y on each of two qubits: su(2) + su(2), dimension 6."""
    return [pauli_op([(q, ax)], 1.0, 2) for q in (1, 2) for ax in "xy"]


def _uncapped(g, seeds):
    d = g.stack.shape[-1]
    return liealg._closure(list(seeds), g.stack, lambda b, e: e @ b - b @ e, d * d)[0]


def _fixture_problems():
    if not DESIGN_FIXTURE.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    paths = sorted(DESIGN_FIXTURE.parent.glob("*.json"))
    assert len(paths) == 4
    return [*(config.load_config(str(p)) for p in paths), config.parse_config(chain_problem(3))]


def test_capped_c_subspaces_equal_the_uncapped_closure():
    # every perturbation and error subspace of the benchmark's problems and
    # the 3-qubit chain stops at d^2 - 1 with the rows of a closure that
    # runs until a round adds nothing
    for cfg in _fixture_problems():
        g = config.build_algebra(cfg)
        seed_sets = [[mat] for mat in cfg.pert.values()] + [field_operators(cfg.channels, cfg.n_qubits)]
        for seeds in seed_sets:
            c = find_c_subspace(g, seeds[0], extra_seeds=tuple(seeds[1:]))
            assert c.dim == g.dim == 4 ** cfg.n_qubits - 1
            assert np.array_equal(c.stack, _uncapped(g, seeds))


def test_a_proper_algebra_whose_c_subspace_is_all_of_su_d_stops_there_too():
    # the local algebra's adjoint action splits su(4) into 3 + 3 + 9, and
    # z1 + z2 + z1 z2 has a part in each
    z1, z2, zz = _z1_z2_zz()
    g = find_lie_algebra(_local_gens())
    c = find_c_subspace(g, z1 + z2 + zz)
    assert g.dim == 6 and c.dim == 15
    assert np.array_equal(c.stack, _uncapped(g, [z1 + z2 + zz]))


@pytest.mark.parametrize("algebra", ["full", "proper"])
def test_c_subspace_is_the_span_of_the_conjugated_perturbation(algebra):
    # an independent check: U^dag H_pert U for m + 10 unitaries of the
    # group, Haar on SU(4) or a random walk on the local group, lies in the
    # subspace, and spans a space of its dimension
    rng = np.random.default_rng(21)
    z1, z2, zz = _z1_z2_zz()
    if algebra == "full":
        g, h = find_lie_algebra([*_local_gens(), zz]), z1 + z2
    else:
        g, h = find_lie_algebra(_local_gens()), z1 + 0.5 * zz
    c = find_c_subspace(g, h)
    count = c.dim + 10
    us = haar_unitary(4, rng, count) if algebra == "full" else _walk_unitaries(g.stack, 20, 5, count, rng)
    conj = us.conj().swapaxes(-1, -2) @ h @ us
    _, resid = project(conj, c.stack)
    assert resid.max() <= 1e-12, resid.max()
    assert c.dim == np.linalg.matrix_rank(conj.reshape(count, -1)) == (15 if algebra == "full" else 12)


def test_a_seed_with_a_trace_part_spans_every_hermitian_matrix():
    # z1 + z2 + 0.3 I under su(4): the identity direction joins su(4)
    z1, z2, zz = _z1_z2_zz()
    g = find_lie_algebra([*_local_gens(), zz])
    c = find_c_subspace(g, z1 + z2 + 0.3 * np.eye(4))
    assert g.dim == 15 and c.dim == 16
    assert project(np.eye(4), c.stack)[1] <= 1e-12


def test_the_3_qubit_perturbation_closure_stops_at_its_last_admission(monkeypatch):
    # su(8): the 63rd row is the 209th candidate; closing on until a round
    # adds nothing tries 3,970
    cfg = config.parse_config(chain_problem(3))
    g = config.build_algebra(cfg)
    calls = []
    try_add = RowSpace.try_add
    monkeypatch.setattr(RowSpace, "try_add", lambda self, m: calls.append(1) or try_add(self, m))
    (h,) = cfg.pert.values()
    assert find_c_subspace(g, h).dim == 63
    assert len(calls) <= 250, len(calls)
