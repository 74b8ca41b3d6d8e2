import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hamforge import config, reach
from hamforge.liealg import find_c_subspace, find_lie_algebra
from hamforge.opcore import pauli_op, pauli_string_op
from hamforge.optimizer import restart_rng
import _oracles as orc
from conftest import DESIGN_FIXTURE, chain_problem


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 4, 8):
        u = reach.haar_unitary(dim, rng)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12


def test_haar_dim1_unit_modulus():
    rng = np.random.default_rng(1)
    u = reach.haar_unitary(1, rng)
    assert abs(abs(u[0, 0]) - 1) < 1e-14


def test_haar_second_moment():
    # E|U_11|^2 = 1/dim for the Haar measure
    rng = np.random.default_rng(2)
    n = 10_000
    vals = np.array([abs(reach.haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(n)])
    mean = vals.mean()
    se = vals.std() / np.sqrt(n)
    assert abs(mean - 0.5) < 3 * se + 1e-12


def test_haar_batch_matches_sequential_draws():
    for dim in (1, 2, 4):
        seq_rng, batch_rng = np.random.default_rng(20 + dim), np.random.default_rng(20 + dim)
        seq = np.stack([reach.haar_unitary(dim, seq_rng) for _ in range(37)])
        batch = reach.haar_unitary(dim, batch_rng, 37)
        assert batch.shape == (37, dim, dim)
        assert np.abs(batch - seq).max() <= 1e-15
        # both generators end at the same point of the stream
        assert seq_rng.standard_normal() == batch_rng.standard_normal()


def _completion_cases():
    rng = np.random.default_rng(31)
    for m in (1, 2, 3, 6, 15):
        for k in range(m):
            yield np.eye(m)[k]
            yield -np.eye(m)[k]
        for eps, axis in itertools.product((1e-4, 1e-8, 1e-12), (1.0, -1.0)):
            near = axis * np.eye(m)[0] + eps * rng.standard_normal(m)
            yield near / np.linalg.norm(near)
        for _ in range(5):
            t = rng.standard_normal(m)
            yield t / np.linalg.norm(t)


def test_completion_is_orthogonal_with_first_row_t0():
    for t0 in _completion_cases():
        tmat = reach._completion_from_direction(t0)
        assert tmat.shape == (t0.size, t0.size)
        assert np.array_equal(tmat[0], t0)
        assert np.abs(tmat @ tmat.T - np.eye(t0.size)).max() <= 1e-15


def test_completion_at_the_target_axis_is_the_identity_or_its_mirror():
    # t0 = e1 needs no reflection (w = 0); t0 = -e1 reflects the first axis alone
    for m in (1, 2, 6):
        e1 = np.eye(m)[0]
        assert np.array_equal(reach._completion_from_direction(e1), np.eye(m))
        assert np.array_equal(reach._completion_from_direction(-e1), np.diag([-1.0] + [1.0] * (m - 1)))


def su2():
    sx = pauli_op([(1, "x")], 1.0, 1)
    sy = pauli_op([(1, "y")], 1.0, 1)
    return find_lie_algebra([sx, sy])


def test_walk_unitarity_and_subgroup():
    rng = np.random.default_rng(3)
    g = su2()
    us = reach._walk_unitaries(g.stack, 10, 2, 5, rng)
    for m in us:
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-10
    gz = find_lie_algebra([pauli_op([(1, "z")], 1.0, 1)])
    us = reach._walk_unitaries(gz.stack, 10, 2, 5, rng)
    for m in us:  # abelian subgroup: diagonal unitaries
        off = m - np.diag(np.diag(m))
        assert np.abs(off).max() < 1e-10


@pytest.mark.parametrize(
    "generators, n_burn, n_thin, n_sample",
    [
        ([[(1, "x")], [(1, "y")]], 10, 2, 5),
        ([[(1, "z")]], 0, 1, 3),
        ([[(1, "x")], [(2, "x")], [(1, "z"), (2, "z")]], 100, 10, 300),
        ([[(1, "x")], [(1, "y")], [(2, "x")], [(2, "y")], [(1, "z"), (2, "z")]], 7, 3, 20),
        ([[(1, "x")], [(2, "y")]], 4, 0, 2),
        ([[(1, "x")], [(1, "y")]], 0, 0, 2),
    ],
)
def test_walk_matches_the_move_by_move_oracle(generators, n_burn, n_thin, n_sample):
    n = max(q for gen in generators for q, _ in gen)
    g = find_lie_algebra([pauli_op(gen, 1.0, n) for gen in generators])
    rng, ref_rng = np.random.default_rng(40 + n_burn), np.random.default_rng(40 + n_burn)
    got = reach._walk_unitaries(g.stack, n_burn, n_thin, n_sample, rng)
    want = orc.walk_unitaries(g.stack, n_burn, n_thin, n_sample, ref_rng)
    assert got.shape == (n_sample, 2 ** n, 2 ** n)
    assert np.abs(got - want).max() <= 1e-13
    # one batched draw consumes the stream of the per-move draws
    assert rng.standard_normal() == ref_rng.standard_normal()


# -- LP ---------------------------------------------------------------------

def _ends(vertices):
    """The `LPResult` pair (LP+, LP-) of the vertex rows."""
    return tuple(reach.lp_solve(vertices, sign) for sign in (+1.0, -1.0))


def test_lp_simple():
    # the transverse coordinate of the mean vanishes on the first axis, so
    # s+ is the vertex (1, 0) alone and s- the vertex (-0.5, 0) alone
    v = np.array([[1.0, 0.0], [-0.5, 0.0], [0.3, 0.4], [0.3, -0.4]])
    for r, end in zip(_ends(v), (1.0, -0.5)):
        assert r.status == "optimal"
        assert r.value == pytest.approx(end, abs=1e-12)


def test_lp_infeasible():
    # every vertex has transverse coordinate 1, so no mean has 0
    r_plus, r_minus = _ends(np.array([[0.5, 1.0], [-0.5, 1.0]]))
    assert r_plus.status == r_minus.status == "infeasible"
    assert np.isnan(r_plus.value) and np.isnan(r_minus.value)


def test_lp_without_a_verdict_raises(monkeypatch):
    # a solver stop other than optimal or infeasible (here the iteration
    # limit) is an error, not a result
    from scipy.optimize._highspy import _core

    class Capped(_core._Highs):
        def run(self):
            self.setOptionValue("simplex_iteration_limit", 0)
            return super().run()

    monkeypatch.setattr(_core, "_Highs", Capped)
    with pytest.raises(RuntimeError, match="without a verdict: HiGHS status 'Iteration limit reached'"):
        reach.lp_solve(np.vstack([np.eye(2), -np.eye(2)]), 1.0)


def _brute_force_lp(c, a, b):
    m, n = a.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        xb = np.linalg.solve(sub, b)
        if (xb >= -1e-9).all():
            x = np.zeros(n)
            x[list(cols)] = xb
            v = c @ x
            if best is None or v > best:
                best = v
    return best


def _hull_lp_by_enumeration(vertices, sign):
    """max sign * v1 @ x on the rows of `reach.lp_solve`, slack rows included,
    by vertex enumeration; None without a feasible point."""
    a, b = orc.hull_lp_rows(vertices)
    best = _brute_force_lp(np.concatenate([sign * vertices[:, 0], [0.0, 0.0]]), a, b)
    return None if best is None else sign * best


def test_lp_matches_vertex_enumeration():
    # each end solved over each of three growing prefixes of vertex rows,
    # against enumeration on the same rows; vertex norms up to 1.5 let the
    # slack rows bind, and short prefixes leave some ends infeasible
    rng = np.random.default_rng(4)
    optimal = infeasible = 0
    for _ in range(30):
        m = int(rng.integers(2, 4))
        batches = [rng.normal(size=(int(rng.integers(1, 4)), m)) for _ in range(3)]
        for v in batches:
            v *= rng.uniform(0.2, 1.5, size=(len(v), 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        for k in range(3):
            rows = np.vstack(batches[: k + 1])
            for r, sign in zip(_ends(rows), (+1.0, -1.0)):
                ref = _hull_lp_by_enumeration(rows, sign)
                if ref is None:
                    infeasible += 1
                    assert r.status == "infeasible"
                else:
                    optimal += 1
                    assert r.status == "optimal"
                    assert r.value == pytest.approx(ref, abs=1e-9)
    assert optimal >= 20 and infeasible >= 20


def _hull_axis_lp(vertices, sign):
    """max sign * v1 @ x over convex weights x whose mean has no transverse
    part, posed without the slack rows of `reach.lp_solve` and solved by
    vertex enumeration."""
    j = vertices.shape[0]
    a = np.vstack([np.ones(j), vertices[:, 1:].T])
    b = np.zeros(a.shape[0])
    b[0] = 1.0
    best = _brute_force_lp(sign * vertices[:, 0], a, b)
    return None if best is None else sign * best


def test_scale_lps_match_vertex_enumeration():
    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(40):
        j, m = int(rng.integers(3, 9)), int(rng.integers(2, 4))
        v = rng.normal(size=(j, m))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r_plus, r_minus = _ends(v)
        ref_plus, ref_minus = _hull_axis_lp(v, +1.0), _hull_axis_lp(v, -1.0)
        assert (r_plus.status == "optimal") == (ref_plus is not None)
        assert (r_minus.status == "optimal") == (ref_minus is not None)
        if ref_plus is not None:
            checked += 1
            assert r_plus.value == pytest.approx(ref_plus, abs=1e-9)
            assert r_minus.value == pytest.approx(ref_minus, abs=1e-9)
    assert checked >= 10


def test_scale_lps_cross_polytope():
    for m in (1, 2, 5):
        eye = np.eye(m)
        r_plus, r_minus = _ends(np.vstack([eye, -eye]))
        assert r_plus.value == pytest.approx(1.0, abs=1e-12)
        assert r_minus.value == pytest.approx(-1.0, abs=1e-12)


def test_lp_import_stays_lazy():
    # scipy.optimize costs ~20 MB; importing the library must not load it
    src = str(Path(reach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import hamforge.cli, hamforge.config, hamforge.reach, hamforge.evaluate\n"
        "sys.exit('scipy.optimize' in sys.modules)\n"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- scale ranges -------------------------------------------------------------

def _single_qubit_components():
    g = su2()
    sz = pauli_op([(1, "z")], 1.0, 1)
    c = find_c_subspace(g, sz)
    hp = sz * (1 / np.sqrt(2))
    return g, [reach.Component.of(hp, c, hp)]


def test_single_qubit_full_range():
    g, comps = _single_qubit_components()
    sr = reach.find_scale_range(g, comps, 500, rng=np.random.default_rng(1))
    assert sr.achievable
    assert sr.s_plus == pytest.approx(1.0, abs=0.02)
    assert sr.s_minus == pytest.approx(-1.0, abs=0.02)


def test_one_open_end_is_nan(monkeypatch):
    # LP- without an optimum: the range keeps its closed end and marks the
    # open one NaN, here and in the one row of the convergence history
    g, comps = _single_qubit_components()
    ends = {+1.0: reach.LPResult("optimal", 1.0), -1.0: reach.LPResult("infeasible")}
    monkeypatch.setattr(reach, "lp_solve", lambda vertices, sign: ends[sign])
    sr = reach.find_scale_range(g, comps, 100, rng=np.random.default_rng(1), batch=50)
    assert sr.achievable
    assert sr.s_plus == 1.0
    assert np.isnan(sr.s_minus)
    assert sr.samples_used == 100
    [(k, sm, sp)] = sr.convergence_history
    assert k == 100 and np.isnan(sm) and sp == 1.0


def test_all_zero_target_raises():
    # a zero target has no direction to scale along, in every component
    g, [comp] = _single_qubit_components()
    hp, c = comp.matrix, comp.subspace
    for comps in ([reach.Component.of(hp, c)], [reach.Component.of(hp, c, 0 * hp)]):
        with pytest.raises(ValueError, match="all-zero target"):
            reach.sample_vertices(g, comps, 10, "auto", np.random.default_rng(5), 10, 2)


def test_more_samples_never_shrink():
    g, comps = _single_qubit_components()
    vs = reach.sample_vertices(g, comps, 400, "auto", np.random.default_rng(6), 100, 10)
    (p200, m200), (p400, m400) = _ends(vs[:200]), _ends(vs)
    assert p400.value >= p200.value - 1e-9
    assert m400.value <= m200.value + 1e-9


def test_vertex_projection_bounds():
    # s+ is a convex combination of first coordinates, so it can never
    # exceed the best single-vertex projection; a vertex with negligible
    # transverse components is itself feasible and bounds s+ from below.
    g, comps = _single_qubit_components()
    vs = reach.sample_vertices(g, comps, 100, "auto", np.random.default_rng(7), 100, 10)
    splus = _ends(vs)[0].value
    assert splus <= vs[:, 0].max() + 1e-9
    transverse = np.linalg.norm(vs[:, 1:], axis=1)
    aligned = transverse < 1e-6
    if aligned.any():
        assert splus >= vs[aligned, 0].max() - 1e-9


def test_vertex_norm_invariance():
    g, comps = _single_qubit_components()
    vs = reach.sample_vertices(g, comps, 50, "auto", np.random.default_rng(8), 100, 10)
    norms = np.linalg.norm(vs, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-8


def test_target_outside_subspace_raises():
    from hamforge.opcore import SubspaceError

    g = find_lie_algebra([pauli_op([(1, "z")], 1.0, 1)])
    sz = pauli_op([(1, "z")], 1.0, 1)
    sx = pauli_op([(1, "x")], 1.0, 1)
    c = find_c_subspace(g, sz)
    with pytest.raises(SubspaceError):
        reach.find_scale_range(g, [reach.Component.of(sz, c, sx)], 50, rng=np.random.default_rng(9))


def test_walk_sampler_leaving_the_subspace_raises():
    # C = span{z} is closed under e^{i theta z} but not under the su(2)
    # walk, so the conjugated perturbation leaves it
    from hamforge.opcore import SubspaceError

    sz = pauli_op([(1, "z")], 1.0, 1)
    c = find_c_subspace(find_lie_algebra([sz]), sz)
    with pytest.raises(SubspaceError, match="leaves its subspace"):
        reach.find_scale_range(
            su2(), [reach.Component.of(sz, c, sz)], 50, sampler="walk", rng=np.random.default_rng(16)
        )


def test_walk_matches_qr_hull_on_su2():
    g, comps = _single_qubit_components()
    sq = reach.find_scale_range(g, comps, 500, sampler="qr", rng=np.random.default_rng(10))
    sw = reach.find_scale_range(g, comps, 500, sampler="walk", rng=np.random.default_rng(11))
    assert abs(sq.s_plus - sw.s_plus) < 0.02
    assert abs(sq.s_minus - sw.s_minus) < 0.02


# -- hull volumes -------------------------------------------------------------

def hull_volume_diagnostic(pts: np.ndarray, batch: int):
    """Convex-hull volume of the first k vertex rows for k = batch, 2batch, ...

    A saturating volume indicates the sampler has covered the reachable
    set.  Degenerate (flat) point sets report volume 0.  Refuses subspace
    dimensions above 6, where exact hulls are combinatorially infeasible
    and the LPs of find_scale_range serve instead.
    """
    from scipy.spatial import ConvexHull, QhullError

    dim = pts.shape[1]
    if dim > 6:
        raise ValueError(
            "hull volume limited to subspace dimension <= 6; "
            "use find_scale_range for larger spaces"
        )
    out = []
    for k in range(batch, pts.shape[0] + batch, batch):
        k = min(k, pts.shape[0])
        if k <= dim:
            out.append((k, 0.0))
        else:
            try:
                out.append((k, float(ConvexHull(pts[:k]).volume)))
            except QhullError:
                out.append((k, 0.0))
        if k == pts.shape[0]:
            break
    return out


def test_hull_volume_collinear_is_zero():
    vs = np.stack([np.linspace(-1, 1, 10), np.linspace(-1, 1, 10)]).T
    vols = hull_volume_diagnostic(vs, 3)
    assert all(v == 0.0 for _, v in vols)


def test_hull_volume_square_corners():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    vols = dict(hull_volume_diagnostic(pts, 1))
    assert vols[1] == 0.0 and vols[2] == 0.0
    assert vols[3] == pytest.approx(0.5)
    assert vols[4] == pytest.approx(1.0)


def test_hull_volume_saturates_su2():
    g, comps = _single_qubit_components()
    vs = reach.sample_vertices(g, comps, 500, "auto", np.random.default_rng(12), 100, 10)
    vols = hull_volume_diagnostic(vs, 125)
    values = [v for _, v in vols]
    assert values == sorted(values)  # monotone growth
    # last-quarter relative change below 5 percent
    assert (values[-1] - values[-2]) / values[-1] < 0.05


def test_hull_volume_refuses_high_dim():
    with pytest.raises(ValueError, match="range-stabilization|find_scale_range"):
        hull_volume_diagnostic(np.zeros((10, 7)), 5)


def _collective_pair():
    """2 qubits under collective su(2) (a proper subalgebra of su(4)): the
    algebra, collective Z, the secular dipolar operator, and their
    C-subspaces."""
    n = 2
    x_col = pauli_string_op([(1.0, [(1, "x")]), (1.0, [(2, "x")])], n)
    y_col = pauli_string_op([(1.0, [(1, "y")]), (1.0, [(2, "y")])], n)
    z_col = pauli_string_op([(1.0, [(1, "z")]), (1.0, [(2, "z")])], n)
    dzz = pauli_string_op([(2.0, [(1, "z"), (2, "z")]), (-1.0, [(1, "x"), (2, "x")]),
                           (-1.0, [(1, "y"), (2, "y")])], n)
    g = find_lie_algebra([x_col, y_col])
    return g, z_col, dzz, find_c_subspace(g, z_col), find_c_subspace(g, dzz)


def _hs(op):
    return np.sqrt(np.trace(op.conj().T @ op).real)


def test_joint_normalisation_against_hilbert_schmidt_norms():
    # two components of a collective su(2): the targets at s are
    # s ||H_1 (+) H_2|| H_target^w / ||T_1 (+) T_2||, with Hilbert-Schmidt
    # norms of the operators themselves
    g, z_col, dzz, c1, c2 = _collective_pair()
    comps = [reach.Component.of(0.5 * z_col, c1, 3.0 * z_col), reach.Component.of(dzz, c2, -dzz)]
    pnorm, tnorm, targets = reach.joint_normalisation(comps, 0.4)
    assert pnorm == pytest.approx(np.hypot(_hs(0.5 * z_col), _hs(dzz)), rel=1e-14)
    assert tnorm == pytest.approx(np.hypot(_hs(3.0 * z_col), _hs(dzz)), rel=1e-14)
    for comp, want, got in zip(comps, (3.0 * z_col, -dzz), targets):
        op = np.tensordot(got, comp.subspace.stack, axes=(0, 0))
        assert np.abs(op - 0.4 * pnorm * want / tnorm).max() <= 1e-12 * np.abs(want).max() * pnorm / tnorm
    # without a target every zeroth-order target is zero
    bare = [reach.Component.of(z_col, c1), reach.Component.of(dzz, c2)]
    assert all(not t.any() for t in reach.joint_normalisation(bare, 0.4)[2])


def test_decoupling_corollary_two_components():
    # 2 qubits under collective su(2); component 1 = collective Z,
    # component 2 = secular dipolar operator. Zeroing component 1 must not
    # change component 2's achievable range.
    g, z_col, dzz, c1, c2 = _collective_pair()
    rng = np.random.default_rng(13)
    boths = reach.find_scale_range(
        g, [reach.Component.of(z_col, c1), reach.Component.of(dzz, c2, dzz)], 700,
        sampler="walk", rng=rng,
    )
    # s relative to component 2's own norm, not the joint one
    rescale = np.hypot(np.linalg.norm(z_col), np.linalg.norm(dzz)) / np.linalg.norm(dzz)
    rng = np.random.default_rng(14)
    alone = reach.find_scale_range(
        g, [reach.Component.of(dzz, c2, dzz)], 700, sampler="walk", rng=rng
    )
    assert boths.achievable and alone.achievable
    assert abs(boths.s_plus * rescale - alone.s_plus) < 0.03
    assert abs(boths.s_minus * rescale - alone.s_minus) < 0.03


# -- one solve per end over every vertex ------------------------------------


@pytest.fixture(scope="module")
def design():
    """(algebra, components, find_scale_range keywords) of the 2-qubit
    design problem."""
    if not DESIGN_FIXTURE.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    cfg = config.load_config(str(DESIGN_FIXTURE))
    g = config.build_algebra(cfg)
    return g, config.scale_components(cfg, config.build_subspaces(cfg, g)), cfg.scale_args


def _search_and_vertices(monkeypatch, g, comps, **kwargs):
    """`find_scale_range` and the vertex rows it drew."""
    drawn = []
    sample = reach.sample_vertices
    monkeypatch.setattr(reach, "sample_vertices", lambda *args: drawn.append(sample(*args)) or drawn[0])
    sr = reach.find_scale_range(g, comps, **kwargs)
    return sr, drawn[0]


def _check_against_fresh_solves(sr, vertices):
    # one row, over every drawn vertex, against the LPs built and solved
    # by scipy's public linprog on the same rows
    [(k, s_minus, s_plus)] = sr.convergence_history
    assert k == sr.samples_used == len(vertices)
    for got, want in zip((s_plus, s_minus), orc.scale_range_ends(vertices)):
        assert np.isnan(got) == np.isnan(want), (got, want)
        assert np.isnan(want) or abs(got - want) <= 1e-10 * abs(want), (got, want)


@pytest.mark.parametrize("seed", range(100, 124))
def test_design_search_matches_fresh_solves(monkeypatch, design, seed):
    # every design seed: a solve over the first scale_batch (200) vertices,
    # or over the first priced subset alone, misses the range over all
    # 1,000, which this comparison catches
    g, comps, scale_args = design
    sr, vs = _search_and_vertices(monkeypatch, g, comps, rng=restart_rng(seed, 11), **scale_args)
    assert reach._pick_sampler(g, "auto") == "qr" and scale_args["batch"] < len(vs) == 1000
    _check_against_fresh_solves(sr, vs)


def test_design_ends_take_at_most_four_rounds(monkeypatch, design):
    # the work of pricing: each end's one HiGHS model runs at most four
    # times on every design seed; a pricing that picks the wrong vertices
    # still ends at the optimum, over many more rounds
    from scipy.optimize._highspy import _core

    runs = []

    class Counted(_core._Highs):
        def __init__(self):
            super().__init__()
            runs.append(0)

        def run(self):
            runs[-1] += 1
            return super().run()

    g, comps, scale_args = design
    monkeypatch.setattr(_core, "_Highs", Counted)
    for seed in range(100, 124):
        runs.clear()
        reach.find_scale_range(g, comps, rng=restart_rng(seed, 11), **scale_args)
        assert len(runs) == 2 and max(runs) <= 4, (seed, runs)


@pytest.mark.parametrize("two_components", [False, True])
def test_walk_search_matches_fresh_solves(monkeypatch, two_components):
    # a proper subalgebra, so the walk sampler; one component, or two
    # under the joint normalisation
    g, z_col, dzz, c1, c2 = _collective_pair()
    comps = [reach.Component.of(dzz, c2, dzz)]
    if two_components:
        comps.insert(0, reach.Component.of(z_col, c1))
    sr, vs = _search_and_vertices(monkeypatch, g, comps, j_samples=700, rng=np.random.default_rng(13))
    assert reach._pick_sampler(g, "auto") == "walk"
    _check_against_fresh_solves(sr, vs)


def test_a_batch_below_the_hull_dimension_is_ignored(monkeypatch):
    # batches of 3 unit vertices in 3 dimensions, whose first hull misses
    # the target axis: the one solve per end still sees all 30 vertices
    g, comps = _single_qubit_components()
    sr, vs = _search_and_vertices(monkeypatch, g, comps, j_samples=30, rng=np.random.default_rng(2), batch=3)
    assert np.isnan(orc.scale_range_ends(vs[:3])).all() and sr.achievable
    _check_against_fresh_solves(sr, vs)


def test_a_first_subset_off_the_target_axis_takes_every_vertex(monkeypatch):
    # the k = 2(m + 2) = 8 vertices of largest v1 all lie above the axis,
    # so the first round of the + end is infeasible; the next takes every
    # vertex, whose hull holds the axis, and both ends meet the oracle
    from scipy.optimize._highspy import _core

    rng = np.random.default_rng(5)
    high = np.column_stack([rng.uniform(0.5, 1.0, 8), rng.uniform(0.2, 1.0, 8)])
    low = np.column_stack([rng.uniform(-1.0, 0.4, 30), rng.uniform(-1.0, 1.0, 30)])
    vertices = np.vstack([low[:15], high, low[15:]])
    verdicts = []

    class Spy(_core._Highs):
        def run(self):
            status = super().run()
            verdicts.append(self.modelStatusToString(self.getModelStatus()))
            return status

    assert np.isnan(orc.scale_range_ends(high)).all()
    ends = orc.scale_range_ends(vertices)
    monkeypatch.setattr(_core, "_Highs", Spy)
    r_plus = reach.lp_solve(vertices, 1.0)
    assert verdicts[:2] == ["Infeasible", "Optimal"]
    r_minus = reach.lp_solve(vertices, -1.0)
    for r, want in zip((r_plus, r_minus), ends):
        assert r.status == "optimal" and abs(r.value - want) <= 1e-10 * abs(want), (r, want)


# Schur-Horn: over all 2-qubit unitaries the hull of u^dag H u holds the
# diagonal matrices of every permutation of H's spectrum, so the design's
# Z1 + Z2 (spectrum 2, 0, 0, -2) reaches Z1 Z2 at +-1/sqrt(2) of the joint
# norm, and no further
_DESIGN_CEILING = 0.7071067811865476


def test_design_range_at_the_permutation_vertices_is_the_schur_horn_value(monkeypatch, design):
    # the 24 permutation matrices as the sampled unitaries: their vertices
    # span the whole reachable set along the target, so the inner bound
    # meets the closed form
    g, comps, scale_args = design
    perms = np.eye(4)[list(itertools.permutations(range(4)))]
    monkeypatch.setattr(reach, "haar_unitary", lambda dim, rng, count=None: perms.astype(complex))
    sr = reach.find_scale_range(g, comps, len(perms), rng=np.random.default_rng(0))
    assert sr.s_plus == pytest.approx(_DESIGN_CEILING, abs=1e-12)
    assert sr.s_minus == pytest.approx(-_DESIGN_CEILING, abs=1e-12)


def test_design_ranges_lie_inside_the_ceiling_and_hold_their_prefixes(monkeypatch, design):
    # every design seed's inner bound sits inside the Schur-Horn range, and
    # the range over all its vertices contains the range over each prefix
    g, comps, scale_args = design
    for seed in range(100, 124):
        sr, vs = _search_and_vertices(monkeypatch, g, comps, rng=restart_rng(seed, 11), **scale_args)
        assert -_DESIGN_CEILING < sr.s_minus < 0 < sr.s_plus < _DESIGN_CEILING
        if seed < 103:
            for k in (100, 250, 500, 999):
                p, m = (r.value for r in _ends(vs[:k]))
                assert np.isnan(p) or p <= sr.s_plus + 1e-12
                assert np.isnan(m) or m >= sr.s_minus - 1e-12


def test_an_unknown_stop_at_an_infeasible_point_is_an_open_end(monkeypatch):
    # 100 vertices of the 3-qubit chain's 63-dimensional subspace span no
    # hull around the target axis; HiGHS stops some of these LPs at
    # "Unknown" with an infeasible primal solution, which reads as an end
    # without an optimum
    from scipy.optimize._highspy import _core

    cfg = config.parse_config(chain_problem(3))
    g = config.build_algebra(cfg)
    comps = config.scale_components(cfg, config.build_subspaces(cfg, g))
    seen = []

    class Spy(_core._Highs):
        def run(self):
            status = super().run()
            seen.append((self.modelStatusToString(self.getModelStatus()),
                         self.solutionStatusToString(self.getInfo().primal_solution_status)))
            return status

    monkeypatch.setattr(_core, "_Highs", Spy)
    for seed in (88, 105):   # "Unknown" on the + end at 88, on the - end at 105
        sr = reach.find_scale_range(g, comps, 100, rng=restart_rng(seed, 11))
        assert not sr.achievable and np.isnan([sr.s_minus, sr.s_plus]).all()
    assert ("Unknown", "Infeasible") in seen
    assert set(seen) <= {("Unknown", "Infeasible"), ("Infeasible", "Infeasible")}
