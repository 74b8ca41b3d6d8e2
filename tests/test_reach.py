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
        near = np.eye(m)[0] + 1e-8 * rng.standard_normal(m)
        yield near / np.linalg.norm(near)
        for _ in range(5):
            t = rng.standard_normal(m)
            yield t / np.linalg.norm(t)


def test_completion_is_orthogonal_with_first_row_t0():
    for t0 in _completion_cases():
        tmat = reach._completion_from_direction(t0)
        assert tmat.shape == (t0.size, t0.size)
        assert np.array_equal(tmat[0], t0)
        assert np.abs(tmat @ tmat.T - np.eye(t0.size)).max() <= 1e-13


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

def _ends(*batches):
    """The `LPResult` pair (LP+, LP-) after each batch of vertex rows, each
    end one `HullLP` grown by the batches in turn and re-solved after each."""
    lps = [reach.HullLP(s, batches[0].shape[1]) for s in (+1.0, -1.0)]
    out = []
    for v in batches:
        for lp in lps:
            lp.add(v)
        out.append(tuple(reach.lp_solve(lp) for lp in lps))
    return out


def test_lp_simple():
    # the transverse coordinate of the mean vanishes on the first axis, so
    # s+ is the vertex (1, 0) alone and s- the vertex (-0.5, 0) alone
    v = np.array([[1.0, 0.0], [-0.5, 0.0], [0.3, 0.4], [0.3, -0.4]])
    lps = [reach.HullLP(sign, 2) for sign in (+1.0, -1.0)]
    for lp, end, weights in zip(lps, (1.0, -0.5), ([1, 0, 0, 0], [0, 1, 0, 0])):
        lp.add(v)
        r = reach.lp_solve(lp)
        assert r.status == "optimal"
        assert r.value == pytest.approx(end, abs=1e-12)
        # the two slack columns come first, then the vertices
        assert np.allclose(lp.highs.getSolution().col_value[2:], weights, atol=1e-12)


def test_lp_infeasible():
    # every vertex has transverse coordinate 1, so no mean has 0
    [(r_plus, r_minus)] = _ends(np.array([[0.5, 1.0], [-0.5, 1.0]]))
    assert r_plus.status == r_minus.status == "infeasible"
    assert np.isnan(r_plus.value) and np.isnan(r_minus.value)


@pytest.mark.parametrize("width", [4, 2, None], ids=["wider", "narrower", "one-dimensional"])
def test_lp_rejects_inconsistent_shapes(width):
    # a model of m = 3 rows takes vertex rows of 3 coordinates only; a
    # narrower batch would fit HiGHS's rows and pose the wrong LP
    lp = reach.HullLP(1.0, 3)
    with pytest.raises(ValueError, match="inconsistent LP shapes"):
        lp.add(np.ones(3) if width is None else np.ones((5, width)))


def test_lp_without_a_verdict_raises():
    # a solver stop other than optimal or infeasible (here the iteration
    # limit) is an error, not a result
    lp = reach.HullLP(1.0, 2)
    lp.add(np.vstack([np.eye(2), -np.eye(2)]))
    lp.highs.setOptionValue("simplex_iteration_limit", 0)
    with pytest.raises(RuntimeError, match="without a verdict: HiGHS status 'Iteration limit reached'"):
        reach.lp_solve(lp)


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
    """max sign * v1 @ x on the rows of `reach.HullLP`, slack rows included,
    by vertex enumeration; None without a feasible point."""
    a, b = orc.hull_lp_rows(vertices)
    best = _brute_force_lp(np.concatenate([sign * vertices[:, 0], [0.0, 0.0]]), a, b)
    return None if best is None else sign * best


def test_lp_matches_vertex_enumeration():
    # one model per end grown over three batches, re-solved after each,
    # against enumeration on all rows so far; vertex norms up to 1.5 let
    # the slack rows bind, and small batches leave early solves infeasible
    rng = np.random.default_rng(4)
    optimal = infeasible = 0
    for _ in range(30):
        m = int(rng.integers(2, 4))
        batches = [rng.normal(size=(int(rng.integers(1, 4)), m)) for _ in range(3)]
        for v in batches:
            v *= rng.uniform(0.2, 1.5, size=(len(v), 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        for k, results in enumerate(_ends(*batches)):
            rows = np.vstack(batches[: k + 1])
            for r, sign in zip(results, (+1.0, -1.0)):
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
    part, posed without the slack rows of `reach.HullLP` and solved by
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
        [(r_plus, r_minus)] = _ends(v)
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
        [(r_plus, r_minus)] = _ends(np.vstack([eye, -eye]))
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
    # open one NaN, here and in the convergence history
    g, comps = _single_qubit_components()
    ends = {+1.0: reach.LPResult("optimal", 1.0), -1.0: reach.LPResult("infeasible")}
    monkeypatch.setattr(reach, "lp_solve", lambda lp: ends[lp.sign])
    sr = reach.find_scale_range(g, comps, 100, rng=np.random.default_rng(1), batch=50)
    assert sr.achievable
    assert sr.s_plus == 1.0
    assert np.isnan(sr.s_minus)
    assert [k for k, _, _ in sr.convergence_history] == [50, 100]
    assert all(np.isnan(sm) and sp == 1.0 for _, sm, sp in sr.convergence_history)


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
    (p200, m200), (p400, m400) = _ends(vs[:200], vs[200:400])
    assert p400.value >= p200.value - 1e-9
    assert m400.value <= m200.value + 1e-9


def test_vertex_projection_bounds():
    # s+ is a convex combination of first coordinates, so it can never
    # exceed the best single-vertex projection; a vertex with negligible
    # transverse components is itself feasible and bounds s+ from below.
    g, comps = _single_qubit_components()
    vs = reach.sample_vertices(g, comps, 100, "auto", np.random.default_rng(7), 100, 10)
    splus = _ends(vs)[0][0].value
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
    and the range-stabilization history of find_scale_range serves instead.
    """
    from scipy.spatial import ConvexHull, QhullError

    dim = pts.shape[1]
    if dim > 6:
        raise ValueError(
            "hull volume limited to subspace dimension <= 6; "
            "use find_scale_range convergence_history for larger spaces"
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


# -- the warm-started search against fresh solves -----------------------------

DESIGN_FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
                  / "design-2q-scale-evaluate.json")


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


def _check_history_against_fresh_solves(sr, vertices):
    # every batch's ends, from one model per end re-solved from its last
    # basis, against the LPs built and solved from scratch on the rows so far
    for k, s_minus, s_plus in sr.convergence_history:
        for got, want in zip((s_plus, s_minus), orc.scale_range_ends(vertices[:k])):
            assert np.isnan(got) == np.isnan(want), (k, got, want)
            assert np.isnan(want) or abs(got - want) <= 1e-10 * abs(want), (k, got, want)


@pytest.mark.parametrize("seed", range(100, 106))
def test_design_search_matches_fresh_solves(monkeypatch, design, seed):
    g, comps, scale_args = design
    sr, vs = _search_and_vertices(monkeypatch, g, comps, rng=restart_rng(seed, 11), **scale_args)
    assert reach._pick_sampler(g, "auto") == "qr" and len(sr.convergence_history) > 1
    _check_history_against_fresh_solves(sr, vs)


@pytest.mark.parametrize("two_components", [False, True])
def test_walk_search_matches_fresh_solves(monkeypatch, two_components):
    # a proper subalgebra, so the walk sampler; one component, or two
    # under the joint normalisation
    g, z_col, dzz, c1, c2 = _collective_pair()
    comps = [reach.Component.of(dzz, c2, dzz)]
    if two_components:
        comps.insert(0, reach.Component.of(z_col, c1))
    sr, vs = _search_and_vertices(monkeypatch, g, comps, j_samples=700, rng=np.random.default_rng(13))
    assert reach._pick_sampler(g, "auto") == "walk" and len(sr.convergence_history) > 1
    _check_history_against_fresh_solves(sr, vs)


def test_search_after_an_infeasible_batch_matches_fresh_solves(monkeypatch):
    # batches of 3 unit vertices in 3 dimensions: the first hull misses the
    # target axis, so both models re-solve after an infeasible solve
    g, comps = _single_qubit_components()
    sr, vs = _search_and_vertices(monkeypatch, g, comps, j_samples=30, rng=np.random.default_rng(2), batch=3)
    history = np.array(sr.convergence_history)
    assert np.isnan(history[0, 1:]).all() and np.isfinite(history[-1, 1:]).all()
    _check_history_against_fresh_solves(sr, vs)


def test_warm_start_does_less_work_than_fresh_solves(monkeypatch, design):
    # HiGHS's simplex iterations over a design seed's search, against the
    # sum over the same LPs solved from scratch (682 on this seed): the
    # warm search pays 241, one that rebuilds its models per batch about
    # the fresh count (677), so the bound is half of it
    g, comps, scale_args = design
    iterations = []
    solve = reach.lp_solve

    def counted(lp):
        result = solve(lp)
        iterations.append(lp.highs.getInfo().simplex_iteration_count)
        return result

    monkeypatch.setattr(reach, "lp_solve", counted)
    sr, vs = _search_and_vertices(monkeypatch, g, comps, rng=restart_rng(100, 11), **scale_args)
    assert len(sr.convergence_history) == 5 and len(iterations) == 10
    fresh = sum(orc.hull_lp(vs[:k], sign).nit for k, _, _ in sr.convergence_history for sign in (+1.0, -1.0))
    assert sum(iterations) < fresh / 2
