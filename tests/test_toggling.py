import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hamforge import toggling as tg
from hamforge.liealg import find_c_subspace, find_lie_algebra
from hamforge.opcore import pauli_op
import _oracles as orc
from _oracles import expm_herm_generator
from conftest import rk4_cint_oracle


def su2_spaces():
    sx = pauli_op([(1, "x")], 1.0, 1)
    sy = pauli_op([(1, "y")], 1.0, 1)
    sz = pauli_op([(1, "z")], 1.0, 1)
    g = find_lie_algebra([sx, sy])
    return (sx, sy, sz), g, find_c_subspace(g, sz)


def quad_oracle(lams, t_max, n=4000):
    """RK4 on the scalar nested-integral ODEs, independent of closed forms."""
    h = t_max / n
    r = len(lams)
    state = np.zeros(r, complex)

    def deriv(t, s):
        f = np.exp(-1j * np.asarray(lams) * t)
        d = np.empty(r, complex)
        d[-1] = f[-1]
        for k in range(r - 2, -1, -1):
            d[k] = f[k] * s[k + 1]
        return d

    for k in range(n):
        t = k * h
        k1 = deriv(t, state)
        k2 = deriv(t + h / 2, state + h / 2 * k1)
        k3 = deriv(t + h / 2, state + h / 2 * k2)
        k4 = deriv(t + h, state + h * k3)
        state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return state[0]


def test_nested_exp_trivial():
    assert orc.nested_exp_integral([0.0], 2.0) == pytest.approx(2.0)
    assert orc.nested_exp_integral([0.0, 0.0], 2.0) == pytest.approx(2.0)  # T^2/2
    assert orc.nested_exp_integral([0.0, 0.0, 0.0], 3.0) == pytest.approx(27.0 / 6.0)


def test_nested_exp_r1_closed_form():
    lam, t = 3.0, 2.0
    expect = (1 - np.exp(-1j * lam * t)) / (1j * lam)
    assert orc.nested_exp_integral([lam], t) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize(
    "lams",
    [
        [1.3, -2.1],
        [0.0, 5.0],
        [2.0, -2.0],
        [1.0, 2.0, 3.0],
        [0.5, -0.5, 0.0],
        [4.0, 0.0, -4.0],
        [1e-9, -2e-9, 1e-9],
        [7.0, 7.0, 7.0],
    ],
)
def test_nested_exp_vs_quadrature(lams):
    mine = orc.nested_exp_integral(lams, 1.7)
    ref = quad_oracle(lams, 1.7)
    assert abs(mine - ref) < 1e-8


@given(st.lists(st.floats(-20, 20), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_nested_exp_random(lams):
    t = 0.9
    mine = orc.nested_exp_integral(lams, t)
    ref = quad_oracle(lams, t, n=6000)
    assert abs(mine - ref) < 1e-7


def opitz_oracle(nodes, t):
    """f[i*w_0, .., i*w_r] of f(x) = exp(x t) in 40-digit arithmetic.

    Opitz: the divided difference is the (0, r) entry of exp(t J), J
    bidiagonal with i*w on the diagonal and ones above it.  Exact for
    repeated nodes.  (scipy.linalg.expm is not accurate enough here: it
    is off in the second digit on the regression case below.)
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        n = len(nodes)
        j = mp.matrix(n, n)
        for k, w in enumerate(nodes):
            j[k, k] = 1j * w * t
            if k + 1 < n:
                j[k, k + 1] = t
        return complex(mp.expm(j)[0, n - 1])


def int3_grid_errors(nu, t):
    """Per-entry errors of the batched r=3 grid and of `_int3_plus` against
    the Opitz oracle at exact prefix sums, in units of T^3/6."""
    mp = pytest.importorskip("mpmath")
    nu = np.asarray(nu, dtype=float)
    grid = tg._int3_grid(tg.SpectralGroups(nu[None], None, t))[0]
    general = tg._int3_plus(nu[:, None, None], nu[None, :, None], nu[None, None, :], t)
    refs = {}
    err_grid = np.empty(grid.shape)
    err_general = np.empty(grid.shape)
    for abc in itertools.product(range(len(nu)), repeat=3):
        key = tuple(nu[k] for k in abc)
        if key not in refs:
            with mp.workdps(40):
                a, b, c = (mp.mpf(float(x)) for x in key)
                refs[key] = opitz_oracle([mp.mpf(0), a, a + b, a + b + c], mp.mpf(t))
        err_grid[abc] = abs(grid[abc] - refs[key])
        err_general[abc] = abs(general[abc] - refs[key])
    unit = t ** 3 / 6
    return err_grid / unit, err_general / unit


@st.composite
def adjoint_spectra(draw):
    """Step length T and m=4 eigenvalues as adjoint spectra have them: an
    exact zero, +/- pairs, repeats, gaps straddling 1e-3, and a partner of
    w whose sum with it is a phase below MERGE_KAPPA, as rounding leaves
    the pairs of eigh.  Sums a+b+c and a+b come out exactly or nearly zero."""
    t = draw(st.floats(0.5, 2.0))
    w = draw(st.floats(0.05, 4.0))
    gap = draw(st.floats(2e-4, 5e-3))
    near = -w - draw(st.floats(-0.9, 0.9)) * tg.MERGE_KAPPA
    pool = [0.0, w, -w, gap, -gap, w + gap, near]
    rest = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))
    return t, np.array([0.0, *rest]) / t


# a node gap just above 1e-3: with its series threshold at 1e-3 the
# general kernel was off by 1.7e-9 * T^3/6 (r=3) and 3e-13 * T^2/2 (r=2)
GAP_ABOVE_1E3 = np.array([0.0, 0.0, 1.0155796176509306e-3, 2.8151671747907323])


@given(adjoint_spectra())
@example((1.0, GAP_ABOVE_1E3))
# clusters just above a 0.05 series width: both kernels were near
# 2e-13 * T^3/6 there, and the grid the worse of the two
@example((1.0, np.array([0.0, 0.0, 0.078125, 0.00390625])))
# sums a+b+c at merge level, with a+b = 0 at merge level (the K table) and
# not (the J table); exact zero sums, the all-zero entry, and K and J on
# their series branch (|a| T < DEGEN_TOL)
@example((1.0, np.array([0.0, 2.5753589512631057, -2.575358951263022, 0.7])))
@example((0.8, np.array([0.0, 1.3, -1.3, 0.0]) / 0.8))
@example((1.5, np.array([0.0, 0.0, 0.0, 0.0])))
@example((1.0, np.array([0.0, 0.15, -0.15 - 0.9 * tg.MERGE_KAPPA, 1.1])))
@settings(max_examples=10, deadline=None)
def test_int3_grid_vs_mpmath(case):
    t, nu = case
    err_grid, err_general = int3_grid_errors(nu, t)
    assert err_grid.max() <= 5e-10
    # no worse than the general kernel, up to a rounding-level floor
    assert err_grid.max() <= max(err_general.max(), 1e-13)


def test_int3_grid_takes_zero_sums_from_the_confluent_tables(monkeypatch):
    # every entry with a+b+c = 0, exact or at merge level, that is not a
    # node cluster is read from I2 and the J and K tables, not `_int3_plus`
    t = 1.0
    nu = np.array([0.0, 1.3, -1.3 - 0.5 * tg.MERGE_KAPPA, 0.7, -0.7, 0.05])
    fallback = []
    real = tg._int3_plus

    def counted(a, b, c, t):
        fallback.extend(zip(a, b, c))
        return real(a, b, c, t)

    monkeypatch.setattr(tg, "_int3_plus", counted)
    tg._int3_grid(tg.SpectralGroups(nu[None], None, t))
    for a, b, c in fallback:
        nodes = np.array([0.0, a, a + b, a + b + c])
        assert abs(a + b + c) * t > tg.MERGE_KAPPA or np.ptp(nodes) * t < tg.DEGEN_TOL
    # the permutations of (1.3, -1.3, 0) and (0.7, -0.7, 0), and (0, 0, 0)
    zero_sums = sum(abs(a + b + c) * t <= tg.MERGE_KAPPA for a, b, c in itertools.product(nu, repeat=3))
    assert zero_sums == 13


@pytest.mark.parametrize("r", [2, 3])
def test_general_kernel_vs_mpmath(r):
    mp = pytest.importorskip("mpmath")
    t = 1.0
    nu = GAP_ABOVE_1E3 / t
    axes = [np.expand_dims(nu, tuple(j for j in range(r) if j != k)) for k in range(r)]
    kernel = tg._int2_plus if r == 2 else tg._int3_plus
    table = kernel(*axes, t)
    worst = 0.0
    for idx in itertools.product(range(len(nu)), repeat=r):
        with mp.workdps(40):
            prefix = [mp.mpf(0)]
            for k in idx:
                prefix.append(prefix[-1] + mp.mpf(float(nu[k])))
            ref = opitz_oracle(prefix, mp.mpf(t))
        worst = max(worst, abs(table[idx] - ref))
    assert worst <= 1e-14 * t ** r / math.factorial(r)


def test_int3_grid_near_repeated_nodes():
    # nodes (0, -3.9332, -7.8665, -7.8665 - 1e-15): scipy's expm of the
    # Opitz matrix gives 0.02251+0.03878j here
    t = 1.0
    nu = np.array([-3.9332, -3.9333, -1e-15])
    expect = quad_oracle(-nu, t)
    assert expect == pytest.approx(0.02442 + 0.04782j, abs=1e-5)
    assert opitz_oracle([0.0, -3.9332, -7.8665, -7.8665 - 1e-15], t) == pytest.approx(
        expect, abs=1e-10
    )
    err_grid, _ = int3_grid_errors(nu, t)
    assert err_grid.max() <= 5e-10


def test_propagate_primary_identities():
    d = 2
    zeros = np.zeros((4, d, d), dtype=complex)
    steps = orc.StepHamiltonians(zeros, zeros, {}, 0.1)
    prop = orc.propagate_primary(steps)
    assert np.abs(prop.step_unitaries - np.eye(d)).max() < 1e-14
    assert np.abs(prop.final - np.eye(d)).max() < 1e-14


def test_propagate_single_step_closed_form():
    sx = pauli_op([(1, "x")], 1.0, 1)
    dt = 0.3
    h = (np.pi / 4) / dt * sx
    steps = orc.StepHamiltonians(h[None], h[None] * 0, {}, dt)
    prop = orc.propagate_primary(steps)
    expect = expm_herm_generator(sx, np.pi / 4)
    assert np.abs(prop.final - expect).max() < 1e-12


def test_propagate_commuting_steps():
    sz = pauli_op([(1, "z")], 1.0, 1)
    h1, h2 = 0.4 * sz, 1.1 * sz
    steps = orc.StepHamiltonians(np.stack([h1, h2]), np.zeros((2, 2, 2), complex), {}, 0.7)
    prop = orc.propagate_primary(steps)
    expect = expm_herm_generator(sz * (0.4 + 1.1), 0.7)
    assert np.abs(prop.final - expect).max() < 1e-12


# ---------------------------------------------------------------------------
# toggle matrices from the adjoint eigendata; log-depth prefix products


def sequential_prefixes(u):
    """Oracle: prefixes[q] = U_q ... U_1 U_0 by a left-to-right fold."""
    pre = np.empty_like(u)
    acc = np.eye(u.shape[-1], dtype=u.dtype)
    for q in range(u.shape[0]):
        acc = u[q] @ acc
        pre[q] = acc
    return pre


def sequential_prefix_toggles(dq):
    """Oracle: E_prev[q] = D_0 D_1 ... D_{q-1}, identity at q = 0."""
    out = np.empty_like(dq)
    acc = np.eye(dq.shape[-1])
    for q in range(dq.shape[0]):
        out[q] = acc
        acc = acc @ dq[q]
    return out


@st.composite
def primary_hamiltonians(draw):
    """(n_qubits, H_pri stack, dt): random drives plus the degenerate
    adjoint spectra of zero drive and a pure ZZ coupling."""
    from hamforge.evaluate import pauli_basis_stack

    n = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["random", "zero", "zz"]))
    qn = draw(st.integers(1, 4))
    paulis = pauli_basis_stack(n)[1:] * np.sqrt(2 ** n)
    coef = st.floats(-5.0, 5.0, allow_nan=False)
    if kind == "random":
        c = np.array(draw(st.lists(coef, min_size=qn * len(paulis), max_size=qn * len(paulis))))
        h = np.einsum("qa,aij->qij", c.reshape(qn, -1), paulis)
    elif kind == "zero":
        h = np.zeros((qn, 2 ** n, 2 ** n), dtype=complex)
    else:
        zz = pauli_op([(q + 1, "z") for q in range(n)], 1.0, n)
        h = np.array(draw(st.lists(coef, min_size=qn, max_size=qn)))[:, None, None] * zz
    return n, h, draw(st.floats(0.01, 2.0))


def _frame(h, stack):
    """Frequencies and spectral frame (nu, F) of the steps h on the stack."""
    return tg.adjoint_matrix_batch(*np.linalg.eigh(h), tg.AdjointFrame(stack))


def _assert_frame_factors(nu, f, h, stack):
    """F diag(nu) F^dag is the adjoint matrix and F F^dag = I_m, per step."""
    madj = orc.adjoint_matrix_batch(h, stack)
    for q in range(len(h)):   # the checked single-step builder forms the commutators
        scale = max(np.abs(h[q]).max(), 1.0)
        assert np.abs(madj[q] - orc.adjoint_matrix(h[q], stack)).max() <= 1e-13 * scale
        assert np.abs((f[q] * nu[q]) @ f[q].conj().T - madj[q]).max() <= 1e-13 * scale
        assert np.abs(f[q] @ f[q].conj().T - np.eye(len(stack))).max() <= 1e-13


@given(primary_hamiltonians())
@settings(max_examples=40, deadline=None)
def test_eigen_toggles_match_conjugation(case):
    from hamforge.evaluate import pauli_basis_stack

    n, h, dt = case
    stack = pauli_basis_stack(n)[1:]
    nu, f = _frame(h, stack)
    assert f.shape == (len(h), len(stack), len(stack))   # p = m on su(d)
    _assert_frame_factors(nu, f, h, stack)
    got = tg.eigen_toggles(nu, f, dt)
    want = orc.toggle_matrices(tg.expm_batch(h, dt), stack)
    assert np.abs(got - want).max() <= 1e-13


def test_a_stack_with_an_identity_direction_keeps_it_in_the_frame():
    # z1 + 0.3 I toggles into span{I, x, y, z}: the identity direction is
    # the frame column D_0 = I / sqrt(2), with frequency 0
    (sx, sy, sz), g, _ = su2_spaces()
    hpert = sz + 0.3 * np.eye(2)
    c = find_c_subspace(g, hpert)
    stack, dt = c.stack, 0.8
    rng = np.random.default_rng(21)
    h = np.array([rng.normal() * sx + rng.normal() * sy + rng.normal() * sz for _ in range(4)])
    nu, f = _frame(h, stack)
    assert f.shape == (4, 4, 4)
    _assert_frame_factors(nu, f, h, stack)
    want = orc.toggle_matrices(tg.expm_batch(h, dt), stack)
    assert np.abs(tg.eigen_toggles(nu, f, dt) - want).max() <= 1e-13
    # every step alone against the sequential engine on the adjoint eigh
    y = np.einsum("qba,b->qa", f.conj(), orc.vector(hpert, stack))
    a, *tables = tg.batch_step_cints(nu, f, y, dt, 3)
    for q in range(len(h)):
        got = tg.compose_batch(np.eye(4)[None], *_alone(q, a, *tables))[2]
        cset = orc.step_c_integrals(h[q], hpert, c, dt, 3)
        for r, (g_r, w_r) in enumerate(zip(got, (cset.c0, cset.c1_matrix(), cset.c2_tensor())), 1):
            assert np.abs(g_r - w_r).max() <= 1e-12 * dt ** r / math.factorial(r)


@pytest.mark.parametrize("qn", [1, 2, 3, 7, 35, 560])
def test_prefix_products_match_sequential_fold(qn):
    rng = np.random.default_rng(qn)
    a = rng.normal(size=(qn, 4, 4)) + 1j * rng.normal(size=(qn, 4, 4))
    u, _ = np.linalg.qr(a)
    d, _ = np.linalg.qr(rng.normal(size=(qn, 3, 3)))
    pre = tg.prefix_products(u)
    want = sequential_prefixes(u)
    assert np.abs(pre - want).max() <= 1e-13
    assert np.abs(pre[-1] - want[-1]).max() <= 1e-13   # the final unitary
    assert np.abs(tg.prefix_toggles(d) - sequential_prefix_toggles(d)).max() <= 1e-13


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (7,), (35,), (560,), (4, 40), (3, 5)])
def test_ordered_product_matches_sequential_fold(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=(*shape, 4, 4)) + 1j * rng.normal(size=(*shape, 4, 4))
    u, _ = np.linalg.qr(a)
    assert np.abs(tg.ordered_product(u) - orc.sequential_product(u)).max() <= 1e-13


# ---------------------------------------------------------------------------
# per-step tensors over distinct adjoint frequencies (spectral components)

def _two_qubit_paulis():
    from hamforge.evaluate import pauli_basis_stack

    return pauli_basis_stack(2)[1:]   # 15 traceless, Hilbert-Schmidt orthonormal


def _resonant_step(ax, ay, bx, by, j):
    """Resonant x/y drives on both qubits plus a ZZ coupling: the
    eigenvalues of H come in +/- pairs, so the adjoint spectrum has 9
    distinct values out of 15."""
    terms = [([(1, "x")], ax), ([(1, "y")], ay), ([(2, "x")], bx), ([(2, "y")], by),
             ([(1, "z"), (2, "z")], j)]
    return sum(pauli_op(t, c, 2) for t, c in terms)


@st.composite
def two_qubit_steps(draw):
    """(H stack, dt): a mix of step kinds with exact degeneracies (zero
    drive, pure ZZ, resonant drives plus ZZ), generic steps, and steps
    whose adjoint spectrum has pairs split by 1e-8 in phase units."""
    dt = draw(st.floats(0.5, 2.0))
    coef = st.floats(-3.0, 3.0, allow_nan=False).map(lambda c: c / dt)
    kinds = draw(st.lists(st.sampled_from(["zero", "zz", "resonant", "generic", "near"]),
                          min_size=1, max_size=5))
    paulis = _two_qubit_paulis() * 2.0
    steps = []
    for kind in kinds:
        if kind == "zero":
            h = np.zeros((4, 4), dtype=complex)
        elif kind == "zz":
            h = _resonant_step(0.0, 0.0, 0.0, 0.0, draw(coef))
        elif kind == "resonant":
            h = _resonant_step(*(draw(coef) for _ in range(5)))
        elif kind == "generic":
            h = np.einsum("a,aij->ij", np.array([draw(coef) for _ in range(15)]), paulis)
        else:
            lam = np.array([draw(coef) for _ in range(3)])
            lam = np.append(lam, lam[-1] + 1e-8 / dt)
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            w, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            h = (w * lam) @ w.conj().T
        steps.append(h)
    return np.array(steps), dt


def _unit_seeds(rng, q, m):
    seeds = rng.normal(size=(q, m))
    return seeds / np.linalg.norm(seeds, axis=-1, keepdims=True)


def _eigen(h, stack, seeds):
    nu, v = np.linalg.eigh(orc.adjoint_matrix_batch(h, stack))
    return nu, v, np.einsum("qba,qb->qa", v.conj(), seeds.astype(complex))


def _alone(q, *arrays):
    """Step q of each stack, as a stack of one step."""
    return [x[q : q + 1] for x in arrays]


def _assert_cints_match_ungrouped(nu, v, y, dt):
    # a step composed alone (E_prev = I) gives its own c0, c1 and c2
    a, *tables = tg.batch_step_cints(nu, v, y, dt, 3)
    eye = np.eye(nu.shape[1])[None]
    for q in range(len(nu)):
        got = tg.compose_batch(eye, *_alone(q, a, *tables))[2]
        want = orc.step_cints_raw(orc.StepEigen(nu[q], v[q], y[q]), dt, 3)
        for r, (g, w) in enumerate(zip(got, want), start=1):
            assert np.abs(g - w).max() <= 1e-12 * dt ** r / math.factorial(r)


def _assert_composed_match_oracle(nu, v, y, dt):
    """Whole-sequence tensors against the sequential fold of the ungrouped
    per-step tensors, at each order and with the lab frame on and off."""
    dq = tg.eigen_toggles(nu, v, dt)
    e_prev = tg.prefix_toggles(dq)
    steps = [orc.step_cints_raw(orc.StepEigen(nu[q], v[q], y[q]), dt, 3) for q in range(len(nu))]
    t = len(nu) * dt
    for r_max in (1, 2, 3):
        want = orc.compose_raw(steps, dq, r_max)
        a, *tables = tg.batch_step_cints(nu, v, y, dt, r_max)
        for lab in (False, True):
            b, a0, got = tg.compose_batch(e_prev, a, *tables, lab=lab)
            assert (b is None) == (r_max == 1 and not lab)
            for r, (g, w) in enumerate(zip(got, want), start=1):
                assert (g is None) == (r > r_max)
                if g is not None:
                    assert np.abs(g - w).max() <= 1e-12 * t ** r / math.factorial(r)


@given(two_qubit_steps(), st.integers(0, 2 ** 32 - 1))
@example((np.array([_resonant_step(0.3, -1.1, 0.7, 0.2, 1.3), np.zeros((4, 4))]), 1.0), 5)
# a pure ZZ step whose adjoint frequencies {-2J, 0, 2J} merge at the widest
# gap (2 J dt just under MERGE_KAPPA): the largest merge error of a 3-group
@example((np.array([_resonant_step(0.0, 0.0, 0.0, 0.0, 0.499 * tg.MERGE_KAPPA)]), 1.0), 6)
@settings(max_examples=25, deadline=None)
def test_grouped_step_tensors_match_ungrouped_oracle(case, seed):
    h, dt = case
    stack = _two_qubit_paulis()
    rng = np.random.default_rng(seed)
    nu, v, y = _eigen(h, stack, _unit_seeds(rng, len(h), len(stack)))
    _assert_cints_match_ungrouped(nu, v, y, dt)
    _assert_composed_match_oracle(nu, v, y, dt)
    # cross tensors: a second seed on the same steps at the earlier slot,
    # through the shared I2 table of one subspace and the rectangular one
    nu_e, v_e, y_e = _eigen(h, stack, _unit_seeds(rng, len(h), len(stack)))
    groups, groups_e = tg.spectral_groups(nu, dt), tg.spectral_groups(nu_e, dt)
    dq, dq_e = tg.eigen_toggles(nu, v, dt), tg.eigen_toggles(nu_e, v_e, dt)
    raw = [orc.StepEigen(*s) for s in zip(nu, v, y)]
    raw_e = [orc.StepEigen(*s) for s in zip(nu_e, v_e, y_e)]
    step_cross = [orc.step_cross_raw(p, e, dt) for p, e in zip(raw, raw_e)]
    want = orc.compose_cross_raw(
        step_cross, [orc.step_cints_raw(p, dt, 1)[0] for p in raw],
        [orc.step_cints_raw(e, dt, 1)[0] for e in raw_e], dq, dq_e,
    )
    a = tg.batch_step_cints(nu, v, y, dt, 1, groups)[0]
    a_e = tg.batch_step_cints(nu_e, v_e, y_e, dt, 1, groups_e)[0]
    eye = np.eye(len(stack))[None]
    for g_e in (groups, groups_e):
        i2x = tg.batch_step_cross(groups, g_e)
        sides = [
            tg.compose_batch(e, x, g.i1, lab=True)[:2]
            for e, x, g in ((tg.prefix_toggles(dq), a, groups), (tg.prefix_toggles(dq_e), a_e, g_e))
        ]
        got = tg.compose_cross_batch(i2x, *sides[0], *sides[1])
        assert np.abs(got - want).max() <= 1e-12 * (len(h) * dt) ** 2 / 2
        # each step alone gives its own cross tensor
        for q in range(len(h)):
            alone = [tg.compose_batch(eye, x, i1, lab=True)[:2]
                     for x, i1 in (_alone(q, a, groups.i1), _alone(q, a_e, g_e.i1))]
            got = tg.compose_cross_batch(i2x[q : q + 1], *alone[0], *alone[1])
            assert np.abs(got - step_cross[q]).max() <= 1e-12 * dt ** 2 / 2


@given(two_qubit_steps(), st.integers(0, 2 ** 32 - 1))
@example((np.array([_resonant_step(0.3, -1.1, 0.7, 0.2, 1.3), np.zeros((4, 4))]), 1.0), 5)
@example((np.array([_resonant_step(0.0, 0.0, 0.0, 0.0, 0.499 * tg.MERGE_KAPPA)]), 1.0), 6)
@settings(max_examples=25, deadline=None)
def test_frame_tensors_match_the_adjoint_eigenbasis(case, seed):
    # the frame's frequencies come unsorted, with exact zeros; grouped, they
    # give the groups and composed tensors of the eigh of the adjoint matrices
    h, dt = case
    stack = _two_qubit_paulis()
    seeds = _unit_seeds(np.random.default_rng(seed), len(h), len(stack))
    nu, v, y = _eigen(h, stack, seeds)
    nu_f, f = _frame(h, stack)
    y_f = np.einsum("qba,qb->qa", f.conj(), seeds)
    assert tg.spectral_groups(nu_f, dt).w.shape == tg.spectral_groups(nu, dt).w.shape
    dq = orc.toggle_matrices(tg.expm_batch(h, dt), stack)
    steps = [orc.step_cints_raw(orc.StepEigen(nu[q], v[q], y[q]), dt, 3) for q in range(len(h))]
    want = orc.compose_raw(steps, dq, 3)
    a, *tables = tg.batch_step_cints(nu_f, f, y_f, dt, 3)
    got = tg.compose_batch(tg.prefix_toggles(tg.eigen_toggles(nu_f, f, dt)), a, *tables)[2]
    t = len(h) * dt
    for r, (g, w) in enumerate(zip(got, want), start=1):
        assert np.abs(g - w).max() <= 1e-12 * t ** r / math.factorial(r)


def test_resonant_two_qubit_step_has_nine_distinct_frequencies():
    dt = 1.0
    h = np.array([_resonant_step(0.3, -1.1, 0.7, 0.2, 1.3)] * 3)
    stack = _two_qubit_paulis()
    nu, v, y = _eigen(h, stack, _unit_seeds(np.random.default_rng(9), 3, 15))
    groups = tg.spectral_groups(nu, dt)
    assert groups.w.shape == (3, 9)
    assert np.all(groups.onehot.sum(axis=-1) == 1.0)
    _assert_cints_match_ungrouped(nu, v, y, dt)
    assert tg.spectral_groups(_frame(h, stack)[0], dt).w.shape == (3, 9)


def test_split_spectra_take_the_columns_as_components():
    nu = np.array([[-1.0, -1.0 + 1e-8, 0.0, 2.0]])
    groups = tg.spectral_groups(nu, 1.0)
    assert groups.onehot is None and groups.w is nu
    merged = tg.spectral_groups(np.array([[-1.0, -1.0 + 0.5 * tg.MERGE_KAPPA, 0.0, 2.0]]), 1.0)
    assert merged.w.shape == (1, 3)


def test_step_cints_hpri_zero():
    (sx, sy, sz), g, c = su2_spaces()
    dt = 0.8
    zero = np.zeros((2, 2))
    cset = orc.step_c_integrals(zero, sz, c, dt, 3)

    v = orc.vector(sz, c.stack).real
    assert np.allclose(cset.c0, v * dt)
    assert np.allclose(cset.c1_matrix(), np.outer(v, v) * dt ** 2 / 2)
    expect2 = np.einsum("i,j,k->ijk", v, v, v) * dt ** 3 / 6
    assert np.allclose(cset.c2_tensor(), expect2)


def test_step_cints_vs_quadrature():
    (sx, sy, sz), g, c = su2_spaces()
    stack = c.stack
    w, dt = 1.3, 0.9
    hp = w * sx
    hpert = sz * 0.7

    def tog(t):
        u = expm_herm_generator(hp, t)
        m = u.conj().T @ hpert @ u
        return np.einsum("aij,ij->a", stack.conj(), m)

    cset = orc.step_c_integrals(hp, hpert, c, dt, 3)
    o0, o1, o2 = rk4_cint_oracle(tog, dt, 3)
    assert np.abs(cset.c0 - o0).max() < 1e-8
    assert np.abs(cset.c1_matrix() - o1).max() < 1e-8
    assert np.abs(cset.c2_tensor() - o2).max() < 1e-8


def test_adjoint_spectrum_sigma_x():
    (sx, sy, sz), g, c = su2_spaces()
    w = 1.7
    m = orc.adjoint_matrix(w * sx, c.stack)
    nu = np.linalg.eigvalsh(m)
    assert np.allclose(sorted(nu), [-2 * w, 0.0, 2 * w], atol=1e-10)


def _random_sequence_setup(rng, n_steps, dt=0.8, pert_scale=0.7):
    (sx, sy, sz), g, c = su2_spaces()
    h_pri = [
        rng.normal() * sx + rng.normal() * sy
        for _ in range(n_steps)
    ]
    hpert = sz * pert_scale
    return (sx, sy, sz), c, h_pri, hpert, dt


def seq_tog_fn(h_pri, hpert, stack, dt):
    def tog(t):
        qn = len(h_pri)
        q = min(int(t / dt), qn - 1)
        tau = t - q * dt
        u = np.eye(2, dtype=complex)
        for p in range(q):
            u = expm_herm_generator(h_pri[p], dt) @ u
        u = expm_herm_generator(h_pri[q], tau) @ u
        m = u.conj().T @ hpert @ u
        return np.einsum("aij,ij->a", stack.conj(), m)

    return tog


def test_compose_vs_quadrature():
    rng = np.random.default_rng(42)
    _, c, h_pri, hpert, dt = _random_sequence_setup(rng, 3)
    stack = c.stack
    steps = orc.StepHamiltonians.from_operators(h_pri, [hpert] * 3, dt)
    prop = orc.propagate_primary(steps)
    per = [orc.step_c_integrals(h_pri[q], hpert, c, dt, 3) for q in range(3)]
    tot = orc.compose_c_integrals(per, prop, c)
    o0, o1, o2 = rk4_cint_oracle(seq_tog_fn(h_pri, hpert, stack, dt), 3 * dt, 3, n=6000)
    assert np.abs(tot.c0 - o0).max() < 1e-6 * max(np.linalg.norm(o0), 1)
    assert np.abs(tot.c1_matrix() - o1).max() < 1e-6 * max(np.linalg.norm(o1), 1)
    assert np.abs(tot.c2_tensor() - o2).max() < 1e-6 * max(np.linalg.norm(o2), 1)


def test_compose_single_step_passthrough():
    rng = np.random.default_rng(1)
    _, c, h_pri, hpert, dt = _random_sequence_setup(rng, 1)
    steps = orc.StepHamiltonians.from_operators(h_pri, [hpert], dt)
    prop = orc.propagate_primary(steps)
    per = [orc.step_c_integrals(h_pri[0], hpert, c, dt, 3)]
    tot = orc.compose_c_integrals(per, prop, c)
    assert np.allclose(tot.c0, per[0].c0)
    assert np.allclose(tot.c1, per[0].c1)
    assert np.allclose(tot.c2, per[0].c2)


def test_compose_two_step_order1():
    rng = np.random.default_rng(2)
    _, c, h_pri, hpert, dt = _random_sequence_setup(rng, 2)
    steps = orc.StepHamiltonians.from_operators(h_pri, [hpert] * 2, dt)
    prop = orc.propagate_primary(steps)
    per = [orc.step_c_integrals(h_pri[q], hpert, c, dt, 1) for q in range(2)]
    tot = orc.compose_c_integrals(per, prop, c)
    d1 = orc.toggle_matrices(prop.step_unitaries, c.stack)[0]
    expect = per[0].c0 + d1 @ per[1].c0
    assert np.allclose(tot.c0, expect)


def test_batch_matches_raw_paths():
    rng = np.random.default_rng(3)
    _, c, h_pri, hpert, dt = _random_sequence_setup(rng, 4)
    stack = c.stack

    seed = orc.vector(hpert, c.stack)
    hmat = np.stack(h_pri)
    madj = orc.adjoint_matrix_batch(hmat, stack)
    nu, vecs = np.linalg.eigh(madj)
    y = np.einsum("qba,b->qa", vecs.conj(), seed)
    a, *tables = tg.batch_step_cints(nu, vecs, y, dt, 3)
    steps = orc.StepHamiltonians.from_operators(h_pri, [hpert] * 4, dt)
    prop = orc.propagate_primary(steps)
    dq = orc.toggle_matrices(prop.step_unitaries, stack)
    e_prev = tg.prefix_toggles(dq)
    t0b, t1b, t2b = tg.compose_batch(e_prev, a, *tables)[2]
    # the same per-step tensors into the sequential fold: each step composed alone
    tensors = [tg.compose_batch(np.eye(3)[None], *_alone(q, a, *tables))[2] for q in range(4)]
    t0r, t1r, t2r = orc.compose_raw(tensors, dq, 3)
    assert np.abs(t0b - t0r).max() < 1e-12
    assert np.abs(t1b - t1r).max() < 1e-12
    assert np.abs(t2b - t2r).max() < 1e-12


def test_cross_integral_trivial_and_quadrature():
    rng = np.random.default_rng(4)
    (sx, sy, sz), g, c = su2_spaces()
    cerr = find_c_subspace(g, sx, extra_seeds=(sy,))
    dt = 0.7
    h_pri = [rng.normal() * sx + rng.normal() * sy for _ in range(2)]
    hpert = sz * 0.5
    aops = [rng.normal() * sx + rng.normal() * sy for _ in range(2)]
    steps = orc.StepHamiltonians.from_operators(
        h_pri, [hpert] * 2, dt, error_terms={"e": aops}
    )
    prop = orc.propagate_primary(steps)
    got = orc.cross_c_integral(steps, "e", c, cerr, prop)

    # zero error term -> zero tensor
    zsteps = orc.StepHamiltonians.from_operators(
        h_pri, [hpert] * 2, dt,
        error_terms={"e": [np.zeros((2, 2))] * 2},
    )
    assert np.abs(orc.cross_c_integral(zsteps, "e", c, cerr, prop)).max() == 0

    # quadrature oracle: cross' = phi_pert(t) (x) c0_err(t), integrated one
    # step at a time so the error-term jump at the boundary never lands
    # inside an RK4 stage
    sp, se = c.stack, cerr.stack

    def prefix(q):
        u = np.eye(2, dtype=complex)
        for p in range(q):
            u = expm_herm_generator(h_pri[p], dt) @ u
        return u

    state = (np.zeros(cerr.dim, complex), np.zeros((c.dim, cerr.dim), complex))
    n = 2500
    h = dt / n
    for q in range(2):
        pre = prefix(q)

        def deriv(tau, s):
            u = expm_herm_generator(h_pri[q], tau) @ pre
            p = np.einsum("aij,ij->a", sp.conj(), u.conj().T @ hpert @ u)
            e = np.einsum("aij,ij->a", se.conj(), u.conj().T @ aops[q] @ u)
            return (e, np.einsum("i,j->ij", p, s[0]))

        for k in range(n):
            tau = k * h
            k1 = deriv(tau, state)
            k2 = deriv(tau + h / 2, tuple(s + h / 2 * d for s, d in zip(state, k1)))
            k3 = deriv(tau + h / 2, tuple(s + h / 2 * d for s, d in zip(state, k2)))
            k4 = deriv(tau + h, tuple(s + h * d for s, d in zip(state, k3)))
            state = tuple(
                s + h / 6 * (a + 2 * b + 2 * cc + d)
                for s, a, b, cc, d in zip(state, k1, k2, k3, k4)
            )
    ref = state[1]
    assert np.abs(got - ref).max() < 1e-6 * max(np.linalg.norm(ref), 1)


def test_cross_no_toggling_closed_form():
    (sx, sy, sz), g, c = su2_spaces()
    cerr = find_c_subspace(g, sx, extra_seeds=(sy,))
    dt, qn = 0.5, 3
    zero = np.zeros((2, 2))
    a = sx * 0.8
    steps = orc.StepHamiltonians.from_operators(
        [zero] * qn, [sz] * qn, dt, error_terms={"e": [a] * qn}
    )
    prop = orc.propagate_primary(steps)
    got = orc.cross_c_integral(steps, "e", c, cerr, prop)

    vp = orc.vector(sz, c.stack).real
    ve = orc.vector(a, cerr.stack).real
    t = qn * dt
    assert np.abs(got - np.outer(vp, ve) * t ** 2 / 2).max() < 1e-10


def test_magnus_trivial_cases():
    (sx, sy, sz), g, c = su2_spaces()
    dt, qn = 0.4, 3
    # commuting toggled Hamiltonian: H_pri, H_pert both diagonal
    hz = [0.9 * sz] * qn
    steps = orc.StepHamiltonians.from_operators(hz, [sz] * qn, dt)
    prop = orc.propagate_primary(steps)
    per = [orc.step_c_integrals(hz[q], sz, c, dt, 2) for q in range(qn)]
    tot = orc.compose_c_integrals(per, prop, c)
    h0, h1, _ = orc.magnus_terms(tot, c)
    assert np.abs(h1).max() < 1e-12

    # H_pri = 0: zeroth term equals the perturbation
    zero = np.zeros((2, 2))
    steps = orc.StepHamiltonians.from_operators([zero] * qn, [sz] * qn, dt)
    prop = orc.propagate_primary(steps)
    per = [orc.step_c_integrals(zero, sz, c, dt, 1) for q in range(qn)]
    tot = orc.compose_c_integrals(per, prop, c)
    h0, _, _ = orc.magnus_terms(tot, c)
    assert np.abs(h0 - sz).max() < 1e-10


def test_magnus_fourth_order_scaling():
    rng = np.random.default_rng(7)
    (sx, sy, sz), g, c = su2_spaces()
    dt, qn = 0.8, 3
    h_pri = [
        rng.normal() * sx + rng.normal() * sy
        for _ in range(qn)
    ]

    def resid(eps):
        hpert = sz * eps
        steps = orc.StepHamiltonians.from_operators(h_pri, [hpert] * qn, dt)
        prop = orc.propagate_primary(steps)
        per = [orc.step_c_integrals(h_pri[q], hpert, c, dt, 3) for q in range(qn)]
        tot = orc.compose_c_integrals(per, prop, c)
        h0, h1, h2 = orc.magnus_terms(tot, c)
        hsum = h0 + h1 + h2
        w, v = np.linalg.eigh((hsum + hsum.conj().T) / 2)
        um = (v * np.exp(-1j * w * qn * dt)) @ v.conj().T
        # exact perturbative propagator by fine-step toggling integration
        n = 6000
        h = qn * dt / n
        u = np.eye(2, dtype=complex)
        for k in range(n):
            t = (k + 0.5) * h
            q = min(int(t / dt), qn - 1)
            tau = t - q * dt
            up = np.eye(2, dtype=complex)
            for p in range(q):
                up = expm_herm_generator(h_pri[p], dt) @ up
            up = expm_herm_generator(h_pri[q], tau) @ up
            htog = up.conj().T @ hpert @ up
            ww, vv = np.linalg.eigh(htog)
            u = (vv * np.exp(-1j * ww * h)) @ vv.conj().T @ u
        return np.linalg.norm(um - u)

    r1, r2 = resid(0.2), resid(0.1)
    assert 10 <= r1 / r2 <= 24


def test_scaling_in_pert_amplitude():
    rng = np.random.default_rng(9)
    (sx, sy, sz), g, c = su2_spaces()
    hp = rng.normal() * sx + rng.normal() * sy
    a = orc.step_c_integrals(hp, sz, c, 0.6, 3)
    b = orc.step_c_integrals(hp, sz * 2.0, c, 0.6, 3)
    assert np.allclose(b.c0, 2 * a.c0)
    assert np.allclose(b.c1, 4 * a.c1)
    assert np.allclose(b.c2, 8 * a.c2)


def test_c1_symmetrized_part_is_c0_outer():
    # c1 + c1^T = c0 (x) c0 identically (full-square identity); the
    # symmetric part therefore never feeds the first Magnus term
    rng = np.random.default_rng(10)
    _, c, h_pri, hpert, dt = _random_sequence_setup(rng, 3)
    steps = orc.StepHamiltonians.from_operators(h_pri, [hpert] * 3, dt)
    prop = orc.propagate_primary(steps)
    per = [orc.step_c_integrals(h_pri[q], hpert, c, dt, 2) for q in range(3)]
    tot = orc.compose_c_integrals(per, prop, c)
    c1 = tot.c1_matrix()
    assert np.abs(c1 + c1.T - np.outer(tot.c0, tot.c0)).max() < 1e-10
    # the symmetric part contributes nothing to H1
    h0, h1, _ = orc.magnus_terms(tot, c)
    sym = (c1 + c1.T) / 2
    comm = orc.commutator_table(c.stack)
    assert np.abs(np.einsum("ij,ijab->ab", sym, comm)).max() < 1e-12


def test_time_reversal_keeps_c0_norm():
    rng = np.random.default_rng(12)
    _, c, h_pri, hpert, dt = _random_sequence_setup(rng, 3)
    def c0_of(seq_ops):
        steps = orc.StepHamiltonians.from_operators(seq_ops, [hpert] * 3, dt)
        prop = orc.propagate_primary(steps)
        per = [orc.step_c_integrals(seq_ops[q], hpert, c, dt, 1) for q in range(3)]
        return orc.compose_c_integrals(per, prop, c).c0

    forward = c0_of(h_pri)
    backward = c0_of(h_pri[::-1])
    assert np.linalg.norm(forward) == pytest.approx(np.linalg.norm(backward), rel=1e-9)
