import functools
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


def collocation_table(nu, t, r, rule=None):
    """The ordered integrals of e^{i a t1} .. e^{i c tr} over every r-tuple
    of the frequencies nu (r <= 3) on one step [0, t], as nodal sums of
    `step_rule`: I1 = sum_j W_j e_a, I2 = sum_j W_j e_a (S e_b) and I3 =
    sum_j W_j e_a (S (e_b (S e_c))), with e_a = e^{i a tau}."""
    tau, w, s = tg.step_rule(nu, t) if rule is None else rule
    e = np.exp(1j * np.multiply.outer(nu, tau))
    run = np.ones((1, len(tau)))
    for _ in range(r - 1):
        run = (e[:, None] * run).reshape(-1, len(tau)) @ s.T
    return ((e * w) @ run.T).ravel()


def int3_grid_errors(nu, t):
    """Per-entry errors of the r=3 grid of nodal sums on every triple of
    the frequencies nu against the Opitz oracle at exact prefix sums, in
    units of T^3/6."""
    mp = pytest.importorskip("mpmath")
    w = np.asarray(nu, dtype=float)
    grid = collocation_table(w, t, 3).reshape((len(w),) * 3)
    err = np.empty(grid.shape)
    for abc in np.ndindex(grid.shape):
        with mp.workdps(40):
            a, b, c = (mp.mpf(float(w[k])) for k in abc)
            err[abc] = abs(grid[abc] - opitz_oracle([mp.mpf(0), a, a + b, a + b + c], mp.mpf(t)))
    return err / (t ** 3 / 6)


@st.composite
def adjoint_spectra(draw):
    """Step length T and m=4 eigenvalues as adjoint spectra have them: an
    exact zero, +/- pairs, repeats, gaps straddling 1e-3, and a partner of
    w whose sum with it is a phase at rounding level, as rounding leaves
    the pairs of eigh.  Sums a+b+c and a+b come out exactly or nearly zero."""
    t = draw(st.floats(0.5, 2.0))
    w = draw(st.floats(0.05, 4.0))
    gap = draw(st.floats(2e-4, 5e-3))
    near = -w - draw(st.floats(-0.9, 0.9)) * 1e-13
    pool = [0.0, w, -w, gap, -gap, w + gap, near]
    rest = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))
    return t, np.array([0.0, *rest]) / t


# a node gap just above 1e-3: with its series threshold at 1e-3 the
# general kernel was off by 1.7e-9 * T^3/6 (r=3) and 3e-13 * T^2/2 (r=2)
GAP_ABOVE_1E3 = np.array([0.0, 0.0, 1.0155796176509306e-3, 2.8151671747907323])


@given(adjoint_spectra())
@example((1.0, GAP_ABOVE_1E3))
# clusters just above a 0.05 series width of the general kernel
@example((1.0, np.array([0.0, 0.0, 0.078125, 0.00390625])))
# sums a+b+c at rounding level, with a+b = 0 at rounding level and not;
# exact zero sums and the all-zero entry
@example((1.0, np.array([0.0, 2.5753589512631057, -2.575358951263022, 0.7])))
@example((0.8, np.array([0.0, 1.3, -1.3, 0.0]) / 0.8))
@example((1.5, np.array([0.0, 0.0, 0.0, 0.0])))
@example((1.0, np.array([0.0, 0.15, -0.15 - 0.9e-13, 1.1])))
@settings(max_examples=10, deadline=None)
def test_int3_grid_vs_mpmath(case):
    t, nu = case
    assert int3_grid_errors(nu, t).max() <= 1e-13


def test_int3_kernels_are_not_called_on_zero_entries(monkeypatch):
    # the general kernel calls its series only for node clusters
    sizes = []
    real = orc._dd_taylor
    monkeypatch.setattr(orc, "_dd_taylor", lambda nodes, *rest: sizes.append(np.size(nodes[0])) or real(nodes, *rest))
    # nodes 0, 1, 3, 7: no cluster
    orc._int3_plus(np.array([1.0]), np.array([2.0]), np.array([4.0]), 1.0)
    assert sizes == []
    # w = 0, +-1, +-3 at T = 1: only the entries of clusters take the series
    w = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    orc._int3_plus(w[:, None, None], w[None, :, None], w[None, None, :], 1.0)
    assert sizes and 0 not in sizes and sum(sizes) < w.size ** 3


@st.composite
def step_spectra(draw):
    """(nu (Q, k), dt): 1 to 3 steps of frequencies as adjoint spectra
    have them, exact zeros, ties and +/- pairs, each step with its own
    largest phase theta_q = max |nu_q| dt up to 20, so that the rule takes
    up to four panels."""
    dt = draw(st.floats(0.1, 2.0))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        theta = draw(st.one_of(st.floats(0.0, tg.GL_THETA), st.floats(tg.GL_THETA, 20.0)))
        w = theta / dt
        a = draw(st.floats(0.0, 1.0)) * w
        pool = [0.0, w, -w, a, -a, w - a]
        steps.append([-w, *draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))])
    return np.array(steps), dt


@given(step_spectra())
# one panel at the top of its range (GL_THETA = 5.25), then two just
# below the top of theirs, and four
@example((np.array([[-5.25, 5.25, 0.0, 2.5]]), 1.0))
@example((np.array([[-10.4, 10.4, 0.0, 5.2]]), 1.0))
@example((np.array([[-20.0, 20.0, 10.0, 0.0]]), 1.0))
# a quiet first step before a fast one: the rule reads the fastest step
@example((np.array([[0.0, 0.0, 0.0, 0.0], [-10.4, 10.4, 0.0, 5.2]]), 1.0))
# a node cluster of width 0.213, just above the kernel's former series
# threshold of 0.2, where its direct differences were 5.1e-14 T^3/6 off
@example((np.array([[-0.001643998557837909, -0.3190124473074297, 0.009301982119487861, 0.0]]),
          0.6651619341444206))
@settings(max_examples=25, deadline=None)
def test_nodal_step_sums_match_the_general_kernel(case):
    nu, dt = case
    rule = tg.step_rule(nu, dt)
    kernels = (orc._int1_plus, orc._int2_plus, orc._int3_plus)
    for w in nu:
        for r, kernel in enumerate(kernels, 1):
            axes = [np.expand_dims(w, tuple(j for j in range(r) if j != k)) for k in range(r)]
            want = kernel(*axes, dt).ravel()
            got = collocation_table(w, dt, r, rule)
            assert np.abs(got - want).max() <= 1e-13 * dt ** r / math.factorial(r)


def test_step_rule_panels():
    # 2^s panels of GL_NODES nodes, s = ceil(log2(theta / GL_THETA)): the
    # nodes ascend inside (0, dt), the weights sum to dt, and S integrates
    # the polynomials of degree below GL_NODES exactly
    k, theta = tg.GL_NODES, tg.GL_THETA
    for phase, panels in ((0.0, 1), (theta, 1), (theta * 1.01, 2), (2 * theta, 2), (20.0, 4)):
        # the quiet first step does not decide the rule
        tau, w, s = tg.step_rule(np.array([[0.0], [-phase / 0.5]]), 0.5)
        assert len(tau) == len(w) == len(s) == k * panels
        assert np.all(np.diff(tau) > 0) and 0 < tau[0] and tau[-1] < 0.5
        assert w.sum() == pytest.approx(0.5, rel=1e-15)
        for n in range(k):
            assert np.abs(s @ tau ** n - tau ** (n + 1) / (n + 1)).max() <= 1e-15


@st.composite
def node_rows(draw):
    """(rows, r) arrays of r = 3 or 4 nodes with ties, exact and signed zeros."""
    r = draw(st.sampled_from([3, 4]))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-13]), st.floats(-10.0, 10.0))
    rows = draw(st.lists(st.lists(value, min_size=r, max_size=r), min_size=1, max_size=20))
    return np.array(rows)


@given(node_rows())
@example(np.array([[0.0, -0.0, 0.0], [1.0, -0.0, 1.0]]))
@example(np.array([[1.0, 1.0, -0.0, 0.0], [0.0, -1.0, -0.0, -1.0]]))
@settings(max_examples=60, deadline=None)
def test_sorting_networks_match_sort(nodes):
    got = np.stack(orc._sorted_nodes(*nodes.T), axis=-1)
    want = np.sort(nodes, axis=-1)
    # bit for bit; a tie of -0.0 and +0.0 may leave either zero in either
    # place (min/max keep one operand, np.sort's tie order is the platform's)
    assert np.array_equal((got + 0.0).view(np.uint64), (want + 0.0).view(np.uint64))


@pytest.mark.parametrize("r", [2, 3])
def test_general_kernel_vs_mpmath(r):
    mp = pytest.importorskip("mpmath")
    t = 1.0
    nu = GAP_ABOVE_1E3 / t
    axes = [np.expand_dims(nu, tuple(j for j in range(r) if j != k)) for k in range(r)]
    kernel = orc._int2_plus if r == 2 else orc._int3_plus
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
    assert int3_grid_errors(nu, t).max() <= 1e-13


# ---------------------------------------------------------------------------
# the step exponential against a 40-digit oracle

EPS = np.finfo(float).eps
EXPM_C = 16   # error and unitarity defect <= EXPM_C max(1, ||h t||_1) eps
# ||h t||_1 at theta = 1.3 and 2 theta, around the scaling threshold, and
# at the design workload's largest step, 2.59
EXPM_NORMS = (0.0, 1e-12, 1e-3, 1.3, 2.59, 2.6, 50.0, 3000.0)


def _expm_cases(d, norm, rng):
    """(t, h (6, d, d)) with ||h t||_1 = norm for every matrix: two random
    Hermitian, a degenerate spectrum in a random basis, a degenerate
    diagonal (||.||_2 = ||.||_1), and two with an identity part 100 times
    their traceless part."""
    def herm():
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return a + a.conj().T

    q, _ = np.linalg.qr(herm())
    lam = np.repeat([1.0, -0.5], d // 2)
    cases = [herm(), herm(), (q * lam) @ q.conj().T, np.diag(lam)]
    for _ in range(2):
        a = herm()
        cases.append(a - np.trace(a) / d * np.eye(d) + 100 * np.abs(a).sum(0).max() * np.eye(d))
    t = 0.7
    h = np.stack([c * (norm / (t * np.abs(c).sum(0).max())) for c in cases])
    return t, h


def _mp_expm(h, t):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        u = mp.expm(mp.matrix(h.tolist()) * (-1j * mp.mpf(t)))
        return np.array(u.tolist(), dtype=complex)


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("norm", EXPM_NORMS)
def test_expm_batch_matches_40_digits(d, norm):
    rng = np.random.default_rng(d * 1000 + EXPM_NORMS.index(norm))
    t, h = _expm_cases(d, norm, rng)
    want = np.stack([_mp_expm(m, t) for m in h])
    bound = EXPM_C * max(1.0, norm) * EPS
    single, nested = tg.expm_batch(h[0], t), tg.expm_batch(h.reshape(2, 3, d, d), t)
    assert single.shape == (d, d) and nested.shape == (2, 3, d, d)
    assert tg.expm_batch(h[:0], t).shape == (0, d, d)
    for got, ref in ((single[None], want[:1]), (tg.expm_batch(h, t), want), (nested.reshape(h.shape), want)):
        assert np.abs(got - ref).max() <= bound
        defect = got @ got.conj().swapaxes(-1, -2) - np.eye(d)
        assert np.abs(defect).max() <= bound
        if norm == 0.0:
            assert np.array_equal(got, np.broadcast_to(np.eye(d), got.shape))


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


def _frame_blocks(f, k):
    """The blocks F_H, X = sqrt2 Re F_+ and Y = sqrt2 Im F_+ of the real
    frame f of k frequencies."""
    h = 2 * k - f.shape[2]
    return f[..., :h], f[..., h:k], f[..., k:]


def _assert_frame_factors(nu, f, h, stack):
    """Per step, F F^T = I_m, and the pairs (X, Y) at omega <= 0 generate
    the adjoint matrix, M = i (Y omega X^T - X omega Y^T): M X = i omega Y."""
    madj = orc.adjoint_matrix_batch(h, stack)
    f_h, x, y = _frame_blocks(f, nu.shape[1])
    w = nu[:, None, f_h.shape[2] :]
    assert np.all(nu[:, : f_h.shape[2]] == 0.0) and np.all(nu <= 0.0)
    for q in range(len(h)):   # the checked single-step builder forms the commutators
        scale = max(np.abs(h[q]).max(), 1.0)
        assert np.abs(madj[q] - orc.adjoint_matrix(h[q], stack)).max() <= 1e-13 * scale
        m_f = 1j * ((y[q] * w[q]) @ x[q].T - (x[q] * w[q]) @ y[q].T)
        assert np.abs(m_f - madj[q]).max() <= 1e-13 * scale
        assert np.abs(f[q] @ f[q].T - np.eye(len(stack))).max() <= 1e-13


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
    want = orc.toggle_matrices(expm_herm_generator(h, dt), stack)
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
    want = orc.toggle_matrices(expm_herm_generator(h, dt), stack)
    assert np.abs(tg.eigen_toggles(nu, f, dt) - want).max() <= 1e-13
    # every step alone against the sequential engine on the adjoint eigh
    y = np.einsum("qba,b->qa", f, orc.vector(hpert, stack).real)
    for q, got in enumerate(_alone(nu, f, y, dt)):
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
# per-step and composed tensors by collocation against the sequential engine

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
    drive, pure ZZ, resonant drives plus ZZ), generic steps, steps whose
    adjoint spectrum has pairs split by 1e-8 in phase units, and steps with
    gaps of 4e-14 in phase units, at the rounding of eigh."""
    dt = draw(st.floats(0.5, 2.0))
    coef = st.floats(-3.0, 3.0, allow_nan=False).map(lambda c: c / dt)
    kinds = draw(st.lists(st.sampled_from(["zero", "zz", "resonant", "generic", "near", "tie"]),
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
        elif kind == "near":
            lam = np.array([draw(coef) for _ in range(3)])
            h = _rotated_step(np.append(lam, lam[-1] + 1e-8 / dt), draw(st.integers(0, 2 ** 32 - 1)))
        else:
            a, g, b = (draw(coef) for _ in range(3))
            lam = np.array([a, a + g, a + g + 4e-14 / dt, b])
            h = _rotated_step(lam, draw(st.integers(0, 2 ** 32 - 1)))
        steps.append(h)
    return np.array(steps), dt


def _rotated_step(lam, seed):
    """The step with eigenvalues lam in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return (w * lam) @ w.conj().T


def _unit_seeds(rng, q, m):
    seeds = rng.normal(size=(q, m))
    return seeds / np.linalg.norm(seeds, axis=-1, keepdims=True)


def _eigen(h, stack, seeds):
    """The oracles' eigendata: (nu, V, V^dag seed) from the eigh of the
    complex adjoint matrices."""
    nu, v = np.linalg.eigh(orc.adjoint_matrix_batch(h, stack))
    return nu, v, np.einsum("qba,qb->qa", v.conj(), seeds.astype(complex))


def _framed(h, stack, seeds):
    """The library's real frame (nu, F) and its seed projection F^T seed."""
    nu, f = _frame(h, stack)
    return nu, f, np.einsum("qba,qb->qa", f, seeds)


def _nodes(nu, f, dt, h=None):
    """The frame's `StepNodes`, on the rule of the pipeline (the spectral
    width of the steps h) when h is given, else on the rule of nu."""
    lam = None if h is None else np.linalg.eigvalsh(h)
    return tg.StepNodes(nu, f, tg.step_rule(nu if h is None else lam[:, -1] - lam[:, 0], dt))


def _conjugation_toggles(h, stack, dt):
    return orc.toggle_matrices(expm_herm_generator(h, dt), stack)


def _alone(nu, f, y, dt, r_max=3):
    """Each step's own (c0, c1, c2): the step composed alone, E_prev = I."""
    nodes = _nodes(nu, f, dt)
    c0, c = tg.batch_step_cints(nu, f, y, dt, r_max, nodes)
    eye = np.eye(f.shape[1])[None]
    return [tg.compose_batch(eye, c0[q : q + 1], None if c is None else c[q : q + 1], nodes, r_max)[1]
            for q in range(len(nu))]


def _raw_steps(eig, dt, r_max):
    return [orc.step_cints_raw(orc.StepEigen(*s), dt, r_max) for s in zip(*eig)]


def _assert_step_tensors_match_oracle(frame, eig, dt):
    # a step composed alone (E_prev = I) gives its own c0, c1 and c2
    for got, want in zip(_alone(*frame, dt), _raw_steps(eig, dt, 3)):
        for r, (g, w) in enumerate(zip(got, want), start=1):
            assert np.abs(g - w).max() <= 1e-12 * dt ** r / math.factorial(r)


def _assert_composed_match_oracle(frame, eig, dq, dt):
    """Whole-sequence tensors against the sequential fold of the per-step
    tensors of the general kernel with the toggles dq, at each order and
    with the nodal values on and off."""
    e_prev = tg.prefix_toggles(tg.eigen_toggles(*frame[:2], dt))
    nodes = _nodes(*frame[:2], dt)
    steps = _raw_steps(eig, dt, 3)
    t = len(dq) * dt
    for r_max in (1, 2, 3):
        want = orc.compose_raw(steps, dq, r_max)
        for lab in (False, True):
            c0, c = tg.batch_step_cints(*frame, dt, r_max, nodes, lab)
            nodal, got = tg.compose_batch(e_prev, c0, c, nodes, r_max)
            assert (c is None) == (nodal is None) == (r_max == 1 and not lab)
            for r, (g, w) in enumerate(zip(got, want), start=1):
                assert (g is None) == (r > r_max)
                if g is not None:
                    assert np.abs(g - w).max() <= 1e-12 * t ** r / math.factorial(r)


def _cross_oracle(eig_p, eig_e, dq_p, dq_e, dt):
    """The sequential cross tensor of two slots and the per-step ones."""
    steps = [[orc.StepEigen(*s) for s in zip(*eig)] for eig in (eig_p, eig_e)]
    step_cross = [orc.step_cross_raw(p, e, dt) for p, e in zip(*steps)]
    c0 = [[orc.step_cints_raw(s, dt, 1)[0] for s in side] for side in steps]
    return orc.compose_cross_raw(step_cross, *c0, dq_p, dq_e), step_cross


def _assert_cross_matches_oracle(frames, nodes, want, step_cross, dt):
    """compose_cross_batch of the frames (later, earlier) with their
    `StepNodes`, the whole sequence and each step alone."""
    sides, alone = [], []
    for (nu, f, y), n in zip(frames, nodes):
        c0, c = tg.batch_step_cints(nu, f, y, dt, 1, n, True)
        e_prev = tg.prefix_toggles(tg.eigen_toggles(nu, f, dt))
        sides.append(tg.compose_batch(e_prev, c0, c, n)[0])
        eye = np.eye(f.shape[1])[None]
        alone.append([tg.compose_batch(eye, c0[q : q + 1], c[q : q + 1], n)[0] for q in range(len(nu))])
    w = tg.batch_step_cross(*nodes)
    t = len(step_cross) * dt
    got = tg.compose_cross_batch(w, sides[0][0], sides[1][1])
    assert np.abs(got - want).max() <= 1e-12 * t ** 2 / 2
    for q, (p, e) in enumerate(zip(*alone)):
        got = tg.compose_cross_batch(w, p[0], e[1])
        assert np.abs(got - step_cross[q]).max() <= 1e-12 * dt ** 2 / 2


# a pure ZZ step whose adjoint frequencies {-2J, 0, 2J} lie a rounding-level
# phase apart
ZZ_AT_ROUNDING = (np.array([_resonant_step(0.0, 0.0, 0.0, 0.0, 0.499e-13)]), 1.0)


@given(two_qubit_steps(), st.integers(0, 2 ** 32 - 1))
@example((np.array([_resonant_step(0.3, -1.1, 0.7, 0.2, 1.3), np.zeros((4, 4))]), 1.0), 5)
@example(ZZ_AT_ROUNDING, 6)
# a slow step before a fast one: every step takes the rule of the fastest
@example((np.array([np.zeros((4, 4)), _resonant_step(3.0, -1.1, 2.7, 1.2, 1.3)]), 1.0), 7)
@settings(max_examples=25, deadline=None)
def test_step_tensors_match_the_sequential_oracle(case, seed):
    h, dt = case
    stack = _two_qubit_paulis()
    rng = np.random.default_rng(seed)
    seeds = _unit_seeds(rng, len(h), len(stack))
    frame, eig = _framed(h, stack, seeds), _eigen(h, stack, seeds)
    dq = _conjugation_toggles(h, stack, dt)
    _assert_step_tensors_match_oracle(frame, eig, dt)
    _assert_composed_match_oracle(frame, eig, dq, dt)
    # cross tensors: a second seed on the same steps at the earlier slot,
    # through the nodes of one subspace shared and built twice
    seeds_e = _unit_seeds(rng, len(h), len(stack))
    frame_e, eig_e = _framed(h, stack, seeds_e), _eigen(h, stack, seeds_e)
    want, step_cross = _cross_oracle(eig, eig_e, dq, dq, dt)
    nodes = _nodes(*frame[:2], dt)
    for n_e in (nodes, _nodes(*frame_e[:2], dt)):
        _assert_cross_matches_oracle((frame, frame_e), (nodes, n_e), want, step_cross, dt)


# eigenvalues split by 1e-13 / dt to 3e-3
SPLIT_AT_ROUNDING = [0.8217701239287258, -1.3812797174167781, -2.7541588563828316, -2.7541588563827317]


@given(two_qubit_steps(), st.integers(0, 2 ** 32 - 1))
@example((np.array([_resonant_step(0.3, -1.1, 0.7, 0.2, 1.3), np.zeros((4, 4))]), 1.0), 5)
@example((np.array([_rotated_step(SPLIT_AT_ROUNDING, 752767290)]), 1.0), 1)
@example(ZZ_AT_ROUNDING, 6)
@settings(max_examples=25, deadline=None)
def test_frame_tensors_match_the_adjoint_eigenbasis(case, seed):
    # the frame's frequencies come unsorted, with exact zeros; on the rule
    # of the pipeline they give the composed tensors of the sequential
    # engine on the eigh of the adjoint matrices
    h, dt = case
    stack = _two_qubit_paulis()
    seeds = _unit_seeds(np.random.default_rng(seed), len(h), len(stack))
    eig, frame = _eigen(h, stack, seeds), _framed(h, stack, seeds)
    want = orc.compose_raw(_raw_steps(eig, dt, 3), _conjugation_toggles(h, stack, dt), 3)
    nodes = _nodes(*frame[:2], dt, h)
    c0, c = tg.batch_step_cints(*frame, dt, 3, nodes)
    got = tg.compose_batch(tg.prefix_toggles(tg.eigen_toggles(*frame[:2], dt)), c0, c, nodes, 3)[1]
    t = len(h) * dt
    for r, (g, w) in enumerate(zip(got, want), start=1):
        assert np.abs(g - w).max() <= 1e-12 * t ** r / math.factorial(r)


def test_resonant_two_qubit_step_has_nine_distinct_frequencies():
    dt = 1.0
    h = np.array([_resonant_step(0.3, -1.1, 0.7, 0.2, 1.3)] * 3)
    stack = _two_qubit_paulis()
    seeds = _unit_seeds(np.random.default_rng(9), 3, 15)
    eig, frame = _eigen(h, stack, seeds), _framed(h, stack, seeds)
    for nu in (eig[0], frame[0]):
        distinct = 1 + np.sum(np.diff(np.sort(nu, axis=-1), axis=-1) > 1e-9, axis=-1)
        assert np.all(distinct == (9, 9, 9) if nu.shape[1] == 15 else 5)
    _assert_step_tensors_match_oracle(frame, eig, dt)


@functools.cache
def _drive_on_qubit_one():
    """Proper subspaces of su(4) under drives on qubit 1 of two: C_pert =
    span{x1 z2, y1 z2, z1 z2} and C_err = span{x1, y1, z1}, each of whose
    frames carries dead columns, and the drive operators."""
    x1, y1, z1 = (pauli_op([(1, a)], 1.0, 2) for a in "xyz")
    g = find_lie_algebra([x1, y1])
    c_pert = find_c_subspace(g, pauli_op([(1, "z"), (2, "z")], 1.0, 2))
    c_err = find_c_subspace(g, x1, extra_seeds=(y1,))
    return c_pert.stack, c_err.stack, np.array([x1, y1, z1])


@st.composite
def frame_cases(draw):
    """(H stack, dt, later stack, earlier stack): su(2) with random and
    zero steps, su(4) with the steps of `two_qubit_steps` on one subspace,
    or the two proper subspaces of `_drive_on_qubit_one` with random, zero
    and near-degenerate drives."""
    space = draw(st.sampled_from(["su2", "su4", "proper"]))
    if space == "su4":
        h, dt = draw(two_qubit_steps())
        return h, dt, _two_qubit_paulis(), _two_qubit_paulis()
    from hamforge.evaluate import pauli_basis_stack

    dt = draw(st.floats(0.1, 2.0))
    qn = draw(st.integers(1, 4))
    if space == "su2":
        stack = pauli_basis_stack(1)[1:]
        ops, later, earlier = stack * np.sqrt(2), stack, stack
    else:
        later, earlier, ops = _drive_on_qubit_one()
    coef = st.floats(-3.0, 3.0, allow_nan=False)
    c = np.array([[draw(coef) for _ in ops] for _ in range(qn)]) / dt
    zero = draw(st.lists(st.booleans(), min_size=qn, max_size=qn))
    c[zero] = 0.0
    return np.einsum("qa,aij->qij", c, ops), dt, later, earlier


@given(frame_cases(), st.integers(0, 2 ** 32 - 1))
@example((np.array([_resonant_step(0.0, 0.0, 0.0, 0.0, 0.7), np.zeros((4, 4))]), 1.0,
          _two_qubit_paulis(), _two_qubit_paulis()), 3)
@settings(max_examples=30, deadline=None)
def test_real_frame_matches_the_complex_oracles(case, seed):
    # the real frame, its toggles, nodal values and compositions against
    # the complex oracles on the eigh of the adjoint matrices
    h, dt, stack_p, stack_e = case
    rng = np.random.default_rng(seed)
    slots = []
    for stack in (stack_p, stack_e):
        seeds = _unit_seeds(rng, len(h), len(stack))
        frame, eig = _framed(h, stack, seeds), _eigen(h, stack, seeds)
        nu, f, _ = frame
        f_h, x, y = _frame_blocks(f, nu.shape[1])
        assert np.abs(f @ np.swapaxes(f, 1, 2) - np.eye(len(stack))).max() <= 1e-13
        # a pair dies whole, and stays at omega = 0
        dead = np.sum(x ** 2 + y ** 2, axis=1) <= 2 * EPS
        assert np.all(nu[:, f_h.shape[2] :][dead] == 0.0)
        dq = _conjugation_toggles(h, stack, dt)
        assert np.abs(tg.eigen_toggles(nu, f, dt) - dq).max() <= 1e-13
        _assert_composed_match_oracle(frame, eig, dq, dt)
        slots.append((frame, eig, dq, _nodes(nu, f, dt, h)))
    (frame_p, eig_p, dq_p, n_p), (frame_e, eig_e, dq_e, n_e) = slots
    # one subspace shares its nodes, as the pipeline does
    n_e = n_p if stack_e is stack_p else n_e
    want, step_cross = _cross_oracle(eig_p, eig_e, dq_p, dq_e, dt)
    _assert_cross_matches_oracle((frame_p, frame_e), (n_p, n_e), want, step_cross, dt)


def test_slots_of_a_cross_share_one_rule():
    stack = _two_qubit_paulis()
    h = np.array([_resonant_step(0.3, -1.1, 0.7, 0.2, 1.3)] * 2)
    nu, f = _frame(h, stack)
    assert np.array_equal(tg.batch_step_cross(_nodes(nu, f, 1.0), _nodes(nu, f, 1.0)), _nodes(nu, f, 1.0).w)
    # 8 / dt above GL_THETA takes two panels
    with pytest.raises(ValueError, match="different step rules"):
        tg.batch_step_cross(_nodes(nu, f, 1.0), _nodes(nu, f, 8.0 / np.ptp(nu)))


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

    seed = orc.vector(hpert, c.stack).real
    nu, f = _frame(np.stack(h_pri), stack)
    y = np.einsum("qba,b->qa", f, seed)
    nodes = _nodes(nu, f, dt)
    steps = orc.StepHamiltonians.from_operators(h_pri, [hpert] * 4, dt)
    prop = orc.propagate_primary(steps)
    dq = orc.toggle_matrices(prop.step_unitaries, stack)
    e_prev = tg.prefix_toggles(dq)
    t0b, t1b, t2b = tg.compose_batch(e_prev, *tg.batch_step_cints(nu, f, y, dt, 3, nodes), nodes, 3)[1]
    # the same per-step tensors into the sequential fold: each step composed alone
    tensors = _alone(nu, f, y, dt)
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
