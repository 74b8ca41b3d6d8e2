"""Sequence evaluation: exact propagators, Monte-Carlo averaged channels,
fidelities, orthogonality, relaxation, landscapes and stroboscopic runs.

A `ParameterDistribution` attaches to either a control-model parameter
(including the multiplicative drive amplitude) or an internal Hamiltonian
term coefficient.  Each draw fixes one isochromat, and `exact_unitaries`
runs all draws through one blocked pass of step exponentials and their
ordered product.  The average CPTP map is linear in kron(U, conj U), so it
is one Pauli transfer matrix of their mean (`ptm`); each draw's gate
fidelity comes from its overlap with the target, and depolarizing in
closed form.

The report's propagators come from a tensor Legendre interpolant through
exact ones at Gauss-Legendre nodes (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013, ch. 8; Xiu, Numerical Methods for
Stochastic Computations, Princeton 2010), sized from one line of nodes per
axis and read at the draws once every axis's tail, its largest |coefficient|
among the last two degrees, is at most 1e-12; else from the draws themselves.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from . import toggling as tg
from .controlsys import ControlModel, ControlSequence, field_operators
from .opcore import conjugation, pauli_op


# the args of each distribution kind; a grid's one arg lists its values
_ARGS = {"uniform": ("a", "b"), "normal": ("mu", "sigma"), "half_normal": ("sigma",),
         "point": ("x",), "grid": ("[x, ...]",)}


def _finite_numbers(values) -> bool:
    """A non-empty sequence of finite ints and floats, not bools."""
    return isinstance(values, (list, tuple, np.ndarray)) and len(values) > 0 and all(
        isinstance(x, (int, float, np.number)) and not isinstance(x, bool) and np.isfinite(x)
        for x in values)


@dataclass(frozen=True)
class ParameterDistribution:
    """One dispersed parameter; kind in {uniform, normal, half_normal,
    point, grid} with the matching args tuple."""

    name: str
    kind: str
    args: tuple
    applies_to: str = ""      # "model:<param>" or "term:<term name>"

    def __post_init__(self):
        k, a = self.kind, self.args
        if k not in _ARGS:
            raise ValueError(f"unknown distribution kind {k!r}")
        values = a[0] if k == "grid" and len(a) == 1 else a
        if len(a) != len(_ARGS[k]) or not _finite_numbers(values):
            want = ", ".join(_ARGS[k])
            raise ValueError(f"{k} takes args [{want}] of finite numbers, got {list(a)}")
        if k == "uniform" and not a[0] < a[1]:
            raise ValueError(f"uniform({a}): need a < b")
        if k in ("normal", "half_normal") and a[-1] <= 0:
            raise ValueError(f"{k}{a}: sigma must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        a = self.args
        if self.kind == "uniform":
            return float(rng.uniform(a[0], a[1]))
        if self.kind == "normal":
            return float(rng.normal(a[0], a[1]))
        if self.kind == "half_normal":
            return float(abs(rng.normal(0.0, a[0])))
        if self.kind == "point":
            return float(a[0])
        return float(rng.choice(np.asarray(a[0])))

    def nominal(self) -> float:
        a = self.args
        if self.kind == "uniform":
            return 0.5 * (a[0] + a[1])
        if self.kind == "half_normal":
            return 0.0
        return float(np.ravel(a[0])[0])   # mu, x, or a grid's first value

    def halfwidth(self) -> float:
        """Half the uniform range, sigma, or the largest |value| of a point or grid."""
        a = self.args
        if self.kind == "uniform":
            return 0.5 * abs(a[1] - a[0])
        return a[-1] if self.kind in ("normal", "half_normal") else float(np.abs(a[0]).max())


@dataclass(frozen=True)
class Superoperator:
    """d^2 x d^2 real transfer matrix in the normalized Hermitian basis
    {1, sigma...}/sqrt(d), identity first."""

    dim_h: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        d2 = self.dim_h ** 2
        if m.shape != (d2, d2):
            raise ValueError("superoperator shape mismatch")
        first = np.zeros(d2)
        first[0] = 1.0
        if np.abs(m[0] - first).max() > 1e-9:
            raise ValueError("map is not trace preserving")


# ---------------------------------------------------------------------------
# Pauli transfer matrices

@cache
def pauli_basis_stack(n_qubits: int) -> np.ndarray:
    """(d^2, d, d) normalized Pauli strings, identity first, then
    lexicographic in (i, x, y, z) per site; cached, read-only."""
    c = 1 / np.sqrt(2 ** n_qubits)
    stack = np.stack([
        pauli_op([(q, ax) for q, ax in enumerate(combo, 1) if ax != "i"], c, n_qubits)
        for combo in itertools.product("ixyz", repeat=n_qubits)
    ])
    stack.setflags(write=False)
    return stack


def ptm(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Real transfer matrix R_ab = <<P_a|L(P_b)>> of the mean channel L of a
    (..., d, d) stack of unitaries, one unitary's own map: R = Re(conj(S) K
    S^T) with the basis rows S = vec(P_a) and K the stack's mean of
    `opcore.conjugation`(U), in which L is linear, summed over chunks of
    at most _MC_BLOCK entries (0.5 MB) so that no n d^4 temporary forms."""
    u = np.reshape(u, (-1, *np.shape(u)[-2:]))
    size = max(1, _MC_BLOCK // u.shape[-1] ** 4)
    k = sum(conjugation(u[lo : lo + size]).sum(axis=0) for lo in range(0, len(u), size)) / len(u)
    s = stack.reshape(len(stack), -1)
    return (s.conj() @ k @ s.T).real


# ---------------------------------------------------------------------------
# evaluation setup

@dataclass(frozen=True)
class EvaluationSetup:
    """System + model context for exact simulation under concrete or
    dispersed parameters."""

    n_qubits: int
    model: ControlModel
    term_names: tuple[str, ...]
    term_mats: np.ndarray            # (n_terms, d, d), unit-coefficient matrices
    term_coeffs: np.ndarray          # nominal coefficients, rad/s
    distributions: tuple[ParameterDistribution, ...] = ()


# matrix entries (Q d^2 per draw) per expm_batch call: at 2,000 4x4 matrices
# the kernel's seven (d, d, N) complex arrays take 3.6 MB, and a design report
# ran 1.2x faster than at 4,000 and 1.5x than at 8,000 (Xeon, one BLAS thread)
_MC_BLOCK = 32_000


def exact_unitaries(seq: ControlSequence, setup: EvaluationSetup, draws) -> np.ndarray:
    """Exact total propagators (n, d, d), one per parameter draw.

    ``draws`` is an (n, n_dist) array, one column per distribution in setup
    order, or n dicts from distribution names to values, the omitted ones
    at their nominal values.  Blocks of draws of about ``_MC_BLOCK`` matrix
    entries run the step exponentials and their ordered product in the
    (d, d, Q, draws) layout of `toggling.expm_batch`.  The control
    Hamiltonians come from one field, at unit drive and scaled per draw,
    when the draws set only term coefficients, or only the drive amplitude
    of a model whose field is linear in the drive; else from each draw's
    own model, `with_param` for every drawn parameter.
    """
    dists = setup.distributions
    if not isinstance(draws, np.ndarray):
        unknown = set().union(*draws) - {dd.name for dd in dists}
        if unknown:
            raise KeyError(f"unknown distribution(s) {sorted(unknown)}")
        draws = np.array([[v.get(dd.name, dd.nominal()) for dd in dists] for v in draws], dtype=float)
    return _propagator(seq, setup)(draws)


def _propagator(seq: ControlSequence, setup: EvaluationSetup):
    """`exact_unitaries` as a map of (n, n_dist) draw arrays, with what its
    calls share found once: the column each term and model parameter reads,
    the field operators, and the unit-drive field when draws only scale it."""
    d, terms, params = 2 ** setup.n_qubits, {}, {}
    for j, dd in enumerate(setup.distributions):
        kind, _, name = dd.applies_to.partition(":")
        if kind == "model":
            params[name] = j
        elif kind == "term":
            terms[setup.term_names.index(name)] = j
        else:
            raise ValueError(f"distribution {dd.name} has no applies_to target")
    axis_ops = field_operators(seq.channels, setup.n_qubits)
    linear = setup.model.drive_linear
    shared = set(params) <= ({"amplitude"} if linear else set())
    if shared:
        unit = (setup.model.with_param("amplitude", 0.0) if linear else setup.model).field(seq)
        h_unit = np.einsum("kq,kab->qab", unit.b, axis_ops)[:, None]

    def propagate(draws: np.ndarray) -> np.ndarray:
        n = len(draws)
        out = np.empty((n, d, d), dtype=complex)
        if n == 0:
            return out
        coeffs = np.tile(setup.term_coeffs, (n, 1))
        for t, j in terms.items():
            coeffs[:, t] = draws[:, j]
        h_terms = np.einsum("st,tab->sab", coeffs, setup.term_mats)
        if shared:
            fld = unit
            amp = 1.0 + (draws[:, params["amplitude"]] if params else np.full(n, setup.model.amplitude if linear else 0.0))
        else:
            models = [setup.model] * n
            for name, j in params.items():
                models = [m.with_param(name, v) for m, v in zip(models, draws[:, j])]
            fld = models[0].field(seq)   # draw 0's field, which also sets the block size
        size = max(1, _MC_BLOCK // (fld.b.shape[1] * d * d))
        work = np.empty(7 * fld.b.shape[1] * min(size, n) * d * d, dtype=complex)   # expm_batch's, once a call
        for lo in range(0, n, size):
            blk = slice(lo, lo + size)
            if shared:
                hh = h_unit * amp[blk, None, None] + h_terms[blk]   # (Q, draws, d, d)
            else:   # one solve per draw, in draw order
                b = [fld.b if k == 0 else m.field(seq).b for k, m in enumerate(models[blk], lo)]
                hh = np.einsum("kqs,kab->qsab", np.stack(b, axis=-1), axis_ops) + h_terms[blk]
            u = np.moveaxis(tg.expm_batch(hh, fld.delta_t, work), (2, 3), (0, 1))
            out[blk] = np.moveaxis(tg.ordered_product(u), -1, 0)
        return out

    return propagate


def simulate_total_unitary(
    seq: ControlSequence,
    setup: EvaluationSetup,
    params: dict | None = None,
) -> np.ndarray:
    """Exact total propagator at concrete parameter values (params maps
    distribution names to values; omitted ones sit at their nominal)."""
    return exact_unitaries(seq, setup, [params or {}])[0]


def overlap_fidelity(u: np.ndarray, u0: np.ndarray) -> float | np.ndarray:
    """|Tr(U^dag U0)| / Tr(U0^dag U0) of a unitary, or of each unitary in
    a (..., d, d) stack; global-phase free."""
    return abs(np.sum(np.conj(u) * u0, axis=(-2, -1))) / np.real(np.sum(np.conj(u0) * u0, axis=(-2, -1)))


def orthogonality(avg: Superoperator) -> float:
    """R = Tr(L^T L)/dim(L); 1 for unitary channels, smaller for
    depolarizing-like averaged error content."""
    m = avg.matrix
    return float(np.sum(m * m) / m.shape[0])


def apply_depolarizing(r: np.ndarray, t_seq: float, t_dep: float) -> np.ndarray:
    """Transfer matrices (..., d^2, d^2) followed by depolarizing relaxation
    with time constant t_dep over t_seq: every row but the identity's
    scales by exp(-t_seq / t_dep)."""
    if not t_dep > 0:
        raise ValueError("depolarizing time must be positive")
    out = np.array(r, dtype=float)
    out[..., 1:, :] *= np.exp(-t_seq / t_dep)
    return out


def landscape(
    seq: ControlSequence,
    setup: EvaluationSetup,
    axis1: tuple[str, np.ndarray],
    axis2: tuple[str, np.ndarray],
    u0: np.ndarray,
) -> np.ndarray:
    """(n1, n2) overlap fidelities of the exact propagator against u0 over
    the grid of two axes (distribution name, n values), the setup's other
    distributions at their nominal values."""
    (name1, vals1), (name2, vals2) = axis1, axis2
    draws = [{name1: v1, name2: v2} for v1 in np.ravel(vals1).tolist() for v2 in np.ravel(vals2).tolist()]
    return overlap_fidelity(exact_unitaries(seq, setup, draws), u0).reshape(np.size(vals1), np.size(vals2))


def stroboscopic_evolve(
    initial_state: np.ndarray,
    seq: ControlSequence,
    setup: EvaluationSetup,
    params: dict | None,
    n_cycles: int,
) -> np.ndarray:
    """Survival probabilities |<psi0|U^n|psi0>|^2 for n = 0..n_cycles."""
    psi0 = np.asarray(initial_state, dtype=complex).ravel()
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    u = simulate_total_unitary(seq, setup, params)
    out = np.empty(n_cycles + 1)
    psi = psi0.copy()
    out[0] = 1.0
    for n in range(1, n_cycles + 1):
        psi = u @ psi
        out[n] = abs(np.vdot(psi0, psi)) ** 2
    return out


def _draw(dists, n_mc: int, rng: np.random.Generator) -> np.ndarray:
    """(n_mc, n_dist) values, row by row from rng: the scalar `sample` loop,
    or one call, bit for bit the same, when every kind is uniform."""
    if dists and all(dd.kind == "uniform" for dd in dists):
        return rng.uniform(*np.array([dd.args for dd in dists], dtype=float).T, (n_mc, len(dists)))
    return np.array([[dd.sample(rng) for dd in dists] for _ in range(n_mc)])


# nodes of each dispersed axis's pilot line: on the 24 design seeds 10 already
# show the decay that sizes a grid whose tails hold (272-328 of 1,000 propagations)
_PILOT = 10
# the certifying tail: at 1e-12 every output of the 24 design reports is within
# 9e-15 of the draws propagated one by one, fom within 1.1e-15 of the references
_TAIL = 1e-12


@cache
def _legendre_rule(k: int) -> tuple:
    """k Gauss-Legendre nodes x on [-1, 1] and the map legvander(x)^T w (j + 1/2)
    from values at them to Legendre coefficients; cached, read-only."""
    x, w = leggauss(k)
    t = legvander(x, k - 1).T * w * (np.arange(k) + 0.5)[:, None]
    for a in (x, t):
        a.setflags(write=False)
    return x, t


def _propagators(seq: ControlSequence, setup: EvaluationSetup, draws: np.ndarray):
    """Propagators (n, d, d) at the (n, n_dist) draws, and how many exact
    ones were computed: a Legendre interpolant where it is certified, else
    the draws.  The pilot is one line of _PILOT Gauss-Legendre nodes on each
    dispersed column's [min, max], through the centre of the box; an axis
    whose line's tail exceeds _TAIL grows as far as the line's decay over
    its last four degrees asks.  The tensor grid of those sizes (one axis's
    line, if it did not grow) is read at the draws when no tail of its
    coefficients exceeds _TAIL.  The draws are propagated instead when the
    lines cost more than n/8, the least grid they can size n or more, lines
    and grid n or more, or a grid tail exceeds _TAIL."""
    n, d = len(draws), 2 ** setup.n_qubits
    propagate = _propagator(seq, setup)   # one field for lines, grid and draws
    lo, hi = draws.min(axis=0), draws.max(axis=0)
    axes = np.flatnonzero(lo < hi)
    if len(axes) * _PILOT > n / 8 or _PILOT ** len(axes) >= n:
        return propagate(draws), n
    mid, half = (hi + lo)[axes] / 2, (hi - lo)[axes] / 2
    lines = np.repeat(((hi + lo) / 2)[None], len(axes) * _PILOT, axis=0)   # a constant column at its value
    for j, a in enumerate(axes):
        lines[j * _PILOT : (j + 1) * _PILOT, a] += half[j] * _legendre_rule(_PILOT)[0]
    c, sizes, spent = propagate(lines), np.full(len(axes), _PILOT), len(lines)
    for j, line in enumerate(c.reshape(len(axes), _PILOT, d, d)):
        decay = np.abs(np.tensordot(_legendre_rule(_PILOT)[1], line, 1)).reshape(_PILOT, -1).max(axis=1)
        tail = decay[-2:].max()
        if tail > _TAIL:   # decay per degree, at least 1e-3
            rate = max(np.log(decay[-4:-2].max() / tail) / 2, 1e-3)
            sizes[j] += int(np.ceil(np.log(tail / _TAIL) / rate))
    if spent + sizes.prod() >= n:
        return propagate(draws), spent + n
    if len(axes) != 1 or sizes[0] != _PILOT:
        count = int(sizes.prod())
        grid = np.repeat(lo[None], count, axis=0)
        nodes = itertools.product(*[_legendre_rule(k)[0] for k in sizes])   # C order, as the reshape below
        grid[:, axes] = mid + half * np.array(list(nodes)).reshape(count, len(axes))
        c, spent = propagate(grid), spent + count
    c = c.reshape(*sizes, d, d)
    for j, k in enumerate(sizes):
        c = np.moveaxis(np.tensordot(_legendre_rule(k)[1], c, (1, j)), 0, j)
    if any(np.abs(np.moveaxis(c, j, 0)).reshape(k, -1)[-2:].max() > _TAIL for j, k in enumerate(sizes)):
        return propagate(draws), spent + n
    v = [legvander((draws[:, a] - m) / h, k - 1) for a, m, h, k in zip(axes, mid, half, sizes)]
    u, size = np.empty((n, d, d), dtype=complex), max(1, _MC_BLOCK // c[0].size)
    for s in range(0, n, size):   # blocks of draws: no (n, k, ..., d, d) temporary
        blk = slice(s, s + size)
        ub = np.tensordot(v[0][blk], c, (1, 0)) if v else c
        for vj in v[1:]:
            ub = np.einsum("sk...,sk->s...", ub, vj[blk])
        u[blk] = ub
    return u, spent


def evaluation_report(
    seq: ControlSequence,
    setup: EvaluationSetup,
    u0_total: np.ndarray,
    n_mc: int,
    rng_seed: int,
    t_dep: float | None = None,
) -> dict:
    """FoM summary of n_mc draws, one (n_mc, n_dist) array: the median and
    20th/80th percentiles of the per-draw gate fidelity F = (d F_pro + 1)/(d
    + 1), F_pro = ov^2 with ov = `overlap_fidelity`; the averaged map, one
    `ptm` of the mean kron(U, conj U); its fidelity, the mean F; and its
    orthogonality.  With t_dep every draw's map is followed by depolarizing
    D = diag(1, e, ..., e), e = exp(-t_seq/t_dep): F_pro = e ov^2 + (1 - e)/d^2.
    The propagators come from `_propagators`, a certified Legendre interpolant
    or the draws; `propagations` counts the exact ones (n_mc for the draws)."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(7,)))
    u, propagations = _propagators(seq, setup, _draw(setup.distributions, n_mc, rng))
    d = 2 ** setup.n_qubits
    avg, e = ptm(u, pauli_basis_stack(setup.n_qubits)), 1.0
    if t_dep is not None:
        avg, e = apply_depolarizing(avg, seq.t_seq, t_dep), np.exp(-seq.t_seq / t_dep)
    f_pro = e * overlap_fidelity(u, u0_total) ** 2 + (1.0 - e) / d ** 2
    f_samples = (d * f_pro + 1.0) / (d + 1.0)
    avg = Superoperator(d, avg)
    return {
        "fom": float(f_samples.mean()),
        "fom_median": float(np.median(f_samples)),
        "fom_p20": float(np.percentile(f_samples, 20)),
        "fom_p80": float(np.percentile(f_samples, 80)),
        "orthogonality": orthogonality(avg),
        "ptm": avg.matrix.ravel().tolist(),
        "n_mc": n_mc,
        "propagations": propagations,
        "seed": rng_seed,
    }
