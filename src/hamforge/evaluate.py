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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .controlsys import ControlModel, ControlSequence, axis_operators, field_axes
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
    `opcore.conjugation`(U), in which L is linear."""
    k = conjugation(np.reshape(u, (-1, *np.shape(u)[-2:]))).mean(axis=0)
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
    from . import toggling as tg

    dists = setup.distributions
    if not isinstance(draws, np.ndarray):
        unknown = set().union(*draws) - {dd.name for dd in dists}
        if unknown:
            raise KeyError(f"unknown distribution(s) {sorted(unknown)}")
        draws = np.array([[v.get(dd.name, dd.nominal()) for dd in dists] for v in draws], dtype=float)
    n, d = len(draws), 2 ** setup.n_qubits
    coeffs, params = np.tile(setup.term_coeffs, (n, 1)), {}
    for dd, column in zip(dists, draws.T):
        kind, _, name = dd.applies_to.partition(":")
        if kind == "model":
            params[name] = column
        elif kind == "term":
            coeffs[:, setup.term_names.index(name)] = column
        else:
            raise ValueError(f"distribution {dd.name} has no applies_to target")
    out = np.empty((n, d, d), dtype=complex)
    if n == 0:
        return out
    h_terms = np.einsum("st,tab->sab", coeffs, setup.term_mats)
    axis_ops = axis_operators(field_axes(seq.channels), setup.n_qubits)
    linear = setup.model.drive_linear
    shared = set(params) <= ({"amplitude"} if linear else set())
    if shared:
        amp = 1.0 + params["amplitude"] if params else np.full(n, setup.model.amp_factor if linear else 1.0)
        fld = (setup.model.with_param("amplitude", 0.0) if linear else setup.model).field(seq)
        h_unit = np.einsum("kq,kab->qab", fld.b, axis_ops)[:, None]
    else:
        models = [setup.model] * n
        for name, column in params.items():
            models = [m.with_param(name, v) for m, v in zip(models, column)]
        fld = models[0].field(seq)   # draw 0's field, which also sets the block size
    size = max(1, _MC_BLOCK // (fld.b.shape[1] * d * d))
    for lo in range(0, n, size):
        blk = slice(lo, lo + size)
        if shared:
            hh = h_unit * amp[blk, None, None] + h_terms[blk]   # (Q, draws, d, d)
        else:   # one solve per draw, in draw order
            b = [fld.b if k == 0 else m.field(seq).b for k, m in enumerate(models[blk], lo)]
            hh = np.einsum("kqs,kab->qsab", np.stack(b, axis=-1), axis_ops) + h_terms[blk]
        u = np.moveaxis(tg.expm_batch(hh, fld.delta_t), (2, 3), (0, 1))
        out[blk] = np.moveaxis(tg.ordered_product(u), -1, 0)
    return out


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
    D = diag(1, e, ..., e), e = exp(-t_seq/t_dep): F_pro = e ov^2 + (1 - e)/d^2."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(7,)))
    draws = np.array([[dd.sample(rng) for dd in setup.distributions] for _ in range(n_mc)])
    u = exact_unitaries(seq, setup, draws)
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
        "seed": rng_seed,
    }
