"""Sequence evaluation: exact propagators, Monte-Carlo averaged channels,
fidelities, orthogonality, relaxation, landscapes and stroboscopic runs.

A `ParameterDistribution` attaches to either a control-model parameter
(including the multiplicative drive amplitude) or an internal Hamiltonian
term coefficient.  Each Monte-Carlo draw fixes one isochromat; its exact
unitary is turned into a Pauli transfer matrix, and the sample mean of
those orthogonal matrices is the average CPTP map.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .controlsys import ControlModel, ControlSequence, axis_operators, field_axes
from .opcore import _PAULI, einsum


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
        if k == "uniform":
            if not a[0] < a[1]:
                raise ValueError(f"uniform({a}): need a < b")
        elif k in ("normal", "half_normal"):
            if a[-1] <= 0:
                raise ValueError(f"{k}{a}: sigma must be positive")
        elif k not in ("point", "grid"):
            raise ValueError(f"unknown distribution kind {k!r}")

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
        if self.kind == "normal":
            return float(a[0])
        if self.kind == "half_normal":
            return 0.0
        if self.kind == "point":
            return float(a[0])
        return float(np.asarray(a[0]).ravel()[0])


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


@dataclass(frozen=True)
class LandscapeGrid:
    axis1: str
    axis2: str
    values1: np.ndarray
    values2: np.ndarray
    fidelity: np.ndarray      # (len(values1), len(values2))


# ---------------------------------------------------------------------------
# Pauli transfer matrices

def pauli_basis_stack(n_qubits: int) -> np.ndarray:
    """(d^2, d, d) normalized Pauli strings, identity first, then
    lexicographic in (i, x, y, z) per site."""
    d = 2 ** n_qubits
    mats = []
    for combo in itertools.product("ixyz", repeat=n_qubits):
        m = np.array([[1.0 + 0j]])
        for c in combo:
            m = np.kron(m, _PAULI[c])
        mats.append(m / np.sqrt(d))
    return np.stack(mats)


def ptm(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Real transfer matrix R_ab = <<P_a|U P_b U^dag>> of a unitary, or
    of each unitary in a (..., d, d) stack."""
    u = np.asarray(u)
    conj = einsum("...ij,bjk,...lk->...bil", u, stack, u.conj())
    return einsum("ail,...bli->...ab", stack, conj).real


# ---------------------------------------------------------------------------
# evaluation setup

@dataclass(frozen=True)
class EvaluationSetup:
    """System + model context for exact simulation under concrete or
    dispersed parameters."""

    n_qubits: int
    channels: tuple
    dt: float
    model: ControlModel
    term_names: tuple[str, ...]
    term_mats: np.ndarray            # (n_terms, d, d), unit-coefficient matrices
    term_coeffs: np.ndarray          # nominal coefficients, rad/s
    distributions: tuple[ParameterDistribution, ...] = ()


# draws per expm_batch call: large enough to amortize the call, small
# enough that the eigh temporaries stay a few MB
_MC_BLOCK = 100


def exact_unitaries(seq: ControlSequence, setup: EvaluationSetup, draws) -> np.ndarray:
    """Exact total propagators (len(draws), d, d), one per parameter draw.

    A draw maps distribution names to values; the distributions it omits
    sit at their nominal values.  When every distribution sets a term
    coefficient, or the drive amplitude of a model whose field is linear
    in the drive, the control field is solved once and the step
    exponentials run in blocks of ``_MC_BLOCK`` draws; otherwise every
    draw is simulated on its own.
    """
    from . import toggling as tg

    nominal = {dd.name: dd.nominal() for dd in setup.distributions}
    unknown = set().union(*draws) - set(nominal)
    if unknown:
        raise KeyError(f"unknown distribution(s) {sorted(unknown)}")
    draws = [{**nominal, **values} for values in draws]
    targets = {}
    for dd in setup.distributions:
        kind, _, name = dd.applies_to.partition(":")
        if kind not in ("model", "term"):
            raise ValueError(f"distribution {dd.name} has no applies_to target")
        targets[dd.name] = (kind, name)
    n, d = len(draws), 2 ** setup.n_qubits
    out = np.empty((n, d, d), dtype=complex)
    axis_ops = axis_operators(field_axes(seq.channels), setup.n_qubits)
    linear = setup.model.drive_linear
    if not all(kind == "term" or (linear and name == "amplitude") for kind, name in targets.values()):
        for s, values in enumerate(draws):
            model, coeffs = setup.model, setup.term_coeffs.copy()
            for key, (kind, name) in targets.items():
                if kind == "model":
                    model = model.with_param(name, values[key])
                else:
                    coeffs[setup.term_names.index(name)] = values[key]
            fld = model.field(seq)
            h = np.einsum("kq,kab->qab", fld.b, axis_ops)
            h = h + np.einsum("t,tab->ab", coeffs, setup.term_mats)
            out[s] = tg.ordered_product(tg.expm_batch(h, fld.delta_t))
        return out
    amp = np.full(n, setup.model.amp_factor if linear else 1.0)
    coeffs = np.tile(setup.term_coeffs, (n, 1))
    for key, (kind, name) in targets.items():
        vals = np.array([values[key] for values in draws])
        if kind == "model":
            amp = 1.0 + vals
        else:
            coeffs[:, setup.term_names.index(name)] = vals
    h_terms = np.einsum("st,tab->sab", coeffs, setup.term_mats)
    model = setup.model.with_param("amplitude", 0.0) if linear else setup.model
    fld = model.field(seq)   # at unit drive when it scales by amp
    h_ctrl = np.einsum("kq,kab->qab", fld.b, axis_ops)
    qn = h_ctrl.shape[0]
    for lo in range(0, n, _MC_BLOCK):
        blk = slice(lo, lo + _MC_BLOCK)
        hh = amp[blk, None, None, None] * h_ctrl + h_terms[blk, None]
        u = tg.expm_batch(hh.reshape(-1, d, d), fld.delta_t)
        out[blk] = tg.ordered_product(u.reshape(-1, qn, d, d))
    return out


def simulate_total_unitary(
    seq: ControlSequence,
    setup: EvaluationSetup,
    params: dict | None = None,
) -> np.ndarray:
    """Exact total propagator at concrete parameter values (params maps
    distribution names to values; omitted ones sit at their nominal)."""
    return exact_unitaries(seq, setup, [params or {}])[0]


def overlap_fidelity(u: np.ndarray, u0: np.ndarray) -> float:
    """|Tr(U^dag U0)| / Tr(U0^dag U0); global-phase free."""
    return float(abs(np.sum(np.conj(u) * u0)) / np.real(np.sum(np.conj(u0) * u0)))


def _gate_fidelity(r: np.ndarray, r0: np.ndarray, d: int) -> np.ndarray:
    """F = (d F_pro + 1)/(d + 1), F_pro = Tr(R0^T R)/d^2, over a stack of R."""
    f_pro = np.einsum("...ab,ab->...", r, r0) / d ** 2
    return (d * f_pro + 1.0) / (d + 1.0)


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
) -> LandscapeGrid:
    """Overlap fidelity of the exact propagator over a 2-parameter grid;
    axes name distributions from the setup."""
    name1, vals1 = axis1
    name2, vals2 = axis2
    vals1 = np.asarray(vals1, dtype=float)
    vals2 = np.asarray(vals2, dtype=float)
    draws = [{name1: v1, name2: v2} for v1 in vals1.tolist() for v2 in vals2.tolist()]
    fid = [overlap_fidelity(u, u0) for u in exact_unitaries(seq, setup, draws)]
    return LandscapeGrid(name1, name2, vals1, vals2, np.reshape(fid, (vals1.size, vals2.size)))


def stroboscopic_evolve(
    initial_state: np.ndarray,
    seq: ControlSequence,
    setup: EvaluationSetup,
    params: dict | None,
    n_cycles: int,
) -> np.ndarray:
    """Survival probabilities |<psi0|U^n|psi0>|^2 for n = 0..n_cycles."""
    psi0 = np.asarray(initial_state, dtype=complex).ravel()
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-8:
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
    """FoM summary: median/20th/80th-percentile per-sample average gate
    fidelity, the averaged map, and its orthogonality.  With t_dep, every
    sample's map is followed by depolarizing relaxation."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(7,)))
    draws = [{dd.name: dd.sample(rng) for dd in setup.distributions} for _ in range(n_mc)]
    stack = pauli_basis_stack(setup.n_qubits)
    r = ptm(exact_unitaries(seq, setup, draws), stack)
    if t_dep is not None:
        r = apply_depolarizing(r, seq.t_seq, t_dep)
    d = 2 ** setup.n_qubits
    r0 = ptm(u0_total, stack)
    f_samples = _gate_fidelity(r, r0, d)
    avg = Superoperator(d, r.mean(axis=0))
    return {
        "fom": float(_gate_fidelity(avg.matrix, r0, d)),
        "fom_median": float(np.median(f_samples)),
        "fom_p20": float(np.percentile(f_samples, 20)),
        "fom_p80": float(np.percentile(f_samples, 80)),
        "orthogonality": orthogonality(avg),
        "ptm": avg.matrix.ravel().tolist(),
        "n_mc": n_mc,
        "seed": rng_seed,
    }
