"""Control-system models: input parameters {a_k(t)} to rotating-frame fields.

Three models map piecewise-constant dimensionless controls to the field
samples b_{k,q} (rad/s) that enter the per-step control Hamiltonian:

* ideal            - passthrough, b = scale * a
* linear kernel    - causal convolution with the exponential amplitude /
                     phase response pair of a band-limited line
* nonlinear RLC    - rotating-frame state-space circuit with kinetic
                     inductance, integrated exactly on its linear part

Each model also produces parameter-sensitivity channels db/dmu used to
build the error Hamiltonian: analytically where the model provides one
(the circuit's alpha_L block), by central differences otherwise.
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm as _expm

_log = logging.getLogger("hamforge")

__all__ = [
    "Channel",
    "ControlSequence",
    "DiscretizedField",
    "LinearKernelParams",
    "CircuitParams",
    "IdealModel",
    "LinearKernelModel",
    "CircuitModel",
    "discretize_ideal",
    "apply_linear_kernel",
    "simulate_circuit",
    "model_param_derivative",
    "axis_operators",
    "control_hamiltonians",
    "write_field_csv",
]


@dataclass(frozen=True)
class Channel:
    """One control input; `qubits` lists the (1-based) targets it drives
    collectively; role in {'x','y','z','amp','phase'}; scale is rad/s at
    |a| = 1 (radians for 'phase')."""

    name: str
    qubits: tuple[int, ...]
    role: str
    scale: float

    def __post_init__(self):
        if self.role not in ("x", "y", "z", "amp", "phase"):
            raise ValueError(f"unknown channel role {self.role!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))


@dataclass(frozen=True)
class ControlSequence:
    """Piecewise-constant control parameters a_{k,p} in [-1, 1]."""

    values: np.ndarray            # (K, P)
    dt: float
    channels: tuple[Channel, ...]

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channels", tuple(self.channels))
        if v.ndim != 2 or v.shape[0] != len(self.channels):
            raise ValueError("values must be (n_channels, P)")
        if np.abs(v).max(initial=0.0) > 1.0 + 1e-12:
            raise ValueError("control values must lie in [-1, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def intervals(self) -> int:
        return self.values.shape[1]

    @property
    def t_seq(self) -> float:
        return self.intervals * self.dt


@dataclass(frozen=True)
class DiscretizedField:
    """Q-step rotating-frame field samples plus sensitivity channels."""

    b: np.ndarray                          # (K_out, Q) rad/s
    delta_t: float
    axes: tuple[tuple[tuple[int, ...], str], ...]   # (qubits, 'x'|'y'|'z') per row
    sensitivities: dict = field(default_factory=dict)

    @property
    def q_steps(self) -> int:
        return self.b.shape[1]

    @property
    def t_seq(self) -> float:
        return self.q_steps * self.delta_t


@dataclass(frozen=True)
class LinearKernelParams:
    w_bandwidth: float       # W, rad/s
    delta: float             # free-ringing detuning, rad/s

    def __post_init__(self):
        if self.w_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class CircuitParams:
    r_source: float = 50.0          # ohms (R_s; also used as R_L, see r_load)
    r_series: float = 0.01          # ohms (R)
    c_match: float = 11e-15         # farads (C_m)
    c_tank: float = 1.479e-12       # farads (C_t)
    l_0: float = 170e-12            # henries
    alpha_l: float = 0.0            # A^-2 kinetic-inductance coefficient
    kappa_i: float = 1.0            # V^-1
    kappa_o: float = 2.0            # A^-1
    omega_r: float = 2 * math.pi * 10e9   # rad/s rotating-frame carrier
    omega_max: float = 2 * math.pi * 20e6 # rad/s output scale
    r_load: float | None = None     # R_L; defaults to r_source

    def __post_init__(self):
        if min(self.c_match, self.c_tank, self.l_0) <= 0:
            raise ValueError("capacitances and inductance must be positive")

    @property
    def rl(self) -> float:
        return self.r_source if self.r_load is None else self.r_load


# ---------------------------------------------------------------------------
# channel grouping: (qubits) -> drive signals

def _groups(channels):
    order = []
    by_q = {}
    for k, ch in enumerate(channels):
        by_q.setdefault(ch.qubits, {})[ch.role] = k
        if ch.qubits not in order:
            order.append(ch.qubits)
    return order, by_q


def _drive_xy(seq: ControlSequence, roles: dict) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian drive (u_x, u_y) per interval for one channel group."""
    p = seq.intervals
    ux = np.zeros(p)
    uy = np.zeros(p)
    if "amp" in roles:
        amp_ch = seq.channels[roles["amp"]]
        w1 = amp_ch.scale * seq.values[roles["amp"]]
        phi = np.zeros(p)
        if "phase" in roles:
            ph_ch = seq.channels[roles["phase"]]
            phi = ph_ch.scale * seq.values[roles["phase"]]
        ux = w1 * np.cos(phi)
        uy = w1 * np.sin(phi)
    if "x" in roles:
        ux = ux + seq.channels[roles["x"]].scale * seq.values[roles["x"]]
    if "y" in roles:
        uy = uy + seq.channels[roles["y"]].scale * seq.values[roles["y"]]
    return ux, uy


def _upsample(arr: np.ndarray, substeps: int) -> np.ndarray:
    return np.repeat(arr, substeps)


# ---------------------------------------------------------------------------
# models

class ControlModel:
    """Common surface: nominal field, named parameters, re-parametrized copies."""

    amp_factor: float = 1.0
    drive_linear: bool = False    # field(amp_factor * drive) = amp_factor * field(drive)

    def field(self, seq: ControlSequence) -> DiscretizedField:
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def with_param(self, name: str, value: float) -> "ControlModel":
        raise KeyError(f"unknown parameter {name!r}")

    def param_scale(self, name: str) -> float:
        """Natural magnitude of a parameter, for relative difference steps."""
        raise KeyError(f"unknown parameter {name!r}")

    def analytic_sensitivities(self) -> tuple[str, ...]:
        return ()


class IdealModel(ControlModel):
    """Distortion-free passthrough; midpoint and interval-average sampling
    coincide for piecewise-constant inputs."""

    drive_linear = True

    def __init__(self, substeps: int = 1, amp_factor: float = 1.0):
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        self.substeps = substeps
        self.amp_factor = amp_factor

    def field(self, seq: ControlSequence) -> DiscretizedField:
        order, by_q = _groups(seq.channels)
        rows, axes = [], []
        for qubits in order:
            roles = by_q[qubits]
            if "amp" in roles or "x" in roles or "y" in roles:
                ux, uy = _drive_xy(seq, roles)
                rows += [_upsample(ux, self.substeps), _upsample(uy, self.substeps)]
                axes += [(qubits, "x"), (qubits, "y")]
            if "z" in roles:
                rows.append(
                    _upsample(seq.channels[roles["z"]].scale * seq.values[roles["z"]], self.substeps)
                )
                axes.append((qubits, "z"))
        b = self.amp_factor * np.stack(rows)
        return DiscretizedField(b, seq.dt / self.substeps, tuple(axes))

    def params(self) -> dict:
        return {"amplitude": self.amp_factor - 1.0}

    def with_param(self, name: str, value: float) -> "IdealModel":
        if name != "amplitude":
            raise KeyError(f"unknown parameter {name!r}")
        return IdealModel(self.substeps, 1.0 + value)

    def param_scale(self, name: str) -> float:
        if name != "amplitude":
            raise KeyError(f"unknown parameter {name!r}")
        return 1.0


class LinearKernelModel(ControlModel):
    """Exponential response kernel of a band-limited control line.

    Complex form: B = kappa * u with kappa(t) = [W - i d (1 - W t)] e^{-W t}
    (u = u_x + i u_y), realized as an exact per-substep state recursion,
    so piecewise-constant inputs incur no discretization error.
    """

    def __init__(
        self,
        params: LinearKernelParams,
        substeps: int = 8,
        average: bool = False,
        amp_factor: float = 1.0,
    ):
        self.kp = params
        self.substeps = substeps
        self.average = average
        self.amp_factor = amp_factor

    def field(self, seq: ControlSequence) -> DiscretizedField:
        w, d = self.kp.w_bandwidth, self.kp.delta
        h = seq.dt / self.substeps
        if h > 0.1 / w:
            raise ValueError(
                f"resolution guard: delta_t={h:.3e} exceeds 0.1/W={0.1 / w:.3e}"
            )
        c0 = w - 1j * d
        c1 = 1j * d * w
        e_f = math.exp(-w * h)
        e_h = math.exp(-w * h / 2)
        j1_f, j2_f = (1 - e_f) / w, (1 - (1 + w * h) * e_f) / w ** 2
        j1_h, j2_h = (1 - e_h) / w, (1 - (1 + w * h / 2) * e_h) / w ** 2

        order, by_q = _groups(seq.channels)
        rows, axes = [], []
        for qubits in order:
            roles = by_q[qubits]
            if "amp" in roles or "x" in roles or "y" in roles:
                ux, uy = _drive_xy(seq, roles)
                u = self.amp_factor * (_upsample(ux, self.substeps) + 1j * _upsample(uy, self.substeps))
                q = u.size
                bout = np.empty(q, dtype=complex)
                z1 = 0.0 + 0.0j
                z2 = 0.0 + 0.0j
                for k in range(q):
                    uk = u[k]
                    if self.average:
                        int_z1 = z1 * j1_f + uk * (h - j1_f) / w
                        int_z2 = z1 * j2_f + z2 * j1_f + uk * (h - j1_f - w * j2_f) / w ** 2
                        bout[k] = (c0 * int_z1 + c1 * int_z2) / h
                    else:
                        z1m = e_h * z1 + uk * j1_h
                        z2m = e_h * (h / 2 * z1 + z2) + uk * j2_h
                        bout[k] = c0 * z1m + c1 * z2m
                    z1, z2 = e_f * z1 + uk * j1_f, e_f * (h * z1 + z2) + uk * j2_f
                rows += [bout.real, bout.imag]
                axes += [(qubits, "x"), (qubits, "y")]
            if "z" in roles:
                rows.append(
                    _upsample(seq.channels[roles["z"]].scale * seq.values[roles["z"]], self.substeps)
                )
                axes.append((qubits, "z"))
        return DiscretizedField(np.stack(rows), h, tuple(axes))

    def params(self) -> dict:
        return {
            "W": self.kp.w_bandwidth,
            "delta": self.kp.delta,
            "amplitude": self.amp_factor - 1.0,
        }

    def with_param(self, name: str, value: float) -> "LinearKernelModel":
        if name == "W":
            kp = LinearKernelParams(value, self.kp.delta)
        elif name == "delta":
            kp = LinearKernelParams(self.kp.w_bandwidth, value)
        elif name == "amplitude":
            return LinearKernelModel(self.kp, self.substeps, self.average, 1.0 + value)
        else:
            raise KeyError(f"unknown parameter {name!r}")
        return LinearKernelModel(kp, self.substeps, self.average, self.amp_factor)

    def param_scale(self, name: str) -> float:
        if name in ("W", "delta"):
            return self.kp.w_bandwidth
        if name == "amplitude":
            return 1.0
        raise KeyError(f"unknown parameter {name!r}")


def _block_propagate(epow: np.ndarray, force: np.ndarray):
    """States of x_{k+1} = E x_k + force_k from x = 0, interval by interval.

    epow holds E^0..E^n and force is (P, n, 3), the n steps of each
    interval.  Returns the (P, n+1, 3) states x_{p,0..n} and the final
    state.  x_{p,j} = E^j x_{p,0} + c_{p,j}, where the part c driven
    within the interval runs for all P intervals at once; only the P
    boundary states x_{p,0} are stepped in sequence.
    """
    p_int, n, _ = force.shape
    e_t = epow[1].T
    c = np.zeros((p_int, n + 1, 3), dtype=complex)
    for j in range(n):
        c[:, j + 1] = c[:, j] @ e_t + force[:, j]
    starts = np.empty((p_int, 3), dtype=complex)
    x = np.zeros(3, dtype=complex)
    for k in range(p_int):
        starts[k] = x
        x = epow[n] @ x + c[k, n]
    return np.einsum("jab,pb->pja", epow, starts) + c, x


class CircuitModel(ControlModel):
    """Rotating-frame RLC resonator with kinetic inductance.

    State x = (I_L~, V_Cm~, V_Ct~); dx/dt = A(x) x + alpha(t) u, stepped
    on n_half internal half-steps per output step.  The output sample is
    the state at the output-step midpoint.

    alpha_L = 0 (linear path).  The system is linear time-invariant and
    the drive is constant over each control interval, so with E the exact
    half-step propagator every state is x_{p,j} = E^j x_{p,0} + c_{p,j},
    where c is driven from rest within interval p.  `_block_propagate`
    builds c for all intervals at once and steps only the P interval
    boundaries in sequence.  The alpha_L sensitivity s obeys the same
    recursion, forced by (dA/dalpha_L) x at the Simpson nodes of each
    half-step; with every state known, that forcing is vectorised and s
    goes through the same helper.

    alpha_L != 0 (nonlinear path).  An exponential predictor-corrector
    that is exact on the stiff linear part (Hochbruck & Ostermann, Acta
    Numerica 19, 2010): the fastest mode decays in ~0.6 ps, so plain RK4
    would need steps hundreds of times shorter.  The nonlinear force has
    one nonzero component, so the step runs on Python complex scalars
    with column 0 of the psi functions only.  A diverging state halves
    the internal step and retries.
    """

    def __init__(self, params: CircuitParams, substeps: int = 16, amp_factor: float = 1.0):
        self.cp = params
        self.substeps = substeps
        self.amp_factor = amp_factor

    def _system(self):
        p = self.cp
        rl = p.rl
        a = np.array(
            [
                [-p.r_series / p.l_0, 0.0, 1.0 / p.l_0],
                [0.0, -1.0 / (rl * p.c_match), 1.0 / (rl * p.c_match)],
                [-1.0 / p.c_tank, -1.0 / (rl * p.c_tank), 1.0 / (rl * p.c_tank)],
            ],
            dtype=complex,
        ) - 1j * p.omega_r * np.eye(3)
        u = np.array([0.0, 1.0 / (rl * p.c_match), 1.0 / (rl * p.c_tank)], dtype=complex)
        return a, u

    def _alpha_in(self, seq: ControlSequence) -> np.ndarray:
        """Complex input alpha(t) per interval from the x/y channel pair."""
        order, by_q = _groups(seq.channels)
        if len(order) != 1:
            raise ValueError("circuit model drives a single channel group")
        ux, uy = _drive_xy(seq, by_q[order[0]])
        return self.amp_factor * (ux + 1j * uy) / self.cp.kappa_i, order[0]

    def field(self, seq: ControlSequence) -> DiscretizedField:
        alpha, qubits = self._alpha_in(seq)
        h = seq.dt / self.substeps
        a0, uvec = self._system()
        x, s, mids, smids = self._integrate(alpha, h, a0, uvec)
        p = self.cp
        bx = p.kappa_o * mids[:, 0].real * p.omega_max
        by = p.kappa_o * mids[:, 0].imag * p.omega_max
        sx = p.kappa_o * smids[:, 0].real * p.omega_max
        sy = p.kappa_o * smids[:, 0].imag * p.omega_max
        axes = ((qubits, "x"), (qubits, "y"))
        return DiscretizedField(
            np.stack([bx, by]),
            h,
            axes,
            sensitivities={"alpha_L": np.stack([sx, sy])},
        )

    def _integrate(self, alpha_intervals, h_out, a0, uvec, retries: int = 6):
        """March (x, dx/dalpha_L) across the sequence; halve the internal
        step and retry on numerical blow-up."""
        extra = 1
        for attempt in range(retries):
            if attempt:
                _log.warning(
                    "circuit integration diverged: retry %d of %d, internal step halved to %.3e s",
                    attempt, retries - 1, h_out / (2 * extra),
                )
            try:
                return self._integrate_once(alpha_intervals, h_out, 2 * extra, a0, uvec)
            except FloatingPointError:
                extra *= 2
        raise RuntimeError("circuit integration unstable after step-halving retries")

    def _integrate_once(self, alpha_intervals, h_out, n_half, a0, uvec):
        """n_half half-steps of size h_out/n_half per output step; the
        output-step midpoint lands on the internal grid (n_half even).
        Returns the final x and s and their (Q, 3) midpoint samples."""
        hh = h_out / n_half
        eye = np.eye(3)
        e = _expm(a0 * hh)
        ainv = np.linalg.inv(a0)
        psi1 = ainv @ (e - eye)                       # int_0^hh e^{A0(hh-s)} ds
        alpha = np.asarray(alpha_intervals, dtype=complex)
        if self.cp.alpha_l != 0.0:
            psi2 = psi1 + (ainv @ psi1) / hh - ainv @ e   # int e^{A0(hh-s)} (s/hh) ds
            return self._march_nonlinear(alpha, n_half, e, psi1 @ uvec, psi1[:, 0], psi2[:, 0])
        e_q = _expm(a0 * hh / 2)
        fvec_q = (ainv @ (e_q - eye)) @ uvec
        return self._march_linear(alpha, hh, n_half, e, psi1 @ uvec, e_q, fvec_q)

    def _march_linear(self, alpha, hh, n_half, e, fvec, e_q, fvec_q):
        """alpha_L = 0: x and its Simpson-forced sensitivity s, block-propagated."""
        p = self.cp
        n = self.substeps * n_half
        epow = np.empty((n + 1, 3, 3), dtype=complex)
        epow[0] = np.eye(3)
        for j in range(n):
            epow[j + 1] = e @ epow[j]
        drive = alpha[:, None, None] * fvec
        xs, x_end = _block_propagate(epow, np.broadcast_to(drive, (alpha.size, n, 3)))

        def sens_force(xv):
            # component 0 of (dA/dalpha_L at alpha_L = 0) @ x; the others vanish
            q2 = np.abs(xv[..., 0]) ** 2
            return (q2 / p.l_0 * (p.r_series * xv[..., 0] - xv[..., 2]))[..., None]

        x_mid = xs[:, :-1] @ e_q.T + alpha[:, None, None] * fvec_q
        unit = np.array([1.0, 0.0, 0.0])
        simpson = (hh / 6.0) * (
            sens_force(xs[:, :-1]) * e[:, 0]
            + 4.0 * (sens_force(x_mid) * e_q[:, 0])
            + sens_force(xs[:, 1:]) * unit
        )
        ss, s_end = _block_propagate(epow, simpson)
        if not np.isfinite(xs).all():
            raise FloatingPointError("circuit state diverged")
        at = np.arange(self.substeps) * n_half + n_half // 2
        return x_end, s_end, xs[:, at].reshape(-1, 3), ss[:, at].reshape(-1, 3)

    def _march_nonlinear(self, alpha, n_half, e, fvec, psi1, psi2):
        """alpha_L != 0: predictor-corrector on scalars; psi1 and psi2 are
        the columns that multiply the nonlinear force.  s stays zero."""
        p = self.cp
        alpha_l, l_0, r_series = p.alpha_l, p.l_0, p.r_series
        (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = e.tolist()
        f0, f1, f2 = fvec.tolist()
        psi1_0, psi1_1, psi1_2 = psi1.tolist()
        psi2_0, psi2_1, psi2_2 = psi2.tolist()

        def nl_force(i_l, v_ct):
            # component 0 of (A(x) - A0) @ x from L = L0 (1 + alpha_L |I_L|^2)
            q = abs(i_l)
            q2 = q * q
            factor = 1.0 + alpha_l * q2
            if factor <= 0.0:
                # a non-positive inductance is outside the model; no step size cures it
                raise ValueError(
                    f"kinetic inductance factor 1 + alpha_L |I_L|^2 = {factor:.3g} <= 0 "
                    f"at alpha_L = {alpha_l:g} A^-2, |I_L|^2 = {q2:.3g} A^2"
                )
            dinv = -alpha_l * q2 / (l_0 * factor)
            return dinv * (-r_series * i_l + v_ct)

        half = n_half // 2
        x0 = x1 = x2 = 0j
        mids = []
        try:
            for al in alpha.tolist():
                d0, d1, d2 = f0 * al, f1 * al, f2 * al
                for _ in range(self.substeps):
                    for j in range(n_half):
                        g0 = nl_force(x0, x2)
                        # predictor y, then the corrector adds psi2 (f(y) - f(x))
                        y0 = e00 * x0 + e01 * x1 + e02 * x2 + d0 + psi1_0 * g0
                        y1 = e10 * x0 + e11 * x1 + e12 * x2 + d1 + psi1_1 * g0
                        y2 = e20 * x0 + e21 * x1 + e22 * x2 + d2 + psi1_2 * g0
                        g = nl_force(y0, y2) - g0
                        x0, x1, x2 = y0 + psi2_0 * g, y1 + psi2_1 * g, y2 + psi2_2 * g
                        if j + 1 == half:
                            mids.append((x0, x1, x2))
                    if not (cmath.isfinite(x0) and cmath.isfinite(x1) and cmath.isfinite(x2)):
                        raise FloatingPointError("circuit state diverged")
        except (OverflowError, ZeroDivisionError) as exc:
            # Python scalars raise here where numpy arrays returned inf or nan
            raise FloatingPointError("circuit state diverged") from exc
        mids = np.array(mids, dtype=complex).reshape(-1, 3)
        return np.array([x0, x1, x2]), np.zeros(3, dtype=complex), mids, np.zeros_like(mids)

    def params(self) -> dict:
        return {
            "alpha_L": self.cp.alpha_l,
            "amplitude": self.amp_factor - 1.0,
        }

    def with_param(self, name: str, value: float) -> "CircuitModel":
        if name == "alpha_L":
            return CircuitModel(replace(self.cp, alpha_l=value), self.substeps, self.amp_factor)
        if name == "amplitude":
            return CircuitModel(self.cp, self.substeps, 1.0 + value)
        raise KeyError(f"unknown parameter {name!r}")

    def param_scale(self, name: str) -> float:
        if name == "alpha_L":
            return 1e-3  # A^-2, the dispersion scale of the kinetic coefficient
        if name == "amplitude":
            return 1.0
        raise KeyError(f"unknown parameter {name!r}")

    def analytic_sensitivities(self) -> tuple[str, ...]:
        return ("alpha_L",) if self.cp.alpha_l == 0.0 else ()

    @property
    def drive_linear(self) -> bool:
        return self.cp.alpha_l == 0.0

    def steady_state(self, alpha: complex) -> np.ndarray:
        """Exact linear steady state -A0^{-1} u alpha (alpha_L = 0)."""
        a0, uvec = self._system()
        return -np.linalg.solve(a0, uvec * alpha)


# ---------------------------------------------------------------------------
# module-level operations

def discretize_ideal(seq: ControlSequence, substeps_per_interval: int = 1) -> DiscretizedField:
    """Passthrough discretization; midpoint (dis) and interval-average
    (dis2) sampling coincide for piecewise-constant inputs."""
    return IdealModel(substeps_per_interval).field(seq)


def apply_linear_kernel(
    seq: ControlSequence,
    params: LinearKernelParams,
    q_steps: int,
    average: bool = False,
) -> DiscretizedField:
    if q_steps % seq.intervals:
        raise ValueError("Q must be an integer multiple of P")
    return LinearKernelModel(params, q_steps // seq.intervals, average=average).field(seq)


def simulate_circuit(
    seq: ControlSequence, params: CircuitParams, q_steps: int
) -> DiscretizedField:
    if q_steps % seq.intervals:
        raise ValueError("Q must be an integer multiple of P")
    return CircuitModel(params, q_steps // seq.intervals).field(seq)


def model_param_derivative(
    model: ControlModel,
    seq: ControlSequence,
    param_name: str,
    h: float = 1e-4,
    nominal: DiscretizedField | None = None,
) -> np.ndarray:
    """Sensitivity channel db/dmu for one named model parameter.

    Uses the model's analytic / ODE sensitivity when it provides one,
    otherwise a central difference with step h * param_scale(name).
    `nominal`, if given, must be model.field(seq); the analytic branch
    reads its sensitivities instead of solving the field again.
    """
    if param_name in model.analytic_sensitivities():
        fld = model.field(seq) if nominal is None else nominal
        return fld.sensitivities[param_name]
    value = model.params()[param_name]
    step = h * model.param_scale(param_name)
    hi = model.with_param(param_name, value + step).field(seq).b
    lo = model.with_param(param_name, value - step).field(seq).b
    return (hi - lo) / (2.0 * step)


def axis_operators(axes, n_qubits: int) -> np.ndarray:
    """(K, d, d) operators sum_{i in qubits_k} sigma_axis^i of the field rows' axes."""
    from .opcore import pauli_op

    ops = np.zeros((len(axes), 2 ** n_qubits, 2 ** n_qubits), dtype=complex)
    for k, (qubits, axis) in enumerate(axes):
        for q in qubits:
            ops[k] += pauli_op([(q, axis)], 1.0, n_qubits).entries
    return ops


def control_hamiltonians(fld: DiscretizedField, n_qubits: int) -> np.ndarray:
    """(Q, d, d) control Hamiltonians sum_k b_{k,q} sum_{i in qubits_k} sigma_axis^i."""
    return np.einsum("kq,kab->qab", fld.b, axis_operators(fld.axes, n_qubits))


def write_field_csv(fld: DiscretizedField, path, channel_names=None) -> None:
    """Dump a field (and its sensitivity channels) as CSV rows
    t,channel,value,sensitivity_param,sensitivity_value."""
    names = channel_names or [
        f"q{'+'.join(map(str, qs))}_{ax}" for qs, ax in fld.axes
    ]
    with open(path, "w") as f:
        f.write("t,channel,value,sensitivity_param,sensitivity_value\n")
        sens = fld.sensitivities or {"": None}
        for k, name in enumerate(names):
            for q in range(fld.q_steps):
                t = (q + 0.5) * fld.delta_t
                for pname, arr in sens.items():
                    sval = arr[k, q] if arr is not None else 0.0
                    f.write(
                        f"{t:.10e},{name},{fld.b[k, q]:.10e},{pname},{sval:.10e}\n"
                    )
