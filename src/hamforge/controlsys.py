"""Control-system models: input parameters {a_k(t)} to rotating-frame fields.

Three models map piecewise-constant dimensionless controls to the field
samples b_{k,q} (rad/s) that enter the per-step control Hamiltonian:

* ideal            - passthrough, b = scale * a
* linear kernel    - causal convolution with the exponential amplitude /
                     phase response pair of a band-limited line
* nonlinear RLC    - rotating-frame state-space circuit with kinetic
                     inductance, integrated exactly on its linear part

Channels and field rows.  Channels on the same qubits form one drive
group.  Its 'amp' channel (turned by an optional 'phase' channel) and its
'x' and 'y' channels add up to one complex drive u = u_x + i u_y, which
gives the group's x and y rows; a 'z' channel gives its z row.
`drive_groups` holds this rule and `field_axes` lists the rows in order.
A channel set is rejected when a channel would drive nothing: no channel
at all, a second channel with one role on the same qubits, or a 'phase'
channel without an 'amp' channel.  The ideal and kernel models drive any
number of groups, z rows included; the circuit model drives exactly one
group, with no 'z' channel.

Parameters.  Each model declares its parameters once, in `_table`, as
name -> (value, copy with the value set, natural scale); the natural
scale is the unit of the parameter's error expansion:

    amplitude   all models      amp_factor - 1    1
    W           linear kernel   bandwidth, rad/s  W
    delta       linear kernel   detuning, rad/s   W
    alpha_L     circuit         A^-2              1e-3

`params`, `with_param`, `param_scale` and the field derivatives read that
table, and a name outside it raises `UnknownParameter`.

On request each model also returns exact first and second derivatives
of its field with respect to its named parameters, the channels db/dmu
and d2b/dmu dnu that build the error Hamiltonians.  They come from the
model's own integrator: combinations of the kernel's response states,
and forward sensitivities of the circuit's stepper.  One field solve
gives the field and every derivative.
"""
from __future__ import annotations

import cmath
import itertools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm as _expm

_log = logging.getLogger("hamforge")


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
    """Q-step rotating-frame field samples, one row per `field_axes` entry
    of the channels, plus the requested derivative channels, keyed by
    `jet_key`."""

    b: np.ndarray                          # (K_out, Q) rad/s
    delta_t: float
    sensitivities: dict = field(default_factory=dict)

    @property
    def q_steps(self) -> int:
        return self.b.shape[1]


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

def drive_groups(channels) -> tuple:
    """(qubits, {role: channel index}) of each drive group, in the order of
    first appearance.  ValueError names a channel that would drive nothing."""
    groups: dict = {}
    for k, ch in enumerate(channels):
        roles = groups.setdefault(ch.qubits, {})
        if ch.role in roles:
            raise ValueError(
                f"channels[{k}]: a second {ch.role!r} channel on qubits {list(ch.qubits)}"
                f" (the first is channels[{roles[ch.role]}])"
            )
        roles[ch.role] = k
    if not groups:
        raise ValueError("channels: no control channel")
    for qubits, roles in groups.items():
        if "phase" in roles and "amp" not in roles:
            raise ValueError(
                f"channels[{roles['phase']}]: a 'phase' channel needs an 'amp' channel"
                f" on qubits {list(qubits)}"
            )
    return tuple(groups.items())


def field_axes(channels) -> tuple:
    """(qubits, axis) of each field row: per drive group, 'x' and 'y' when
    it has a drive, then 'z' when it has a 'z' channel."""
    axes = []
    for qubits, roles in drive_groups(channels):
        if roles.keys() - {"z"}:
            axes += [(qubits, "x"), (qubits, "y")]
        if "z" in roles:
            axes.append((qubits, "z"))
    return tuple(axes)


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


# ---------------------------------------------------------------------------
# field derivatives

def jet_key(*names: str):
    """Key of a field derivative: () for the field itself, the parameter
    name for db/dmu, the sorted name pair for d2b/dmu dnu."""
    if len(names) > 2:
        raise ValueError("field derivatives go to second order")
    return names[0] if len(names) == 1 else tuple(sorted(names))


def _names(key) -> tuple[str, ...]:
    return (key,) if isinstance(key, str) else tuple(key)


def _without_amplitude(key):
    return jet_key(*(n for n in _names(key) if n != "amplitude"))


def _drive_homogeneous(parts: dict, keys) -> dict:
    """Derivatives along the relative drive error of field parts that are
    homogeneous in the drive.

    parts maps a key over the other parameters to (n, array): the part at
    the current drive and its degree n in the drive.  m derivatives along
    the relative drive error scale it by n! / (n - m)!.
    """
    out = {}
    for key in keys:
        degree, arr = parts[_without_amplitude(key)]
        out[key] = math.perm(degree, _names(key).count("amplitude")) * arr
    return out


# ---------------------------------------------------------------------------
# models

class UnknownParameter(ValueError):
    """A parameter name that the model does not declare."""


@dataclass(frozen=True)
class ControlModel:
    """Common surface: field and its parameter derivatives, named
    parameters, re-parametrized copies."""

    amp_factor: float = field(default=1.0, kw_only=True)
    drive_linear = False    # field(amp_factor * drive) = amp_factor * field(drive)

    def field(self, seq: ControlSequence, jets=()) -> DiscretizedField:
        """Field samples of `seq`, with the derivatives that `jets` names in
        `sensitivities`: a parameter name asks for db/dmu, a name pair for
        d2b/dmu dnu, each keyed by `jet_key`.  Every derivative is exact for
        the model's own integrator.  Derivatives along 'amplitude' are taken
        along the relative drive error, b(amp_factor (1 + eps)): the
        multiplicative error of an 'amplitude' error channel, and the
        amplitude parameter itself at amp_factor = 1."""
        raise NotImplementedError

    def channel_groups(self, channels) -> tuple:
        """`drive_groups` of the channels; ValueError names a channel that
        this model cannot drive."""
        return drive_groups(channels)

    def _table(self) -> dict:
        """name -> (value, copy with the value set, natural scale)."""
        return {
            "amplitude": (self.amp_factor - 1.0, lambda v: replace(self, amp_factor=1.0 + v), 1.0),
        }

    def _entry(self, name: str) -> tuple:
        table = self._table()
        if name not in table:
            raise UnknownParameter(f"unknown parameter {name!r} (the model has {sorted(table)})")
        return table[name]

    def _jet_keys(self, jets) -> list:
        keys = [jet_key(*_names(k)) for k in jets]
        for name in {n for key in keys for n in _names(key)}:
            self._entry(name)
        return keys

    def params(self) -> dict:
        return {name: entry[0] for name, entry in self._table().items()}

    def with_param(self, name: str, value: float) -> "ControlModel":
        return self._entry(name)[1](value)

    def param_scale(self, name: str) -> float:
        """Natural magnitude of a parameter, the unit of its error expansion."""
        return self._entry(name)[2]


def _drive_field(self, seq: ControlSequence, jets=()) -> DiscretizedField:
    """`ControlModel.field` of the ideal and kernel models: each group's
    complex drive, upsampled and scaled by amp_factor, goes through the
    model's `_filter`; a z row is its scaled channel."""
    keys = self._jet_keys(jets)
    h, n = seq.dt / self.substeps, self.substeps
    parts = {_without_amplitude(key) for key in keys} | {()}
    rows = {key: [] for key in parts}
    for _, roles in self.channel_groups(seq.channels):
        if roles.keys() - {"z"}:
            ux, uy = _drive_xy(seq, roles)
            u = self.amp_factor * np.repeat(ux + 1j * uy, n)
            for key, bk in self._filter(u, h, parts).items():
                rows[key] += [bk.real, bk.imag]
        if "z" in roles:
            z = roles["z"]
            bz = self.amp_factor * np.repeat(seq.channels[z].scale * seq.values[z], n)
            for key in parts:
                rows[key].append(bz if key == () else np.zeros_like(bz))
    parts = {key: (1, np.stack(r)) for key, r in rows.items()}
    return DiscretizedField(parts[()][1], h, _drive_homogeneous(parts, keys))


@dataclass(frozen=True)
class IdealModel(ControlModel):
    """Distortion-free passthrough; midpoint and interval-average sampling
    coincide for piecewise-constant inputs."""

    substeps: int = 1
    drive_linear = True
    field = _drive_field

    def _filter(self, u: np.ndarray, h: float, parts) -> dict:
        """The field of the complex drive u: u itself."""
        return {(): u}


def _exp_moments(w: float, h: float, count: int) -> np.ndarray:
    """m_n = int_0^h s^n e^{-W s} ds = n! P(n + 1, W h) / W^{n+1} for n < count,
    with P the regularized lower incomplete gamma function."""
    # imported here: scipy.special adds ~4 MB of resident memory that only
    # the kernel model needs
    from scipy.special import gamma, gammainc

    n = np.arange(count)
    return gamma(n + 1) * gammainc(n + 1, w * h) / w ** (n + 1)


@dataclass(frozen=True)
class LinearKernelModel(ControlModel):
    """Exponential response kernel of a band-limited control line.

    Complex form: B = kappa * u with kappa(t) = [W - i d (1 - W t)] e^{-W t}
    (u = u_x + i u_y).  With y_n = int u(tau) (t - tau)^n e^{-W (t - tau)}
    dtau, B = (W - i d) y_0 + i d W y_1 and dy_n/dW = -y_{n+1}, so every
    W and delta derivative of B is a combination of the y_n (B is affine
    in delta).  The y_n are stepped exactly per substep, so
    piecewise-constant inputs incur no discretization error.  The drive
    factor scales every row, z rows included.
    """

    kp: LinearKernelParams
    substeps: int = 8
    average: bool = False
    drive_linear = True
    field = _drive_field

    def _table(self) -> dict:
        w, d = self.kp.w_bandwidth, self.kp.delta
        return {
            "W": (w, lambda v: replace(self, kp=LinearKernelParams(v, d)), w),
            "delta": (d, lambda v: replace(self, kp=LinearKernelParams(w, v)), w),
            **super()._table(),
        }

    def check_step(self, h: float) -> None:
        """The resolution guard: ValueError for a substep h above 0.1 / W."""
        if h > 0.1 / self.kp.w_bandwidth:
            raise ValueError(
                f"resolution guard: delta_t={h:.3e} exceeds 0.1/W={0.1 / self.kp.w_bandwidth:.3e}"
            )

    def _filter(self, u: np.ndarray, h: float, parts) -> dict:
        """B and its W and delta derivatives in `parts` for the complex drive u."""
        self.check_step(h)
        w, d = self.kp.w_bandwidth, self.kp.delta
        # coefficients of y_0, y_1, ... in each derivative of B
        coeffs = {
            (): (w - 1j * d, 1j * d * w),
            "W": (1.0, 2j * d - w, -1j * d * w),
            "delta": (-1j, 1j * w),
            ("W", "W"): (0.0, -2.0, w - 3j * d, 1j * d * w),
            ("W", "delta"): (0.0, 2j, -1j * w),
            ("delta", "delta"): (),
        }
        ys = self._responses(u, h, max(len(coeffs[key]) for key in parts))
        return {
            key: sum((c * y for c, y in zip(coeffs[key], ys)), np.zeros(u.size, complex))
            for key in parts
        }

    def _responses(self, u: np.ndarray, h: float, n_states: int) -> np.ndarray:
        """(n_states, Q) samples of y_0.. at the substep midpoints, or their
        substep averages.  Over a substep with constant u,
        y_n(t + s) = e^{-W s} sum_j C(n, j) s^{n-j} y_j(t) + u m_n(s)."""
        w = self.kp.w_bandwidth
        idx = np.arange(n_states)
        lag = np.clip(np.subtract.outer(idx, idx), 0, None)
        comb = np.array([[math.comb(i, j) for j in idx] for i in idx])   # 0 above the diagonal

        def shift(s):
            return math.exp(-w * s) * comb * s ** lag

        m = _exp_moments(w, h, n_states + 1)
        if self.average:
            # (1/h) int_0^h y_n(t + s) ds; the drive term int_0^h (h - s) s^n e^{-W s} ds
            sample, drive = comb * m[lag] / h, (h * m[:-1] - m[1:]) / h
        else:
            sample, drive = shift(h / 2), _exp_moments(w, h / 2, n_states)
        step, m = shift(h), m[:-1]
        ys = np.zeros(n_states, dtype=complex)
        out = np.empty((u.size, n_states), dtype=complex)
        for k, uk in enumerate(u.tolist()):
            out[k] = sample @ ys + uk * drive
            ys = step @ ys + uk * m
        return out.T


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


@dataclass(frozen=True)
class _HalfStep:
    """Constants of the circuit integrator for one internal half-step hh."""

    hh: float
    e: np.ndarray          # e^{A0 hh}
    e_q: np.ndarray        # e^{A0 hh / 2}
    fvec: np.ndarray       # int_0^hh e^{A0 s} ds u
    fvec_q: np.ndarray     # int_0^{hh/2} e^{A0 s} ds u
    psi1: np.ndarray       # column 0 of int_0^hh e^{A0 (hh - s)} ds
    psi2: np.ndarray       # column 0 of int_0^hh e^{A0 (hh - s)} (s / hh) ds
    epow: np.ndarray       # E^0 .. E^n over the n half-steps of one interval


@dataclass(frozen=True)
class CircuitModel(ControlModel):
    """Rotating-frame RLC resonator with kinetic inductance.

    State x = (I_L~, V_Cm~, V_Ct~); dx/dt = A(x) x + alpha(t) u, stepped
    on n_half internal half-steps per output step.  The output sample is
    the state at the output-step midpoint.  The half-step constants are
    computed once per (output step, n_half) and kept on the instance;
    a copy from `with_param` starts its own.

    alpha_L = 0 (linear path).  The system is linear time-invariant and
    the drive is constant over each control interval, so with E the exact
    half-step propagator every state is x_{p,j} = E^j x_{p,0} + c_{p,j},
    where c is driven from rest within interval p.  `_block_propagate`
    builds c for all intervals at once and steps only the P interval
    boundaries in sequence.  The derivatives obey the same recursion with
    forcings that the states determine, so they go through the same
    helper:

    * d/dalpha_L is the ODE sensitivity, forced by (dA/dalpha_L) x at the
      Simpson nodes of each half-step;
    * d2/dalpha_L2 is that of the nonlinear path's stepper: its tangent
      stepper (`_nonlinear_jets`) with the force's state Jacobian zero.

    The state is linear in the drive and each alpha_L order adds two
    degrees, so drive-error derivatives are multiples of these parts.

    alpha_L != 0 (nonlinear path).  An exponential predictor-corrector
    that is exact on the stiff linear part (Hochbruck & Ostermann, Acta
    Numerica 19, 2010): the fastest mode decays in ~0.6 ps, so plain RK4
    would need steps hundreds of times shorter.  The nonlinear force has
    one nonzero component, so the step runs on Python complex scalars
    with column 0 of the psi functions only.  Requested derivatives march
    with the state as forward sensitivities of the same stepper
    (Hindmarsh et al., ACM TOMS 31, 2005).  A diverging state halves the
    internal step and retries, up to _RETRIES attempts.
    """

    cp: CircuitParams
    substeps: int = 16
    _half_steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    _RETRIES = 6

    def _table(self) -> dict:
        return {
            # 1e-3 A^-2, the dispersion scale of the kinetic coefficient
            "alpha_L": (
                self.cp.alpha_l, lambda v: replace(self, cp=replace(self.cp, alpha_l=v)), 1e-3
            ),
            **super()._table(),
        }

    @property
    def drive_linear(self) -> bool:
        return self.cp.alpha_l == 0.0

    def channel_groups(self, channels) -> tuple:
        groups = drive_groups(channels)
        qubits, roles = groups[0]
        if "z" in roles:
            raise ValueError(f"channels[{roles['z']}]: the circuit model has no z row")
        if len(groups) > 1:
            raise ValueError(
                f"channels[{min(groups[1][1].values())}]: the circuit model drives one"
                f" channel group, the one on qubits {list(qubits)}"
            )
        return groups

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

    def _half_step(self, h_out: float, n_half: int) -> _HalfStep:
        key = (h_out, n_half)
        if key not in self._half_steps:
            a0, uvec = self._system()
            hh = h_out / n_half
            eye = np.eye(3)
            e = _expm(a0 * hh)
            e_q = _expm(a0 * hh / 2)
            ainv = np.linalg.inv(a0)
            psi1 = ainv @ (e - eye)
            psi2 = psi1 + (ainv @ psi1) / hh - ainv @ e
            n = self.substeps * n_half
            epow = np.empty((n + 1, 3, 3), dtype=complex)
            epow[0] = eye
            for j in range(n):
                epow[j + 1] = e @ epow[j]
            self._half_steps[key] = _HalfStep(
                hh, e, e_q, psi1 @ uvec, (ainv @ (e_q - eye)) @ uvec, psi1[:, 0], psi2[:, 0], epow
            )
        return self._half_steps[key]

    def _alpha_in(self, seq: ControlSequence) -> np.ndarray:
        """Complex input alpha(t) per interval of the one drive group."""
        (_, roles), = self.channel_groups(seq.channels)
        ux, uy = _drive_xy(seq, roles)
        return self.amp_factor * (ux + 1j * uy) / self.cp.kappa_i

    def _output(self, mids: np.ndarray) -> np.ndarray:
        p = self.cp
        return np.stack([
            p.kappa_o * mids[:, 0].real * p.omega_max,
            p.kappa_o * mids[:, 0].imag * p.omega_max,
        ])

    def field(self, seq: ControlSequence, jets=()) -> DiscretizedField:
        keys = self._jet_keys(jets)
        alpha = self._alpha_in(seq)
        h = seq.dt / self.substeps
        linear = self.cp.alpha_l == 0.0
        asked = {_without_amplitude(key) for key in keys} if linear else set(keys)
        _, mids = self._integrate(alpha, h, asked - {()})
        rows = {key: self._output(m) for key, m in mids.items()}
        if linear:
            degrees = {key: (2 * len(_names(key)) + 1, r) for key, r in rows.items()}
            sens = _drive_homogeneous(degrees, keys)
        else:
            sens = {key: rows[key] for key in keys}
        return DiscretizedField(rows[()], h, sens)

    def _integrate(self, alpha_intervals, h_out, jets=frozenset()):
        """March x and the derivatives `jets` across the sequence; halve the
        internal step and retry on numerical blow-up."""
        extra = 1
        for attempt in range(self._RETRIES):
            if attempt:
                _log.warning(
                    "circuit integration diverged: retry %d of %d, internal step halved to %.3e s",
                    attempt, self._RETRIES - 1, h_out / (2 * extra),
                )
            try:
                return self._integrate_once(alpha_intervals, h_out, 2 * extra, jets)
            except FloatingPointError:
                extra *= 2
        raise RuntimeError("circuit integration unstable after step-halving retries")

    def _integrate_once(self, alpha_intervals, h_out, n_half, jets):
        """n_half half-steps of size h_out/n_half per output step; the
        output-step midpoint lands on the internal grid (n_half even).
        Returns the final state and a dict of (Q, 3) midpoint samples: the
        state under (), each derivative in `jets` under its key."""
        k = self._half_step(h_out, n_half)
        alpha = np.asarray(alpha_intervals, dtype=complex)
        if self.cp.alpha_l != 0.0:
            return self._march_nonlinear(alpha, n_half, k, jets)
        return self._march_linear(alpha, n_half, k, jets)

    def _force_terms(self, z: np.ndarray) -> dict:
        """The kinetic force g = phi v at states z (..., 3), component 0:
        phi = alpha_L q / (1 + alpha_L q) with q = |z0|^2, v = (R z0 - z2) / L0.
        Holds z0, v, phi and the derivatives of phi along alpha_L (a) and q."""
        p = self.cp
        al = p.alpha_l
        z0 = z[..., 0]
        q = np.abs(z0) ** 2
        u = 1.0 + al * q
        return {
            "z0": z0, "v": (p.r_series * z0 - z[..., 2]) / p.l_0,
            "phi": al * q / u, "a": q / u ** 2, "q": al / u ** 2,
            "aa": -2.0 * q * q / u ** 3, "aq": (1.0 - al * q) / u ** 3, "qq": -2.0 * al * al / u ** 3,
        }

    def _explicit_force(self, f: dict, key, slots: dict | None = None) -> np.ndarray:
        """The derivative of g along `key` at the states of f, less the
        state-Jacobian term Dg[z_key] that the tangent stepper carries.
        slots holds the first-order derivative of the states along each
        name of a pair."""
        names = _names(key)
        on_a = [float(n == "alpha_L") for n in names]
        if len(names) == 1:
            return f["a"] * f["v"] * on_a[0]
        p = self.cp
        si, sj = slots[names[0]][..., 0], slots[names[1]][..., 0]
        s2i, s2j = slots[names[0]][..., 2], slots[names[1]][..., 2]
        qi, qj = 2.0 * (f["z0"].conj() * si).real, 2.0 * (f["z0"].conj() * sj).real
        vi, vj = (p.r_series * si - s2i) / p.l_0, (p.r_series * sj - s2j) / p.l_0
        phi_i, phi_j = f["q"] * qi + f["a"] * on_a[0], f["q"] * qj + f["a"] * on_a[1]
        phi_ij = (
            f["qq"] * qi * qj + 2.0 * f["q"] * (si.conj() * sj).real
            + f["aq"] * (on_a[0] * qj + on_a[1] * qi) + f["aa"] * on_a[0] * on_a[1]
        )
        return phi_ij * f["v"] + phi_i * vj + phi_j * vi

    def _march_linear(self, alpha, n_half, k: _HalfStep, jets):
        """alpha_L = 0: x and the requested alpha_L derivatives, block-propagated.

        The force and its state Jacobian vanish at alpha_L = 0, so each
        derivative obeys x's own recursion with an explicit forcing."""
        n = self.substeps * n_half
        drive = alpha[:, None, None] * k.fvec
        xs, x_end = _block_propagate(k.epow, np.broadcast_to(drive, (alpha.size, n, 3)))
        if not np.isfinite(xs).all():
            raise FloatingPointError("circuit state diverged")

        def g(z, key="alpha_L", slots=None):
            return self._explicit_force(self._force_terms(z), key, slots)[..., None]

        out = {(): xs}
        if "alpha_L" in jets:
            x_mid = xs[:, :-1] @ k.e_q.T + alpha[:, None, None] * k.fvec_q
            unit = np.array([1.0, 0.0, 0.0])
            simpson = (k.hh / 6.0) * (
                g(xs[:, :-1]) * k.e[:, 0] + 4.0 * (g(x_mid) * k.e_q[:, 0]) + g(xs[:, 1:]) * unit
            )
            out["alpha_L"] = _block_propagate(k.epow, simpson)[0]
        key = ("alpha_L", "alpha_L")
        if key in jets:
            # the stepper's own jets: its predictor at alpha_L = 0 is x_{k+1}
            r = g(xs)
            s, _ = _block_propagate(k.epow, r[:, :-1] * (k.psi1 - k.psi2) + r[:, 1:] * k.psi2)
            t = s[:, :-1] @ k.e.T + r[:, :-1] * k.psi1
            force = (
                g(xs[:, :-1], key, {"alpha_L": s[:, :-1]}) * (k.psi1 - k.psi2)
                + g(xs[:, 1:], key, {"alpha_L": t}) * k.psi2
            )
            out[key] = _block_propagate(k.epow, force)[0]
        at = np.arange(self.substeps) * n_half + n_half // 2
        return x_end, {key: v[:, at].reshape(-1, 3) for key, v in out.items()}

    def _march_nonlinear(self, alpha, n_half, k: _HalfStep, jets):
        """alpha_L != 0: predictor-corrector on scalars; psi1 and psi2 are
        the columns that multiply the nonlinear force.  The states of every
        half-step are kept for the derivatives."""
        p = self.cp
        alpha_l, l_0, r_series = p.alpha_l, p.l_0, p.r_series
        (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = k.e.tolist()
        f0, f1, f2 = k.fvec.tolist()
        psi1_0, psi1_1, psi1_2 = k.psi1.tolist()
        psi2_0, psi2_1, psi2_2 = k.psi2.tolist()

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

        x0 = x1 = x2 = 0j
        xs = []
        try:
            for al in alpha.tolist():
                d0, d1, d2 = f0 * al, f1 * al, f2 * al
                for _ in range(self.substeps):
                    for _ in range(n_half):
                        xs += (x0, x1, x2)
                        g0 = nl_force(x0, x2)
                        # predictor y, then the corrector adds psi2 (f(y) - f(x))
                        y0 = e00 * x0 + e01 * x1 + e02 * x2 + d0 + psi1_0 * g0
                        y1 = e10 * x0 + e11 * x1 + e12 * x2 + d1 + psi1_1 * g0
                        y2 = e20 * x0 + e21 * x1 + e22 * x2 + d2 + psi1_2 * g0
                        g = nl_force(y0, y2) - g0
                        x0, x1, x2 = y0 + psi2_0 * g, y1 + psi2_1 * g, y2 + psi2_2 * g
                    if not (cmath.isfinite(x0) and cmath.isfinite(x1) and cmath.isfinite(x2)):
                        raise FloatingPointError("circuit state diverged")
        except (OverflowError, ZeroDivisionError) as exc:
            # Python scalars raise here where numpy arrays returned inf or nan
            raise FloatingPointError("circuit state diverged") from exc
        xs += (x0, x1, x2)
        xs = np.array(xs, dtype=complex).reshape(-1, 3)
        at = np.arange(alpha.size * self.substeps) * n_half + n_half // 2
        out = {(): xs[at]}
        if jets:
            drive = np.repeat(alpha, self.substeps * n_half)[:, None] * k.fvec
            out.update(self._nonlinear_jets(k, xs, drive, jets, at))
        return xs[-1], out

    def _nonlinear_jets(self, k: _HalfStep, xs, drive, jets, at) -> dict:
        """Forward sensitivities of the predictor-corrector.  Along alpha_L
        and the relative drive error, and for each pair, a derivative s
        obeys the tangent stepper of the recorded trajectory,
            t = E s + d' + psi1 (Dg(x)[s] + r(x)),
            s' = t + psi2 (Dg(y)[t] + r(y) - Dg(x)[s] - r(x)),
        with Dg the state Jacobian of the force, r its explicit part
        (`_explicit_force`) and d' the drive's derivative."""
        fx = self._force_terms(xs[:-1])
        ys = xs[:-1] @ k.e.T + drive + (fx["phi"] * fx["v"])[:, None] * k.psi1
        fy = self._force_terms(ys)
        first = {}
        for name in sorted({n for key in jets for n in _names(key)}):
            first[name] = self._tangent_march(
                k, fx, fy, self._explicit_force(fx, name), self._explicit_force(fy, name),
                drive if name == "amplitude" else None,
            )
        out = {}
        for key in jets:
            if isinstance(key, str):
                out[key] = first[key][0][at]
                continue
            rx = self._explicit_force(fx, key, {n: first[n][0][:-1] for n in key})
            ry = self._explicit_force(fy, key, {n: first[n][1] for n in key})
            out[key] = self._tangent_march(k, fx, fy, rx, ry, None)[0][at]
        return out

    def _tangent_march(self, k: _HalfStep, fx: dict, fy: dict, rx, ry, drive):
        """One derivative through the stepper on Python scalars.  Dg(z)[s] =
        c_a s0 + c_b conj(s0) + c_c s2 with the coefficients of the forces
        fx, fy.  Returns the derivative states s_0..s_N and predictors."""
        p = self.cp
        (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = k.e.tolist()
        psi1_0, psi1_1, psi1_2 = k.psi1.tolist()
        psi2_0, psi2_1, psi2_2 = k.psi2.tolist()

        def jacobian(f):
            scale = f["q"] * f["v"]
            return f["phi"] * p.r_series / p.l_0 + scale * f["z0"].conj(), scale * f["z0"], -f["phi"] / p.l_0

        cols = [c.tolist() for c in (*jacobian(fx), rx, *jacobian(fy), ry)]
        drive = itertools.repeat((0.0, 0.0, 0.0)) if drive is None else drive.tolist()
        s0 = s1 = s2 = 0j
        ss, ts = [(s0, s1, s2)], []
        for ax, bx, cx, rxk, ay, by, cy, ryk, (d0, d1, d2) in zip(*cols, drive):
            gx = ax * s0 + bx * s0.conjugate() + cx * s2 + rxk
            t0 = e00 * s0 + e01 * s1 + e02 * s2 + d0 + psi1_0 * gx
            t1 = e10 * s0 + e11 * s1 + e12 * s2 + d1 + psi1_1 * gx
            t2 = e20 * s0 + e21 * s1 + e22 * s2 + d2 + psi1_2 * gx
            dg = ay * t0 + by * t0.conjugate() + cy * t2 + ryk - gx
            s0, s1, s2 = t0 + psi2_0 * dg, t1 + psi2_1 * dg, t2 + psi2_2 * dg
            ss.append((s0, s1, s2))
            ts.append((t0, t1, t2))
        ss, ts = np.array(ss, dtype=complex), np.array(ts, dtype=complex).reshape(-1, 3)
        if not np.isfinite(ss).all():
            raise FloatingPointError("circuit derivatives diverged")
        return ss, ts


# ---------------------------------------------------------------------------
# field rows to operators

def axis_operators(axes, n_qubits: int) -> np.ndarray:
    """(K, d, d) operators sum_{i in qubits_k} sigma_axis^i of the field rows' axes."""
    from .opcore import pauli_op

    ops = np.zeros((len(axes), 2 ** n_qubits, 2 ** n_qubits), dtype=complex)
    for k, (qubits, axis) in enumerate(axes):
        for q in qubits:
            ops[k] += pauli_op([(q, axis)], 1.0, n_qubits)
    return ops
