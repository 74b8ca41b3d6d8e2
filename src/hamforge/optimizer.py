"""Generalized simulated annealing with a Tsallis visiting distribution.

The proposal at temperature T is x / (s sqrt(u)) with x ~ N(0,1)^D,
u ~ Gamma(shape p), p = (3-q_v)/(2(q_v-1)), s = sqrt(2(q_v-1)) / T^{1/(3-q_v)};
proposals are folded back into [-1,1]^D by the triangle-wave legalizer and
accepted by the generalized q_a rule (Metropolis at q_a = 1).  The best
visited point is always retained.

Two temperature schedules are provided.  "verbatim" follows the published
pseudocode ((q_v-1)^2-1)/((q_v-1)^(t+1)-1) T0, which decays geometrically
and freezes the walk within ~100 iterations; "standard" is the usual
generalized-annealing visiting schedule (2^(q_v-1)-1)/((1+t)^(q_v-1)-1) T0.
The discrepancy is deliberate and documented; pick per problem.
"""
from __future__ import annotations

import math
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GSAConfig",
    "OptimizationResult",
    "tsallis_rng",
    "gsa_temperature",
    "gsa_accept",
    "legalize",
    "gsa_minimize",
    "parallel_restarts",
]

TRACE_EVERY = 500   # iterations between trace rows


@dataclass(frozen=True)
class GSAConfig:
    q_v: float = 2.62
    q_a: float = -5.0
    t0: float = 10.0
    t_max: int = 50_000
    e_target: float = 0.0
    dimension: int = 1
    restarts: int = 1
    master_seed: int = 0
    schedule: str = "verbatim"

    def __post_init__(self):
        if not 1.0 < self.q_v < 3.0:
            raise ValueError("q_v must lie in (1, 3)")
        if self.q_v == 2.0:
            raise ValueError(
                "q_v = 2 makes the published temperature formula 0/0; "
                "pick a nearby value"
            )
        if self.t0 <= 0:
            raise ValueError("T0 must be positive")
        if self.t_max < 1 or self.dimension < 1 or self.restarts < 1:
            raise ValueError("t_max, dimension and restarts must be >= 1")
        if self.e_target < 0:
            raise ValueError("E_target must be >= 0")
        if self.schedule not in ("verbatim", "standard"):
            raise ValueError("schedule must be 'verbatim' or 'standard'")


@dataclass(frozen=True)
class OptimizationResult:
    best_x: np.ndarray
    best_e: float
    iterations: int
    traces: tuple = ()          # per restart: tuple of (iteration, T, E_best)
    restart_index: int = 0


def restart_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Substream generator: deterministic in (seed, stream), independent of
    scheduling, so parallel restarts reproduce bit-for-bit."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(stream,)))


def gsa_temperature(t: int, cfg: GSAConfig) -> float:
    qv, t0 = cfg.q_v, cfg.t0
    if cfg.schedule == "standard":
        return (2.0 ** (qv - 1.0) - 1.0) / ((1.0 + t) ** (qv - 1.0) - 1.0) * t0
    num = (qv - 1.0) ** 2 - 1.0
    le = (t + 1) * math.log(qv - 1.0)
    if le > 500.0:  # denominator would overflow; asymptotic form
        return num * math.exp(-le) * t0
    return num / ((qv - 1.0) ** (t + 1) - 1.0) * t0


def tsallis_rng(temp: float, cfg: GSAConfig, rng: np.random.Generator) -> np.ndarray:
    if temp <= 0.0:
        return np.zeros(cfg.dimension)
    qv = cfg.q_v
    p = (3.0 - qv) / (2.0 * (qv - 1.0))
    inv_s = temp ** (1.0 / (3.0 - qv)) / math.sqrt(2.0 * (qv - 1.0))
    x = rng.standard_normal(cfg.dimension)
    u = max(rng.gamma(p, 1.0), 1e-300)
    return x * (inv_s / math.sqrt(u))


def gsa_accept(e1: float, e2: float, temp: float, cfg: GSAConfig, rng: np.random.Generator) -> bool:
    r = rng.random()  # drawn unconditionally, as in the pseudocode
    if e2 < e1:
        return True
    qa = cfg.q_a
    if temp <= 0.0:
        return False
    if qa == 1.0:
        return r <= math.exp((e1 - e2) / temp)
    a = 1.0 + (e2 - e1) * (qa - 1.0) / temp
    if qa > 1.0:
        return r <= a ** (-1.0 / (qa - 1.0))
    return a >= 0.0 and r <= a ** (-1.0 / (qa - 1.0))


def legalize(x: np.ndarray) -> np.ndarray:
    """Triangle-wave fold into [-1, 1]: identity on the box, continuous."""
    x = np.asarray(x, dtype=float)
    k = np.floor((x + 1.0) / 2.0)
    sign = np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)
    return sign * (x - 2.0 * k)


def gsa_minimize(
    energy,
    x1: np.ndarray,
    cfg: GSAConfig,
    rng: np.random.Generator | None = None,
) -> OptimizationResult:
    """Anneal from x1; stops at t_max or when E_best <= E_target."""
    rng = rng if rng is not None else restart_rng(cfg.master_seed, 0)
    x1 = legalize(np.asarray(x1, dtype=float))
    try:
        e1 = float(energy(x1))
    except Exception as exc:
        raise RuntimeError(f"cost function failed at the initial point: {exc}") from exc
    e_best, x_best = e1, x1.copy()
    trace = [(0, gsa_temperature(1, cfg), e_best)]
    t = 1
    while t < cfg.t_max and e_best > cfg.e_target:
        temp = gsa_temperature(t, cfg)
        x2 = legalize(x1 + tsallis_rng(temp, cfg, rng))
        try:
            e2 = float(energy(x2))
        except Exception as exc:
            raise RuntimeError(f"cost function failed at iteration {t}: {exc}") from exc
        if e2 < e_best:
            e_best, x_best = e2, x2.copy()
        if gsa_accept(e1, e2, temp, cfg, rng):
            x1, e1 = x2, e2
        if t % TRACE_EVERY == 0:
            trace.append((t, temp, e_best))
        t += 1
    trace.append((t, gsa_temperature(max(t - 1, 1), cfg), e_best))
    return OptimizationResult(x_best, e_best, t, (tuple(trace),))


def _run_restart(payload):
    energy, cfg, idx, x_init = payload
    rng = restart_rng(cfg.master_seed, idx)
    x1 = x_init if x_init is not None else rng.uniform(-1.0, 1.0, cfg.dimension)
    res = gsa_minimize(energy, x1, cfg, rng)
    return idx, res


def parallel_restarts(
    energy,
    cfg: GSAConfig,
    workers: int = 1,
    x_init: np.ndarray | None = None,
) -> OptimizationResult:
    """Independent annealing runs on seed substreams; lowest final energy
    wins, ties broken by restart index, so the outcome does not depend on
    worker count or scheduling."""
    payloads = [(energy, cfg, i, x_init) for i in range(cfg.restarts)]
    results = []
    use_pool = workers > 1 and cfg.restarts > 1
    if use_pool:
        try:
            pickle.dumps(energy)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            warnings.warn(
                f"energy cannot be pickled for worker processes ({exc}); "
                f"running {cfg.restarts} restarts serially",
                RuntimeWarning,
                stacklevel=2,
            )
            use_pool = False
    if use_pool:
        with ProcessPoolExecutor(max_workers=min(workers, cfg.restarts)) as pool:
            results = list(pool.map(_run_restart, payloads))
    else:
        results = [_run_restart(p) for p in payloads]
    results.sort(key=lambda pair: (pair[1].best_e, pair[0]))
    idx, best = results[0]
    traces = tuple(res.traces[0] for _, res in sorted(results, key=lambda pr: pr[0]))
    iters = sum(res.iterations for _, res in results)
    return OptimizationResult(best.best_x, best.best_e, iters, traces, idx)
