import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamforge.optimizer import (
    GSAConfig,
    gsa_accept,
    gsa_minimize,
    gsa_temperature,
    legalize,
    parallel_restarts,
    restart_rng,
    tsallis_rng,
)


def bowl(x):
    return float(np.dot(x, x))


def test_config_validation():
    with pytest.raises(ValueError):
        GSAConfig(q_v=3.2)
    with pytest.raises(ValueError):
        GSAConfig(q_v=2.0)
    with pytest.raises(ValueError):
        GSAConfig(t0=-1.0)
    with pytest.raises(ValueError):
        GSAConfig(schedule="linear")


def test_temperature_verbatim_values():
    cfg = GSAConfig(q_v=2.5, t0=7.0)
    assert gsa_temperature(1, cfg) == pytest.approx(7.0)  # t=1 returns T0
    expect = ((1.5) ** 2 - 1) / ((1.5) ** 3 - 1) * 7.0
    assert gsa_temperature(2, cfg) == pytest.approx(expect)
    assert gsa_temperature(10_000, cfg) >= 0.0  # no overflow at large t


def test_temperature_standard_form():
    cfg = GSAConfig(q_v=2.5, t0=7.0, schedule="standard")
    expect = (2 ** 1.5 - 1) / (3 ** 1.5 - 1) * 7.0
    assert gsa_temperature(2, cfg) == pytest.approx(expect)


def test_legalize_identities():
    assert legalize(np.array([0.3]))[0] == pytest.approx(0.3)
    assert legalize(np.array([1.5]))[0] == pytest.approx(0.5)
    assert legalize(np.array([-1.0]))[0] == pytest.approx(-1.0)
    assert legalize(np.array([1.0]))[0] == pytest.approx(1.0)
    assert legalize(np.array([3.0]))[0] == pytest.approx(-1.0)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_legalize_idempotent_and_bounded(xs):
    x = np.asarray(xs)
    y = legalize(x)
    assert (np.abs(y) <= 1 + 1e-12).all()
    assert np.allclose(legalize(y), y)


def test_legalize_continuity_at_folds():
    eps = 1e-9
    for edge in (1.0, -1.0, 3.0):
        lo = legalize(np.array([edge - eps]))[0]
        hi = legalize(np.array([edge + eps]))[0]
        assert abs(hi - lo) < 1e-8


def test_tsallis_dimension_and_symmetry():
    cfg = GSAConfig(q_v=2.62, dimension=5)
    rng = restart_rng(0, 0)
    draws = np.stack([tsallis_rng(1.0, cfg, rng) for _ in range(20_000)])
    assert draws.shape == (20_000, 5)
    clipped = np.clip(draws, -10, 10)  # heavy tails: test sign symmetry robustly
    se = clipped.std(axis=0) / np.sqrt(len(clipped))
    assert (np.abs(clipped.mean(axis=0)) < 4 * se).all()


def test_tsallis_scale_law():
    # median |x| scales as T^{1/(3-q_v)}
    cfg = GSAConfig(q_v=2.62, dimension=1)
    rng = restart_rng(1, 0)
    m1 = np.median([abs(tsallis_rng(1.0, cfg, rng)[0]) for _ in range(40_000)])
    m16 = np.median([abs(tsallis_rng(16.0, cfg, rng)[0]) for _ in range(40_000)])
    expect = 16.0 ** (1.0 / (3.0 - 2.62))
    assert m16 / m1 == pytest.approx(expect, rel=0.10)


def test_accept_downhill_always():
    cfg = GSAConfig(q_a=-5.0)
    rng = restart_rng(2, 0)
    assert all(gsa_accept(1.0, 0.5, 1e-9, cfg, rng) for _ in range(100))


def test_accept_metropolis_probability():
    cfg = GSAConfig(q_a=1.0)
    rng = restart_rng(3, 0)
    temp = 0.7
    de = temp * np.log(2.0)  # acceptance probability exactly 1/2
    n = 100_000
    acc = sum(gsa_accept(0.0, de, temp, cfg, rng) for _ in range(n))
    p = acc / n
    se = np.sqrt(0.25 / n)
    assert abs(p - 0.5) < 3 * se


def test_accept_qa_below_one_guard():
    cfg = GSAConfig(q_a=-5.0)
    rng = restart_rng(4, 0)
    # a = 1 + (E2-E1)(qa-1)/T < 0 for a large uphill move: always rejected
    assert not any(gsa_accept(0.0, 10.0, 1.0, cfg, rng) for _ in range(200))


def test_bowl_convergence():
    cfg = GSAConfig(
        q_v=2.3, q_a=-5.0, t0=5.0, t_max=5000, dimension=4,
        master_seed=11, schedule="standard",
    )
    rng = restart_rng(11, 0)
    res = gsa_minimize(bowl, rng.uniform(-1, 1, 4), cfg, rng)
    assert res.best_e < 1e-3


def test_immediate_return_at_target():
    cfg = GSAConfig(e_target=10.0, dimension=3, t_max=100)
    x1 = np.full(3, 0.5)
    res = gsa_minimize(bowl, x1, cfg, restart_rng(5, 0))
    assert res.iterations == 1
    assert np.allclose(res.best_x, x1)


def test_fixed_seed_reproducible():
    cfg = GSAConfig(q_v=2.3, t0=5.0, t_max=400, dimension=4, master_seed=6, schedule="standard")
    r1 = gsa_minimize(bowl, np.zeros(4) + 0.7, cfg, restart_rng(6, 0))
    r2 = gsa_minimize(bowl, np.zeros(4) + 0.7, cfg, restart_rng(6, 0))
    assert r1.best_e == r2.best_e
    assert (r1.best_x == r2.best_x).all()


def test_best_energy_monotone_in_trace():
    cfg = GSAConfig(q_v=2.3, t0=5.0, t_max=3000, dimension=4, master_seed=7, schedule="standard")
    res = gsa_minimize(bowl, restart_rng(7, 0).uniform(-1, 1, 4), cfg, restart_rng(7, 1))
    energies = [e for _, _, e in res.traces[0]]
    assert energies == sorted(energies, reverse=True)


def test_proposals_stay_in_box():
    seen = []

    def watcher(x):
        seen.append(np.abs(x).max())
        return bowl(x)

    cfg = GSAConfig(q_v=2.62, t0=10.0, t_max=500, dimension=6, master_seed=8)
    gsa_minimize(watcher, np.zeros(6), cfg, restart_rng(8, 0))
    assert max(seen) <= 1.0 + 1e-12


def test_restarts_reduce_or_match():
    cfg1 = GSAConfig(q_v=2.3, t0=5.0, t_max=800, dimension=4, master_seed=9, schedule="standard", restarts=1)
    cfg8 = GSAConfig(q_v=2.3, t0=5.0, t_max=800, dimension=4, master_seed=9, schedule="standard", restarts=8)
    r1 = parallel_restarts(bowl, cfg1, workers=1)
    r8 = parallel_restarts(bowl, cfg8, workers=1)
    assert r8.best_e <= r1.best_e + 1e-15


def test_restarts_worker_count_invariance():
    cfg = GSAConfig(q_v=2.3, t0=5.0, t_max=500, dimension=4, master_seed=10, schedule="standard", restarts=4)
    serial = parallel_restarts(bowl, cfg, workers=1)
    pooled = parallel_restarts(bowl, cfg, workers=3)
    assert serial.best_e == pooled.best_e
    assert (serial.best_x == pooled.best_x).all()
    assert serial.restart_index == pooled.restart_index


def test_unpicklable_energy_warns_and_runs_serially():
    cfg = GSAConfig(q_v=2.3, t0=5.0, t_max=200, dimension=2, master_seed=13, schedule="standard", restarts=2)
    with pytest.warns(RuntimeWarning, match="cannot be pickled.*serially"):
        res = parallel_restarts(lambda x: bowl(x), cfg, workers=2)
    assert res.best_e == parallel_restarts(bowl, cfg, workers=1).best_e


def test_restarts_run_serially_unless_the_caller_asks_for_workers(monkeypatch):
    # HAMFORGE_THREADS is the CLI's default; a pool here would first try to
    # pickle the lambda and warn
    monkeypatch.setenv("HAMFORGE_THREADS", "2")
    cfg = GSAConfig(q_v=2.3, t0=5.0, t_max=200, dimension=2, master_seed=13, schedule="standard", restarts=2)
    res = parallel_restarts(lambda x: bowl(x), cfg)
    assert res.best_e == parallel_restarts(bowl, cfg, workers=1).best_e


def test_single_restart_equals_gsa_minimize():
    cfg = GSAConfig(q_v=2.3, t0=5.0, t_max=600, dimension=3, master_seed=12, schedule="standard", restarts=1)
    rp = parallel_restarts(bowl, cfg, workers=1)
    rng = restart_rng(12, 0)
    x1 = rng.uniform(-1, 1, 3)
    rm = gsa_minimize(bowl, x1, cfg, rng)
    assert rp.best_e == rm.best_e


def test_cost_failure_reports_iteration():
    def bad(x):
        if abs(x).max() > 0:
            raise FloatingPointError("boom")
        return 0.0

    cfg = GSAConfig(dimension=2, t_max=50, master_seed=13)
    with pytest.raises(RuntimeError, match="iteration|initial"):
        gsa_minimize(bad, np.array([0.5, 0.5]), cfg, restart_rng(13, 0))


def test_cost_failure_after_the_first_point_names_its_iteration():
    calls = []

    def fails_second(x):
        calls.append(x)
        if len(calls) > 1:
            raise FloatingPointError("boom")
        return 1.0

    cfg = GSAConfig(dimension=2, t_max=50, master_seed=13)
    with pytest.raises(RuntimeError, match=r"cost function failed at iteration 1: boom") as err:
        gsa_minimize(fails_second, np.array([0.5, 0.5]), cfg, restart_rng(13, 0))
    assert isinstance(err.value.__cause__, FloatingPointError)
    assert len(calls) == 2
