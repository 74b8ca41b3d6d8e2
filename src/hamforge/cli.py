"""Command-line front end: algebra / subspace / scale / optimize /
evaluate / landscape / simulate, orchestrating the full design flow from
one JSON problem file.

Exit codes: 0 success, 2 validation error, 3 infeasible target,
4 optimizer budget exhausted above threshold.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from . import evaluate as ev
from . import reach
from .config import ConfigError, ProblemConfig
from .opcore import SPAN_TOL, SubspaceError, project
from .optimizer import OptimizationResult, parallel_restarts

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


def _globals(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="problem JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes (default: HAMFORGE_THREADS or 1)",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--force", action="store_true", help="skip feasibility gates")
    return parser


def _load(args) -> ProblemConfig:
    cfg = cfgmod.load_config(args.config)
    if args.seed is not None:
        raw = dict(cfg.raw)
        raw["seed"] = args.seed
        cfg = cfgmod.parse_config(raw)
    return cfg


def _emit(args, name: str, payload: dict):
    text = json.dumps(payload, indent=1)
    print(text)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, name), "w") as f:
        f.write(text + "\n")


def _threads(args) -> int:
    if args.threads is not None:
        return max(args.threads, 1)
    return max(int(os.environ.get("HAMFORGE_THREADS", "1") or 1), 1)


def cmd_algebra(args) -> int:
    cfg = _load(args)
    g = cfgmod.build_algebra(cfg)
    full = 4 ** cfg.n_qubits - 1
    payload = {
        "dimension": g.dim,
        "closure_depth": g.closure_depth,
        "generator_count": g.generator_count,
        "full_algebra_dimension": full,
        "universal": g.dim == full,
    }
    _emit(args, "algebra.json", payload)
    return EXIT_OK


def cmd_subspace(args) -> int:
    cfg = _load(args)
    g = cfgmod.build_algebra(cfg)
    subspaces = cfgmod.build_subspaces(cfg, g)
    tgts = cfgmod.target_operators(cfg)
    payload = {"algebra_dimension": g.dim, "components": {}}
    for w, space in subspaces.items():
        entry = {"dimension": space.dim}
        if tgts[w] is not None:
            _, resid = project(tgts[w], space.stack)
            entry["target_in_subspace"] = bool(resid <= SPAN_TOL)
            entry["target_residual"] = float(resid)
        payload["components"][str(w)] = entry
    _emit(args, "subspace.json", payload)
    return EXIT_OK


def _scale_range(cfg: ProblemConfig, g, subspaces, rng):
    comps = cfgmod.scale_components(cfg, subspaces)
    if all(c[2] is None for c in comps):
        return None
    evs = cfg.evaluation
    return reach.find_scale_range(
        g,
        comps,
        int(evs.get("scale_samples", 1000)),
        sampler=evs.get("sampler", "auto"),
        rng=rng,
        batch=int(evs.get("scale_batch", 200)),
        n_burn=int(evs.get("walk_burn", 100)),
        n_thin=int(evs.get("walk_thin", 10)),
    )


def cmd_scale(args) -> int:
    cfg = _load(args)
    g = cfgmod.build_algebra(cfg)
    subspaces = cfgmod.build_subspaces(cfg, g)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(11,)))
    try:
        sr = _scale_range(cfg, g, subspaces, rng)
    except SubspaceError as exc:
        _emit(args, "scale.json", {"achievable": False, "reason": str(exc)})
        return EXIT_INFEASIBLE
    if sr is None:
        _emit(args, "scale.json", {"achievable": False, "reason": "no H_target given"})
        return EXIT_VALIDATION
    payload = {
        "achievable": bool(sr.achievable),
        "s_minus": sr.s_minus,
        "s_plus": sr.s_plus,
        "samples_used": sr.samples_used,
        "convergence_history": [list(h) for h in sr.convergence_history],
    }
    _emit(args, "scale.json", payload)
    return EXIT_OK if sr.achievable else EXIT_INFEASIBLE


def cmd_optimize(args) -> int:
    cfg = _load(args)
    g = cfgmod.build_algebra(cfg)
    subspaces = cfgmod.build_subspaces(cfg, g)
    pipe = cfgmod.build_pipeline(cfg, g, subspaces)

    if not args.force:
        tgts = cfgmod.target_operators(cfg)
        for w, ht in tgts.items():
            if ht is None:
                continue
            _, resid = project(ht, subspaces[w].stack)
            if resid > SPAN_TOL:
                print(
                    f"H_target^{w} lies outside C_{w} (residual {resid:.2e}); "
                    "run `hamforge scale` / adjust the partitioning, or pass --force",
                    file=sys.stderr,
                )
                return EXIT_INFEASIBLE
        if cfg.s_target is not None:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(11,)))
            sr = _scale_range(cfg, g, subspaces, rng)
            if sr is not None and (
                not sr.achievable
                or not (sr.s_minus - 0.02 <= cfg.s_target <= sr.s_plus + 0.02)
            ):
                print(
                    f"s_target={cfg.s_target} outside the achievable range "
                    f"[{sr.s_minus:.3f}, {sr.s_plus:.3f}] (see `hamforge scale`); "
                    "pass --force to insist",
                    file=sys.stderr,
                )
                return EXIT_INFEASIBLE

    workers = _threads(args)
    best: OptimizationResult | None = None
    x_init = None
    for k, (t_max, t0) in enumerate(cfg.stages):
        stage_cfg = replace(cfg.gsa, t_max=t_max, t0=t0, master_seed=cfg.seed + 7919 * k)
        best = parallel_restarts(pipe, stage_cfg, workers=workers, x_init=x_init)
        x_init = best.best_x
        if best.best_e <= stage_cfg.e_target:
            break

    seq = pipe.sequence(best.best_x)
    report = pipe.evaluate(best.best_x)
    os.makedirs(args.out, exist_ok=True)
    seq_path = os.path.join(args.out, "sequence.json")
    cfgmod.write_sequence(seq, seq_path)
    payload = {
        "sequence_file": seq_path,
        "f_tot": report.total,
        "terms": {l: v for l, v in zip(report.labels, report.values)},
        "weights": {l: w for l, w in zip(report.labels, report.weights)},
        "iterations": best.iterations,
        "restart_index": best.restart_index,
    }
    _emit(args, "optimize.json", payload)
    threshold = cfg.gsa.e_target if cfg.gsa.e_target > 0 else None
    if threshold is not None and report.total > threshold:
        return EXIT_BUDGET
    return EXIT_OK


def _setup_and_target(cfg):
    g = cfgmod.build_algebra(cfg)
    subspaces = cfgmod.build_subspaces(cfg, g)
    setup = cfgmod.build_evaluation_setup(cfg)
    u0 = cfgmod.total_target_unitary(cfg, subspaces)
    return setup, u0


def cmd_evaluate(args) -> int:
    cfg = _load(args)
    seq = cfgmod.read_sequence(args.sequence)
    setup, u0 = _setup_and_target(cfg)
    evs = cfg.evaluation
    report = ev.evaluation_report(
        seq,
        setup,
        u0,
        int(evs.get("n_mc", 1000)),
        cfg.seed,
        t_dep=evs.get("t_dep"),
    )
    _emit(args, "evaluate.json", report)
    return EXIT_OK


def cmd_landscape(args) -> int:
    cfg = _load(args)
    seq = cfgmod.read_sequence(args.sequence)
    setup, u0 = _setup_and_target(cfg)
    ls = cfg.evaluation.get("landscape")
    if not ls:
        print("config has no evaluation.landscape section", file=sys.stderr)
        return EXIT_VALIDATION
    ax1 = (ls["axis1"]["dist"], np.asarray(ls["axis1"]["values"], dtype=float))
    ax2 = (ls["axis2"]["dist"], np.asarray(ls["axis2"]["values"], dtype=float))
    grid = ev.landscape(seq, setup, ax1, ax2, u0)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "landscape.csv")
    with open(path, "w") as f:
        f.write("param1,param2,fidelity\n")
        for i, v1 in enumerate(grid.values1):
            for j, v2 in enumerate(grid.values2):
                f.write(f"{v1:.17g},{v2:.17g},{grid.fidelity[i, j]:.17g}\n")
    print(path)
    return EXIT_OK


def _initial_state(spec, n_qubits: int) -> np.ndarray:
    d = 2 ** n_qubits
    if isinstance(spec, str):
        if spec == "zero":
            psi = np.zeros(d, dtype=complex)
            psi[0] = 1.0
            return psi
        if spec == "plus":
            return np.full(d, 1.0 / np.sqrt(d), dtype=complex)
        raise ConfigError(f"evaluation.initial_state: unknown named state {spec!r}")
    psi = np.asarray(spec, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ConfigError("evaluation.initial_state has zero norm")
    return psi / norm


def cmd_simulate(args) -> int:
    cfg = _load(args)
    seq = cfgmod.read_sequence(args.sequence)
    setup, _ = _setup_and_target(cfg)
    evs = cfg.evaluation
    psi0 = _initial_state(evs.get("initial_state", "zero"), cfg.n_qubits)
    n_cycles = int(evs.get("n_cycles", 50))
    overrides = evs.get("simulate_params", {})
    probs = ev.stroboscopic_evolve(psi0, seq, setup, overrides, n_cycles)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "survival.csv")
    with open(path, "w") as f:
        f.write("cycle,survival_probability\n")
        for n, pr in enumerate(probs):
            f.write(f"{n},{pr:.17g}\n")
    print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hamforge",
        description="Design and evaluate precise, robust effective Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in [
        ("algebra", cmd_algebra, ()),
        ("subspace", cmd_subspace, ()),
        ("scale", cmd_scale, ()),
        ("optimize", cmd_optimize, ()),
        ("evaluate", cmd_evaluate, ("sequence",)),
        ("landscape", cmd_landscape, ("sequence",)),
        ("simulate", cmd_simulate, ("sequence",)),
    ]:
        p = sub.add_parser(name)
        _globals(p)
        for arg in extra:
            p.add_argument(arg, help="sequence JSON file")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SubspaceError as exc:
        print(f"infeasible target: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
