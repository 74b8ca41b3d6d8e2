"""Command-line front end: algebra / subspace / scale / optimize /
evaluate / landscape / simulate, orchestrating the full design flow from
one JSON problem file.

Every command reads the file through `config.load_config`, which checks
the whole file before any work starts, so a bad key exits 2 with its key
path from every command alike, the references inside objective terms
included.  The commands read only the typed values of the `ProblemConfig`
it returns.  The sequence file of evaluate / landscape / simulate is
checked the same way by `config.read_sequence`, channels, dt and
interval count against the problem's.

Exit codes: 0 success, 2 validation error (a bad file key, --seed,
--threads or HAMFORGE_THREADS, or a file or directory that cannot be read
or written, named in the message), 3 infeasible target, 4 optimizer budget
exhausted above threshold.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import config as cfgmod
from . import evaluate as ev
from . import reach
from .config import ConfigError, ProblemConfig
from .opcore import SPAN_TOL, SubspaceError, project
from .optimizer import OptimizationResult, parallel_restarts, restart_rng

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


def _at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")

    return parse


def _globals(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="problem JSON file")
    parser.add_argument("--seed", type=_at_least(0), default=None, help="override config seed")
    parser.add_argument(
        "--threads",
        type=_at_least(1),
        default=None,
        help="worker processes (default: HAMFORGE_THREADS or 1)",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--force", action="store_true", help="skip feasibility gates")
    return parser


def _load(args) -> ProblemConfig:
    cfg = cfgmod.load_config(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _emit(args, name: str, payload: dict):
    text = json.dumps(payload, indent=1)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, name), "w") as f:
        f.write(text + "\n")
    print(text)


def _write_csv(args, name: str, header: str, rows):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    print(path)


def _threads(args) -> int:
    """--threads, else HAMFORGE_THREADS, else 1."""
    if args.threads is not None:
        return args.threads
    try:
        return _at_least(1)(os.environ.get("HAMFORGE_THREADS") or "1")
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"HAMFORGE_THREADS {exc}") from None


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


def _target_residuals(cfg: ProblemConfig, subspaces) -> dict:
    """Component id -> relative residual of H_target^w off C_w (inside at most SPAN_TOL)."""
    return {w: float(project(h, subspaces[w].stack)[1]) for w, h in cfg.h_target.items()}


def cmd_subspace(args) -> int:
    cfg = _load(args)
    g = cfgmod.build_algebra(cfg)
    subspaces = cfgmod.build_subspaces(cfg, g)
    resids = _target_residuals(cfg, subspaces)
    payload = {"algebra_dimension": g.dim, "components": {}}
    for w, space in subspaces.items():
        entry = {"dimension": space.dim}
        if w in resids:
            entry["target_in_subspace"] = resids[w] <= SPAN_TOL
            entry["target_residual"] = resids[w]
        payload["components"][str(w)] = entry
    _emit(args, "subspace.json", payload)
    return EXIT_OK


def _scale_range(cfg: ProblemConfig, g, subspaces):
    if not cfg.h_target:
        return None
    comps = cfgmod.scale_components(cfg, subspaces)
    return reach.find_scale_range(g, comps, rng=restart_rng(cfg.seed, 11), **cfg.scale_args)


def cmd_scale(args) -> int:
    cfg = _load(args)
    g = cfgmod.build_algebra(cfg)
    subspaces = cfgmod.build_subspaces(cfg, g)
    try:
        sr = _scale_range(cfg, g, subspaces)
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
        for w, resid in _target_residuals(cfg, subspaces).items():
            if resid > SPAN_TOL:
                print(
                    f"H_target^{w} lies outside C_{w} (residual {resid:.2e}); "
                    "run `hamforge scale` / adjust the partitioning, or pass --force",
                    file=sys.stderr,
                )
                return EXIT_INFEASIBLE
        if cfg.s_target is not None:
            sr = _scale_range(cfg, g, subspaces)
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

    workers = args.threads
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
    return EXIT_BUDGET if 0 < cfg.gsa.e_target < report.total else EXIT_OK


def _setup_and_target(cfg):
    g = cfgmod.build_algebra(cfg)
    subspaces = cfgmod.build_subspaces(cfg, g)
    setup = cfgmod.build_evaluation_setup(cfg)
    u0 = cfgmod.total_target_unitary(cfg, subspaces)
    return setup, u0


def cmd_evaluate(args) -> int:
    cfg = _load(args)
    seq = cfgmod.read_sequence(args.sequence, cfg)
    setup, u0 = _setup_and_target(cfg)
    report = ev.evaluation_report(seq, setup, u0, cfg.n_mc, cfg.seed, t_dep=cfg.t_dep)
    _emit(args, "evaluate.json", report)
    return EXIT_OK


def cmd_landscape(args) -> int:
    cfg = _load(args)
    seq = cfgmod.read_sequence(args.sequence, cfg)
    if cfg.landscape is None:
        print("config has no evaluation.landscape section", file=sys.stderr)
        return EXIT_VALIDATION
    setup, u0 = _setup_and_target(cfg)
    (_, vals1), (_, vals2) = cfg.landscape
    fid = ev.landscape(seq, setup, *cfg.landscape, u0)
    rows = [(a, b, fid[i, j]) for i, a in enumerate(vals1) for j, b in enumerate(vals2)]
    _write_csv(args, "landscape.csv", "param1,param2,fidelity", rows)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    seq = cfgmod.read_sequence(args.sequence, cfg)
    setup = cfgmod.build_evaluation_setup(cfg)
    probs = ev.stroboscopic_evolve(cfg.initial_state, seq, setup, cfg.simulate_params, cfg.n_cycles)
    _write_csv(args, "survival.csv", "cycle,survival_probability", enumerate(probs))
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
        args.threads = _threads(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SubspaceError as exc:
        print(f"infeasible target: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
