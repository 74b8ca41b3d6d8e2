"""Regenerate the reference values in perfbench/refs.

    python3 perfbench/make_refs.py

The benchmark checks every run against these values at 1e-9 relative, so
generate them only on a commit whose outputs are trusted: regenerating
them after a change would hide whatever that change did to the outputs.
The stored files record the digest of the sources they came from.
"""
import json
import sys

import run

run.use_checkout_source()

import harness  # noqa: E402


def anneal_refs(workload: str) -> dict:
    cfg, pipe = harness.setup_anneal(workload)
    reports = []
    for x in harness.reference_controls(cfg.gsa.dimension):
        rep = pipe.evaluate(x)
        reports.append({"labels": list(rep.labels), "values": [float(v) for v in rep.values]})
    return {"ref_seed": harness.REF_SEED, "reports": reports}


def design_refs(workload: str) -> dict:
    design = harness.setup_design(workload)
    seeds = {}
    for ds in harness.DESIGN_SEEDS:
        sr = harness.design_scale(design, ds)
        rep = harness.design_evaluate(design, ds)
        seeds[str(ds)] = {"s_minus": sr.s_minus, "s_plus": sr.s_plus, "fom": rep["fom"]}
        print(workload, ds, seeds[str(ds)], flush=True)
    return {"seeds": seeds}


def main() -> int:
    harness.REFS.mkdir(exist_ok=True)
    for workload in harness.WORKLOADS:
        body = design_refs(workload) if workload == harness.DESIGN else anneal_refs(workload)
        body = {"workload": workload, "src_sha256": run.source_digest(), **body}
        with open(harness.REFS / f"{workload}.json", "w") as f:
            json.dump(body, f, indent=1)
            f.write("\n")
        print("wrote", workload, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
