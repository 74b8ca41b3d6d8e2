"""The benchmark's trace targets against the library.

`perfbench/harness.py` wraps library callables by owner and attribute
name, and reads `batch_step_cints`'s arguments by position.  A renamed or
reshaped kernel fails here, in the unit tests, and not only in the
benchmark's own smoke run.
"""
import importlib
import inspect
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hamforge import evaluate
from hamforge import toggling as tg
from hamforge.evaluate import pauli_basis_stack

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    if not (PERFBENCH / "harness.py").is_file():
        pytest.skip("perfbench/ is not in this checkout")
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("harness")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_trace_target_is_a_library_callable(harness):
    targets = harness.trace_targets()
    assert targets
    for owner, attr, _, _ in targets:
        home = owner.__name__ if isinstance(owner, types.ModuleType) else owner.__module__
        assert home.startswith("hamforge."), (owner, attr)
        # the tracer patches owner.__dict__[attr] and restores it
        assert callable(owner.__dict__.get(attr)), (owner, attr)


def test_batch_step_cints_keeps_the_positions_the_harness_reads(harness):
    params = list(inspect.signature(tg.batch_step_cints).parameters)
    assert params[0] == "nu" and params[4] == "r_max"
    # the label and the entry count read r_max fifth and nu (Q, p) first
    stack = pauli_basis_stack(1)[1:]
    h = np.array([0.3 * stack[0] + 1.1 * stack[1], np.zeros((2, 2))])
    nu, f = tg.adjoint_matrix_batch(*np.linalg.eigh(h), tg.AdjointFrame(stack))
    args = (nu, f, f[:, 0], 0.5, 3)
    tg.batch_step_cints(*args)
    assert harness._cints_label(args, {}) == "toggling.batch_step_cints.r3"
    counts = {"r3_entries": 0}
    harness._count_r3_entries(counts, args, {}, None)
    assert counts["r3_entries"] == nu.shape[0] * nu.shape[1] ** 3


def test_the_design_report_passes_the_layers_the_harness_times(harness):
    # the drive-linear 2-qubit report sends every step exponential, n_mc
    # draws of P steps, through toggling.expm_batch and its averaged map
    # through evaluate.ptm, so those spans and the matrix count still
    # measure the Monte-Carlo layers
    design = harness.setup_design(harness.DESIGN)
    seq = harness.design_sequence(design.cfg, 100)
    n_mc = 120
    with harness.Tracer(harness.trace_targets()) as tracer:
        evaluate.evaluation_report(seq, design.setup, design.u0, n_mc, 100)
    assert design.setup.model.drive_linear and design.setup.n_qubits == 2
    assert tracer.counts["expm_matrices"] == n_mc * seq.intervals
    assert tracer.spans["toggling.expm_batch"].calls > 1
    assert tracer.spans["evaluate.ptm"].calls >= 1
    assert tracer.spans["evaluate.report"].calls == 1


def test_the_design_report_at_its_own_n_mc_times_fewer_exponentials(harness):
    # at the design's n_mc the report propagates a Legendre grid in place
    # of the draws: fewer step exponentials, still through
    # toggling.expm_batch, and the averaged map still through evaluate.ptm
    design = harness.setup_design(harness.DESIGN)
    seq = harness.design_sequence(design.cfg, 100)
    n_mc = 1000
    with harness.Tracer(harness.trace_targets()) as tracer:
        report = evaluate.evaluation_report(seq, design.setup, design.u0, n_mc, 100)
    assert tracer.counts["expm_matrices"] == report["propagations"] * seq.intervals < n_mc * seq.intervals
    assert tracer.spans["toggling.expm_batch"].calls >= 1
    assert tracer.spans["evaluate.ptm"].calls >= 1


def test_the_design_report_solves_its_unit_drive_field_once(harness):
    # the drive-linear report scales one unit-drive field for its pilot
    # lines and its grid alike
    design = harness.setup_design(harness.DESIGN)
    seq = harness.design_sequence(design.cfg, 100)
    with harness.Tracer(harness.trace_targets()) as tracer:
        report = evaluate.evaluation_report(seq, design.setup, design.u0, 1000, 100)
    assert report["propagations"] < 1000
    assert tracer.spans["controlsys.field"].calls == 1


def test_the_design_scale_passes_the_layers_the_harness_times(harness):
    # the harness hands config.scale_components straight to
    # reach.find_scale_range: one vertex draw of 1,000 vertices, one
    # lp_solve per end, priced over all of them, and the stored range of
    # the design seed
    design = harness.setup_design(harness.DESIGN)
    seed = harness.DESIGN_SEEDS[0]
    ref = harness.load_refs(harness.DESIGN)["seeds"][str(seed)]
    with harness.Tracer(harness.trace_targets()) as tracer:
        sr = harness.design_scale(design, seed)
    assert tracer.spans["reach.find_scale_range"].calls == 1
    assert tracer.spans["reach.sample_vertices"].calls == 1
    assert tracer.spans["reach.lp_solve"].calls == 2
    assert len(sr.convergence_history) == 1 and sr.samples_used == 1000
    assert harness.close(sr.s_minus, ref["s_minus"], harness.REL_TOL)
    assert harness.close(sr.s_plus, ref["s_plus"], harness.REL_TOL)
