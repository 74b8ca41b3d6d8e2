"""Cross-layer oracle: the cost pipeline's C-integrals predict the
propagator under a small drive-amplitude error.

With U0 the nominal propagator and U(eps) the one with the drive scaled
by 1 + eps, the Magnus expansion gives U0^dag U(eps) = exp(-i eps A -
eps^2 B) + O(eps^3), with A = sum_i c0_i h_i and B = 1/2 sum_ij c1_ij
[h_i, h_j] from the error request's own c0 and c1.  U(eps) comes from
`evaluate.simulate_total_unitary`, exact propagation that shares no code
with the C-integrals.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from hamforge import config
from hamforge.evaluate import ParameterDistribution, simulate_total_unitary

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def _amplitude_error_problem(name):
    """The benchmark fixture `name` with two terms, the first-order
    robustness and the r=2 residual of the amplitude error 'eps', so the
    pipeline's one request is that error's, read at c0 and c1; and an
    evaluation setup whose one distribution is the relative drive error."""
    path = FIXTURES / f"{name}.json"
    if not path.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    raw = json.loads(path.read_text())
    raw["objectives"] = [
        {"kind": "robustness_first", "weight": 1, "error": "eps"},
        {"kind": "higher_order_r", "weight": 1, "order": 2, "space": "eps"},
    ]
    cfg = config.parse_config(raw)
    amp = ParameterDistribution("amp", "point", (0.0,), "model:amplitude")
    return config.build_pipeline(cfg), replace(config.build_evaluation_setup(cfg), distributions=(amp,))


def _error_tensors(pipe, x):
    """c0 and c1 of the pipeline's error request at x, from its forward pass."""
    got = pipe.tensors(x)
    return got[("err", ("eps",), 1)], got[("err", ("eps",), 2)]


@pytest.mark.parametrize("name", ["anneal-1q-hadamard", "anneal-2q-cnot-r3"])
def test_error_integrals_predict_the_amplitude_dispersed_propagator(name):
    pipe, setup = _amplitude_error_problem(name)
    x = np.random.default_rng(31).uniform(-1, 1, len(pipe.channels) * pipe.p_intervals)
    c0, c1 = _error_tensors(pipe, x)
    h = pipe.err_space.stack
    a = np.tensordot(c0, h, axes=(0, 0))
    b = 0.5 * np.einsum("ij,iab,jbc->ac", c1, h, h) - 0.5 * np.einsum("ij,jab,ibc->ac", c1, h, h)
    seq = pipe.sequence(x)
    u0 = simulate_total_unitary(seq, setup, {"amp": 0.0})

    def residuals(sign):
        out = []
        for eps in (1e-3, 1e-4):
            u = simulate_total_unitary(seq, setup, {"amp": eps})
            out.append(np.linalg.norm(u0.conj().T @ u - expm(-1j * eps * a - sign * eps ** 2 * b)))
        return out

    # O(eps^3): a tenfold smaller eps, a thousandfold smaller residual
    big, small = residuals(1.0)
    assert big < 1e-5 and 500 < big / small < 2000
    # the second-order term matters: with its sign flipped the residual is O(eps^2)
    big, small = residuals(-1.0)
    assert big / small < 200
