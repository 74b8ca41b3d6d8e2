import numpy as np
import pytest
from hypothesis import settings

from hamforge.opcore import pauli_op

# a failing draw prints the exact @reproduce_failure blob: the printed repr
# of an array argument is rounded and may not reproduce the failure
settings.register_profile("hamforge", print_blob=True)
settings.load_profile("hamforge")


@pytest.fixture(autouse=True)
def mpmath_precision_is_restored():
    """Fail a test that leaves mpmath's working precision changed: every
    mpmath test after it would run at that precision."""
    try:
        import mpmath as mp
    except ImportError:   # the tests that need it skip themselves
        yield
        return
    before = mp.mp.dps
    yield
    after, mp.mp.dps = mp.mp.dps, before
    if after != before:
        pytest.fail(f"mpmath.mp.dps left at {after} (was {before}); use mpmath.workdps")


@pytest.fixture
def paulis1():
    return {
        "x": pauli_op([(1, "x")], 1.0, 1),
        "y": pauli_op([(1, "y")], 1.0, 1),
        "z": pauli_op([(1, "z")], 1.0, 1),
    }


def random_hermitian(rng, n_qubits=1, scale=1.0):
    d = 2 ** n_qubits
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) * (scale / 2)


def rk4_cint_oracle(tog_coeffs, t_max, m, n=3000, orders=3):
    """Independent C-integral oracle: RK4 on c0' = phi, c1' = phi (x) c0,
    c2' = phi (x) c1 with phi(t) supplied by direct conjugation."""
    h = t_max / n
    c0 = np.zeros(m, complex)
    c1 = np.zeros((m, m), complex)
    c2 = np.zeros((m, m, m), complex)
    state = (c0, c1, c2)

    def deriv(t, st):
        p = tog_coeffs(t)
        return (
            p,
            np.einsum("i,j->ij", p, st[0]),
            np.einsum("i,jk->ijk", p, st[1]),
        )

    for k in range(n):
        t = k * h
        k1 = deriv(t, state)
        k2 = deriv(t + h / 2, tuple(s + h / 2 * d for s, d in zip(state, k1)))
        k3 = deriv(t + h / 2, tuple(s + h / 2 * d for s, d in zip(state, k2)))
        k4 = deriv(t + h, tuple(s + h * d for s, d in zip(state, k3)))
        state = tuple(
            s + h / 6 * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
    return state[:orders]
