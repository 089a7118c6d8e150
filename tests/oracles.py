"""Reference implementations that only tests read.

Each oracle computes a quantity the long way, so the fast code in
``bellcheck`` can be compared against it.
"""

import numpy as np

from bellcheck.circuit import _cz_signs
from bellcheck.measurement import ALICE, BOB, observable_power


def cz_layer(n: int) -> np.ndarray:
    """Diagonal layer of CZ gates pairing qubit i with qubit n+i on 2n qubits."""
    return np.diag(_cz_signs(n))


def oracle_operator_sum(psi, d, m):
    """Independent oracle: the literal O(m d^4) sum of <A_i^l (x) conj(A_i^l)>."""
    grid = np.asarray(psi).reshape(d, d)
    total = 0j
    for i in range(1, m + 1):
        for power in range(1, d):
            a = observable_power(d, m, i, power, ALICE)
            b_bar = observable_power(d, m, i, power, BOB)
            total += np.vdot(grid, a @ grid @ b_bar.T)
    assert abs(total.imag) < 1e-12
    return total.real
