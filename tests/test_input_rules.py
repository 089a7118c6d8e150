"""Every entry point refuses a bad input with the message of the one rule
in ``tensor.py`` that states it: square matrices of one shape, normalized
finite states, counts of at least one and the protocol size d >= 2, m >= 2.
"""

import re

import numpy as np
import pytest

from bellcheck.bell import (
    bell_value_gamma, bell_value_operator, branch_laws, chsh_saturation_residual, chsh_value,
    lemma2_exceedance,
)
from bellcheck.circuit import Circuit, embed_double, embedded_pair_state
from bellcheck.distance import circuit_distance
from bellcheck.measurement import ALICE, WrapDiagonals, basis, product_factors, sequential_distribution
from bellcheck.sampling import ShotPlan, estimate_distance
from bellcheck.tensor import (
    apply_bilocal, max_entangled, random_real_orthogonal, random_real_unit_vector, rng_stream,
)

NOT_SQUARE = "matrix must be square, got shape (2, 3)"
NOT_SQUARE_W = "matrix must be square, got shape (2, 2, 4)"
MISMATCH = "dimension mismatch: (2, 2) vs (4, 4)"
NOT_NORMALIZED = "state is not normalized"
M_ONE = "need d >= 2 and m >= 2, got d=4, m=1"

# Two-qubit states (d = 2) that fail the norm rule: a norm of 2, NaN and inf
# amplitudes, and amplitudes whose squared norm overflows.
BAD_STATES = {
    "unnormalized": np.full(4, 1.0, dtype=complex),
    "nan": np.full(4, np.nan, dtype=complex),
    "inf": np.array([np.inf, 0, 0, 0], dtype=complex),
    "overflow": np.full(4, 1e200, dtype=complex),
}


def _layout(psi):
    """The d = 2 layout of a 4-amplitude state: its two wrap diagonals."""
    return WrapDiagonals(np.array([0, 1]), psi[[0, 3, 1, 2]].reshape(2, 2))


def _state_rows():
    for kind, psi in BAD_STATES.items():
        yield pytest.param(lambda p=psi: bell_value_operator(p, 2, 2), NOT_NORMALIZED,
                           id=f"{kind}-dense-operator")
        yield pytest.param(lambda p=psi: branch_laws(p, 2, 2), NOT_NORMALIZED,
                           id=f"{kind}-dense-laws")
        yield pytest.param(lambda p=psi: bell_value_gamma(_layout(p), 2, 2), NOT_NORMALIZED,
                           id=f"{kind}-layout-gamma")
        yield pytest.param(lambda p=psi: chsh_value(p), NOT_NORMALIZED, id=f"{kind}-chsh")
        yield pytest.param(lambda p=psi: chsh_saturation_residual(p), NOT_NORMALIZED,
                           id=f"{kind}-chsh-residual")


def _rows():
    bad, wide, square = np.ones((2, 3)), np.ones((2, 2, 4)), np.eye(2)
    psi = max_entangled(2)
    yield pytest.param(lambda: apply_bilocal(bad, bad, psi), NOT_SQUARE, id="square-bilocal")
    yield pytest.param(lambda: circuit_distance(bad), NOT_SQUARE, id="square-distance")
    yield pytest.param(lambda: embedded_pair_state(bad), NOT_SQUARE, id="square-pair")
    yield pytest.param(lambda: embed_double(bad), NOT_SQUARE, id="square-embed")
    yield pytest.param(lambda: apply_bilocal(square, np.eye(4), psi), MISMATCH, id="pair-bilocal")
    # a pair enters as W = U1 U2^T, where a mismatch fails in the caller's matmul;
    # what reaches these routines is a W that is not square
    yield pytest.param(lambda: circuit_distance(wide), NOT_SQUARE_W, id="pair-distance")
    yield pytest.param(lambda: embedded_pair_state(wide), NOT_SQUARE_W, id="pair-pair")
    yield from _state_rows()
    yield pytest.param(
        lambda: estimate_distance(np.full((2, 2), np.nan), 2, ShotPlan(10), 1),
        NOT_NORMALIZED, id="nan-unitary-sampled",
    )
    yield pytest.param(lambda: basis(4, 1, 1, ALICE), M_ONE, id="m1-basis")
    yield pytest.param(lambda: product_factors(2, 1, 1, 0, ALICE), M_ONE, id="m1-factors")
    yield pytest.param(lambda: sequential_distribution(max_entangled(4), 1, 1, 2, 1), M_ONE,
                       id="m1-sequential")
    yield pytest.param(lambda: lemma2_exceedance(4, 2, 0.1, 0, rng_stream(1)),
                       "need at least one sample, got 0", id="zero-samples")
    yield pytest.param(lambda: max_entangled(0), "need at least one dimension, got 0",
                       id="zero-dim-entangled")
    yield pytest.param(lambda: random_real_orthogonal(0, rng_stream(1)),
                       "need at least one dimension, got 0", id="zero-dim-orthogonal")
    yield pytest.param(lambda: random_real_unit_vector(0, rng_stream(1)),
                       "need at least one dimension, got 0", id="zero-dim-vector")
    yield pytest.param(lambda: Circuit(0), "need at least one qubit, got 0", id="zero-qubits")
    yield pytest.param(lambda: product_factors(0, 2, 1, 0, ALICE),
                       "need at least one qubit, got 0", id="zero-qubits-factors")


@pytest.mark.parametrize("call,message", _rows())
def test_refusal_names_the_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("psi", [np.full((2, 4), 0.5), np.full((4, 4), 0.5)], ids=["2", "4"])
def test_chsh_refuses_a_stack(psi):
    # each row is a normalized two-qubit state, but CHSH reads one state
    message = f"CHSH reads one two-qubit state, got a stack of shape {psi.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chsh_value(psi)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chsh_saturation_residual(psi)
