"""Black-box equivalence checking of quantum circuits through Bell-test
statistics: exact Bell-value evaluation, analytic distance bounds, an
ancilla-doubling embedding with exact distance readout, and a finite-shot
Monte Carlo estimator with Hoeffding planning.

The package namespace holds the names the README's Library section uses;
everything else is imported from its submodule.
"""

from .bell import bell_value_gamma, bell_value_operator, normalized_bell_from_probabilities
from .circuit import circuit_unitary, embed_double, embedded_pair_state, parse_circuit
from .distance import circuit_distance, distance_from_embedded_v
from .measurement import sequential_distribution
from .sampling import estimate_distance, plan_shots
from .tensor import apply_bilocal, max_entangled

__version__ = "0.1.0"

__all__ = [
    "apply_bilocal",
    "bell_value_gamma",
    "bell_value_operator",
    "circuit_distance",
    "circuit_unitary",
    "distance_from_embedded_v",
    "embed_double",
    "embedded_pair_state",
    "estimate_distance",
    "max_entangled",
    "normalized_bell_from_probabilities",
    "parse_circuit",
    "plan_shots",
    "sequential_distribution",
]
