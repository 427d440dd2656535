"""Exact chaos analysis of the CBC block-cipher mode at toy block sizes.

The mode is treated as a discrete dynamical system on state/message pairs.
The toolkit builds its one-step transition graph and checks the strong
connectivity certificate for chaos, constructs exact topological-mixing and
sensitivity witnesses, probes expansivity over bounded horizons, and lower
bounds orbit-separation entropy. All distance arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .cipher import (
    BlockVector,
    CipherSpec,
    SplitMix64,
    cipher_from_table,
    decrypt,
    encrypt,
    make_cipher,
)
from .dynamics import (
    CONVENTION_PAPER_COMPLEMENT,
    CONVENTION_XOR,
    MessageSequence,
    SystemConfig,
    SystemPoint,
    identity_table,
    iterate,
    negation_table,
    shift,
    step,
)
from .metric import (
    Ball,
    bowen_distance,
    decimal_str,
    distance,
    fraction_str,
    in_ball,
    message_distance,
    state_distance,
)
from .graph import (
    DevaneyVerdict,
    TransitionGraph,
    build_graph,
    devaney_verdict,
    graph_to_dot,
    graph_to_json,
    strongly_connected,
)
from .chaoslab import (
    EntropyEntry,
    ExpansivityReport,
    MixingWitness,
    SeparatedSetReport,
    entropy_profile,
    expansivity_probe,
    mixing_witness,
    sensitivity_witness,
    separated_set,
    steered_merge_pair,
    verify_mixing,
)

__all__ = [
    "BlockVector",
    "CipherSpec",
    "SplitMix64",
    "cipher_from_table",
    "decrypt",
    "encrypt",
    "make_cipher",
    "CONVENTION_PAPER_COMPLEMENT",
    "CONVENTION_XOR",
    "MessageSequence",
    "SystemConfig",
    "SystemPoint",
    "identity_table",
    "iterate",
    "negation_table",
    "shift",
    "step",
    "Ball",
    "bowen_distance",
    "decimal_str",
    "distance",
    "fraction_str",
    "in_ball",
    "message_distance",
    "state_distance",
    "DevaneyVerdict",
    "TransitionGraph",
    "build_graph",
    "devaney_verdict",
    "graph_to_dot",
    "graph_to_json",
    "strongly_connected",
    "EntropyEntry",
    "ExpansivityReport",
    "MixingWitness",
    "SeparatedSetReport",
    "entropy_profile",
    "expansivity_probe",
    "mixing_witness",
    "sensitivity_witness",
    "separated_set",
    "steered_merge_pair",
    "verify_mixing",
]
