"""Compression-based frequent pattern mining over bit strings.

Mines "abstract" patterns from a multiset of bit-string transactions: a
pattern occurs in a datum when it is substantially simpler than the datum
and adds little information to it, both measured by deterministic
code-length estimators.  Includes a level-wise miner with sound pruning, a
brute-force verification oracle, NCD/NID distance utilities and a
planted-motif dataset generator.
"""

from .codelength import (EstimationError, ExternalBackend, KTBackend,
                         LZBackend, code_len, cond_code_len, joint_code_len,
                         joint_code_len_canonical, make_backend)
from .datagen import (PlantSpec, Xorshift64Star, gen_planted, gen_random,
                      replay_manifest, verify_manifest)
from .distance import (DistanceMatrix, UndefinedDistanceError, distance_matrix,
                       info_dist, kraft_diagnostic, ncd, nid_estimate,
                       triangle_violation_rate)
from .miner import (FrequentPattern, LevelCapError, LevelStats, MiningConfig,
                    MiningResult, generate, mine, seed_level0)
from .occurrence import (OccurrenceParams, PredicateError, TransactionSet,
                         frequency, occurs, support)
from .oracle import (ClassStats, IncompleteEnumerationError, OracleConfig,
                     enumerate_frequent)

__version__ = "0.1.0"

__all__ = [
    "EstimationError", "ExternalBackend", "KTBackend", "LZBackend",
    "code_len", "cond_code_len", "joint_code_len", "joint_code_len_canonical",
    "make_backend",
    "OccurrenceParams", "PredicateError", "TransactionSet", "frequency", "occurs",
    "support",
    "FrequentPattern", "LevelCapError", "LevelStats", "MiningConfig", "MiningResult",
    "generate", "mine", "seed_level0",
    "ClassStats", "IncompleteEnumerationError", "OracleConfig",
    "enumerate_frequent",
    "DistanceMatrix", "UndefinedDistanceError", "distance_matrix", "info_dist",
    "kraft_diagnostic", "ncd", "nid_estimate", "triangle_violation_rate",
    "PlantSpec", "Xorshift64Star", "gen_planted", "gen_random",
    "replay_manifest", "verify_manifest",
]
