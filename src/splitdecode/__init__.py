"""Two-party transformer decoding with prompt decoys.

A toy decoder-only transformer whose decode phase splits each attention
step between a user party (private prompt KV rows) and a model party
(weights and generated-token KV rows), merged losslessly through softmax
denominators. Sensitive prompt spans can be replaced by statistically
indistinguishable decoy n-grams so the model party decodes lambda+1
parallel streams and only the user can winnow out the authentic one. A
brute-force security harness checks the attack-success bounds.
"""

from .model import ModelConfig, init_model
from .numerics import seeded_matrix, stable_softmax_stats
from .obfuscation import ObfuscationConfig, TaggedPrompt, gqs
from .partition import merge_partials, private_partial, public_partial

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "ObfuscationConfig",
    "TaggedPrompt",
    "__version__",
    "gqs",
    "init_model",
    "merge_partials",
    "private_partial",
    "public_partial",
    "seeded_matrix",
    "stable_softmax_stats",
]
