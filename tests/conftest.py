import numpy as np
import pytest

from splitdecode.model import ModelConfig, _rotary_angles, _rotate, init_model


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def rotary_encode(x: np.ndarray, positions) -> np.ndarray:
    """Rotate consecutive dimension pairs of x by position-dependent angles,
    through the trunk's own helpers.

    x has shape (..., n, head_dim) with one position per row; pair i turns
    at frequency ROTARY_BASE**(-2i/head_dim).
    """
    return _rotate(x, *_rotary_angles(positions, x.shape[-1]))


def weight_tensors(weights):
    """All tensors of the weights in model._tensor_layout order."""
    yield weights.embed
    for lw in weights.layers:
        yield from vars(lw).values()
    yield weights.final_gain
    yield weights.unembed


@pytest.fixture(scope="session")
def small_config() -> ModelConfig:
    return ModelConfig(
        n_layers=2, n_heads=2, d_model=16, head_dim=8, vocab_size=64, max_seq=96, seed=7
    )


@pytest.fixture(scope="session")
def small_weights(small_config):
    return init_model(small_config)
