import numpy as np
import pytest

from coevo import BilinearParams, BitVector, PairedPopulations, Population


@pytest.fixture
def fig_params():
    """The n=10 parameterisation used throughout the small exact checks."""
    return BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)


def count_vector(c, n):
    """Canonical genome with c ones (first c positions set)."""
    bits = np.zeros(n, dtype=np.uint8)
    bits[:c] = 1
    return BitVector(bits)


def paired(pred, prey, n):
    """An engine state with the given one-counts, unchecked."""
    return PairedPopulations(Population(n, pred), Population(n, prey))


__all__ = ["count_vector", "paired"]
