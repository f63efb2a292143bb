"""Reference minimal-sample draw for the tests.

Before the trials' samples were computed together, ``modelfit`` drew them
one seeded child generator at a time.  The function below is that
implementation, copied verbatim, so the differential tests compare
``modelfit._minimal_samples`` with numpy's own per-trial draws bit for
bit.
"""

import numpy as np


def _minimal_samples(n: int, size: int, seed: int, count: int) -> np.ndarray:
    """(count, size) indices: one draw without replacement per seeded trial."""
    return np.array([
        np.random.default_rng(child).choice(n, size=size, replace=False)
        for child in np.random.SeedSequence(seed).spawn(count)])
