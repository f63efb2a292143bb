"""Reference consensus baseline for the tests.

Before the consensus pass fitted every trial in one batch, wrote the
distances in smaller blocks and took only the medians that can lower the
threshold, ``modelfit.vanilla_ransac`` fitted and scored its trials in
blocks of about 65k residual entries and took every trial's median.  The
function below is that implementation, copied verbatim with its block
constant, so the differential tests compare ``vanilla_ransac`` with the
code it replaced bit for bit.  The helpers that did not change are
imported, the minimal-sample draw among them (pinned to numpy's
per-trial draw by ``tests/test_draws.py``).
"""

import numpy as np

from conic_purge.errors import (DegenerateConfiguration, NoValidModel,
                                NotAnEllipse, NotAnEllipsoid, TooFewPoints)
from conic_purge.modelfit import (MAD_TO_SIGMA, _TAU_FLOOR, FitResult,
                                  _dim_tools, _fit_direct_batch,
                                  _minimal_samples, _model_type,
                                  signed_residuals)
from conic_purge.proximity import DetectionLabels

# residual entries per batch of vanilla_ransac trials: bounds the (block, n)
# temporaries next to the (iterations, n) distance array at any n
_BLOCK_ENTRIES = 1 << 16


def vanilla_ransac(points: np.ndarray, iterations: int = 1000,
                   inlier_threshold: float | None = None, rng_seed: int = 0,
                   tau_scale: float = 3.0) -> FitResult:
    """Classic consensus baseline: best of ``iterations`` minimal samples.

    Every trial fits a random minimal sample; the model with the largest
    consensus set wins (earliest trial breaking ties) and is refit on that
    set.  Consensus needs one threshold shared by all trials for counts to
    be comparable: when none is given it is tau_scale robust standard
    deviations, with the scale calibrated from the best (smallest) median
    absolute residual any trial achieved.  Each trial's sample is the one
    its own seeded child generator draws; all of them are computed
    together (:func:`_minimal_samples`), then fitted and scored in batches
    of about 65k residual entries, which changes neither the samples nor
    the tie-breaks.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pts = np.asarray(points, dtype=float)
    fitter, min_points = _dim_tools(pts, None)
    n = pts.shape[0]
    if n < min_points:
        raise TooFewPoints(f"need at least {min_points} points")
    samples = _minimal_samples(n, min_points, rng_seed, iterations)
    values = np.empty((iterations, 6 if pts.shape[1] == 2 else 10))
    ok = np.empty(iterations, dtype=bool)
    distances = np.empty((iterations, n))
    medians = np.empty(iterations)
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, iterations, step):
        block = slice(start, start + step)
        values[block], ok[block] = _fit_direct_batch(pts[samples[block]])
        np.abs(signed_residuals(pts, values[block]), out=distances[block])
        medians[block] = np.median(distances[block], axis=1)
    if not ok.any():
        raise NoValidModel("every minimal sample was degenerate")
    if inlier_threshold is not None:
        tau = inlier_threshold
    else:
        # fmin skips NaN medians, as a running min() over the trials would
        best_med = float(np.fmin.reduce(medians[ok]))
        tau = max(tau_scale * MAD_TO_SIGMA * best_med, _TAU_FLOOR)
    counts = np.where(ok, np.count_nonzero(distances <= tau, axis=1), -1)
    best = int(np.argmax(counts))
    best_mask = distances[best] <= tau
    best_model = _model_type(pts)(values[best])
    if counts[best] >= min_points:
        try:
            best_model = fitter(pts[best_mask])
        except (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid,
                TooFewPoints):
            pass  # keep the minimal-sample model
    labels = DetectionLabels(~best_mask, "model")
    return FitResult(best_model, labels, iterations, True)
