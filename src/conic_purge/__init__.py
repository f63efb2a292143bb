"""Two-stage outlier elimination for robust ellipse and ellipsoid fitting.

Stage 1 flags points that sit away from the dominant proximity cluster of
a heat-kernel graph (via the near-zero generalized eigenvectors of its
Laplacian); stage 2 fits the algebraic model and iteratively reclassifies
every point by its deviation from the fit.  The stages compensate for each
other: the graph catches far scatter that would poison a model fit, the
model catches subtle deviators the graph cannot see.
"""

from .errors import (ConicPurgeError, ConvergenceFailure,
                     DegenerateBandwidth, DegenerateConfiguration,
                     LengthMismatch, NotAnEllipse, NotAnEllipsoid,
                     NoValidModel, TooFewPoints, ZeroVector)
from .geometry import (ConicCoeffs, EllipseParams, EllipsoidParams,
                       QuadricCoeffs, conic_from_ellipse, ellipse_from_conic,
                       ellipsoid_from_quadric, nonoverlap_ratio,
                       quadric_from_ellipsoid, sampson_distance)
from .modelfit import (FitResult, RefineConfig, fit_ellipse_direct,
                       fit_ellipsoid_direct, ransac_success_prob, refine,
                       rescue_start, vanilla_ransac)
from .pipeline import DetectionOutcome, RunRecord, detect_points, run_experiment
from .proximity import DetectionLabels, EligibilityConfig, proximity_stage
from .spectral import (LaplacianPair, Spectrum, generalized_eigs,
                       graph_laplacian, heat_kernel_weights,
                       pairwise_distances, select_bandwidth)
from .synth import (ExperimentConfig, LabeledDataset, detection_metrics,
                    ellipse_from_eccentricity, make_dataset)

__version__ = "0.1.0"

__all__ = [
    "ConicPurgeError", "ConvergenceFailure", "DegenerateBandwidth",
    "DegenerateConfiguration", "LengthMismatch", "NotAnEllipse",
    "NotAnEllipsoid", "NoValidModel", "TooFewPoints", "ZeroVector",
    "ConicCoeffs", "EllipseParams", "EllipsoidParams", "QuadricCoeffs",
    "conic_from_ellipse", "ellipse_from_conic", "ellipsoid_from_quadric",
    "quadric_from_ellipsoid", "nonoverlap_ratio", "sampson_distance",
    "FitResult", "RefineConfig", "fit_ellipse_direct", "fit_ellipsoid_direct",
    "ransac_success_prob", "refine", "rescue_start", "vanilla_ransac",
    "DetectionOutcome", "RunRecord", "detect_points", "run_experiment",
    "DetectionLabels", "EligibilityConfig", "proximity_stage",
    "LaplacianPair", "Spectrum", "generalized_eigs", "graph_laplacian",
    "heat_kernel_weights", "pairwise_distances", "select_bandwidth",
    "ExperimentConfig", "LabeledDataset", "detection_metrics",
    "ellipse_from_eccentricity", "make_dataset",
]
