"""Wi-Fi RSSI indoor localization with spatially adaptive conformal radii.

Pipeline: per-scan graphs over the AP inventory -> two-layer graph
transformer regressor -> split-conformal calibration with per-region
confidence radii.
"""

from .conformal import (
    ConformalConfig,
    PredictionSet,
    SacpCalibration,
    calibrate,
    conformal_rank,
    load_calibration,
    predict_set,
    save_calibration,
)
from .dataset import (
    ApInventory,
    FingerprintSample,
    ScanSet,
    SyntheticConfig,
    generate_synthetic,
    load_fingerprints,
    load_inventory,
    normalize_rssi,
    save_fingerprints,
    save_inventory,
    split_train_calibration,
)
from .evalreport import (
    CoverageReport,
    PointMetrics,
    SweepResult,
    alpha_sweep,
    coverage_by_region,
    emit_report,
    point_metrics,
    weighted_centroid_baseline,
)
from .graphbuild import GraphConfig, LocGraph, build_ap_adjacency, build_sample_graph
from .gtmodel import (
    GtModel,
    ModelConfig,
    TrainConfig,
    load_model,
    model_for_inventory,
    predict_positions,
    save_model,
    train,
)
from .regions import RegionModel, assign_region, kmeans_fit

__version__ = "0.1.0"
