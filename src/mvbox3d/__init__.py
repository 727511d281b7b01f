"""Multi-view 3D box perception core.

Camera modeling with intrinsic standardization, 3D position encoding of
image features, multi-view deformable aggregation, symmetry-aware 9-DoF box
losses with analytic gradients, one-to-one matching, and oriented-IoU
average-precision evaluation, plus a deterministic synthetic-scene harness.
"""

from .aggregation import (
    FIXED_KEYPOINT_OFFSETS,
    AggregationParams,
    AggregationWeights,
    Query,
    aggregate,
    aggregation_weights,
    generate_anchors,
    learnable_keypoint_offsets,
)
from .camera import (
    DEFAULT_STD_INTRINSICS,
    CameraModel,
    PixelDepth,
    SingularProjectionError,
    in_frustum,
    project,
    project_points,
    standardize_intrinsics,
    unproject,
)
from .config import RunConfig
from .enhancer import (
    FeatureMap,
    LinearParams,
    depth_distribution,
    fuse_features,
    init_linear,
    ipe_correlation_map,
)
from .evaluation import (
    GroundTruthSet,
    MetricsReport,
    SceneGroundTruth,
    SizeThresholds,
    average_precision,
    match_detections,
    metrics_report,
    report_to_csv,
)
from .geometry import (
    Box9DoF,
    Detection,
    box_corners,
    box_iou,
    euler_to_rotation,
    nms,
    nms_scenes,
    paired_iou,
    pairwise_iou,
    reparameterize_box,
    rotation_to_euler,
    signed_permutations,
    transform_box,
)
from .losses import (
    LossValueGrad,
    LossWeights,
    TotalLoss,
    center_loss,
    corner_chamfer_loss,
    focal_loss,
    l1_box_loss,
    permutation_corner_loss,
    total_loss,
    wasserstein_loss,
)
from .matching import MatchedLoss, cost_matrix, hungarian, matched_loss

__version__ = "0.1.0"
