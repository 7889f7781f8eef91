"""Reconstruction-error guided viewpoint selection for voxel reconstruction.

The package covers the full loop: dense voxel grids and their metrics
(:mod:`voxsel.grid`), viewpoint geometry and grid rotation
(:mod:`voxsel.geometry`), first-hit error projection and view scoring
(:mod:`voxsel.selection`), a per-category viewpoint pool
(:mod:`voxsel.pool`), silhouette rendering and synthetic shapes
(:mod:`voxsel.synthesis`), visual-hull carving (:mod:`voxsel.carve`), the
iterative harness (:mod:`voxsel.harness`), and file formats
(:mod:`voxsel.io`).
"""

from .carve import ViewObservation, carve, project_voxel
from .geometry import (
    Viewpoint,
    ViewpointLattice,
    discretize_viewpoints,
    pixel_ids,
    rotate_grid,
    rotation_matrix,
    sample_gaussian_view,
    view_direction,
)
from .grid import (
    DEFAULT_THRESHOLD,
    OccupancySet,
    VoxelGrid,
    error_grid,
    f_score,
    iou,
    threshold_grid,
)
from .harness import (
    LoopConfig,
    RunReport,
    SceneObject,
    compare_policies,
    make_corpus,
    report_json,
    run_loop,
)
from .io import FormatError, read_sil, read_vxg, write_sil, write_vxg
from .pool import EmptyCategoryError, ViewpointPool, record, sample_by_category
from .selection import (
    ErrorProjectionMap,
    ViewScore,
    project_first_hit,
    rank_scores,
    score_all,
    score_view,
    select_and_sample,
    select_top_n,
)
from .synthesis import (
    ShapeSpec,
    SilhouetteImage,
    ViewDistribution,
    generate_shape,
    render_silhouette,
    sample_dataset_viewpoints,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_THRESHOLD",
    "EmptyCategoryError",
    "ErrorProjectionMap",
    "FormatError",
    "LoopConfig",
    "OccupancySet",
    "RunReport",
    "SceneObject",
    "ShapeSpec",
    "SilhouetteImage",
    "ViewDistribution",
    "ViewObservation",
    "ViewScore",
    "Viewpoint",
    "ViewpointLattice",
    "ViewpointPool",
    "VoxelGrid",
    "carve",
    "compare_policies",
    "discretize_viewpoints",
    "error_grid",
    "f_score",
    "generate_shape",
    "iou",
    "make_corpus",
    "pixel_ids",
    "project_first_hit",
    "project_voxel",
    "rank_scores",
    "read_sil",
    "read_vxg",
    "record",
    "render_silhouette",
    "report_json",
    "rotate_grid",
    "rotation_matrix",
    "run_loop",
    "sample_by_category",
    "sample_dataset_viewpoints",
    "sample_gaussian_view",
    "score_all",
    "score_view",
    "select_and_sample",
    "select_top_n",
    "threshold_grid",
    "view_direction",
    "write_sil",
    "write_vxg",
]
