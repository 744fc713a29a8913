"""Agreement metrics between automatic and manual 3D segmentation masks.

Overlap scores (Dice, precision, similarity, sensitivity), surface
distances (Hausdorff, RMS, ASSD, mean surface distance), volume agreement,
one-way ANOVA across methods, and a parallel cohort harness with CSV/JSON
reporting.
"""

__version__ = "0.1.0"

from .cohort import (  # noqa: E402
    METRIC_NAMES,
    CaseSpec,
    CohortResult,
    EvalConfig,
    MetricRecord,
    compute_record,
    evaluate_cohort,
    parse_manifest,
    subgroup_report,
)
from .overlap import (  # noqa: E402
    ConfusionCounts,
    VolumePair,
    confusion_counts,
    dice,
    normalized_volume_difference,
    precision,
    ravd,
    sensitivity,
    similarity,
    volume,
)
from .reporting import (  # noqa: E402
    ReportBundle,
    anova_for_metric,
    read_metrics_csv,
    write_report_bundle,
)
from .stats import (  # noqa: E402
    AnovaTable,
    GroupSample,
    SummaryStats,
    betainc_regularized,
    f_cdf,
    group_summary,
    one_way_anova,
)
from .surface import (  # noqa: E402
    SurfaceDistanceResult,
    SurfacePointSet,
    compare_surfaces,
    extract_surface,
    surface_metrics_bruteforce,
)
from .volume import (  # noqa: E402
    BinarizeRule,
    BinaryMask,
    LabelVolume,
    binarize,
    check_compatible,
    load_mask_pair,
    load_volume,
)

__all__ = [
    "__version__",
    "METRIC_NAMES",
    "AnovaTable",
    "BinarizeRule",
    "BinaryMask",
    "CaseSpec",
    "CohortResult",
    "ConfusionCounts",
    "EvalConfig",
    "GroupSample",
    "LabelVolume",
    "MetricRecord",
    "ReportBundle",
    "SummaryStats",
    "SurfaceDistanceResult",
    "SurfacePointSet",
    "VolumePair",
    "anova_for_metric",
    "betainc_regularized",
    "binarize",
    "check_compatible",
    "compare_surfaces",
    "compute_record",
    "confusion_counts",
    "dice",
    "evaluate_cohort",
    "extract_surface",
    "f_cdf",
    "group_summary",
    "load_mask_pair",
    "load_volume",
    "normalized_volume_difference",
    "one_way_anova",
    "parse_manifest",
    "precision",
    "ravd",
    "read_metrics_csv",
    "sensitivity",
    "similarity",
    "subgroup_report",
    "surface_metrics_bruteforce",
    "volume",
    "write_report_bundle",
]
