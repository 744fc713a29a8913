"""The package's public names, and the names the benchmark imports from it."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import segeval

BENCH = Path(__file__).resolve().parents[1] / "bench"

PUBLIC = [
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


def test_public_names_are_pinned():
    assert segeval.__all__ == PUBLIC
    assert all(hasattr(segeval, name) for name in PUBLIC)


def _segeval_imports(path: Path):
    """``(module, name)`` for each name ``path`` imports from segeval; name None for ``import``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "segeval":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "segeval"
            )


def _resolves(module: str, attr: str | None) -> bool:
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    return attr is None or hasattr(found, attr)


def test_every_name_the_benchmark_imports_exists():
    # a deletion that the benchmark still imports fails here, not in a bench run
    imports = [(path.name, *pair) for path in sorted(BENCH.glob("*.py"))
               for pair in _segeval_imports(path)]
    assert {"measure.py", "run.py"} <= {name for name, _, _ in imports}
    assert [entry for entry in imports if not _resolves(*entry[1:])] == []
