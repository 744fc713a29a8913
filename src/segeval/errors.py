"""Exception hierarchy.

Three branches map onto the CLI exit codes: input/parsing problems (1),
metric-domain problems (2), and statistics problems (3).
"""

from __future__ import annotations


class SegEvalError(Exception):
    """Base class for all package errors."""


class InputError(SegEvalError):
    """File, format, or manifest problem (CLI exit code 1)."""


class MetricError(SegEvalError):
    """Metric-domain problem: degenerate or incompatible masks (exit code 2)."""


class StatsError(SegEvalError):
    """Statistics problem: bad groups or unknown metric (exit code 3)."""


# --- volume loading -------------------------------------------------------

class UnsupportedFormat(InputError):
    """File magic is not a supported volume format."""


class UnsupportedDatatype(InputError):
    """Volume datatype outside {uint8, int16, int32, float32, float64}."""


class CorruptFile(InputError):
    """Header promises more payload than the file contains, the header
    itself is structurally malformed, its scale factors are not finite, or a
    float volume holds NaN voxels."""


class NonPositiveSpacing(InputError):
    """A voxel spacing component is zero, negative, or non-finite."""


# --- manifest / CSV -------------------------------------------------------

class DuplicateCase(InputError):
    """Two manifest rows share the same (subject, method, structure) key."""


class MalformedRow(InputError):
    """A manifest or CSV row cannot be parsed."""


class UnknownStructure(InputError):
    """A manifest row has a blank structure field."""


class MalformedCsv(InputError):
    """A metrics CSV is missing required columns or cannot be parsed."""


# --- mask comparison ------------------------------------------------------

class GridMismatch(MetricError):
    """Mask dimensions differ; voxelwise comparison is undefined."""


class SpacingMismatch(MetricError):
    """Per-axis spacing differs beyond tolerance; physical distances would
    be ill-defined."""


class BothMasksEmpty(MetricError):
    """Overlap score undefined: neither mask has any member voxel."""


class EmptyAutomaticMask(MetricError):
    """Precision undefined: the automatic mask is empty."""


class EmptyManualMask(MetricError):
    """Sensitivity undefined: the ground-truth mask is empty."""


class ZeroManualVolume(MetricError):
    """Volume ratio undefined: the manual volume is zero."""


class EmptyMask(MetricError):
    """Surface extraction requires a nonempty mask."""


class EmptySurface(MetricError):
    """Distance field / surface metrics require a nonempty point set."""


class NonFiniteMetric(MetricError):
    """A metric or volume of a case came out infinite or NaN, as when a
    spacing is so large that products of it overflow."""


class AllCasesFailed(MetricError):
    """Every case in a cohort evaluation errored."""


# --- statistics -----------------------------------------------------------

class DegenerateData(StatsError):
    """ANOVA undefined: within-group variance is zero."""


class TooFewGroups(StatsError):
    """ANOVA needs at least two groups."""


class EmptySubgroup(StatsError):
    """A subgroup comparison cell has no cases."""


class UnknownMetric(StatsError):
    """Requested metric name is not one of the nine metric columns."""
