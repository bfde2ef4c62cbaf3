"""Exception types shared across the pipeline.

Everything raised for bad input, bad configuration, or a violated
operation precondition derives from PipelineError, so callers (the CLI
in particular) can map the whole family to one exit path. Genuine bugs
keep surfacing as ordinary exceptions.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for input, configuration, and contract violations."""


class ConfigInvalid(PipelineError):
    """A configuration key, value, or combination is not usable."""


# record validation

class MissingField(PipelineError):
    """A required field is absent or unparsable in an input row."""


class NonPositiveDuration(PipelineError):
    pass


class NegativeWatchTime(PipelineError):
    pass


class LabelOutOfRange(PipelineError):
    """A label cell lies outside its column's domain."""


class EmptyInput(PipelineError):
    """An input file contains no data rows."""


class EmptyDataset(PipelineError):
    """An operation that needs at least one record got none."""


class EmptyGroup(PipelineError):
    pass


# partitioning

class InvalidRatios(PipelineError):
    """Group ratios are unusable: wrong count, non-positive, bad sum,
    or a violated ordering policy."""


class NonMonotoneCurve(PipelineError):
    """A rank curve is not strictly increasing inside its configured
    range, or leaves (0, 1]."""


# quantile summaries

class NegativeValue(PipelineError):
    """Summaries accept non-negative finite values only."""


class EmptySummary(PipelineError):
    pass


class PercentileOutOfRange(PipelineError):
    """Percentile arguments live in (0, 100]."""


class SerializationError(PipelineError):
    """A binary payload has the wrong magic, version, or layout."""


# labeling

class MissingGroupSummary(PipelineError):
    """No summary exists for a requested group kind and no fallback
    is available."""


# learner

class MissingLabelColumn(PipelineError):
    """A task references a label column the data does not carry."""


class NonFiniteLoss(PipelineError):
    """Training produced a NaN or infinite loss, or a model whose scores
    are not finite."""


class MissingInverseMap(PipelineError):
    """A quantile-space task has no group-to-seconds inverse map."""


class DegenerateLabels(PipelineError):
    """A ranking metric needs both classes present."""


class NoEligibleUsers(PipelineError):
    """A per-user metric found no user with a usable record group."""


class MissingTruthFile(PipelineError):
    pass
