"""Experiment harness and evaluation metrics."""

from .harness import (
    PAPER_MODIFICATIONS,
    PAPER_THRESHOLDS,
    ExperimentContext,
    WorkloadSummary,
    format_table,
    parse_engine_spec,
)
from .plots import bar_chart, line_chart, sparkline
from .report import build_report, coverage, write_report
from .metrics import (
    MeasureRanker,
    average_precision,
    mean,
    percentile,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)

__all__ = [
    "PAPER_MODIFICATIONS",
    "PAPER_THRESHOLDS",
    "ExperimentContext",
    "WorkloadSummary",
    "format_table",
    "parse_engine_spec",
    "bar_chart",
    "line_chart",
    "sparkline",
    "build_report",
    "coverage",
    "write_report",
    "MeasureRanker",
    "average_precision",
    "mean",
    "percentile",
    "precision_at_k",
    "recall_at_k",
    "reciprocal_rank",
]
