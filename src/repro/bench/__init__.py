"""Benchmark harness: scales, reporting and the experiment registry."""

from repro.bench.experiments import EXPERIMENTS, TITLES
from repro.bench.report import (
    ExperimentResult,
    ResultTable,
    ShapeCheck,
    format_bytes,
    sparkline,
)
from repro.bench.runner import (
    SCALES,
    Scale,
    get_scale,
    loaded_testbed,
    sample_queries,
)

__all__ = [
    "EXPERIMENTS",
    "TITLES",
    "ExperimentResult",
    "ResultTable",
    "ShapeCheck",
    "sparkline",
    "format_bytes",
    "SCALES",
    "Scale",
    "get_scale",
    "sample_queries",
    "loaded_testbed",
]
