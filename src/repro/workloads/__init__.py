"""Workload generation: SOSD-style datasets and YCSB operation streams."""

from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.datasets import (
    DATASET_NAMES,
    KEY_SPACE,
    cdf,
    generate,
    hardness_score,
)
from repro.workloads.distributions import (
    HotspotPicker,
    KeyPicker,
    LatestPicker,
    ScrambledZipfianPicker,
    UniformPicker,
    ZipfianPicker,
    make_picker,
)
from repro.workloads.trace import read_trace, record_ycsb, write_trace
from repro.workloads.ycsb import (
    CORE_WORKLOADS,
    Operation,
    OpKind,
    WorkloadSpec,
    YCSBWorkload,
    replay,
    workload,
)

__all__ = [
    "PoissonArrivals",
    "DATASET_NAMES",
    "KEY_SPACE",
    "generate",
    "cdf",
    "hardness_score",
    "KeyPicker",
    "UniformPicker",
    "ZipfianPicker",
    "ScrambledZipfianPicker",
    "LatestPicker",
    "HotspotPicker",
    "make_picker",
    "OpKind",
    "Operation",
    "WorkloadSpec",
    "CORE_WORKLOADS",
    "YCSBWorkload",
    "workload",
    "write_trace",
    "read_trace",
    "record_ycsb",
    "replay",
]
