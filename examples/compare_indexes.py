"""Compare all seven index types on a dataset of your choice.

A miniature of the paper's Figure 6: build the same database with each
index type at two position boundaries, run identical point lookups and
print the memory-latency frontier.  Change ``DATASET`` to any of the
seven SOSD-style families to see how distribution hardness moves the
frontier (heavy-tailed ``fb`` needs far more segments than ``random``).

Run:  python examples/compare_indexes.py [dataset]
"""

import sys

from repro.bench.report import ResultTable, format_bytes
from repro.bench.runner import SCALES, loaded_testbed, sample_queries
from repro.indexes import ALL_KINDS
from repro.workloads import DATASET_NAMES, generate, hardness_score

BOUNDARIES = (64, 16)


def main(dataset: str = "random") -> None:
    if dataset not in DATASET_NAMES:
        raise SystemExit(f"dataset must be one of {DATASET_NAMES}")
    scale = SCALES["smoke"]
    keys = generate(dataset, scale.n_keys, seed=scale.seed)
    queries = sample_queries(keys, scale.n_ops, seed=7)
    print(f"dataset={dataset} ({scale.n_keys:,} keys, "
          f"hardness={hardness_score(keys):.3f}), "
          f"{scale.n_ops:,} point lookups per configuration\n")

    table = ResultTable(columns=["index", "boundary", "latency_us",
                                 "index_memory", "B/key"])
    points = []
    for kind in ALL_KINDS:
        for boundary in BOUNDARIES:
            bed = loaded_testbed(scale.config(kind, boundary), keys,
                                 scale.seed)
            metrics = bed.run_point_lookups(queries)
            memory = bed.db.index_memory_bytes()
            bed.close()
            table.add_row(kind.value, boundary, metrics.avg_us,
                          format_bytes(memory), memory / len(keys))
            points.append((metrics.avg_us, memory, kind, boundary))
    print(table.to_text())
    # Best trade-off: within 3% of the fastest configuration, take the
    # one with the smallest index (the paper's frontier reading).
    fastest = min(latency for latency, _, _, _ in points)
    _, memory, kind, boundary = min(
        (point for point in points if point[0] <= fastest * 1.03),
        key=lambda point: point[1])
    print(f"best memory-latency trade-off: {kind.value} at boundary "
          f"{boundary} ({format_bytes(memory)} within 3% of the fastest "
          f"lookup, {fastest:.2f} us)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "random")
