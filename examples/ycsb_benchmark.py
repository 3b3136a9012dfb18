"""Run the YCSB core workloads against two index configurations.

The paper's Figure 12 scenario as a script: load a database, run YCSB
A-F, and compare a learned index (PGM) against classic fence pointers
at the same position boundary.  Under every mix the learned index
matches the latency at a fraction of the memory — the paper's headline
takeaway.

Run:  python examples/ycsb_benchmark.py
"""

from repro.bench.report import ResultTable, format_bytes
from repro.bench.runner import SCALES, loaded_testbed
from repro.indexes import IndexKind
from repro.workloads import generate, workload

WORKLOADS = ("A", "B", "C", "D", "E", "F")
BOUNDARY = 32


def main() -> None:
    scale = SCALES["smoke"]
    all_keys = generate("random", scale.n_keys + 2000, seed=scale.seed)
    loaded, reserve = all_keys[:scale.n_keys], all_keys[scale.n_keys:]
    n_ops = scale.n_ops

    table = ResultTable(columns=["workload", "index", "avg_op_us",
                                 "index_memory"])
    for name in WORKLOADS:
        for kind in (IndexKind.PGM, IndexKind.FP):
            bed = loaded_testbed(scale.config(kind, BOUNDARY), loaded,
                                 scale.seed)
            mix = workload(name, loaded, insert_reserve=reserve, seed=9)
            metrics = bed.run_ycsb(mix, n_ops)
            table.add_row(f"YCSB-{name}", kind.value, metrics.avg_us,
                          format_bytes(bed.db.index_memory_bytes()))
            bed.close()
    print(f"{n_ops:,} operations per cell, boundary {BOUNDARY}\n")
    print(table.to_text())
    print("Note how PGM tracks FP's latency on every mix while using a")
    print("fraction of its index memory (Figure 12's conclusion).")


if __name__ == "__main__":
    main()
