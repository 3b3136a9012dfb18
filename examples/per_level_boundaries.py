"""Per-level boundary allocation for skewed workloads (Section 5.4 / 6.2).

The paper's Figure 10 shows that under a read-latest workload the
shallow levels absorb most of the read time while a uniform position
boundary spends most index memory on the cold deepest level.  Its
suggested future direction — allocate per-level boundaries from the
observed query distribution — is implemented by
``TuningAdvisor.allocate_level_boundaries``.  This example measures a
skewed workload, feeds the observed per-level read shares to the
allocator and prints the boundary schedule it proposes.

Run:  python examples/per_level_boundaries.py
"""

from repro.bench.report import ResultTable
from repro.bench.runner import SCALES, loaded_testbed
from repro.core.tuning import TuningAdvisor
from repro.indexes import IndexKind
from repro.workloads import generate

import random

BOUNDARY = 128  # the uniform starting point


def main() -> None:
    scale = SCALES["smoke"]
    keys = generate("random", scale.n_keys, seed=scale.seed)
    bed = loaded_testbed(scale.config(IndexKind.PGM, BOUNDARY, size_ratio=4),
                         keys, scale.seed)
    level_keys = bed.level_keys()
    levels = sorted(level_keys)

    # A read-latest-like mix: shallow levels hold the recent writes.
    rng = random.Random(3)
    bias = {level: 0.55 / (3 ** i) for i, level in enumerate(levels)}
    queries = []
    for _ in range(scale.n_ops):
        level = rng.choices(levels, weights=[bias[l] for l in levels])[0]
        bucket = level_keys[level]
        queries.append(bucket[rng.randrange(len(bucket))])
    bed.run_point_lookups(queries)

    read_stats = bed.db.level_read_stats()
    total_us = sum(us for us, _ in read_stats.values()) or 1.0
    read_shares = {level: read_stats.get(level, (0.0, 0))[0] / total_us
                   for level in levels}
    entries = {level: len(level_keys[level]) for level in levels}
    index_bytes = {level: bed.db.level_index_memory_bytes(level)
                   for level in levels}
    budget = sum(index_bytes.values())
    per_key_now = budget / sum(entries.values())
    bed.close()

    advisor = TuningAdvisor()
    schedule = advisor.allocate_level_boundaries(
        level_entries=entries,
        level_read_shares=read_shares,
        bytes_per_key_at={BOUNDARY: per_key_now},
        index_budget_bytes=budget * 2,  # same order of budget, doubled
        entry_bytes=scale.entry_bytes,
        start_boundary=BOUNDARY)

    table = ResultTable(columns=["level", "entries", "read_share",
                                 "uniform_boundary", "allocated_boundary"])
    for level in levels:
        table.add_row(f"L{level}", entries[level], read_shares[level],
                      BOUNDARY, schedule[level])
    print("observed skewed workload -> proposed per-level boundaries\n")
    print(table.to_text())
    print("Hot shallow levels get tight boundaries (cheap in absolute")
    print("bytes); the cold deepest level keeps a loose one - the")
    print("memory/read imbalance of Figure 10, repaired.")


if __name__ == "__main__":
    main()
