"""Tuning advisor walkthrough: pick an index for a memory budget.

Scenario: you operate a read-heavy store over Facebook-like ids (a
hard, heavy-tailed key distribution) and can spare 4 KiB of memory per
100k keys for indexing.  Which index type and position boundary should
you deploy?  This example runs the paper's Section 6.1 guidelines
(implemented in :class:`repro.core.tuning.TuningAdvisor`) over a key
sample, then validates the recommendation on a live testbed against
the classic fence-pointer default.

Run:  python examples/tune_for_budget.py
"""

from repro.bench.runner import SCALES, loaded_testbed, sample_queries
from repro.core.tuning import TuningAdvisor
from repro.indexes import IndexKind
from repro.workloads import generate

DATASET = "fb"
BUDGET_BYTES = 120 * 1024
N_KEYS = 40_000


def main() -> None:
    scale = SCALES["smoke"]
    keys = generate(DATASET, N_KEYS, seed=1)
    sample = keys[:: max(1, len(keys) // 4000)]

    advisor = TuningAdvisor()
    recommendation = advisor.recommend(
        memory_budget_bytes=BUDGET_BYTES,
        sample_keys=sample,
        total_keys=N_KEYS,
        entry_bytes=scale.entry_bytes,
    )
    print(f"dataset={DATASET}, budget={BUDGET_BYTES:,} B, "
          f"n={N_KEYS:,} keys")
    print("advisor recommends:", recommendation.summary())
    for note in recommendation.notes:
        print("  note:", note)

    # Validate the recommendation against the fence-pointer default.
    contenders = {
        "recommended": (recommendation.index_kind,
                        recommendation.position_boundary),
        "fp-default": (IndexKind.FP, 32),
    }
    print("\nvalidation on a live testbed:")
    queries = sample_queries(keys, 3000, seed=5)
    for label, (kind, boundary) in contenders.items():
        bed = loaded_testbed(scale.config(kind, boundary), keys, scale.seed)
        metrics = bed.run_point_lookups(queries)
        print(f"  {label:<12s} {kind.value:>4s}@b={boundary:<4d} "
              f"latency={metrics.avg_us:6.2f} us/op  "
              f"index={bed.db.index_memory_bytes():>9,} B")
        bed.close()


if __name__ == "__main__":
    main()
