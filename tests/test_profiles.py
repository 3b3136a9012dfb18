"""Tests for hardware cost-model profiles."""

from repro.storage.profiles import (
    CLOUD_OBJECT,
    FAST_NVME,
    PAPER_NVME,
    PROFILES,
    SATA_SSD,
    io_cpu_ratio,
)


def test_profiles_registered():
    assert set(PROFILES) == {"paper-nvme", "fast-nvme", "sata-ssd",
                             "cloud-object"}
    assert PROFILES["paper-nvme"] is PAPER_NVME


def test_ratio_ordering():
    ratios = [io_cpu_ratio(model) for model in
              (FAST_NVME, PAPER_NVME, SATA_SSD, CLOUD_OBJECT)]
    assert ratios == sorted(ratios)
    assert ratios[0] < 2.0          # near-memory device
    assert ratios[-1] > 1000.0      # request-dominated object store


def test_paper_profile_is_default_calibration():
    from repro.storage.cost_model import DEFAULT_COST_MODEL
    assert PAPER_NVME == DEFAULT_COST_MODEL


def test_profiles_usable_by_engine():
    from repro.lsm.db import LSMTree
    from repro.lsm.options import small_test_options

    options = small_test_options().with_changes(cost_model=SATA_SSD)
    db = LSMTree(options)
    for i in range(200):
        db.put(i * 7, b"v%d" % i)
    db.flush()
    before = db.stats.total_time()
    db.get(7)
    slow_cost = db.stats.total_time() - before
    db.close()

    db = LSMTree(small_test_options())
    for i in range(200):
        db.put(i * 7, b"v%d" % i)
    db.flush()
    before = db.stats.total_time()
    db.get(7)
    fast_cost = db.stats.total_time() - before
    db.close()
    assert slow_cost > 5 * fast_cost
