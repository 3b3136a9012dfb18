"""FaultyBlockDevice: deterministic injection of every fault mode."""

import pytest

from repro.errors import (
    DiskFullError,
    InvalidOptionError,
    PowerCutError,
    StorageError,
    TransientIOError,
)
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.retry import BACKOFF_US, MULTIPLIER, RetryPolicy
from repro.storage.stats import (
    FAULT_BIT_ROT_BLOCKS,
    FAULT_DISK_FULL,
    FAULT_POWER_CUTS,
    FAULT_TORN_APPENDS,
    FAULT_TRANSIENT_READS,
    FAULTS_INJECTED,
    RETRY_ATTEMPTS,
    RETRY_EXHAUSTED,
    RETRY_SUCCESSES,
    Stage,
    Stats,
)


def _device(plan, block_size=256):
    stats = Stats()
    inner = MemoryBlockDevice(block_size=block_size, stats=stats)
    return FaultyBlockDevice(inner, plan, stats=stats), stats


def _fill(device, name="sst-000001", nbytes=4096):
    device.create(name)
    device.append(name, bytes(i % 251 for i in range(nbytes)))
    return name


# -- pass-through ------------------------------------------------------


def test_no_faults_is_a_transparent_decorator():
    device, stats = _device(FaultPlan(seed=1))
    name = _fill(device)
    assert device.pread(name, 100, 64) == bytes(
        (100 + i) % 251 for i in range(64))
    assert device.exists(name)
    assert device.size(name) == 4096
    assert name in device.list_files()
    device.rename(name, "sst-000002")
    assert not device.exists(name)
    device.delete("sst-000002")
    assert stats.get(FAULTS_INJECTED) == 0


# -- transient read errors ---------------------------------------------


def test_transient_reads_fail_then_succeed():
    device, stats = _device(FaultPlan(seed=3, transient_read_rate=1.0,
                                      transient_fail_count=2))
    name = _fill(device)
    for _ in range(2):
        with pytest.raises(TransientIOError):
            device.pread(name, 0, 16)
    # The burst is bounded: the identical read now succeeds.
    assert device.pread(name, 0, 16) == bytes(range(16))
    assert stats.get(FAULT_TRANSIENT_READS) == 2


def test_retry_policy_absorbs_transients():
    device, stats = _device(FaultPlan(seed=3, transient_read_rate=1.0,
                                      transient_fail_count=2))
    name = _fill(device)
    policy = RetryPolicy(max_attempts=3)
    data = policy.call(lambda: device.pread(name, 0, 8), stats, Stage.IO)
    assert data == bytes(range(8))
    assert stats.get(RETRY_ATTEMPTS) == 2
    assert stats.get(RETRY_SUCCESSES) == 1
    assert stats.get(RETRY_EXHAUSTED) == 0


def test_retry_policy_exhaustion_reraises():
    device, stats = _device(FaultPlan(seed=3, transient_read_rate=1.0,
                                      transient_fail_count=5))
    name = _fill(device)
    policy = RetryPolicy(max_attempts=3)
    with pytest.raises(TransientIOError):
        policy.call(lambda: device.pread(name, 0, 8), stats, Stage.IO)
    assert stats.get(RETRY_EXHAUSTED) == 1


def _backoff_us(fails, max_attempts):
    """Backoff one retried read charges (to a stage I/O never uses)."""
    device, stats = _device(FaultPlan(seed=3, transient_read_rate=1.0,
                                      transient_fail_count=fails))
    name = _fill(device)
    policy = RetryPolicy(max_attempts=max_attempts)
    try:
        policy.call(lambda: device.pread(name, 0, 8), stats, Stage.SEARCH)
    except TransientIOError:
        pass
    return stats.stage_time(Stage.SEARCH)


def test_retry_backoff_charges_simulated_time():
    # The n-th retry sleeps BACKOFF_US * MULTIPLIER**(n-1).
    assert _backoff_us(fails=1, max_attempts=4) == BACKOFF_US
    assert _backoff_us(fails=3, max_attempts=4) == pytest.approx(
        sum(BACKOFF_US * MULTIPLIER ** (n - 1) for n in (1, 2, 3)))
    # The failure that exhausts the policy re-raises without sleeping.
    assert _backoff_us(fails=5, max_attempts=3) == pytest.approx(
        BACKOFF_US + BACKOFF_US * MULTIPLIER)


def test_retry_policy_validates():
    with pytest.raises(InvalidOptionError):
        RetryPolicy(max_attempts=0).validate()


# -- bit rot -----------------------------------------------------------


def test_rot_is_deterministic_and_stable():
    plan = FaultPlan(seed=11, bit_rot_rate=0.2)
    device, stats = _device(plan)
    name = _fill(device, nbytes=16 * 256)
    rotted = device.rotted_blocks(name)
    assert rotted  # 16 blocks at 20% rot: some must be hit
    first = device.pread(name, 0, device.size(name))
    again = device.pread(name, 0, device.size(name))
    assert first == again  # rot does not wander between reads
    twin, _ = _device(plan)
    _fill(twin, nbytes=16 * 256)
    assert twin.rotted_blocks(name) == rotted  # pure function of the plan
    assert stats.get(FAULT_BIT_ROT_BLOCKS) == len(rotted)


def test_rot_flips_exactly_one_bit_per_block():
    device, _ = _device(FaultPlan(seed=11))
    name = _fill(device, nbytes=8 * 256)
    clean = device.pread(name, 0, device.size(name))
    device.inject_rot(name, 3)
    dirty = device.pread(name, 0, device.size(name))
    diff = [(i, a ^ b) for i, (a, b) in enumerate(zip(clean, dirty))
            if a != b]
    assert len(diff) == 1
    pos, delta = diff[0]
    assert 3 * 256 <= pos < 4 * 256  # inside the rotted block
    assert bin(delta).count("1") == 1  # a single flipped bit


def test_rot_respects_file_prefixes():
    device, _ = _device(FaultPlan(seed=11, bit_rot_rate=1.0))
    wal = _fill(device, name="wal", nbytes=1024)
    assert device.rotted_blocks(wal) == []  # only sst-* rots by default
    sst = _fill(device, name="sst-000001", nbytes=1024)
    assert device.rotted_blocks(sst)


# -- torn appends and disk full ----------------------------------------


def test_torn_append_writes_a_prefix():
    device, stats = _device(FaultPlan(seed=5, torn_append_rate=1.0))
    device.create("wal")
    with pytest.raises(StorageError):
        device.append("wal", b"x" * 1000)
    assert device.size("wal") < 1000
    assert stats.get(FAULT_TORN_APPENDS) == 1


def test_disk_full_after_budget():
    device, stats = _device(FaultPlan(seed=5, disk_full_after_bytes=600))
    device.create("sst-000001")
    device.append("sst-000001", b"a" * 500)
    with pytest.raises(DiskFullError):
        device.append("sst-000001", b"b" * 500)
    # What fit was written (a torn tail), and the device stays full.
    assert device.size("sst-000001") == 600
    with pytest.raises(DiskFullError):
        device.append("sst-000001", b"c")
    assert stats.get(FAULT_DISK_FULL) == 2


# -- power cut ---------------------------------------------------------


def test_power_cut_kills_the_device_until_revive():
    device, stats = _device(FaultPlan(seed=5, power_cut_after_bytes=300))
    device.create("wal")
    device.append("wal", b"a" * 200)
    with pytest.raises(PowerCutError):
        device.append("wal", b"b" * 200)
    assert device.powered_off
    for op in (lambda: device.pread("wal", 0, 10),
               lambda: device.size("wal"),
               lambda: device.list_files(),
               lambda: device.append("wal", b"x")):
        with pytest.raises(PowerCutError):
            op()
    device.revive()
    assert not device.powered_off
    # Only the synced prefix survived; the budget stays consumed but
    # the cut does not re-fire.
    assert device.size("wal") == 300
    device.append("wal", b"c" * 100)
    assert device.size("wal") == 400
    assert stats.get(FAULT_POWER_CUTS) == 1


# -- plumbing ----------------------------------------------------------


def test_stats_reassignment_propagates_to_inner():
    device, _ = _device(FaultPlan(seed=1))
    fresh = Stats()
    device.stats = fresh
    assert device.stats is fresh
    assert device.inner.stats is fresh
