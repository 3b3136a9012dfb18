"""Hardware profiles: alternative cost-model calibrations.

The paper's machine is a fast NVMe box, and several of its insights are
statements about the I/O:CPU ratio on that hardware ("I/O dominates",
"returns diminish at the block size").  These presets let every
experiment re-run under different ratios:

* ``PAPER_NVME`` — the default calibration (docs/cost-model.md);
* ``FAST_NVME`` — an Optane-class device: seeks approach DRAM, so CPU
  stages (prediction, search) matter relatively more;
* ``SATA_SSD`` — slower seeks and transfers: I/O dominates even harder,
  flattening differences between index types further;
* ``CLOUD_OBJECT`` — S3-like storage: enormous per-request latency, so
  the only thing that matters is *how many requests* a lookup makes —
  the regime where tight boundaries and level models pay most.

The `hardware` experiment sweeps one configuration across these
profiles and checks the ratio-dependent claims.
"""

from __future__ import annotations

from typing import Dict

from repro.storage.cost_model import CostModel

#: The default calibration (the paper's i9-13900K + NVMe testbed).
PAPER_NVME = CostModel()

#: Optane-class: near-memory seeks, fast transfers.
FAST_NVME = CostModel(
    seek_us=0.3,
    block_read_us=0.05,
    block_write_us=0.2,
)

#: SATA-era flash: slower everything on the device side.
SATA_SSD = CostModel(
    seek_us=60.0,
    block_read_us=1.5,
    block_write_us=4.0,
)

#: Object storage (S3-like): per-request latency towers over transfer.
CLOUD_OBJECT = CostModel(
    seek_us=15_000.0,
    block_read_us=2.0,
    block_write_us=5.0,
)

PROFILES: Dict[str, CostModel] = {
    "paper-nvme": PAPER_NVME,
    "fast-nvme": FAST_NVME,
    "sata-ssd": SATA_SSD,
    "cloud-object": CLOUD_OBJECT,
}


def io_cpu_ratio(model: CostModel, boundary: int = 10,
                 entry_bytes: int = 1024) -> float:
    """The profile's segment-fetch : CPU-stage ratio for one lookup."""
    nblocks = model.blocks_spanned(0, boundary * entry_bytes)
    io = model.read_us(nblocks)
    cpu = (model.segment_search_us(boundary) + model.model_eval_us
           + model.binary_search_us(4096))
    return io / cpu
