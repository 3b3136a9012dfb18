"""Tests for the bench runner, scales and CLI plumbing."""

import pytest

from repro.bench.cli import build_parser, main
from repro.bench.experiments import EXPERIMENTS, TITLES
from repro.bench.runner import (
    SCALES,
    Scale,
    get_scale,
    sample_queries,
    with_paper_entries,
)
from repro.errors import BenchmarkError, InvalidOptionError
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity, Options


def test_scales_registered():
    assert {"smoke", "small", "medium"} <= set(SCALES)
    for scale in SCALES.values():
        assert scale.n_keys > 0
        assert scale.entry_bytes == 20 + scale.value_capacity


def test_get_scale_by_name_and_passthrough():
    assert get_scale("smoke") is SCALES["smoke"]
    assert get_scale(SCALES["small"]) is SCALES["small"]
    with pytest.raises(BenchmarkError):
        get_scale("galactic")


def test_scale_config_round_trip():
    scale = SCALES["smoke"]
    options = scale.config(IndexKind.PGM, 32)
    assert isinstance(options, Options)
    assert options.index_kind is IndexKind.PGM
    assert options.position_boundary == 32
    assert options.granularity is Granularity.FILE
    assert options.sstable_bytes == scale.default_sstable_bytes
    assert options.write_buffer_bytes == scale.write_buffer_bytes
    assert options.size_ratio == scale.size_ratio
    assert options.entry_bytes == scale.entry_bytes


def test_scale_config_maps_every_axis():
    scale = SCALES["small"]
    options = scale.config(IndexKind.RS, 64, granularity=Granularity.LEVEL,
                           sstable_bytes=1 << 20, size_ratio=4)
    assert options.index_kind is IndexKind.RS
    assert options.position_boundary == 64
    assert options.granularity is Granularity.LEVEL
    assert options.sstable_bytes == 1 << 20
    assert options.size_ratio == 4
    # Four entries per data block: the paper's 1 KiB / 4 KiB ratio.
    assert options.data_block_bytes == 4 * scale.entry_bytes


def test_scale_config_validates():
    with pytest.raises(InvalidOptionError):
        SCALES["smoke"].config(IndexKind.FP, 1)


def test_paper_sstable_mapping():
    scale = SCALES["smoke"]
    assert scale.paper_sstable_bytes(8) == 8 * scale.sstable_unit_bytes
    assert scale.paper_sstable_bytes(128) \
        == 16 * scale.paper_sstable_bytes(8)


def test_with_paper_entries_scales_bytes():
    scale = SCALES["smoke"]
    options = with_paper_entries(scale, scale.config(IndexKind.FP, 32))
    assert options.entry_bytes == 1024
    assert options.entries_per_buffer == \
        scale.write_buffer_bytes // scale.entry_bytes


def test_sample_queries_deterministic():
    keys = list(range(100))
    a = sample_queries(keys, 50, seed=1)
    b = sample_queries(keys, 50, seed=1)
    assert a == b
    assert all(q in set(keys) for q in a)


def test_experiment_registry_complete():
    expected = {"fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                "table1", "fig11", "fig12", "unclustered", "ablations",
                "tiering", "hardware", "service", "multiget", "recovery",
                "blocks", "faults", "obs", "overload", "replication"}
    assert expected == set(EXPERIMENTS)
    assert expected == set(TITLES)


def test_cli_parser():
    parser = build_parser()
    args = parser.parse_args(["fig6", "--scale", "smoke"])
    assert args.experiment == "fig6"
    assert args.scale == "smoke"


def test_cli_list(capsys):
    for argv in (["list"], ["--list"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "unclustered" in out


def test_cli_unknown_experiment(capsys):
    assert main(["nope"]) == 2


def test_cli_runs_fig5(capsys):
    assert main(["fig5", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "CDF" in out
    assert "[PASS]" in out


def test_cli_csv_mode(capsys):
    assert main(["fig5", "--scale", "smoke", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "dataset," in out


def test_cli_out_exports_csv(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["fig5", "--scale", "smoke", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in out_dir.iterdir())
    assert any(name.startswith("fig5__") and name.endswith(".csv")
               for name in files)
    assert "fig5__checks.txt" in files
    checks = (out_dir / "fig5__checks.txt").read_text()
    assert "[PASS]" in checks
