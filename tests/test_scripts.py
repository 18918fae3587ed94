"""The committed experiment grids under scripts/ load through the ablate loader."""

import os

from changeseries import cli

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load_grid(monkeypatch, name):
    ## loading checks the whole grid, unknown keys included, and generates nothing
    monkeypatch.setattr(cli, "generate", None)
    monkeypatch.setattr(cli, "train", None)
    cfg, _ = cli.load_ablate_config(os.path.join(SCRIPTS, name))
    return cfg


def test_desk_grid_loads_through_the_ablate_loader(monkeypatch):
    cfg = _load_grid(monkeypatch, "desk_grid.json")
    assert cfg.checkpoint is None and cfg.corrupt is None
    assert cfg.grid.tfr == (True, False) and cfg.grid.loss_edges == ("dense",)
    assert "degenerate" in cfg.grid.mti_modes and "dense" in cfg.grid.mti_modes
    assert cfg.scenes.names("train") == tuple(range(8))
    assert cfg.scenes.names("val") == (100, 101)
    (cells,) = cfg.cells(cfg.scenes.spec.channels).values()
    assert [(kind, tfr) for kind, tfr, _, _ in cells] == [("dense", True), ("dense", False)]


def test_fusion_grid_loads_through_the_ablate_loader(monkeypatch):
    cfg = _load_grid(monkeypatch, "fusion_grid.json")
    assert cfg.checkpoint is None
    assert cfg.corrupt == cli.CorruptConfig(seg_sigma=(0.15, 0.30, 0.45), ch_sigma=0.25)
    assert cfg.grid.t == (4,) and cfg.grid.mti_modes == ("degenerate", "adjacent", "dense")
    assert (cfg.scenes.spec.height, cfg.scenes.spec.width) == (64, 64)
    assert cfg.scenes.names("val") == (0, 1, 2, 3, 4)
