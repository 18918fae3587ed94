"""The committed experiments under scripts/ still run and load."""

import csv
import os
import runpy

from changeseries import cli

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def test_fusion_sweep_runs_at_small_size(tmp_path, capsys):
    main = runpy.run_path(os.path.join(SCRIPTS, "fusion_sweep.py"))["main"]
    table = tmp_path / "sweep.csv"
    assert main(["--t", "3", "--size", "16", "--seeds", "0", "--csv", str(table)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seg_sigma", "degenerate", "adjacent", "dense"]
    with open(table, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["seg_sigma"]) for r in rows] == [0.15, 0.30, 0.45]
    for row in rows:
        assert all(0.0 <= float(row[m]) <= 1.0 for m in ("degenerate", "adjacent", "dense"))


def _unknown_keys(raw: dict, known: dict, where: str = "") -> list:
    out = []
    for key, value in raw.items():
        if key not in known:
            out.append(where + key)
        elif isinstance(value, dict) and isinstance(known[key], dict):
            out += _unknown_keys(value, known[key], f"{where}{key}.")
    return out


def test_desk_grid_loads_through_the_ablate_loader(monkeypatch):
    monkeypatch.setattr(cli, "generate", None)
    monkeypatch.setattr(cli, "train", None)
    cfg, raw = cli.load_ablate_config(os.path.join(SCRIPTS, "desk_grid.json"))
    ## unknown keys are ignored on load, so a misspelt key would pass unseen
    assert _unknown_keys(raw, cfg.to_jsonable()) == []
    assert cfg.checkpoint is None
    assert cfg.grid.tfr == (True, False) and cfg.grid.loss_edges == ("dense",)
    assert "degenerate" in cfg.grid.mti_modes and "dense" in cfg.grid.mti_modes
    assert cfg.scenes.names("train") == tuple(range(8))
    assert cfg.scenes.names("val") == (100, 101)
    (cells,) = cfg.cells(cfg.scenes.spec.channels).values()
    assert [(kind, tfr) for kind, tfr, _, _ in cells] == [("dense", True), ("dense", False)]
