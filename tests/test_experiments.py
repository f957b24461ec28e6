"""Tests for the ablation harness and its CSV reports."""

import csv

import numpy as np
import pytest

from maskvid.errors import ConfigError
from maskvid.experiments import (AblationSpec, ReportRow, REPORT_FIELDS, run_ablation,
                                 summarize, write_report)
from maskvid.model import ModelConfig
from maskvid.training import TrainConfig


def _fast_spec(**overrides):
    base = dict(
        axis="strategy", values=["tube"], seeds=[0],
        model_cfg=ModelConfig(d_enc=16, heads_enc=2, depth_enc=1,
                              d_dec=8, heads_dec=2, depth_dec=1),
        pretrain_cfg=TrainConfig(mode="pretrain", total_steps=3, base_lr=0.1,
                                 batch_size=2),
        finetune_cfg=TrainConfig(mode="finetune", beta2=0.999, total_steps=3,
                                 base_lr=0.1, batch_size=2),
        pretrain_clips=4, label_clips=4, eval_clips=4,
    )
    base.update(overrides)
    return AblationSpec(**base)


def test_single_cell_report_row_fields():
    rows = run_ablation(_fast_spec())
    assert len(rows) == 1
    row = rows[0]
    assert row.axis == "strategy" and row.value == "tube" and row.seed == 0
    assert 0.0 <= row.accuracy <= 1.0
    assert row.leakage == 0.0  # tube masking never leaks
    assert row.visible_tokens > 0
    assert row.wall_seconds > 0.0
    assert np.isfinite(row.final_pretrain_loss)


def test_strategy_cells_report_expected_leakage():
    rows = run_ablation(_fast_spec(values=["tube", "frame"]))
    by_value = {r.value: r for r in rows}
    assert by_value["tube"].leakage == 0.0
    assert by_value["frame"].leakage == 1.0


def test_ratio_sweep_visible_token_column():
    rows = run_ablation(_fast_spec(axis="ratio", values=[0.5, 0.9]))
    by_value = {r.value: r for r in rows}
    # desk-like grid (8,16): rho=0.5 -> 8 visible sites x 8; rho=0.9 -> 2 x 8
    assert by_value[0.5].visible_tokens == 64
    assert by_value[0.9].visible_tokens == 16


def test_ratio_sweep_rejects_degenerate_ratio():
    with pytest.raises(ConfigError):
        run_ablation(_fast_spec(axis="ratio", values=[1.0]))


def test_unknown_axis_rejected():
    with pytest.raises(ConfigError):
        run_ablation(_fast_spec(axis="activation"))


def test_regime_validation():
    with pytest.raises(ConfigError):
        _fast_spec(regime="same_flops")


def test_dataset_fraction_same_epochs_scales_steps():
    rows = run_ablation(_fast_spec(axis="dataset_fraction", values=[0.5, 1.0],
                                   regime="same_epochs"))
    assert {r.value for r in rows} == {0.5, 1.0}


# -- CSV report ----------------------------------------------------------------

def _row(value="tube", seed=0, acc=0.5):
    return ReportRow("strategy", value, seed, acc, 0.1, 0.0, 16, 1.0)


def test_write_report_creates_csv_with_header(tmp_path):
    path = str(tmp_path / "report.csv")
    write_report(path, [_row()])
    with open(path) as fh:
        recs = list(csv.DictReader(fh))
    assert len(recs) == 1
    assert set(recs[0]) == set(REPORT_FIELDS)
    assert recs[0]["value"] == "tube"


def test_write_report_merges_and_overwrites_on_key(tmp_path):
    path = str(tmp_path / "report.csv")
    write_report(path, [_row(seed=0, acc=0.5), _row(seed=1, acc=0.6)])
    write_report(path, [_row(seed=1, acc=0.9), _row(value="random", seed=0)])
    with open(path) as fh:
        recs = {(r["value"], r["seed"]): r for r in csv.DictReader(fh)}
    assert len(recs) == 3
    assert float(recs[("tube", "1")]["accuracy"]) == 0.9
    assert float(recs[("tube", "0")]["accuracy"]) == 0.5


def test_summarize_means_per_value():
    rows = [_row(seed=0, acc=0.4), _row(seed=1, acc=0.6),
            _row(value="frame", seed=0, acc=0.2)]
    summary = summarize(rows)
    mean, std = summary["tube"]
    assert mean == pytest.approx(0.5)
    assert std == pytest.approx(0.1)
    assert summary["frame"][0] == pytest.approx(0.2)
