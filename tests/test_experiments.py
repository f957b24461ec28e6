"""Tests for the ablation harness and its CSV reports."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from maskvid import experiments, training
from maskvid.errors import ConfigError
from maskvid.experiments import (AXES, AblationSpec, ReportRow, REPORT_FIELDS, run_ablation,
                                 summarize, write_report)
from maskvid.model import ModelConfig
from maskvid.training import TrainConfig, finetune, params_from_checkpoint, pretrain


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


@pytest.mark.parametrize("overrides,clash", [
    (dict(seeds=[]), "ablate.seeds is empty"),
    (dict(seeds=[0, 0]), "ablate.seeds lists seed 0 twice"),
    (dict(values=["tube", "tube"]), "ablate.values 'tube' and 'tube' both run"),
    (dict(values=["frame", ["frame", 0.875]]),
     "ablate.values 'frame' and ['frame', 0.875] both run the strategy cell 'frame'"),
    (dict(axis="ratio", values=[0.5, 0.9, 0.5]), "ablate.values 0.5 and 0.5 both run"),
], ids=["no_seed", "seed_twice", "value_twice", "frame_and_frame_pair", "ratio_twice"])
def test_a_grid_that_runs_no_cell_or_one_report_key_twice_is_refused_before_any_cell(
        monkeypatch, overrides, clash):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "pretrain", no_cell)
    with pytest.raises(ConfigError, match=re.escape(clash)):
        run_ablation(_fast_spec(**overrides))


# -- job order: every pretraining, then every fine-tune ---------------------------

def _reference_rows(spec):
    """Per cell, pretrain -> params_from_checkpoint -> finetune, outside any
    scope: (value, seed, accuracy, final pretrain loss, fine-tune trace)."""
    train_ds, eval_ds = spec.sprites(1, spec.label_clips), spec.sprites(2, spec.eval_clips)
    rows = []
    for value in spec.values:
        value, model_cfg, pretrain_cfg, n_pre = AXES[spec.axis].cell(spec, value)
        for seed in spec.seeds:
            result = pretrain(replace(pretrain_cfg, seed=seed), spec.sprites(0, n_pre),
                              model_cfg=model_cfg)
            ft = finetune(params_from_checkpoint(result.checkpoint), train_ds, eval_ds,
                          replace(spec.finetune_cfg, seed=seed))
            rows.append((value, seed, ft.accuracy, result.trace[-1][2], ft.trace))
    return rows


_JOB_CASES = {
    "ratio_two_seeds": dict(axis="ratio", values=[0.5, 0.75], seeds=[0, 1]),
    "flip_augment": dict(axis="ratio", values=[0.5, 0.75], pretrain_cfg=TrainConfig(
        mode="pretrain", total_steps=3, base_lr=0.1, batch_size=2, flip_augment=True)),
    "two_clip_counts": dict(axis="dataset_fraction", values=[0.5, 1.0], pretrain_clips=8),
}


@pytest.mark.parametrize("overrides", _JOB_CASES.values(), ids=_JOB_CASES)
def test_rows_are_bitwise_the_per_cell_reference(monkeypatch, overrides):
    spec = _fast_spec(**overrides)
    traces = []

    def recorded(*args, **kwargs):
        result = finetune(*args, **kwargs)
        traces.append(result.trace)
        return result

    monkeypatch.setattr(experiments, "finetune", recorded)
    rows = [(r.value, r.seed, r.accuracy, r.final_pretrain_loss) for r in run_ablation(spec)]
    reference = _reference_rows(spec)
    assert rows == [row[:4] for row in reference]
    assert traces == [row[4] for row in reference]


@pytest.fixture
def stack_calls(monkeypatch):
    """The arrays of every stack_cubes call the training loops make."""
    calls, stack_cubes = [], training.stack_cubes

    def counted(clips, dtype, targets=False):
        arrays = stack_cubes(clips, dtype, targets)
        calls.append((len(clips), arrays))
        return arrays

    monkeypatch.setattr(training, "stack_cubes", counted)
    return calls


@pytest.mark.parametrize("flip", [False, True], ids=["plain", "flip_augment"])
def test_each_clip_set_is_stacked_once_per_scope_and_read_only(stack_calls, flip):
    spec = _fast_spec(axis="ratio", values=[0.5, 0.75, 0.9], pretrain_cfg=TrainConfig(
        mode="pretrain", total_steps=3, base_lr=0.1, batch_size=2, flip_augment=flip))
    assert len(run_ablation(spec)) == 3
    # the pretraining clips (with their mirrors), the labelled clips, the eval clips
    assert [n for n, _ in stack_calls] == [8 if flip else 4, 4, 4]
    arrays = [a for _, stacked in stack_calls
              for a in (stacked if isinstance(stacked, tuple) else (stacked,))]
    assert len(arrays) == 4
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 1.0
    assert training._STACKS.get() is None


@pytest.mark.parametrize("values,stacked", [([1.0], 0), ([0.5, 0.999], 1)],
                         ids=["ratio_1", "raises_in_a_scope"])
def test_no_scope_is_left_open_after_a_run_that_raises(stack_calls, values, stacked):
    # tube masking at 0.999 leaves no visible site of 16: its pretraining
    # raises after the 0.5 cell's pretraining stacked its clips
    with pytest.raises(ConfigError):
        run_ablation(_fast_spec(axis="ratio", values=values))
    assert len(stack_calls) == stacked
    assert training._STACKS.get() is None


def test_pretrain_and_finetune_outside_an_ablation_stack_on_every_call(stack_calls):
    spec = _fast_spec()
    pre_ds, labelled = spec.sprites(0, 4), spec.sprites(1, 4)
    result = pretrain(spec.pretrain_cfg, pre_ds, model_cfg=spec.model_cfg)
    pretrain(spec.pretrain_cfg, pre_ds, model_cfg=spec.model_cfg)
    for _ in range(2):
        finetune(result.checkpoint, labelled, labelled, spec.finetune_cfg)
    assert [n for n, _ in stack_calls] == [4, 4, 4, 4]
    assert stack_calls[0][1][0].flags.writeable


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
