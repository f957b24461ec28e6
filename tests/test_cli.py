"""End-to-end tests of the command-line interface."""

import os
import subprocess
import sys

import numpy as np
import pytest

from maskvid.cli import build_configs
from maskvid.model import ModelConfig
from maskvid.training import TrainConfig, snapshot_config

BASE = [sys.executable, "-m", "maskvid.cli"]

pytestmark = pytest.mark.usefixtures("src_on_child_pythonpath")

TINY_MODEL = ["--set", "model.d_enc=16", "--set", "model.heads_enc=2",
              "--set", "model.depth_enc=1", "--set", "model.d_dec=8",
              "--set", "model.heads_dec=2", "--set", "model.depth_dec=1"]
TINY_TRAIN = ["--set", "train.total_steps=3", "--set", "train.batch_size=2",
              "--set", "train.base_lr=0.1"]
TINY_DATA = ["--set", "data.count=4"]


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    env.pop("ARTIFACT_OUT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(BASE + args, capture_output=True, text=True,
                          cwd=str(cwd), env=env)


def _pretrain(tmp_path, out="run", extra=()):
    outdir = tmp_path / out
    res = run_cli(["pretrain", *TINY_MODEL, *TINY_TRAIN, *TINY_DATA,
                   "--out", str(outdir), *extra], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    return outdir


def test_pretrain_writes_artifacts(tmp_path):
    outdir = _pretrain(tmp_path)
    assert (outdir / "checkpoint.ckpt").exists()
    assert (outdir / "loss.csv").exists()
    assert (outdir / "resolved.cfg").exists()


def test_pretrain_loss_csv_deterministic(tmp_path):
    a = _pretrain(tmp_path, out="a", extra=("--seed", "7"))
    b = _pretrain(tmp_path, out="b", extra=("--seed", "7"))
    assert (a / "loss.csv").read_text() == (b / "loss.csv").read_text()


def test_unknown_config_key_exits_one_naming_key(tmp_path):
    res = run_cli(["pretrain", "--set", "train.learning_rate=0.1"], tmp_path)
    assert res.returncode == 1
    assert "train.learning_rate" in res.stderr + res.stdout


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ntrain.total_steps=2\ntrain.batch_size=2\n"
                   "model.d_enc=16\nmodel.heads_enc=2\nmodel.depth_enc=1\n"
                   "model.d_dec=8\nmodel.heads_dec=2\nmodel.depth_dec=1\n"
                   "data.count=4\n")
    out = tmp_path / "cfgrun"
    res = run_cli(["pretrain", "--config", str(cfg), "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    trace = (out / "loss.csv").read_text().strip().splitlines()
    assert len(trace) == 3  # header + 2 steps


_BADLY_TYPED = [("pretrain", "model.d_enc=abc"), ("pretrain", "model.dims=8,x,4"),
                ("pretrain", "train.flip_augment=1"), ("pretrain", "data.count=abc"),
                ("pretrain", "data.seed=1.5"), ("ablate", "ablate.seeds=abc"),
                ("ablate", "ablate.values=0.5"), ("ablate", "ablate.pretrain_clips=x")]


@pytest.mark.parametrize("command,override", _BADLY_TYPED, ids=[o for _, o in _BADLY_TYPED])
def test_badly_typed_config_value_exits_one_without_traceback(tmp_path, command, override):
    axis = ["--axis", "ratio"] if command == "ablate" else []
    res = run_cli([command, *axis, "--set", override], tmp_path)
    assert res.returncode == 1
    assert "event=config_error" in res.stdout
    assert override.split("=")[0] in res.stdout
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("model_kw", [{}, {"dims": (8, 5, 5)}])
@pytest.mark.parametrize("total_steps", [None, 7])
def test_snapshot_config_round_trips_through_build_configs(model_kw, total_steps):
    model_cfg = ModelConfig(**model_kw)
    train_cfg = TrainConfig(total_steps=total_steps, mask_strategy="frame",
                            flip_augment=True)
    got_model, got_train, _ = build_configs(snapshot_config(model_cfg, train_cfg))
    assert (got_model, got_train) == (model_cfg, train_cfg)


def test_pretrain_reruns_from_its_resolved_cfg(tmp_path):
    first = _pretrain(tmp_path, out="first")
    again = tmp_path / "again"
    res = run_cli(["pretrain", "--config", str(first / "resolved.cfg"), *TINY_DATA,
                   "--out", str(again)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    assert (again / "loss.csv").read_text() == (first / "loss.csv").read_text()


def test_raw_clip_manifest_without_height_exits_one_without_traceback(tmp_path):
    raw = tmp_path / "clip.raw"
    np.zeros(3 * 16 * 64 * 64, dtype="<f4").tofile(raw)
    (tmp_path / "clip.raw.manifest").write_text("channels=3\nframes=16\nwidth=64\n")
    res = run_cli(["pretrain", "--set", f"data.raw_path={raw}"], tmp_path)
    assert res.returncode == 1
    assert "event=config_error" in res.stdout and "height" in res.stdout
    assert "Traceback" not in res.stderr


def test_malformed_config_line_exits_one(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("train.total_steps 3\n")
    res = run_cli(["pretrain", "--config", str(cfg)], tmp_path)
    assert res.returncode == 1


def test_finetune_from_checkpoint(tmp_path):
    outdir = _pretrain(tmp_path)
    ftdir = tmp_path / "ft"
    res = run_cli(["finetune", "--checkpoint", str(outdir / "checkpoint.ckpt"),
                   *TINY_TRAIN, "--set", "train.mode=finetune",
                   "--set", "data.label_count=4", "--set", "data.eval_count=4",
                   "--out", str(ftdir)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    assert "accuracy=" in res.stdout
    assert (ftdir / "finetune.ckpt").exists()


def test_probe_from_checkpoint(tmp_path):
    outdir = _pretrain(tmp_path)
    res = run_cli(["probe", "--checkpoint", str(outdir / "checkpoint.ckpt"),
                   *TINY_TRAIN, "--set", "train.mode=probe",
                   "--set", "data.label_count=4", "--set", "data.eval_count=4",
                   "--out", str(tmp_path / "probe")], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    assert "accuracy=" in res.stdout


def test_finetune_that_diverges_exits_two_with_its_loss_trace(tmp_path):
    from maskvid.training import load_checkpoint, save_checkpoint
    ckpt_path = str(_pretrain(tmp_path) / "checkpoint.ckpt")
    ckpt = load_checkpoint(ckpt_path)
    ckpt.params["enc/norm/g"][0] = np.nan
    save_checkpoint(ckpt, ckpt_path)
    ftdir = tmp_path / "ft"
    res = run_cli(["finetune", "--checkpoint", ckpt_path, *TINY_TRAIN,
                   "--set", "train.mode=finetune", "--set", "data.label_count=4",
                   "--set", "data.eval_count=4", "--out", str(ftdir)], tmp_path)
    assert res.returncode == 2, res.stderr + res.stdout
    assert "event=finetune_aborted" in res.stdout
    assert "Traceback" not in res.stderr
    assert (ftdir / "finetune_loss.csv").read_text() == "step,lr,loss\n"


def test_missing_checkpoint_exits_one(tmp_path):
    res = run_cli(["finetune", "--checkpoint", str(tmp_path / "nope.ckpt")],
                  tmp_path)
    assert res.returncode == 1


def test_reconstruct_writes_three_images_per_frame(tmp_path):
    outdir = _pretrain(tmp_path)
    recdir = tmp_path / "rec"
    res = run_cli(["reconstruct", "--checkpoint", str(outdir / "checkpoint.ckpt"),
                   "--strategy", "tube", "--ratio", "0.9",
                   "--out", str(recdir)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    files = sorted(os.listdir(recdir))
    originals = [f for f in files if f.endswith("_original.ppm")]
    masked = [f for f in files if f.endswith("_masked.ppm")]
    recon = [f for f in files if f.endswith("_recon.ppm")]
    assert len(originals) == len(masked) == len(recon) == 16


def test_maskviz_text_mask_has_exact_counts(tmp_path):
    vizdir = tmp_path / "viz"
    res = run_cli(["maskviz", "--strategy", "random", "--ratio", "0.9",
                   "--dims", "8,196", "--out", str(vizdir)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    text = (vizdir / "mask_random_0.9.txt").read_text()
    assert text.count("#") == 1411  # round(0.9 * 1568)
    assert (vizdir / "mask_random_0.9.ppm").exists()


def test_artifact_out_env_wins_over_flag(tmp_path):
    envdir = tmp_path / "envout"
    vizdir = tmp_path / "flagout"
    res = run_cli(["maskviz", "--strategy", "tube", "--ratio", "0.5",
                   "--dims", "2,4", "--out", str(vizdir)], tmp_path,
                  env_extra={"ARTIFACT_OUT": str(envdir)})
    assert res.returncode == 0, res.stderr + res.stdout
    assert (envdir / "mask_tube_0.5.txt").exists()
    assert not vizdir.exists()


def test_unknown_subcommand_exits_nonzero(tmp_path):
    res = run_cli(["distill"], tmp_path)
    assert res.returncode != 0


def test_ablate_writes_report(tmp_path):
    outdir = tmp_path / "abl"
    res = run_cli(["ablate", "--axis", "strategy",
                   *TINY_MODEL,
                   "--set", 'ablate.values=["tube"]',
                   "--set", "ablate.seeds=[0]",
                   "--set", "ablate.pretrain_steps=3",
                   "--set", "ablate.finetune_steps=3",
                   "--set", "ablate.pretrain_clips=4",
                   "--set", "ablate.label_clips=4",
                   "--set", "ablate.eval_clips=4",
                   "--out", str(outdir)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    report = (outdir / "report.csv").read_text().splitlines()
    assert report[0].startswith("axis,value,seed,accuracy")
    assert len(report) == 2
