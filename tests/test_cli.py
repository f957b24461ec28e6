"""End-to-end tests of the command-line interface."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskvid import cli
from maskvid.cli import _FIELD_TYPES, build_configs
from maskvid.errors import CheckpointError, MaskvidError
from maskvid.model import ModelConfig, classify, init_head_params, init_mae_params
from maskvid.training import (SNAPSHOT_FIELDS, Checkpoint, TrainConfig, load_checkpoint,
                              params_from_checkpoint, pretrain, save_checkpoint,
                              snapshot_config)
from maskvid.video import VideoClip, clip_size, synth_moving_sprites

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
                ("ablate", "ablate.values=0.5"), ("ablate", "ablate.pretrain_clips=x"),
                ("pretrain", "model.heads_enc=0"), ("pretrain", "model.d_enc=0"),
                ("pretrain", "model.depth_enc=-1"), ("pretrain", "train.warmup_epochs=-1"),
                ("pretrain", "train.mode=finetune"), ("ablate", "train.base_lr=1000"),
                ("ablate", "data.count=4"), ("ablate", 'ablate.values=["a"]'),
                ("ablate --axis decoder_depth", 'ablate.values=["x"]'),
                ("ablate --axis decoder_depth", "ablate.values=[1.5]"),
                ("ablate --axis dataset_fraction", "ablate.values=[true]"),
                ("pretrain", "train.seed=-1"), ("pretrain", "data.seed=-1"),
                ("pretrain", "train.beta1=1.0"), ("pretrain", "train.layer_decay=1e308")]


@pytest.mark.parametrize("command,override", _BADLY_TYPED, ids=[o for _, o in _BADLY_TYPED])
def test_badly_typed_config_value_exits_one_without_traceback(tmp_path, command, override):
    command, *axis = command.split()
    if command == "ablate" and not axis:
        axis = ["--axis", "ratio"]
    res = run_cli([command, *axis, "--set", override], tmp_path)
    assert res.returncode == 1
    assert "event=config_error" in res.stdout
    assert override.split("=")[0] in res.stdout
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("key,raw", [("model.d_enc", "abc"), ("model.d_enc", '"x"'),
                                     ("model.foo", "1")])
def test_corrupt_checkpoint_header_exits_one_without_traceback(tmp_path, key, raw):
    ckpt_path = str(_pretrain(tmp_path) / "checkpoint.ckpt")
    ckpt = load_checkpoint(ckpt_path)
    ckpt.config[key] = raw  # header lines are not covered by the tensor hashes
    save_checkpoint(ckpt, ckpt_path)
    res = run_cli(["probe", "--checkpoint", ckpt_path, "--out", str(tmp_path / "probe")],
                  tmp_path)
    assert res.returncode == 1
    assert "event=config_error" in res.stdout and key in res.stdout
    assert "Traceback" not in res.stderr


# (name, old header bytes, new header bytes): one malformed manifest each
_MALFORMED_MANIFESTS = [("step", b"\nstep=3\n", b"\nstep=abc\n"),
                        ("rng", b"\nrng={", b"\nrng=not json {"),
                        ("sha256", b" sha256=", b" sha="),
                        ("shape", b" shape=", b" shape=x,"),
                        ("utf8", b"maskvid-", b"\xffmaskvid-")]


@pytest.mark.parametrize("old,new", [m[1:] for m in _MALFORMED_MANIFESTS],
                         ids=[m[0] for m in _MALFORMED_MANIFESTS])
def test_malformed_checkpoint_manifest_exits_one_without_traceback(tmp_path, old, new):
    ckpt_path = str(_pretrain(tmp_path) / "checkpoint.ckpt")
    with open(ckpt_path, "rb") as fh:
        header, marker, payload = fh.read().partition(b"\n---\n")
    assert old in header
    with open(ckpt_path, "wb") as fh:
        fh.write(header.replace(old, new, 1) + marker + payload)
    res = run_cli(["probe", "--checkpoint", ckpt_path, "--out", str(tmp_path / "probe")],
                  tmp_path)
    assert res.returncode == 1
    assert "event=config_error" in res.stdout and ckpt_path in res.stdout
    assert "Traceback" not in res.stderr


def test_checkpoint_whose_tensors_disagree_with_its_header_exits_one(tmp_path):
    ckpt_path = str(_pretrain(tmp_path) / "checkpoint.ckpt")  # d_enc 16
    ckpt = load_checkpoint(ckpt_path)
    ckpt.config["model.d_enc"] = "32"
    save_checkpoint(ckpt, ckpt_path)
    res = run_cli(["probe", "--checkpoint", ckpt_path, "--out", str(tmp_path / "probe")],
                  tmp_path)
    assert res.returncode == 1
    assert "event=config_error" in res.stdout and "'embed/b' has shape (16,)" in res.stdout
    assert "Traceback" not in res.stderr


# config text as the CLI, resolved.cfg or a checkpoint header may hold it;
# integers stay small because MAEParams builds dims x width positional tables
_SMALL = st.integers(-16, 16)
_JSON = st.recursive(st.none() | st.booleans() | _SMALL | st.floats() | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=4), max_leaves=6)
_TEXT = st.one_of(_SMALL.map(str), _JSON.map(json.dumps), st.text(max_size=12),
                  st.lists(_SMALL, max_size=4).map(lambda xs: ",".join(map(str, xs))))
_UNKNOWN_KEYS = ["model.foo", "model", "model.", "train.dims", "video.d_enc"]


def _config_entries(schema):
    keys = [f"{prefix}.{name}" for prefix, names in schema.items() for name in names]
    return st.dictionaries(st.sampled_from(keys + _UNKNOWN_KEYS), _TEXT, max_size=4)


@settings(max_examples=300, deadline=None)
@given(entries=_config_entries(_FIELD_TYPES))
def test_build_configs_raises_nothing_but_maskvid_errors(entries):
    try:
        build_configs(entries)
    except MaskvidError:
        pass


_DESK_TENSORS = {n: p.value.data for n, p in init_mae_params(ModelConfig()).params.items()}


@settings(max_examples=300, deadline=None)
@given(entries=_config_entries(SNAPSHOT_FIELDS))
def test_params_from_checkpoint_raises_nothing_but_maskvid_errors(entries):
    header = {**snapshot_config(ModelConfig(), TrainConfig()), **entries}
    ckpt = Checkpoint(params=_DESK_TENSORS, optim_m={}, optim_v={}, opt_step=0, step=0,
                      config=header, rng_state={})
    try:
        params = params_from_checkpoint(ckpt)
    except MaskvidError:
        return
    # what it accepts, it can run; the token bound keeps the attention matrix small
    cfg = params.config
    if cfg.num_classes >= 2 and cfg.n_tokens <= 1568:
        clip = VideoClip(np.zeros((3, *clip_size(cfg.dims)), dtype=np.float32))
        logits = classify(clip, params, init_head_params(cfg))
        assert logits.shape == (cfg.num_classes,) and np.isfinite(logits.data).all()


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


def test_raw_clip_of_another_grid_exits_one_before_pretraining_starts(tmp_path):
    raw = tmp_path / "clip.raw"
    np.zeros(3 * 16 * 64 * 64, dtype="<f4").tofile(raw)
    (tmp_path / "clip.raw.manifest").write_text("channels=3\nframes=16\nheight=64\nwidth=64\n")
    res = run_cli(["pretrain", "--set", f"data.raw_path={raw}", "--set", "model.dims=8,5,5"],
                  tmp_path)
    assert res.returncode == 1
    assert "event=config_error" in res.stdout and "pretraining clip 0" in res.stdout
    assert "event=pretrain_start" not in res.stdout
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
                   *TINY_TRAIN, "--set", "data.label_count=4", "--set", "data.eval_count=4",
                   "--out", str(ftdir)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    assert "accuracy=" in res.stdout
    assert load_checkpoint(str(ftdir / "finetune.ckpt")).config["train.mode"] == '"finetune"'


def test_probe_from_checkpoint(tmp_path):
    outdir = _pretrain(tmp_path)
    res = run_cli(["probe", "--checkpoint", str(outdir / "checkpoint.ckpt"),
                   *TINY_TRAIN, "--set", "data.label_count=4", "--set", "data.eval_count=4",
                   "--out", str(tmp_path / "probe")], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    assert "accuracy=" in res.stdout
    assert load_checkpoint(str(tmp_path / "probe" / "probe.ckpt")).config["train.mode"] == '"probe"'


@pytest.mark.parametrize("command", ["finetune", "probe"])
def test_pretrain_cannot_resume_from_a_finetune_or_probe_checkpoint(tmp_path, command):
    outdir = _pretrain(tmp_path)
    res = run_cli([command, "--checkpoint", str(outdir / "checkpoint.ckpt"), *TINY_TRAIN,
                   "--set", "data.label_count=4", "--set", "data.eval_count=4",
                   "--out", str(tmp_path / command)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    ckpt = load_checkpoint(str(tmp_path / command / f"{command}.ckpt"))
    model_cfg, train_cfg, _ = build_configs(ckpt.config)
    dataset = synth_moving_sprites(0, 4, size=clip_size(model_cfg.dims))
    with pytest.raises(CheckpointError, match="moments"):
        pretrain(train_cfg, dataset, model_cfg=model_cfg, resume=ckpt)


def test_finetune_that_diverges_exits_two_with_its_loss_trace(tmp_path):
    ckpt_path = str(_pretrain(tmp_path) / "checkpoint.ckpt")
    ckpt = load_checkpoint(ckpt_path)
    ckpt.params["enc/norm/g"][0] = np.nan
    save_checkpoint(ckpt, ckpt_path)
    ftdir = tmp_path / "ft"
    res = run_cli(["finetune", "--checkpoint", ckpt_path, *TINY_TRAIN,
                   "--set", "data.label_count=4", "--set", "data.eval_count=4",
                   "--out", str(ftdir)], tmp_path)
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


@pytest.mark.parametrize("flags", [["--config", "x.cfg"], ["--set", "model.d_enc=16"]],
                         ids=["config", "set"])
def test_maskviz_takes_no_config_flags(tmp_path, flags):
    res = run_cli(["maskviz", "--dims", "2,4", "--out", str(tmp_path / "viz"), *flags],
                  tmp_path)
    assert res.returncode == 1 and "unrecognized arguments" in res.stderr
    assert not (tmp_path / "viz").exists()


@pytest.mark.parametrize("flags", [["--config", "x.cfg"], ["--set", "model.d_enc=16"],
                                   ["--seed", "1"], ["--out", "grads"]],
                         ids=["config", "set", "seed", "out"])
def test_gradcheck_takes_no_flags(tmp_path, flags):
    # the argument error comes before the gradient suite runs
    res = run_cli(["gradcheck", *flags], tmp_path)
    assert res.returncode == 1 and "unrecognized arguments" in res.stderr
    assert "max relative error" not in res.stdout


def test_reconstruct_reads_only_data_keys(tmp_path):
    ckpt = str(_pretrain(tmp_path) / "checkpoint.ckpt")
    for key in ("model.d_enc=32", "train.seed=1"):
        res = run_cli(["reconstruct", "--checkpoint", ckpt, "--out", str(tmp_path / "rec"),
                       "--set", key], tmp_path)
        assert res.returncode == 1, res.stderr + res.stdout
        assert "event=config_error" in res.stdout and key.split("=")[0] in res.stdout
        assert "Traceback" not in res.stderr
    res = run_cli(["reconstruct", "--checkpoint", ckpt, "--out", str(tmp_path / "rec"),
                   "--set", "data.seed=3", "--seed", "1"], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    assert len(os.listdir(tmp_path / "rec")) == 3 * 16


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


def test_ablate_runs_a_strategy_ratio_cell_at_the_acceptance_geometry(tmp_path):
    outdir = tmp_path / "abl"
    res = run_cli(["ablate", "--axis", "strategy",
                   "--set", 'ablate.values=[["frame", 0.875]]',
                   "--set", "ablate.pretrain_steps=1",
                   "--set", "ablate.finetune_steps=1",
                   "--set", "ablate.eval_clips=4",
                   "--out", str(outdir)], tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    with open(outdir / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["value"] for row in rows} == {"frame"}
    # frame masking at 0.875 leaves one of 8 slices: 25 tokens on (8, 5, 5), 16 on (8, 4, 4)
    assert {row["visible_tokens"] for row in rows} == {"25"}
    assert "model.dims=[8, 5, 5]\n" in (outdir / "resolved.cfg").read_text()


@pytest.mark.parametrize("override", ["ablate.seeds=[]", "ablate.seeds=[0, 0]",
                                      'ablate.values=["tube", "tube"]',
                                      'ablate.values=["frame", ["frame", 0.875]]'])
def test_ablate_refuses_a_grid_that_runs_no_cell_or_one_report_key_twice(
        tmp_path, monkeypatch, capsys, override):
    monkeypatch.delenv("ARTIFACT_OUT", raising=False)
    assert cli.run(["ablate", "--axis", "strategy", "--set", override,
                    "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "event=config_error" in out and override.split("=")[0] in out
    assert not (tmp_path / "report.csv").exists()


def test_ablate_takes_its_seeds_from_ablate_seeds_only(capsys):
    assert cli.run(["ablate", "--axis", "ratio", "--seed", "3"]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# -- argv fuzz: every argv exits 0, 1 or 2 and raises nothing ---------------------

TINY_ABLATE = ["--axis", "ratio", "--set", "ablate.values=[0.5]", "--set", "ablate.seeds=[0]",
               "--set", "ablate.pretrain_steps=1", "--set", "ablate.finetune_steps=1",
               "--set", "ablate.pretrain_clips=4", "--set", "ablate.label_clips=4",
               "--set", "ablate.eval_clips=4"]
TINY_LABELS = ["--set", "data.label_count=4", "--set", "data.eval_count=4"]
# sizes, counts and steps stay in [-2, 4] so that no run gets large
_ARGV_INT = st.integers(-2, 4)
_ARGV_FLOAT = st.floats().map(json.dumps)
_ARGV_WORDS = ["tube", "random", "frame", "pretrain", "finetune", "probe", "ratio",
               "decoder_depth", "same_iterations"]
_ARGV_ANY = st.one_of(
    _ARGV_INT.map(str), _ARGV_FLOAT, st.text(max_size=8),
    st.lists(st.one_of(_ARGV_INT, st.floats(), st.text(max_size=4)), max_size=3).map(json.dumps))


def _argv_value(hint):
    """Mostly values of the key's own type, sometimes anything."""
    text = repr(hint)
    if "int" in text and ("tuple" in text or "list" in text):
        typed = st.lists(_ARGV_INT, max_size=4).map(json.dumps)
    elif "int" in text:
        typed = _ARGV_INT.map(str)
    elif "float" in text:
        typed = _ARGV_FLOAT
    elif "bool" in text:
        typed = st.sampled_from(["true", "false"])
    elif "str" in text:
        typed = st.one_of(st.sampled_from(_ARGV_WORDS), st.text(max_size=8))
    else:  # ablate.values
        typed = st.lists(st.one_of(_ARGV_INT, st.floats(0, 1), st.sampled_from(_ARGV_WORDS)),
                         min_size=1, max_size=2).map(json.dumps)
    return st.one_of(typed, typed, _ARGV_ANY)


_ARGV_SET = st.one_of(
    *(st.tuples(st.just(f"{prefix}.{name}"), _argv_value(hint))
      for prefix, names in _FIELD_TYPES.items() for name, hint in names.items()),
    st.tuples(st.sampled_from(_UNKNOWN_KEYS), _ARGV_ANY))


@pytest.fixture(scope="module")
def argv_bases(tmp_path_factory):
    """Per subcommand, a tiny valid argv; all share one tiny pretrain checkpoint."""
    root = tmp_path_factory.mktemp("argv")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ARTIFACT_OUT", raising=False)
        assert cli.run(["pretrain", *TINY_MODEL, *TINY_TRAIN, *TINY_DATA,
                        "--out", str(root / "ckpt")]) == 0
        ckpt = ["--checkpoint", str(root / "ckpt" / "checkpoint.ckpt")]
        bases = {"pretrain": [*TINY_MODEL, *TINY_TRAIN, *TINY_DATA],
                 "finetune": [*ckpt, *TINY_TRAIN, *TINY_LABELS],
                 "probe": [*ckpt, *TINY_TRAIN, *TINY_LABELS],
                 "reconstruct": ckpt,
                 "maskviz": ["--dims", "2,4"],
                 "ablate": [*TINY_MODEL, *TINY_ABLATE]}
        yield {cmd: [cmd, *base, "--out", str(root / cmd)] for cmd, base in bases.items()}


@pytest.mark.parametrize("command", ["reconstruct", "maskviz"])
def test_negative_mask_seed_exits_one_without_traceback(argv_bases, capsys, command):
    assert cli.run(argv_bases[command] + ["--seed", "-1"]) == 1
    out = capsys.readouterr().out
    assert "event=config_error" in out and "mask seed must be >= 0, got -1" in out


@pytest.mark.parametrize("command", ["pretrain", "finetune", "probe", "reconstruct",
                                     "maskviz", "ablate"])
@settings(max_examples=400, deadline=None)
@given(sets=st.lists(_ARGV_SET, max_size=3))
def test_cli_argv_exits_zero_one_or_two_and_raises_nothing(argv_bases, command, sets):
    argv = argv_bases[command] + [arg for key, value in sets for arg in ("--set", f"{key}={value}")]
    assert cli.run(argv) in (0, 1, 2)
