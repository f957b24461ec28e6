"""Command-line entry point.

Subcommands: pretrain | finetune | probe | reconstruct | maskviz | gradcheck |
ablate. Config files are flat key=value text with dotted prefixes
(model.d_enc=64); --set overrides individual keys. Exit codes: 0 success,
1 config error, 2 numeric abort (a diverged pretrain, fine-tune or probe).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import gradsuite
from .errors import MaskvidError, ConfigError, NumericError
from .experiments import AXES, AblationSpec, run_ablation, summarize, write_report
from .masking import STRATEGIES, make_mask, mask_to_text
from .model import ModelConfig, reconstruct
from .training import (SNAPSHOT_FIELDS, TrainConfig, decode_config, field_types, finetune,
                       linear_probe, load_checkpoint, params_from_checkpoint, pretrain,
                       save_checkpoint, snapshot_config, supervised_checkpoint,
                       write_loss_trace, _check_clip_grids)
from .video import clip_size, read_raw_clip, synth_moving_sprites
from .viz import frame_to_image, gray_masked_cubes, mask_heatmap, write_ppm


_DATA_DEFAULTS = {"count": 64, "seed": 0, "raw_path": "", "label_count": 32,
                  "eval_count": 32}
# ablate.* keys: AblationSpec fields, plus the two runs' step budgets
_ABLATE_STEPS = {"pretrain_steps": "pretrain_cfg", "finetune_steps": "finetune_cfg"}
_FIELD_TYPES = {
    **SNAPSHOT_FIELDS,
    "data": {k: type(v) for k, v in _DATA_DEFAULTS.items()},
    "ablate": {**{k: v for k, v in field_types(AblationSpec).items()
                  if k in ("axis", "values", "seeds", "pretrain_clips", "label_clips",
                           "eval_clips", "regime")},
               **dict.fromkeys(_ABLATE_STEPS, int)},
}


def _log(event: str, **fields):
    parts = [f"event={event}"] + [f"{k}={v}" for k, v in fields.items()]
    print(" ".join(parts), flush=True)


def parse_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            cfg[key.strip()] = val.strip()
    return cfg


def _data_config(given: dict) -> dict:
    """The data.* values given, over their defaults."""
    if given.get("seed", 0) < 0:
        raise ConfigError(f"data.seed must be >= 0, got {given['seed']}")
    return {**_DATA_DEFAULTS, **given}


def build_configs(cfg: dict[str, str]) -> tuple[ModelConfig, TrainConfig, dict]:
    typed = decode_config(cfg, _FIELD_TYPES)
    return (ModelConfig(**typed["model"]), TrainConfig(**typed["train"]),
            _data_config(typed["data"]))


def _resolve_out(args) -> str:
    out = os.environ.get("ARTIFACT_OUT") or args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_resolved(cfg: dict[str, str], out: str, name: str = "resolved.cfg"):
    with open(os.path.join(out, name), "w") as fh:
        for key in sorted(cfg):
            fh.write(f"{key}={cfg[key]}\n")


def _load_cfg(args) -> dict[str, str]:
    cfg = parse_config_file(args.config) if args.config else {}
    for override in args.set or []:
        if "=" not in override:
            raise ConfigError(f"--set expects key=value, got {override!r}")
        key, _, val = override.partition("=")
        cfg[key] = val
    return cfg


def _sprites_for(model_cfg: ModelConfig, count: int, seed: int):
    return synth_moving_sprites(seed, count, size=clip_size(model_cfg.dims))


def _training_configs(args) -> tuple[ModelConfig, TrainConfig, dict]:
    """build_configs of the command's config, with train.mode the command's name."""
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg["train.seed"] = str(args.seed)
    model_cfg, train_cfg, data = build_configs(cfg)
    if "train.mode" in cfg and train_cfg.mode != args.command:
        raise ConfigError(f"train.mode={cfg['train.mode']} conflicts with "
                          f"`maskvid {args.command}`, which sets it")
    return model_cfg, dataclasses.replace(train_cfg, mode=args.command), data


def cmd_pretrain(args) -> int:
    model_cfg, train_cfg, data = _training_configs(args)
    out = _resolve_out(args)
    if data["raw_path"]:
        dataset = [read_raw_clip(data["raw_path"])]
        _check_clip_grids(dataset, model_cfg.dims, "pretraining", "model")
    else:
        dataset = _sprites_for(model_cfg, data["count"], data["seed"])
    _log("pretrain_start", clips=len(dataset), steps=train_cfg.step_budget(len(dataset))[1],
         strategy=train_cfg.mask_strategy, ratio=train_cfg.mask_ratio)
    result = pretrain(train_cfg, dataset, model_cfg=model_cfg)
    _write_resolved(snapshot_config(model_cfg, train_cfg), out)
    write_loss_trace(os.path.join(out, "loss.csv"), result.trace)
    save_checkpoint(result.checkpoint, os.path.join(out, "checkpoint.ckpt"))
    if result.aborted:
        _log("pretrain_aborted", step=result.checkpoint.step)
        return 2
    final = result.trace[-1][2] if result.trace else float("nan")
    _log("pretrain_done", final_loss=f"{final:.6f}", out=out)
    return 0


def _cmd_supervised(args, runner, tag: str) -> int:
    _, train_cfg, data = _training_configs(args)
    out = _resolve_out(args)
    ckpt = load_checkpoint(args.checkpoint)
    params = params_from_checkpoint(ckpt)
    train_ds = _sprites_for(params.config, data["label_count"], data["seed"] + 1)
    eval_ds = _sprites_for(params.config, data["eval_count"], data["seed"] + 2)
    _log(f"{tag}_start", train_clips=len(train_ds), eval_clips=len(eval_ds))
    result = runner(params, train_ds, eval_ds, train_cfg)
    _write_resolved(snapshot_config(params.config, train_cfg), out)
    write_loss_trace(os.path.join(out, f"{tag}_loss.csv"), result.trace)
    if result.aborted:
        _log(f"{tag}_aborted", step=len(result.trace))
        return 2
    save_checkpoint(supervised_checkpoint(result.params, result.head, len(result.trace),
                                          train_cfg), os.path.join(out, f"{tag}.ckpt"))
    _log(f"{tag}_done", accuracy=f"{result.accuracy:.4f}", out=out)
    return 0


def cmd_finetune(args) -> int:
    return _cmd_supervised(args, finetune, "finetune")


def cmd_probe(args) -> int:
    return _cmd_supervised(args, linear_probe, "probe")


def cmd_reconstruct(args) -> int:
    # the model and its config come from the checkpoint
    data = _data_config(decode_config(_load_cfg(args), {"data": _FIELD_TYPES["data"]})["data"])
    out = _resolve_out(args)
    ckpt = load_checkpoint(args.checkpoint)
    params = params_from_checkpoint(ckpt)
    if data["raw_path"]:
        clip = read_raw_clip(data["raw_path"])
    else:
        clip = _sprites_for(params.config, 4, data["seed"]).clips[0]
    dims = (params.config.dims[0], params.config.spatial_sites)
    mask = make_mask(args.strategy, dims, args.ratio, args.seed or 0)
    recon = reconstruct(clip, mask, params)
    masked_clip = gray_masked_cubes(clip, mask)
    t = clip.pixels.shape[1]
    for f in range(t):
        write_ppm(os.path.join(out, f"frame{f:03d}_original.ppm"), frame_to_image(clip, f))
        write_ppm(os.path.join(out, f"frame{f:03d}_masked.ppm"), frame_to_image(masked_clip, f))
        write_ppm(os.path.join(out, f"frame{f:03d}_recon.ppm"), frame_to_image(recon, f))
    _log("reconstruct_done", frames=t, files=3 * t, out=out)
    return 0


def cmd_maskviz(args) -> int:
    out = _resolve_out(args)
    dims = tuple(int(x) for x in args.dims.split(","))
    if len(dims) != 2:
        raise ConfigError(f"--dims expects T',S — got {args.dims!r}")
    mask = make_mask(args.strategy, dims, args.ratio, args.seed or 0)
    text = mask_to_text(mask)
    base = f"mask_{args.strategy}_{args.ratio}"
    with open(os.path.join(out, base + ".txt"), "w") as fh:
        fh.write(text)
    write_ppm(os.path.join(out, base + ".ppm"), mask_heatmap(mask))
    _log("maskviz_done", masked=mask.n_masked, visible=mask.n_visible, out=out)
    return 0


def cmd_gradcheck(args) -> int:
    worst = gradsuite.run_gradient_suite(verbose=True)
    _log("gradcheck_done", max_rel_error=f"{worst:.3e}")
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < 1e-4 else 2


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    # the cells run on the spec's own train configs, data and seeds
    typed = decode_config(cfg, {k: _FIELD_TYPES[k] for k in ("model", "ablate")})
    given = typed["ablate"]
    # model.* keys and step budgets override the spec's own configs
    overrides = {"model_cfg": typed["model"]}
    overrides.update((attr, {"total_steps": given.pop(key)})
                     for key, attr in _ABLATE_STEPS.items() if key in given)
    given.setdefault("axis", args.axis)
    if given["axis"] not in AXES:
        raise ConfigError(f"ablate needs an axis out of {sorted(AXES)} (--axis or ablate.axis), "
                          f"got {given['axis']!r}")
    given.setdefault("values", AXES[given["axis"]].defaults)
    spec = AblationSpec(**given)
    for attr, changes in overrides.items():
        setattr(spec, attr, dataclasses.replace(getattr(spec, attr), **changes))
    out = _resolve_out(args)
    _log("ablate_start", axis=spec.axis, cells=len(spec.values) * len(spec.seeds))
    rows = run_ablation(spec)
    write_report(os.path.join(out, "report.csv"), rows)
    for value, (mean, std) in summarize(rows).items():
        _log("ablate_cell", value=value, mean_accuracy=f"{mean:.4f}", std=f"{std:.4f}")
    used = snapshot_config(spec.model_cfg, spec.pretrain_cfg)
    _write_resolved({**cfg, **{k: v for k, v in used.items() if k.startswith("model.")}}, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maskvid",
                                     description="Masked video autoencoding at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, seed=True, config=True):
        if config:
            p.add_argument("--config", help="flat key=value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config key")
        p.add_argument("--out", help="output directory (ARTIFACT_OUT wins)")
        if seed:
            p.add_argument("--seed", type=int, help="training seed override, or the mask's seed")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)

    common(sub.add_parser("pretrain", help="masked-reconstruction pre-training"))
    common(sub.add_parser("finetune", help="supervised fine-tuning"), checkpoint=True)
    common(sub.add_parser("probe", help="linear probe on a frozen encoder"), checkpoint=True)

    p = sub.add_parser("reconstruct", help="write original/masked/reconstruction frames")
    common(p, checkpoint=True)
    p.add_argument("--ratio", type=float, default=0.9)
    p.add_argument("--strategy", choices=STRATEGIES, default="tube")

    p = sub.add_parser("maskviz", help="text grid + heatmap for a mask")
    common(p, config=False)
    p.add_argument("--dims", default="8,196", help="T',S")
    p.add_argument("--ratio", type=float, default=0.9)
    p.add_argument("--strategy", choices=STRATEGIES, default="tube")

    sub.add_parser("gradcheck", help="finite-difference gradient suite")

    p = sub.add_parser("ablate", help="run an ablation sweep (seeds: ablate.seeds)")
    common(p, seed=False)
    p.add_argument("--axis", choices=list(AXES))
    return parser


_HANDLERS = {"pretrain": cmd_pretrain, "finetune": cmd_finetune, "probe": cmd_probe,
             "reconstruct": cmd_reconstruct, "maskviz": cmd_maskviz,
             "gradcheck": cmd_gradcheck, "ablate": cmd_ablate}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except NumericError as exc:
        _log("numeric_abort", error=str(exc))
        return 2
    except (MaskvidError, FileNotFoundError) as exc:
        _log("config_error", error=str(exc))
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
