"""Loss, optimizer, schedule, training loops, and checkpointing."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import types
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as tk
from .errors import CheckpointError, ConfigError, ContractError, NumericError
from .masking import make_mask
from .model import (MAEParams, ModelConfig, _head_layout, _param_layout, clip_features,
                    head_logits, init_head_params, init_mae_params, mae_loss_batch)
from .tensor import Param, Tape, Tensor
from .video import VideoClip, stack_cubes


@dataclass
class TrainConfig:
    base_lr: float = 1.5e-4
    batch_size: int = 8
    warmup_epochs: int = 5
    total_epochs: int = 50
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.95
    mask_strategy: str = "tube"
    mask_ratio: float = 0.9
    seed: int = 0
    mode: str = "pretrain"  # pretrain | finetune | probe
    lr_floor: float = 1e-6
    flip_augment: bool = False
    layer_decay: float = 0.75
    total_steps: int | None = None  # overrides total_epochs when set

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"train.beta1 and train.beta2 must be in [0, 1), "
                              f"got {self.beta1} and {self.beta2}")
        if not 0.0 < self.layer_decay <= 1.0:
            raise ConfigError(f"train.layer_decay must be in (0, 1], got {self.layer_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.warmup_epochs < 0:
            raise ConfigError(f"train.warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.total_steps is not None and self.total_steps < 1:
            raise ConfigError(f"train.total_steps must be >= 1, got {self.total_steps}")
        if self.warmup_epochs >= self.total_epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} must be < total_epochs {self.total_epochs}"
            )
        if self.mode not in ("pretrain", "finetune", "probe"):
            raise ConfigError(f"unknown mode {self.mode!r}")

    def steps_per_epoch(self, n_items: int) -> int:
        return max(1, math.ceil(n_items / self.batch_size))

    def step_budget(self, n_items: int) -> tuple[int, int]:
        """(warmup_steps, total_steps) for the schedule."""
        spe = self.steps_per_epoch(n_items)
        if self.total_steps is not None:
            total = self.total_steps
            warmup = min(self.warmup_epochs * spe, total // 10)
        else:
            total = self.total_epochs * spe
            warmup = self.warmup_epochs * spe
        return warmup, total


# -- loss ---------------------------------------------------------------------

def masked_mse_loss(pred: Tensor, targets, masks) -> Tensor:
    """Mean squared error over masked tokens only, averaged per pixel entry.

    pred is (B, N, C) with a list of B masks; targets is an array of
    normalized cube values, shaped as pred; visible tokens contribute nothing.
    Pretraining computes the same loss without the visible rows: it decodes
    only the masked rows and scores them with tk.pixel_mse.
    """
    if (pred.data.ndim != 3 or len(masks) != pred.shape[0]
            or any(m.mask.size != pred.shape[1] for m in masks)
            or len({m.n_masked for m in masks}) > 1):
        raise ContractError(f"masked_mse_loss needs (B, N, C) predictions and B masks, each over "
                            f"N rows with equally many hidden; got {pred.shape} and {len(masks)}")
    rows = np.stack([m.masked_indices for m in masks])
    return tk.mse(tk.gather_rows(pred, rows), tk.gather_rows(Tensor(targets), rows).data)


# -- optimizer -----------------------------------------------------------------

class OptimState:
    """AdamW's step count and one flat store of the parameters it trains.

    The store is four flat buffers, the parameters' values, their gradients
    and the first and second moments m and v, and `layout` maps each name to
    its (offset, shape) in them. Building the state copies each Param's value
    and gradient into the store and makes them views of it, so AdamW, zero-grad
    and the finite check each run over whole buffers; a Param belongs to the
    last state built over it. m and v start from the name-keyed moments given
    (a resume) or at zero. lr_scales multiplies a named parameter's lr; a name
    it lacks keeps the lr.
    """

    def __init__(self, params, lr_scales: dict[str, float] | None = None,
                 m: dict[str, np.ndarray] | None = None, v: dict[str, np.ndarray] | None = None,
                 step: int = 0):
        params = list(params)
        dtypes = {p.value.dtype for p in params} or {np.dtype(np.float32)}
        if len(dtypes) > 1 or len({p.name for p in params}) < len(params):
            raise ContractError(f"an optimizer state needs uniquely named parameters of one "
                                f"dtype, got dtypes {sorted(map(str, dtypes))} and "
                                f"{len({p.name for p in params})} names for {len(params)}")
        dtype, = dtypes
        offsets = np.cumsum([0] + [p.value.size for p in params])
        total = int(offsets[-1])
        self.layout = {p.name: (int(o), p.value.shape) for p, o in zip(params, offsets)}
        self.value, self.grad, self.m, self.v = (np.zeros(total, dtype) for _ in range(4))
        self.scratch = np.empty((2, min(total, _ADAMW_BLOCK)), dtype)  # adamw_step's, a block each
        self.step = step
        for flat, views in ((self.value, [p.value.data for p in params]),
                            (self.grad, [p.grad for p in params]),
                            (self.m, m and [m[p.name] for p in params]),
                            (self.v, v and [v[p.name] for p in params])):
            if views:
                np.concatenate([a.reshape(-1) for a in views], out=flat)
        values, grads = self.views(self.value), self.views(self.grad)
        for p in params:
            p.value.data, p.value.grad = values[p.name], grads[p.name]
        # (start, stop, lr scale) of each run of consecutive parameters with one scale
        scales = [(lr_scales or {}).get(p.name, 1.0) for p in params]
        firsts = [i for i, s in enumerate(scales) if i == 0 or s != scales[i - 1]]
        self.runs = [(int(offsets[i]), int(offsets[j]), scales[i])
                     for i, j in zip(firsts, firsts[1:] + [len(params)])]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's segment of one of the flat buffers, by name."""
        return {name: flat[o:o + math.prod(shape)].reshape(shape)
                for name, (o, shape) in self.layout.items()}


def _adamw_update(p, g, m, v, lr, decay, beta1, beta2, c1, c2, eps, s1, s2):
    """adamw_step's arithmetic over arrays of elements, in place, op for op
    that of the per-parameter form below, where lr and decay are python
    floats and numpy rounds each to the arrays' dtype:

        p *= 1 - lr*wd; m = m*beta1 + (1-beta1)*g; v = v*beta2 + (1-beta2)*g*g
        p -= lr * (m / c1) / (sqrt(v / c2) + eps)

    lr and decay are those rounded factors, scalars of the arrays' dtype;
    s1 and s2 are scratch shaped as p.
    """
    p *= decay
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=s1)
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=s1)
    v += np.multiply(s1, g, out=s1)
    np.divide(m, c1, out=s1)
    s1 *= lr
    np.divide(v, c2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += eps
    s1 /= s2
    p -= s1


# Elements of the store that go through adamw_step's 15 passes together. A
# block's arrays, values to scratch, then stay in the core's L2 cache from
# pass to pass: in (8,5,5) pretraining steps, the 376,704-element store took
# 1.6 ms in blocks of 32,768, 1.7 ms in blocks of 65,536 and 2.1 ms in one
# block.
_ADAMW_BLOCK = 32_768


def adamw_step(state: OptimState, lr: float, beta1: float = 0.9, beta2: float = 0.95,
               weight_decay: float = 0.05, eps: float = 1e-8):
    """Decoupled-weight-decay Adam with bias correction over the state's store.

    Decay is applied before the moment update (param *= 1 - lr*wd). Aborts
    without mutating anything, naming the first parameter in store order
    whose gradient is non-finite, if any is. The update runs serially over
    each run of parameters sharing an lr scale, in blocks of _ADAMW_BLOCK
    elements, with that run's factors rounded once to the store's dtype as
    numpy rounds the python floats of a per-parameter loop.
    """
    if lr < 0:
        raise ConfigError(f"lr must be >= 0, got {lr}")
    if not np.isfinite(state.grad).all():
        first = np.argmin(np.isfinite(state.grad))
        name = next(n for n, (o, shape) in state.layout.items() if first < o + math.prod(shape))
        raise NumericError(f"non-finite gradient in {name}; step aborted")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    to_dtype, (s1, s2) = state.value.dtype.type, state.scratch
    for start, stop, scale in state.runs:
        lr_p = lr * scale
        lr_f, decay = to_dtype(lr_p), to_dtype(1.0 - lr_p * weight_decay)
        for j in range(start, stop, _ADAMW_BLOCK):
            k = min(j + _ADAMW_BLOCK, stop)
            _adamw_update(*(a[j:k] for a in (state.value, state.grad, state.m, state.v)),
                          lr_f, decay, beta1, beta2, c1, c2, eps, s1[:k - j], s2[:k - j])


def scaled_lr(base_lr: float, batch_size: int) -> float:
    """Linear scaling rule: peak lr = base_lr * batch_size / 256."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    return base_lr * batch_size / 256.0


def cosine_warmup_lr(step: int, warmup_steps: int, total_steps: int,
                     peak: float, floor: float = 0.0) -> float:
    """Linear 0 -> peak over warmup, then half-cosine peak -> floor."""
    if warmup_steps > 0 and step < warmup_steps:
        return peak * step / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


def layer_lr_scales(config: ModelConfig, decay: float) -> dict[str, float]:
    """Per-block multiplicative lr factors for fine-tuning; head stays at 1."""
    scales: dict[str, float] = {}
    n = config.depth_enc
    scales["embed/w"] = scales["embed/b"] = decay ** (n + 1)
    for i in range(n):
        for name in tk._block_layout(1, 1):
            scales[f"enc/block{i}/{name}"] = decay ** (n - i)
    return scales


# -- checkpointing --------------------------------------------------------------

_CKPT_MAGIC = "maskvid-checkpoint-v1"
_CKPT_MARKER = b"\n---\n"
# tensor namespace -> the Checkpoint field it fills, in file order
_CKPT_TENSORS = {"param/": "params", "optim/m/": "optim_m", "optim/v/": "optim_v"}
# a tensor's entry; counts have at most 18 digits, so int() of each cannot fail
_CKPT_TENSOR_LINE = re.compile("(" + "|".join(_CKPT_TENSORS) + r")(\S+) shape=((?:\d{1,18},)*"
                               r"\d{1,18})? dtype=float32 offset=(\d{1,18}) sha256=(\S+)")
# manifest key -> its parser and the type a valid line parses to; all but tensor must appear
_CKPT_FIELDS = {"step": (int, int), "opt_step": (int, int), "rng": (json.loads, dict),
                "payload_bytes": (int, int), "tensor": (_CKPT_TENSOR_LINE.fullmatch, re.Match)}


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    optim_m: dict[str, np.ndarray]
    optim_v: dict[str, np.ndarray]
    opt_step: int
    step: int
    config: dict[str, str]
    rng_state: dict


def snapshot_config(model_cfg: ModelConfig, train_cfg: TrainConfig) -> dict[str, str]:
    snap = {}
    for prefix, cfg in (("model", model_cfg), ("train", train_cfg)):
        for f in fields(cfg):
            snap[f"{prefix}.{f.name}"] = json.dumps(getattr(cfg, f.name))
    return snap


def field_types(cls) -> dict:
    """Field name -> resolved annotation, read from the dataclass itself."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# the prefixes snapshot_config writes, each field with its annotation
SNAPSHOT_FIELDS = {"model": field_types(ModelConfig), "train": field_types(TrainConfig)}


def _parse(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return text


def _has_type(value, hint) -> bool:
    """Whether a decoded value fits a config field's annotation."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        return any(_has_type(value, h) for h in args)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(map(_has_type, value, args)))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def decode_config(entries: dict[str, str], schema: dict[str, dict]) -> dict[str, dict]:
    """Flat prefix.name -> text entries as {prefix: {name: value}}, typed and checked.

    The decoder of snapshot_config's output, of checkpoint headers, and of CLI
    text and resolved.cfg; schema maps each prefix to its field annotations.
    A value is parsed as JSON, and stays raw text if that fails; a field
    annotated tuple[...] takes a JSON list or comma-separated text. An unknown
    key, or a value that does not fit its annotation, raises ConfigError
    naming the key.
    """
    out = {prefix: {} for prefix in schema}
    for key, raw in entries.items():
        prefix, _, name = key.partition(".")
        hint = schema.get(prefix, {}).get(name)
        if hint is None:
            raise ConfigError(f"unknown config key {key!r}")
        value = _parse(raw)
        if typing.get_origin(hint) is tuple:
            value = tuple(value) if isinstance(value, list) else tuple(map(_parse, raw.split(",")))
        if not _has_type(value, hint):
            raise ConfigError(f"{key}={raw!r} does not fit its type {hint}")
        out[prefix][name] = value
    return out


def params_from_checkpoint(ckpt: Checkpoint) -> MAEParams:
    """The checkpoint's parameters under the model config its header records.

    Every tensor must have the name and shape that config implies, with the
    classification head optional; the first that does not raises
    CheckpointError.
    """
    cfg = ModelConfig(**decode_config(ckpt.config, SNAPSHOT_FIELDS)["model"])
    layout = _param_layout(cfg)
    if any(name.startswith("head/") for name in ckpt.params):
        layout.update(_head_layout(cfg))
    for name in sorted(layout.keys() | ckpt.params.keys()):
        got = ckpt.params[name].shape if name in ckpt.params else "absent"
        want = layout[name][0] if name in layout else "absent"
        if got != want:
            raise CheckpointError(f"checkpoint tensor {name!r} has shape {got}, but the "
                                  f"header's model config implies {want}")
    params = {name: Param(arr.copy(), name) for name, arr in ckpt.params.items()}
    return MAEParams(params, cfg)


def save_checkpoint(ckpt: Checkpoint, path: str):
    """Plain-text manifest + raw little-endian float32 payload, written atomically."""
    header = [_CKPT_MAGIC, f"step={ckpt.step}", f"opt_step={ckpt.opt_step}",
              "rng=" + json.dumps(ckpt.rng_state, sort_keys=True)]
    header += [f"config.{key}={ckpt.config[key]}" for key in sorted(ckpt.config)]
    buffers, offset = [], 0
    for prefix, field in _CKPT_TENSORS.items():
        arrays = getattr(ckpt, field)
        for name in sorted(arrays):
            raw = np.ascontiguousarray(arrays[name], dtype="<f4")
            header.append(f"tensor={prefix}{name} shape={','.join(map(str, arrays[name].shape))} "
                          f"dtype=float32 offset={offset} sha256={hashlib.sha256(raw).hexdigest()}")
            buffers.append(raw)
            offset += raw.nbytes
    header.append(f"payload_bytes={offset}")
    with open(path + ".tmp", "wb") as fh:
        fh.write("\n".join(header).encode() + _CKPT_MARKER)
        fh.writelines(buffers)
    os.replace(path + ".tmp", path)


def load_checkpoint(path: str) -> Checkpoint:
    """A malformed file raises CheckpointError naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = blob.find(_CKPT_MARKER)
    if pos < 0:
        raise CheckpointError(f"{path}: header marker not found (truncated file?)")
    try:
        lines = blob[:pos].decode().split("\n")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: header is not UTF-8") from None
    if lines[0] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic line {lines[0]!r}")
    manifest, config, tensors = {}, {}, []
    for line in lines[1:]:
        key, _, val = line.partition("=")
        if key.startswith("config."):
            config[key[len("config."):]] = val
            continue
        if key not in _CKPT_FIELDS:
            raise CheckpointError(f"{path}: unknown manifest key {key!r}")
        parse, kind = _CKPT_FIELDS[key]
        try:
            value = parse(val)
        except (ValueError, RecursionError):
            value = None
        if not isinstance(value, kind):
            raise CheckpointError(f"{path}: malformed manifest line {line[:80]!r}")
        if key == "tensor":
            tensors.append(value.groups())
        else:
            manifest[key] = value
    for name in _CKPT_FIELDS:
        if name not in manifest and name != "tensor":
            raise CheckpointError(f"{path}: manifest missing field {name!r}")
    payload = memoryview(blob)[pos + len(_CKPT_MARKER):]
    if len(payload) != manifest["payload_bytes"]:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, manifest says "
                              f"{manifest['payload_bytes']}")
    arrays = {field: {} for field in _CKPT_TENSORS.values()}
    for prefix, name, shape, offset, digest in tensors:
        shape = tuple(map(int, shape.split(","))) if shape else ()
        raw = payload[int(offset):int(offset) + 4 * math.prod(shape)]
        if len(raw) != 4 * math.prod(shape):
            raise CheckpointError(f"{path}: tensor {prefix}{name} payload truncated")
        if hashlib.sha256(raw).hexdigest() != digest:
            raise CheckpointError(f"{path}: tensor {prefix}{name} failed its content hash")
        arrays[_CKPT_TENSORS[prefix]][name] = np.frombuffer(raw, "<f4").reshape(shape).copy()
    return Checkpoint(**arrays, opt_step=manifest["opt_step"], step=manifest["step"],
                      config=config, rng_state=manifest["rng"])


# -- training loops ---------------------------------------------------------------

def _train_steps(config: TrainConfig, n: int, rng: np.random.Generator, state: OptimState,
                 loss_of, start: int = 0, stop: int | None = None) -> tuple[list, bool]:
    """The step loop every trainer runs: lr, batch draw, zero-grad, tape, AdamW
    over the parameters that state stores.

    Steps start..stop of the schedule for n items. Each step draws the batch
    indices from rng, then loss_of(indices) draws whatever else it needs and
    returns the scalar loss. Returns the (step, lr, loss) trace and whether a
    non-finite loss or gradient stopped the run. A stop leaves the parameters
    and moments as the last finished step left them, and the trace ends
    before the failed step.
    """
    warmup, total = config.step_budget(n)
    peak = scaled_lr(config.base_lr, config.batch_size)
    trace = []
    for step in range(start, total if stop is None else min(total, stop)):
        lr = cosine_warmup_lr(step, warmup, total, peak, config.lr_floor)
        idx = rng.choice(n, size=config.batch_size, replace=n < config.batch_size)
        state.grad.fill(0)
        with Tape() as tape:
            loss = loss_of(idx)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                return trace, True
            tape.backward(loss)
        try:
            adamw_step(state, lr, config.beta1, config.beta2, config.weight_decay)
        except NumericError:
            return trace, True
        trace.append((step, lr, loss_val))
    return trace, False


@dataclass
class PretrainResult:
    checkpoint: Checkpoint
    trace: list  # (step, lr, loss)
    aborted: bool = False


def _check_clip_grids(clips, dims: tuple, name: str, owner: str):
    """ConfigError naming the first of clips whose cube grid is not dims."""
    for i, clip in enumerate(clips):
        if clip.grid_dims != dims:
            raise ConfigError(f"{name} clip {i} has grid {clip.grid_dims}, the {owner} {dims}")


def _make_checkpoint(params: dict[str, Param], state: OptimState, step: int,
                     config: dict[str, str], rng: np.random.Generator) -> Checkpoint:
    return Checkpoint(params={n: p.value.data.copy() for n, p in params.items()},
                      optim_m={k: v.copy() for k, v in state.views(state.m).items()},
                      optim_v={k: v.copy() for k, v in state.views(state.v).items()},
                      opt_step=state.step, step=step, config=dict(config),
                      rng_state=rng.bit_generator.state)


def supervised_checkpoint(params: MAEParams, head: dict[str, Param], steps: int,
                          config: TrainConfig) -> Checkpoint:
    """The checkpoint of a fine-tune or probe, as `maskvid finetune|probe`
    writes it: the model's and head's values after `steps` steps under
    config, with no AdamW moments (so a resume refuses it) and the state of
    a fresh generator seeded with config.seed."""
    return _make_checkpoint({**params.params, **head}, OptimState([]), steps,
                            snapshot_config(params.config, config),
                            np.random.default_rng(config.seed))


# A diverging run overflows before its loss or gradient turns non-finite. The
# loops' own finite checks decide when it stops, so numpy warns of nothing.
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_QUIET
def pretrain(config: TrainConfig, dataset, model_cfg: ModelConfig | None = None,
             resume: Checkpoint | None = None,
             stop_step: int | None = None) -> PretrainResult:
    """Masked-reconstruction pre-training; deterministic under (config, dataset).

    stop_step interrupts the run after that absolute step while keeping the
    full-length schedule, so a later resume reproduces the uninterrupted run.
    A resume runs under the checkpoint's own config: a model_cfg or config
    that differs from it in any key raises ConfigError naming each such key,
    and a checkpoint without AdamW moments for every parameter (a fine-tune
    or probe checkpoint), with moments shaped unlike their parameter, or
    without a PCG64 generator state raises CheckpointError.
    """
    if len(dataset) == 0:
        raise ContractError("pretrain needs a nonempty dataset")
    clips = [item[0] if isinstance(item, tuple) else item for item in dataset]
    rng = np.random.default_rng(config.seed)
    if resume is not None:
        try:
            rng.bit_generator.state = resume.rng_state
        except (KeyError, TypeError, ValueError, OverflowError):
            raise CheckpointError("resume needs the PCG64 state of the checkpoint's generator; "
                                  f"its rng state is {resume.rng_state!r:.200}") from None
    params = params_from_checkpoint(resume) if resume is not None else None
    model_cfg = model_cfg or (params.config if params else ModelConfig())
    _check_clip_grids(clips, model_cfg.dims, "pretraining", "model")
    config_snap = snapshot_config(model_cfg, config)
    if resume is None:
        params = init_mae_params(model_cfg, seed=config.seed)
        state, start_step = OptimState(params.values()), 0
    else:
        if not resume.optim_m.keys() == resume.optim_v.keys() == params.params.keys():
            raise CheckpointError("resume needs AdamW moments for every parameter; this "
                                  f"checkpoint has them for {len(resume.optim_m)} of "
                                  f"{len(params.params)}")
        for name, p in params.params.items():  # the store takes any shape of equal size
            if not resume.optim_m[name].shape == resume.optim_v[name].shape == p.value.shape:
                raise CheckpointError(f"checkpoint moments of {name!r} have shapes "
                                      f"{resume.optim_m[name].shape} and "
                                      f"{resume.optim_v[name].shape}, its value {p.value.shape}")
        differ = sorted(k for k in config_snap.keys() | resume.config.keys()
                        if config_snap.get(k) != resume.config.get(k))
        if differ:
            raise ConfigError("resume under a different config: " + ", ".join(
                f"{k} {resume.config.get(k)} -> {config_snap.get(k)}" for k in differ))
        state = OptimState(params.values(), m=resume.optim_m, v=resume.optim_v,
                           step=resume.opt_step)
        start_step = resume.step

    mask_dims = (model_cfg.dims[0], model_cfg.spatial_sites)
    # counts are exact per strategy, so one throwaway draw tells, and the
    # run's own rng is left untouched
    if make_mask(config.mask_strategy, mask_dims, config.mask_ratio,
                 np.random.default_rng(0)).n_visible == 0:
        raise ConfigError(f"{config.mask_strategy} masking at ratio {config.mask_ratio} leaves "
                          f"no visible token on the (T', S) = {mask_dims} grid")

    n = len(dataset)
    if config.flip_augment:  # clip i mirrored left to right is entry n + i
        clips += [VideoClip(c.pixels[..., ::-1]) for c in clips]
    grids, targets = stack_cubes(clips, params.pos_enc.dtype, targets=True)

    def loss_of(idx):
        masks = [make_mask(config.mask_strategy, mask_dims, config.mask_ratio, rng)
                 for _ in idx]
        if config.flip_augment:
            idx = idx + n * (rng.random(config.batch_size) < 0.5)
        visible = np.stack([m.visible_indices for m in masks])
        masked = np.stack([m.masked_indices for m in masks])
        # masked_mse_loss, bitwise, without decoding the visible rows
        return mae_loss_batch(grids[idx[:, None], visible], visible, params, masked,
                              targets[idx[:, None], masked])

    trace, aborted = _train_steps(config, n, rng, state, loss_of, start_step, stop_step)
    ckpt = _make_checkpoint(params.params, state, start_step + len(trace), config_snap, rng)
    return PretrainResult(ckpt, trace, aborted)


@dataclass
class EvalResult:
    accuracy: float
    params: MAEParams
    head: dict[str, Param]
    trace: list
    aborted: bool = False  # a non-finite loss or gradient stopped training


_EVAL_BATCH = 16  # clips per forward-only encoder pass


def _features(grids: np.ndarray, params: MAEParams) -> np.ndarray:
    """clip_features of (B, N, 1536) grids as one array, _EVAL_BATCH clips per pass."""
    return np.concatenate([clip_features(grids[i:i + _EVAL_BATCH], params).data
                           for i in range(0, len(grids), _EVAL_BATCH)])


def _eval_accuracy(head: dict[str, Param], features: np.ndarray, labels: np.ndarray) -> float:
    """Share of clips whose head_logits argmax is their label, _EVAL_BATCH clips per pass."""
    logits = np.concatenate([head_logits(Tensor(features[i:i + _EVAL_BATCH]), head).data
                             for i in range(0, len(features), _EVAL_BATCH)])
    return int((logits.argmax(axis=-1) == labels).sum()) / len(labels)


def _grids_and_labels(dataset, params: MAEParams) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's stacked cube grids, in the parameters' dtype, and its labels."""
    grids = stack_cubes([dataset[i][0] for i in range(len(dataset))], params.pos_enc.dtype)
    return grids, np.array([dataset[i][1] for i in range(len(dataset))])


@_QUIET
def _supervised_loop(params: MAEParams, train_ds, eval_ds, config: TrainConfig,
                     trainable, lr_scales=None) -> EvalResult:
    """Cross-entropy training; an aborted run is not evaluated (accuracy nan).

    The training clips are cubified once. Without trainable encoder
    parameters (the probe), each clip is also encoded once, outside any tape,
    and every step runs only the head on the cached features: a clip's
    features do not depend on the other clips in its batch. An eval set that
    is the training set itself reuses its grids, and the probe's features.
    """
    head = init_head_params(params.config, seed=config.seed)
    all_trainable = list(trainable) + list(head.values())
    grids, labels = _grids_and_labels(train_ds, params)
    if not trainable:
        pooled = _features(grids, params)

    def loss_of(idx):
        features = clip_features(grids[idx], params) if trainable else Tensor(pooled[idx])
        return tk.cross_entropy(head_logits(features, head), labels[idx])

    trace, aborted = _train_steps(config, len(train_ds), np.random.default_rng(config.seed),
                                  OptimState(all_trainable, lr_scales), loss_of)
    if aborted:
        return EvalResult(float("nan"), params, head, trace, aborted)
    same = eval_ds is train_ds
    eval_grids, eval_labels = (grids, labels) if same else _grids_and_labels(eval_ds, params)
    features = pooled if same and not trainable else _features(eval_grids, params)
    return EvalResult(_eval_accuracy(head, features, eval_labels), params, head, trace)


def finetune(checkpoint: Checkpoint | MAEParams, train_ds, eval_ds,
             config: TrainConfig) -> EvalResult:
    """Cross-entropy training of encoder + head; the decoder is discarded."""
    params = _supervised_params(checkpoint, train_ds, eval_ds)
    scales = layer_lr_scales(params.config, config.layer_decay)
    return _supervised_loop(params, train_ds, eval_ds, config,
                            trainable=params.encoder_params(), lr_scales=scales)


def linear_probe(checkpoint: Checkpoint | MAEParams, train_ds, eval_ds,
                 config: TrainConfig) -> EvalResult:
    """Train only the classification head on a frozen encoder.

    The encoder runs once per training clip, outside any tape, so only the
    head is differentiated and the encoder's gradients are left as they were.
    """
    params = _supervised_params(checkpoint, train_ds, eval_ds)
    return _supervised_loop(params, train_ds, eval_ds, config, trainable=[])


def _supervised_params(checkpoint: Checkpoint | MAEParams, train_ds, eval_ds) -> MAEParams:
    """The parameters to train, checked against every training and eval clip's grid."""
    if len(train_ds) == 0 or len(eval_ds) == 0:
        raise ContractError("fine-tuning and probing need nonempty training and eval sets")
    params = (params_from_checkpoint(checkpoint)
              if isinstance(checkpoint, Checkpoint) else checkpoint)
    for name, ds in (("training", train_ds), ("eval", eval_ds)):
        _check_clip_grids((ds[i][0] for i in range(len(ds))), params.config.dims, name,
                          "checkpoint")
    top = max(train_ds[i][1] for i in range(len(train_ds)))
    if top >= params.config.num_classes:
        raise ConfigError(f"training label {top} needs model.num_classes > {top}, "
                          f"got {params.config.num_classes}")
    return params


def write_loss_trace(path: str, trace):
    with open(path, "w") as fh:
        fh.write("step,lr,loss\n")
        for step, lr, loss in trace:
            fh.write(f"{step},{lr:.10g},{loss:.10g}\n")
