"""Correctness checks for the benchmark's workloads.

Each check compares a program output with a value computed here, apart from
the program, or with a property the method must have. None compares with a
stored copy of an earlier output. A check raises CheckFailed with a message
naming what disagreed; it never returns a verdict to be ignored.
"""

from __future__ import annotations

import math

import numpy as np

CUBE = (2, 16, 16)  # time x height x width of one token, frozen by the method
F32_RTOL = 1e-5
GRAD_RTOL = 1e-4


class CheckFailed(Exception):
    """A program output disagreed with its independent reference."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# -- masked reconstruction loss ---------------------------------------------------

def tokenize(pixels: np.ndarray) -> np.ndarray:
    """(3, T, H, W) pixels -> (T'*H'*W', 3*2*16*16) float64 cube rows.

    Cubes are cut one at a time by slicing, rows in (t', h', w') order and
    each cube flattened as (channel, time, row, col).
    """
    ct, ch, cw = CUBE
    _, t, h, w = pixels.shape
    rows = []
    for ti in range(t // ct):
        for hi in range(h // ch):
            for wi in range(w // cw):
                cube = pixels[:, ti * ct:(ti + 1) * ct, hi * ch:(hi + 1) * ch,
                              wi * cw:(wi + 1) * cw]
                rows.append(np.asarray(cube, dtype=np.float64).ravel())
    return np.stack(rows)


def standardize(rows: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Each row minus its mean, over its (population) std plus eps."""
    mean = rows.mean(axis=1, keepdims=True)
    std = np.sqrt(((rows - mean) ** 2).mean(axis=1, keepdims=True))
    return (rows - mean) / (std + eps)


def reference_masked_mse(pixels: list, masked: np.ndarray, predictions: np.ndarray) -> float:
    """Mean over masked tokens and pixel entries of (prediction - target)^2.

    masked is (B, T', S) boolean, True where hidden; predictions (B, N, C).
    """
    total, count = 0.0, 0
    for clip_pixels, mask, pred in zip(pixels, masked, predictions):
        target = standardize(tokenize(clip_pixels))
        hidden = mask.reshape(-1)
        diff = pred.astype(np.float64)[hidden] - target[hidden]
        total += float((diff * diff).sum())
        count += diff.size
    return total / count


def check_masked_mse(pixels: list, masked: np.ndarray, predictions: np.ndarray,
                     program_loss: float):
    ref = reference_masked_mse(pixels, masked, predictions)
    require(math.isclose(program_loss, ref, rel_tol=F32_RTOL),
            f"masked_mse_loss {program_loss!r} != float64 reference {ref!r}")


# -- gradients ----------------------------------------------------------------------

def central_difference(f, flat: np.ndarray, index: int, h: float = 1e-5) -> float:
    """(f(x+h) - f(x-h)) / 2h for one entry of a float64 parameter, restoring it."""
    orig = flat[index]
    flat[index] = orig + h
    plus = f()
    flat[index] = orig - h
    minus = f()
    flat[index] = orig
    return (plus - minus) / (2.0 * h)


def check_gradients(pairs: list):
    """pairs: (label, tape gradient, central difference) for each probed entry."""
    require(len(pairs) > 0, "no gradient entries were probed")
    for label, tape_grad, numeric in pairs:
        rel = abs(tape_grad - numeric) / max(abs(tape_grad), abs(numeric), 1e-12)
        require(rel < GRAD_RTOL,
                f"{label}: tape gradient {tape_grad!r} vs central difference "
                f"{numeric!r} (relative error {rel:.2e})")


# -- training run -----------------------------------------------------------------------

def check_training_trace(trace: list, steps: int):
    """One (step, lr, loss) entry per step, in order, every loss finite."""
    require(len(trace) == steps, f"trace has {len(trace)} entries for {steps} steps")
    require([int(e[0]) for e in trace] == list(range(steps)), "trace steps out of order")
    bad = [e for e in trace if not math.isfinite(e[2])]
    require(not bad, f"non-finite loss at step {bad[0][0] if bad else None}")


def check_loss_fell(before: float, after: float, label: str):
    require(math.isfinite(before) and math.isfinite(after) and after < before,
            f"{label}: loss on a fixed batch went {before!r} -> {after!r}, did not fall")


# -- masks --------------------------------------------------------------------------------

def check_tube_masks(masks: np.ndarray, ratio: float, visible_indices: list):
    """masks (K, T', S) bool: round-half-up(ratio*S) sites hidden at every time."""
    k, t, s = masks.shape
    hidden = round_half_up(ratio * s)
    for i, m in enumerate(masks):
        require(bool((m == m[0]).all()), f"mask {i} differs between time slices")
        require(int(m[0].sum()) == hidden, f"mask {i} hides {int(m[0].sum())} of {s} sites, "
                f"expected {hidden}")
        require(len(visible_indices[i]) == t * (s - hidden),
                f"mask {i} leaves {len(visible_indices[i])} visible tokens, "
                f"expected {t * (s - hidden)}")


# -- checkpoints ---------------------------------------------------------------------------

def count_params(dims, d_enc, depth_enc, d_dec, depth_dec, mlp_ratio) -> int:
    """Trainable scalars of the encoder-decoder, summed from layer shapes."""
    cube = 3 * CUBE[0] * CUBE[1] * CUBE[2]

    def block(d):
        hidden = mlp_ratio * d
        return 2 * d + 4 * (d * d + d) + 2 * d + (d * hidden + hidden) + (hidden * d + d)

    return ((cube * d_enc + d_enc) + depth_enc * block(d_enc) + 2 * d_enc
            + (d_enc * d_dec + d_dec) + d_dec + depth_dec * block(d_dec) + 2 * d_dec
            + (d_dec * cube + cube))


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_checkpoint_roundtrip(saved, load, path: str, n_params: int, payload_bytes: int):
    """load(path) gives back every saved tensor bitwise; payload is 12 B/param.

    Parameters, first and second Adam moments are float32: 3 x 4 bytes each.
    """
    require(payload_bytes == 12 * n_params,
            f"checkpoint payload is {payload_bytes} bytes, expected 12 x {n_params}")
    try:
        loaded = load(path)
    except Exception as exc:  # a corrupt file must fail this check, whatever it raises
        raise CheckFailed(f"loading {path} failed: {exc}") from exc
    for field in ("params", "optim_m", "optim_v"):
        a, b = getattr(saved, field), getattr(loaded, field)
        require(sorted(a) == sorted(b), f"checkpoint {field} names differ after load")
        for name in a:
            require(_bitwise_equal(np.asarray(a[name], dtype=np.float32), b[name]),
                    f"checkpoint {field}/{name} is not bitwise equal after load")
    require((loaded.step, loaded.opt_step) == (saved.step, saved.opt_step),
            "checkpoint step counters differ after load")


# -- classification ---------------------------------------------------------------------------

def check_accuracy(logits: np.ndarray, labels, accuracy: float):
    """accuracy equals the recount from labels and argmax(logits)."""
    labels = np.asarray(labels)
    correct = int((np.argmax(logits, axis=-1) == labels).sum())
    require(accuracy == correct / len(labels),
            f"reported accuracy {accuracy!r} != recount {correct}/{len(labels)}")


def check_batching(batched: np.ndarray, singles: list):
    single = np.stack(singles)
    require(batched.shape == single.shape, f"batched logits {batched.shape} vs {single.shape}")
    require(np.allclose(batched, single, rtol=F32_RTOL * 10, atol=1e-5),
            "batched logits differ from one-clip-at-a-time logits by "
            f"{float(np.abs(batched - single).max()):.3g}")


def check_frozen_and_trained(before: dict, probed: dict, tuned: dict, encoder: set):
    """Probing changes nothing; fine-tuning changes the encoder, not the decoder."""
    for name, value in before.items():
        require(_bitwise_equal(value, probed[name]), f"linear probe changed {name}")
        if name not in encoder:
            require(_bitwise_equal(value, tuned[name]), f"fine-tuning changed decoder {name}")
    weights = [n for n in encoder if before[n].ndim == 2]
    require(weights, "no encoder weight matrices to compare")
    for name in weights:
        require(not _bitwise_equal(before[name], tuned[name]),
                f"fine-tuning left encoder weight {name} unchanged")


# -- ablation report ------------------------------------------------------------------------------

def check_ablation_rows(rows: list, ratios, seeds, dims, eval_clips: int):
    t, h, w = dims
    sites = h * w
    cells = sorted((float(r.value), int(r.seed)) for r in rows)
    expected = sorted((float(v), int(s)) for v in ratios for s in seeds)
    require(cells == expected, f"report cells {cells} != expected {expected}")
    for r in rows:
        ratio = float(r.value)
        visible = t * (sites - round_half_up(ratio * sites))
        require(r.visible_tokens == visible,
                f"ratio {ratio}: visible_tokens {r.visible_tokens} != {visible}")
        require(r.leakage == 0.0, f"ratio {ratio}: tube leakage {r.leakage!r} != 0")
        hits = r.accuracy * eval_clips
        require(abs(hits - round(hits)) < 1e-9 and 0 <= round(hits) <= eval_clips,
                f"ratio {ratio}: accuracy {r.accuracy!r} is not a count out of {eval_clips}")
        require(math.isfinite(r.final_pretrain_loss),
                f"ratio {ratio}: final pretrain loss {r.final_pretrain_loss!r}")
