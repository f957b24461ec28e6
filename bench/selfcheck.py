"""Fast self-check of the benchmark (about ten seconds).

    python3 bench/selfcheck.py

1. Runs every workload on the tiny geometry for a few rounds, untraced and
   traced, and requires correct outputs, no failed operation and exactly the
   metrics BENCHMARK.json declares.
2. Plants a wrong value in front of each correctness check and requires the
   check to fail: perturbed predictions (masked MSE), a perturbed tape
   gradient, a non-finite or missing training-trace entry, a loss that did
   not fall, a mask that varies over time, one flipped checkpoint payload
   byte, an off-by-one correct count (accuracy), a perturbed batched logit,
   a changed frozen or decoder parameter, and wrong ablation-report cells.
3. Requires BENCHMARK.json to equal what run.py's definitions produce.

Exits 0 when every step holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import run

run.limit_threads()
mv = run.import_maskvid()

import numpy as np  # noqa: E402  (after the thread cap)

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import TINY  # noqa: E402

FAILURES = []


def expect(condition: bool, label: str):
    print(("ok    " if condition else "FAIL  ") + label)
    if not condition:
        FAILURES.append(label)


def expect_caught(label: str, check, *args):
    try:
        check(*args)
    except CheckFailed as exc:
        expect(True, f"planted {label}: caught ({exc})")
    else:
        expect(False, f"planted {label}: not caught")


def run_every_workload():
    e2e = {n for n, *_ in run.END_TO_END}
    layer = {n for n, *_ in run.PER_LAYER}
    for name in run.WORKLOAD_WHY:
        for trace in (False, True):
            result = run.run_workload(mv, name, seed=3, seconds=0.5, trace=trace, geom=TINY)
            tag = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: correct, {result['attempted']} attempted, {result['failed']} failed")
            expect(set(result["metrics"]) == (layer if trace else e2e),
                   f"{tag}: reports exactly the declared metrics")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(np.isfinite(values)), f"{tag}: every metric is finite")


def plant_pretrain(workdir: str):
    wl = workloads.PretrainTube90(mv, TINY, 5, workdir)
    wl.setup()
    for r in range(2):
        wl.round(r)
    params = wl.params()

    pixels, masked, pred, loss = wl.loss_case(params)
    checks.check_masked_mse(pixels, masked, pred, loss)
    expect_caught("perturbed predictions", checks.check_masked_mse,
                  pixels, masked, pred + 1e-2, loss)

    pairs = wl.gradient_pairs(params)
    checks.check_gradients(pairs)
    label, grad, numeric = pairs[0]
    expect_caught("perturbed tape gradient", checks.check_gradients,
                  [(label, grad * (1 + 1e-3), numeric)] + pairs[1:])

    trace = wl.traces[0]
    checks.check_training_trace(trace, TINY.pretrain_steps)
    nan_trace = trace[:-1] + [(trace[-1][0], trace[-1][1], float("nan"))]
    expect_caught("non-finite step loss", checks.check_training_trace,
                  nan_trace, TINY.pretrain_steps)
    expect_caught("missing trace entry", checks.check_training_trace,
                  trace[:-1], TINY.pretrain_steps)
    expect_caught("loss that rose", checks.check_loss_fell, 0.2, 0.2000001, "planted")

    masks, visible = wl.drawn_masks(np.random.default_rng(0), 8)
    checks.check_tube_masks(masks, TINY.ratio, visible)
    bent = masks.copy()
    site = int(np.flatnonzero(bent[0, 0])[0])
    bent[0, -1, site] = False
    expect_caught("mask that varies over time", checks.check_tube_masks,
                  bent, TINY.ratio, visible)

    nbytes = workloads.payload_bytes(wl.path)
    checks.check_checkpoint_roundtrip(wl.last, mv.training.load_checkpoint, wl.path,
                                      TINY.n_params(), nbytes)
    with open(wl.path, "r+b") as fh:
        fh.seek(-nbytes // 2, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x01]))
    expect_caught("flipped checkpoint payload byte", checks.check_checkpoint_roundtrip,
                  wl.last, mv.training.load_checkpoint, wl.path, TINY.n_params(), nbytes)


def plant_transfer(workdir: str):
    wl = workloads.Transfer(mv, TINY, 5, workdir)
    wl.setup()
    wl.round(0)
    ckpt, ft, probe, logits = wl.last
    clips = [c for c, _ in wl.labelled]
    labels = np.array([label for _, label in wl.labelled])
    recount = mv.model.classify(clips, ft.params, ft.head).data
    checks.check_accuracy(recount, labels, ft.accuracy)
    n = len(labels)
    correct = round(ft.accuracy * n)
    wrong = (correct + 1 if correct < n else correct - 1) / n
    expect_caught("off-by-one correct count", checks.check_accuracy, recount, labels, wrong)

    singles = [mv.model.classify(wl.held_out[i][0], ft.params, ft.head).data for i in range(2)]
    checks.check_batching(logits[:2], singles)
    bumped = logits[:2].copy()
    bumped[1, 0] += 1e-2
    expect_caught("perturbed batched logit", checks.check_batching, bumped, singles)

    encoder = {p.name for p in ft.params.encoder_params()}
    tuned = {n: p.value.data for n, p in ft.params.params.items()}
    probed = {n: p.value.data for n, p in probe.params.params.items()}
    checks.check_frozen_and_trained(ckpt.params, probed, tuned, encoder)
    moved = dict(probed, **{"enc/block0/w1": probed["enc/block0/w1"] + 1e-3})
    expect_caught("probe that moved the encoder", checks.check_frozen_and_trained,
                  ckpt.params, moved, tuned, encoder)
    moved = dict(tuned, **{"out/w": tuned["out/w"] + 1e-3})
    expect_caught("fine-tune that moved the decoder", checks.check_frozen_and_trained,
                  ckpt.params, probed, moved, encoder)
    still = dict(tuned, **{n: ckpt.params[n] for n in encoder})
    expect_caught("fine-tune that left the encoder", checks.check_frozen_and_trained,
                  ckpt.params, probed, still, encoder)


def plant_ablation(workdir: str):
    wl = workloads.AblateRatio(mv, TINY, 5, workdir)
    wl.setup()
    wl.round(0)
    rows = wl.rows[0]
    args = (TINY.ablate_ratios, [5], TINY.dims, TINY.ablate_eval_clips)
    checks.check_ablation_rows(rows, *args)
    for label, field, value in (("wrong visible-token count", "visible_tokens",
                                 rows[0].visible_tokens + 1),
                                ("nonzero tube leakage", "leakage", 0.01),
                                ("accuracy that is no count", "accuracy",
                                 0.5 / TINY.ablate_eval_clips)):
        bad = [dataclasses.replace(rows[0], **{field: value})] + rows[1:]
        expect_caught(label, checks.check_ablation_rows, bad, *args)
    expect_caught("missing report row", checks.check_ablation_rows, rows[1:], *args)


def main() -> int:
    run_every_workload()
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="tmp-") as workdir:
        plant_pretrain(workdir)
        plant_transfer(workdir)
        plant_ablation(workdir)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        expect(json.load(fh) == run.benchmark_json(), "BENCHMARK.json matches run.py")
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
