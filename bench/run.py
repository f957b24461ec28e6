"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload pretrain-tube90 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program under test is imported from
``src/`` of that checkout and nowhere else. With ``--trace 0`` the last line
of standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` rounds alternate untraced and traced, and it holds every
per-layer metric. ``--write-benchmark-json`` writes BENCHMARK.json from the
definitions below and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback

from tracer import LAYERS, ROOT as ROOT_SPAN, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.basename(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, BENCH_DIR, "out")
RUN_SECONDS = 30
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_WHY = {
    "pretrain-tube90": "tube mask at 0.9: 16 of 200 tokens reach the encoder, so the "
                       "pixel path (embedding, gather, masked MSE, output rows) dominates; "
                       "ends in a checkpoint save and load",
    "transfer": "fine-tune, linear probe and 64-clip eval from a saved checkpoint: the "
                "200-token encoder does the work, decoder, masks and pixel loss are bypassed",
    "ablate-ratio": "run_ablation over ratios 0.5/0.75/0.9 with short budgets: 96 to 16 "
                    "encoder tokens per clip, plus the harness's own leakage probe and data",
}

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.25),
    ("train_clips_per_s", "clips/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

TENSOR_OPS = ("matmul", "add", "sub", "mul", "scale", "gelu", "softmax", "layer_norm",
              "gather_rows", "scatter_rows", "reduce_mean", "mean_axis", "cross_entropy",
              "reshape", "permute", "transpose")
# name, unit, better; shares (%) are of the traced time of the rounds
PER_LAYER = (
    [("trace.step_ms", "ms", "lower"),
     ("trace.overhead_ms_per_step", "ms", "lower"),
     ("trace.self_sum_pct", "%", "higher")]
    + [(f"{layer}.self_pct", "%", "lower") for layer in LAYERS]
    + [("video.synth_ms_per_clip", "ms", "lower"),
       ("video.cubify_pct", "%", "lower"),
       ("video.normalize_targets_pct", "%", "lower"),
       ("masking.make_mask_pct", "%", "lower"),
       ("masking.leakage_probe_pct", "%", "lower"),
       ("masking.masks_per_step", "count", "lower"),
       ("model.forward_pct", "%", "lower"),
       ("model.cube_embed_pct", "%", "lower"),
       ("model.encode_pct", "%", "lower"),
       ("model.decode_pct", "%", "lower"),
       ("model.classify_pct", "%", "lower"),
       ("model.embed_rows_per_step", "count", "lower"),
       ("model.decoder_out_rows_per_step", "count", "lower"),
       ("model.encoder_tokens_per_step", "count", "lower")]
    + [(f"tensor.{op}.{d}_pct", "%", "lower") for op in TENSOR_OPS for d in ("fwd", "bwd")]
    + [("tensor.tape_entries_per_step", "count", "lower"),
       ("tensor.backward_calls_per_step", "count", "lower"),
       ("tensor.recorded_mb_per_step", "MB", "lower"),
       ("tensor.matmul_gflop_per_step", "GFLOP", "lower"),
       ("training.pretrain_pct", "%", "lower"),
       ("training.finetune_pct", "%", "lower"),
       ("training.probe_pct", "%", "lower"),
       ("training.backward_pct", "%", "lower"),
       ("training.loss_pct", "%", "lower"),
       ("training.adamw_pct", "%", "lower"),
       ("training.loop_self_pct", "%", "lower"),
       ("training.ckpt_save_pct", "%", "lower"),
       ("training.ckpt_load_pct", "%", "lower"),
       ("training.ckpt_mb", "MB", "lower")]
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", f"{BENCH_DIR}/run.py"],
        "paths": [BENCH_DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# -- environment --------------------------------------------------------------------

def limit_threads():
    """One BLAS/OpenMP thread; must run before numpy is imported.

    At these sizes a second BLAS thread bought no speed on a 2-core machine
    and made every GEMM wait on the other core, which made runs noisier. The
    other core stays free for process-level parallelism.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_sha(root: str) -> str:
    """HEAD's commit from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def import_maskvid():
    """Import maskvid from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import maskvid
    import maskvid.experiments  # noqa: F401  (every layer module, for tracing)
    where = os.path.dirname(os.path.abspath(maskvid.__file__))
    if os.path.dirname(where) != src:
        raise ImportError(f"maskvid was imported from {where}, not from {src}")
    return maskvid


# -- one run ---------------------------------------------------------------------------

def run_workload(mv, name: str, seed: int, seconds: float, trace: bool, geom,
                 import_s: float = 0.0, trace_path: str | None = None) -> dict:
    """Set up, repeat whole rounds for `seconds`, check outputs, return the result."""
    from calibration import REF_S, Calibration
    from checks import CheckFailed
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    cal = Calibration()  # times below are in reference seconds: see calibration.py
    import_s *= REF_S / cal.times[0]
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as workdir:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = WORKLOADS[name](mv, geom, seed, workdir)
            wl.setup()
            setup_scale = cal.scale()
            setup_times.append((time.perf_counter() - t) * setup_scale)

        tracer = Tracer() if trace else None
        min_rounds = 2 if trace else 1
        plain, traced = [], []
        attempted = failed = 0
        start = time.perf_counter()
        r = 0
        while True:
            done = [x.round_s for x in plain + traced]
            if len(done) >= min_rounds and (time.perf_counter() - start
                                            + statistics.median(done) > seconds):
                break
            if r >= min_rounds and not done:
                break  # every round so far failed
            wl.ops_done = 0
            traced_round = trace and r % 2 == 1
            try:
                if traced_round:
                    with tracer:
                        result = tracer.span(ROOT_SPAN, wl.round, r)
                else:
                    result = wl.round(r)
                result.scale = cal.scale()
                (traced if traced_round else plain).append(result)
            except Exception:  # an operation failed: count it and the rest of its round
                failed += wl.ops - wl.ops_done
                traceback.print_exc(file=sys.stderr)
                cal.scale()
            attempted += wl.ops
            r += 1

        correct = True
        try:
            wl.check()
        except CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:
            correct = False
            traceback.print_exc(file=sys.stderr)

        if not plain or (trace and not traced):
            raise RuntimeError(f"{name}: no round completed")
        details = dict(phase_rates(plain), **wl.summary())
        if trace:
            metrics = per_layer_metrics(tracer, plain, traced, wl, setup_scale)
            if trace_path:
                tracer.write(trace_path)
        else:
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "round_s": statistics.median(x.round_s * x.scale for x in plain),
                "train_clips_per_s": statistics.median(x.train_clips / (x.train_s * x.scale)
                                                       for x in plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = {n: u for n, u, *_ in END_TO_END + tuple(PER_LAYER)}
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
            "details": dict(details, calibration_s=cal.times, import_s=import_s,
                            setup_samples_s=setup_times,
                            raw_round_s=[x.round_s for x in plain + traced],
                            round_scale=[x.scale for x in plain + traced]),
        }


def phase_rates(rounds) -> dict:
    """Median rate of each phase over the rounds, in items per reference second."""
    names = rounds[0].phases
    return {f"{phase}_per_s": statistics.median(x.phases[phase][1] / (x.phases[phase][0] * x.scale)
                                                for x in rounds)
            for phase in names}


def per_layer_metrics(tr, plain, traced, wl, setup_scale: float) -> dict:
    total = tr.incl_s[ROOT_SPAN]
    steps = sum(x.steps for x in traced)
    traced_ms = statistics.median(1e3 * x.round_s * x.scale / x.steps for x in traced)
    plain_ms = statistics.median(1e3 * x.round_s * x.scale / x.steps for x in plain)
    incl, self_s, counts = tr.incl_s, tr.self_s, tr.counts

    def pct(*names, table=incl):
        return 100.0 * sum(table.get(n, 0.0) for n in names) / total

    layers = tr.layer_self_s()
    m = {"trace.step_ms": traced_ms,
         "trace.overhead_ms_per_step": traced_ms - plain_ms,
         "trace.self_sum_pct": 100.0 * sum(layers.values()) / total}
    m.update({f"{layer}.self_pct": 100.0 * layers[layer] / total for layer in LAYERS})
    m.update({
        "video.synth_ms_per_clip": setup_scale * 1e3 * wl.synth_s / max(1, wl.synth_clips),
        "video.cubify_pct": pct("video.cubify"),
        "video.normalize_targets_pct": pct("video.normalize_cube_targets"),
        "masking.make_mask_pct": pct("masking.make_mask"),
        "masking.leakage_probe_pct": pct("masking.leakage_probe"),
        "masking.masks_per_step": counts["masking.masks"] / steps,
        "model.forward_pct": pct("model.mae_forward_batch"),
        "model.cube_embed_pct": pct("model.cube_embed"),
        "model.encode_pct": pct("model.encode"),
        "model.decode_pct": pct("model.decode"),
        "model.classify_pct": pct("model.classify"),
        "model.embed_rows_per_step": counts["model.embed_rows"] / steps,
        "model.decoder_out_rows_per_step": counts["model.decoder_out_rows"] / steps,
        "model.encoder_tokens_per_step": counts["model.encoder_tokens"] / steps,
    })
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_pct"] = pct(f"tensor.{op}", table=self_s)
        m[f"tensor.{op}.bwd_pct"] = pct(f"tensor.{op}.bwd", table=self_s)
    saves = counts["training.ckpt_saves"]
    m.update({
        "tensor.tape_entries_per_step": counts["tensor.tape_entries"] / steps,
        "tensor.backward_calls_per_step": counts["tensor.backward_calls"] / steps,
        "tensor.recorded_mb_per_step": counts["tensor.recorded_bytes"] / 2**20 / steps,
        "tensor.matmul_gflop_per_step": counts["tensor.matmul_flop"] / 1e9 / steps,
        "training.pretrain_pct": pct("training.pretrain"),
        "training.finetune_pct": pct("training.finetune"),
        "training.probe_pct": pct("training.linear_probe"),
        "training.backward_pct": pct("tensor.Tape.backward"),
        "training.loss_pct": pct("training.masked_mse_loss", "tensor.cross_entropy"),
        "training.adamw_pct": pct("training.adamw_step"),
        "training.loop_self_pct": pct("training.pretrain", "training.finetune",
                                      "training.linear_probe", table=self_s),
        "training.ckpt_save_pct": pct("training.save_checkpoint"),
        "training.ckpt_load_pct": pct("training.load_checkpoint"),
        "training.ckpt_mb": counts["training.ckpt_bytes"] / 2**20 / saves if saves else 0.0,
    })
    return m


# -- command line -------------------------------------------------------------------------

def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    limit_threads()
    try:
        mv = import_maskvid()
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    from workloads import FULL

    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = os.path.join(OUT, "traces", tag + ".json") if args.trace else None
    try:
        result = run_workload(mv, args.workload, args.seed, args.seconds, bool(args.trace),
                              FULL, import_s, trace_path)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    env = environment()
    details = result.pop("details")
    print("env " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump(dict(result, env=env, details=details, workload=args.workload,
                       seed=args.seed, seconds=args.seconds), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
