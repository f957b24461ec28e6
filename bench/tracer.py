"""Outside-in tracing of maskvid: wraps the package's public functions in spans.

Nothing under ``src/`` is changed. While a Tracer is installed, every public
function defined in a layer module is replaced, in every ``maskvid.*`` module
that binds it (``from .model import mae_forward_batch`` makes a second
binding), by a wrapper that records a span: name, start, end and the span
that called it. ``Tape.record`` is wrapped so that the backward closure of
each recorded op gets a span of its own (``tensor.<op>.bwd``), and
``Tape.backward`` gets a span. Counts (rows, tokens, tape entries, bytes,
flops) are taken at the same boundaries, from shapes.

Spans are kept in memory and written out by ``write``. Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("video", "masking", "model", "tensor", "training", "experiments")
ROOT = "bench.round"


def _rows(shape) -> int:
    n = 1
    for extent in shape[:-1]:
        n *= int(extent)
    return n


def _matmul_flops(a_shape, b_shape) -> int:
    """2*M*K*N per batch element of one matmul, from operand shapes."""
    return 2 * _rows(a_shape) * int(a_shape[-1]) * int(b_shape[-1])


class Tracer:
    """Span recorder plus the patching that feeds it.

    Use as a context manager around the calls to trace; the package is
    restored on exit. Totals accumulate across every traced interval.
    """

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child_time, span_index]
        self.spans: list[tuple] = []   # (name, start, end, parent_index)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple] = []
        self._tensor_ops: set[str] = set()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def _close(self):
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        dur = end - start
        self.spans[index] = (name, start, end, self.spans[index][3])
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    # -- counters taken at layer boundaries -----------------------------------

    def _count_embed(self, args, kwargs, out):
        self.counts["model.embed_rows"] += _rows(args[0].shape)

    def _count_encode(self, args, kwargs, out):
        self.counts["model.encoder_tokens"] += _rows(args[0].shape)

    def _count_decode(self, args, kwargs, out):
        self.counts["model.decoder_out_rows"] += _rows(out.shape)

    def _count_matmul(self, args, kwargs, out):
        self.counts["tensor.matmul_flop"] += _matmul_flops(args[0].shape, args[1].shape)

    def _count_mask(self, args, kwargs, out):
        self.counts["masking.masks"] += 1

    def _count_ckpt(self, args, kwargs, out):
        self.counts["training.ckpt_bytes"] += os.path.getsize(args[1])
        self.counts["training.ckpt_saves"] += 1

    def _record(self, original):
        tracer = self

        def record(tape, output, inputs, backward_fn):
            top = tracer._stack[-1][0] if tracer._stack else ""
            op = top if top in tracer._tensor_ops else "tensor.other"
            tracer.counts["tensor.tape_entries"] += 1
            tracer.counts["tensor.recorded_bytes"] += output.data.nbytes
            after = None
            if op == "tensor.matmul":
                flops = 2 * _matmul_flops(inputs[0].shape, inputs[1].shape)

                def after(args, kwargs, out):
                    tracer.counts["tensor.matmul_flop"] += flops
            bwd = tracer._wrap(op + ".bwd", backward_fn, after)
            return original(tape, output, inputs, bwd)
        return record

    def _count_backward(self, args, kwargs, out):
        self.counts["tensor.backward_calls"] += 1

    # -- patching ---------------------------------------------------------------

    def _public_functions(self):
        for layer in LAYERS:
            module = sys.modules[f"maskvid.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    yield layer, attr, value

    def __enter__(self) -> "Tracer":
        after = {
            "model.cube_embed": self._count_embed,
            "model.encode": self._count_encode,
            "model.decode": self._count_decode,
            "tensor.matmul": self._count_matmul,
            "masking.make_mask": self._count_mask,
            "training.save_checkpoint": self._count_ckpt,
        }
        wrappers = {}
        for layer, attr, fn in self._public_functions():
            name = f"{layer}.{attr}"
            if layer == "tensor":
                self._tensor_ops.add(name)
            wrappers[id(fn)] = self._wrap(name, fn, after.get(name))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "maskvid" or n.startswith("maskvid.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        tape = sys.modules["maskvid.tensor"].Tape
        for attr, wrapper in (("record", self._record(tape.record)),
                              ("backward", self._wrap("tensor.Tape.backward", tape.backward,
                                                      self._count_backward))):
            self._patched.append((tape, attr, vars(tape)[attr]))
            setattr(tape, attr, wrapper)
        return self

    def __exit__(self, exc_type, exc, tb):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()
        return False

    # -- output -------------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += secs
        return out

    def write(self, path: str):
        """Spans as [name, start_s, end_s, parent_index] rows, plus the totals."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "spans": [[code[n], round(s - t0, 7), round(e - t0, 7), p]
                      for n, s, e, p in self.spans],
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
