"""Dense tensors with a recorded-operation tape for reverse-mode differentiation.

The engine is deliberately small: numpy arrays carry the data, a Tape records
every primitive application in execution order, and backward() replays the
tape in reverse. Float32 is the training dtype; float64 exists for gradient
checking only.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent import futures
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError, NumericError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-6  # added to the variance under every layer norm's square root


class Tensor:
    """N-dimensional array plus autodiff bookkeeping.

    A Tensor is a leaf (user-created, optionally requires_grad) or the output
    of a recorded primitive. Leaf gradients accumulate in .grad; intermediate
    gradients live only inside a backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op_output")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = False
        self.grad: Optional[np.ndarray] = None
        self._op_output = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Param:
    """Named trainable tensor with an always-allocated gradient buffer."""

    def __init__(self, value, name: str, dtype=np.float32):
        tensor = Tensor(np.asarray(value, dtype=dtype))
        tensor.requires_grad = True
        tensor.grad = np.zeros_like(tensor.data)
        self.value = tensor
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        return self.value.grad

    def zero_grad(self):
        # in place: a trained Param's gradient is a view into its training store
        self.value.grad.fill(0)

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape})"


class _TapeEntry:
    __slots__ = ("output", "inputs", "backward")

    def __init__(self, output, inputs, backward):
        self.output = output
        self.inputs = inputs
        self.backward = backward


_ACTIVE_TAPE: Optional["Tape"] = None


class Tape:
    """Ordered record of primitive applications.

    Ops append themselves in execution order, so the list is already
    topologically sorted; backward() visits each entry exactly once in
    reverse.
    """

    def __init__(self):
        self._entries: list[_TapeEntry] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return len(self._entries)

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
        self._entries.append(_TapeEntry(output, inputs, backward_fn))

    def backward(self, loss: Tensor):
        """Propagate d(loss)/d(leaf) into every reachable leaf's .grad."""
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for entry in reversed(self._entries):
            g = grads.pop(id(entry.output), None)
            if g is None:
                continue
            input_grads = entry.backward(g)
            for inp, gi in zip(entry.inputs, input_grads):
                if gi is None or not isinstance(inp, Tensor) or not inp.requires_grad:
                    continue
                if inp._op_output:
                    key = id(inp)
                    if key in grads:
                        grads[key] = grads[key] + gi
                    else:
                        grads[key] = gi
                else:
                    inp.accumulate_grad(gi)


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    tape = _ACTIVE_TAPE
    if tape is not None and any(isinstance(t, Tensor) and t.requires_grad for t in inputs):
        out.requires_grad = True
        out._op_output = True
        tape.record(out, inputs, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- the second core --------------------------------------------------------

# Units of work each half of a split call must hold for the worker thread to
# pay for its handoff, counted in attention score entries; _by_clips names
# each op's equivalent. Measured in situ on 2 cores, in fine-tune and
# pretraining steps: attention halves of 160,000 entries or fewer were
# slower, of 204,800 or more faster. linear and attention_block set their
# units so that their crossovers fall on the same floor: a block of 48
# encoder tokens (178,176 units a half at batch 4) was no faster split, one
# of 88 or 96 tokens 7% faster. So do pixel_mse and video.stack_cubes: a
# pixel loss half of one clip's 100 masked rows (153,600 entries) was no
# faster split, of 184 rows (282,624) 7% faster; a half of 16-token clips
# with targets (24,576 entries) was slower, of 32 tokens (49,152) faster; a
# half of bare cubes was no faster below 200 tokens (307,200 entries).
_SPLIT_FLOOR = 200_000
_POOL: Optional[futures.ThreadPoolExecutor] = None


def _forget_pool():  # a forked child has the pool but not its thread
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_forget_pool)


def _by_clips(fn: Callable, clips: int, per_clip: int):
    """fn(...) here, or fn(slice(0, mid)) here while the worker thread runs
    fn(slice(mid, clips)), when the process may use two cores and each half
    holds at least _SPLIT_FLOOR units of per_clip work. A unit is one
    attention score entry. attention_block counts heads x N^2 + 3.5 x N x
    hidden + N x D x (4D + 2 hidden) / 64 per clip: its scores, its GELU
    elements at 3.5 each, and its GEMMs at 64 multiply-adds each. linear
    counts rows x K x M / 32 per clip, none when K < 64. pixel_mse counts
    one per output entry, rows x M. video.stack_cubes counts per token
    entry (N x 1536 a clip) one to stack cubes and five to stack them with
    their normalized targets. If the worker has not started its half by
    the time this one is done (its core is busy elsewhere), that half runs
    here too.

    fn must call only numpy and scipy on array slices (which release the
    GIL), never maskvid's public functions or the tape, and write each clip
    into its own slice of outputs allocated up front. The worker runs its
    half in a copy of the caller's context, so the caller's np.errstate
    holds on both threads.
    """
    global _POOL
    mid = (clips + 1) // 2
    if clips < 2 or (clips - mid) * per_clip < _SPLIT_FLOOR:
        return fn(...)
    if _POOL is None:
        if len(os.sched_getaffinity(0)) < 2:
            return fn(...)
        _POOL = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="maskvid")
    upper = _POOL.submit(contextvars.copy_context().run, fn, slice(mid, clips))
    try:
        fn(slice(0, mid))
    finally:
        here = upper.cancel()
        if not here:
            futures.wait([upper])  # if this half raised, the worker is still writing
    if here:
        fn(slice(mid, clips))
    else:
        upper.result()


# -- kernels -------------------------------------------------------------------
#
# numpy passes over one slice of clips that write into arrays the caller
# allocated. The public ops and attention_block share them, so each op's
# arithmetic exists once, and a split's worker thread runs nothing else.

def _affine(x, w, b, out):
    """x @ w + b into out."""
    np.matmul(x, w, out=out)
    out += b


def _affine_grads(x, w, g, gx, gw):
    """x's gradient g @ w^T into gx and w's, x^T @ g per clip, into gw; either may be None."""
    if gx is not None:
        np.matmul(g, w.T, out=gx)
    if gw is not None:
        np.matmul(np.swapaxes(x, -1, -2), g, out=gw)


def _normalize(x, gamma, beta, eps, xhat, inv, out):
    """Layer norm over the last axis: xhat, 1/std (..., 1) and xhat * gamma + beta
    into out, which is scratch until then."""
    np.subtract(x, x.mean(axis=-1, keepdims=True), out=xhat)
    var = np.multiply(xhat, xhat, out=out).mean(axis=-1, keepdims=True)
    np.divide(1.0, np.sqrt(var + eps), out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=out)
    out += beta


def _normalize_grads(g, gamma, xhat, inv, gxhat, dx):
    """_normalize's input gradient into dx, then g * xhat (gamma's gradient
    before the sum over rows) into gxhat, which is scratch until then."""
    dxhat = np.multiply(g, gamma, out=dx)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.multiply(dxhat, xhat, out=gxhat).mean(axis=-1, keepdims=True)
    dxhat -= m1  # inv * (dxhat - m1 - xhat * m2), op for op
    dxhat -= np.multiply(xhat, m2, out=gxhat)
    dxhat *= inv
    np.multiply(g, xhat, out=gxhat)


def _gelu(x, cdf, out):
    """Exact GELU x * Phi(x) into out, Phi(x) = 0.5 * (1 + erf(x / sqrt2)) into cdf.

    erf runs on |x / sqrt2|, and the sign comes back from fmin(x / sqrt2, 0),
    built in out. That is bitwise erf of the signed input: scipy's erf is odd
    bit for bit and returns one NaN for either sign, and fmin gives a NaN the
    sign +, as copysign from the input would not. On inputs of mixed sign,
    erf's own branch on the sign mispredicts; on |x| it does not, and the
    pass takes about two thirds of the time.
    """
    np.multiply(x, _INV_SQRT2, out=cdf)
    np.fmin(cdf, 0.0, out=out)
    np.abs(cdf, out=cdf)
    erf(cdf, out=cdf)
    np.copysign(cdf, out, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    np.multiply(x, cdf, out=out)


def _gelu_grads(x, cdf, g, gx):
    """g * (cdf + x * pdf) into gx, pdf = exp(-x * x / 2) / sqrt(2 pi) built there."""
    np.multiply(x, -0.5, out=gx)
    gx *= x
    np.exp(gx, out=gx)
    gx *= _INV_SQRT2PI
    gx *= x
    gx += cdf
    np.multiply(g, gx, out=gx)


def _sq_err(pred, t, diff, sq):
    """pred - t into diff (which may be pred) and its square into sq."""
    np.subtract(pred, t, out=diff)
    np.multiply(diff, diff, out=sq)


def _sq_err_grads(diff, scale, gp):
    """diff * scale * 2 into gp: the gradient of the mean squared error when
    scale is the upstream gradient over the number of entries."""
    np.multiply(diff, scale, out=gp)
    gp *= 2


def _rows_bias_grad(g, rows) -> np.ndarray:
    """The bias gradient of (B, K, D) g summed as over the whole grid that
    its (B, K) `rows` index: per grid row over the clips first, then over grid
    rows in ascending order."""
    per_row = np.zeros((int(rows.max(initial=0)) + 1, g.shape[-1]), dtype=g.dtype)
    for gi, ri in zip(g, rows):
        per_row[ri] += gi
    return per_row.sum(axis=0)


def _carve(dtype, *shapes) -> list:
    """Uninitialized arrays of these shapes, views into one allocation.

    A pass that allocates many large intermediates one by one and frees them
    together makes malloc mmap each one, or hand the freed heap back to the
    kernel, so the next pass faults its memory in afresh, page by page. One
    allocation per pass raises malloc's mmap and trim thresholds instead,
    and later passes reuse the heap.
    """
    sizes = [math.prod(shape) for shape in shapes]
    starts = np.cumsum([0] + [-(-size // 16) * 16 for size in sizes])  # 16-element aligned
    flat = np.empty(int(starts[-1]), dtype)
    return [flat[start:start + size].reshape(shape)
            for start, size, shape in zip(starts, sizes, shapes)]


def _heads(a, heads: int):
    """(..., N, D) -> (..., heads, N, D / heads), a view of a contiguous a."""
    return np.swapaxes(a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)), -3, -2)


def _keys_grad(gk):
    """_attend_grads' (..., heads, dh, N) key gradient as a (..., N, D) view.

    Its consumers sum it in this memory order; a contiguous copy would move
    the last bits of the key bias's gradient.
    """
    *lead, heads, dh, n = gk.shape
    return np.swapaxes(gk.reshape(tuple(lead) + (heads * dh, n)), -1, -2)


def _attend(q, k, v, heads: int, s, out):
    """Multi-head softmax(q k^T / sqrt(dh)) v of (..., N, D) q, k, v into out.

    Each of q, k, v is split into `heads` slices of width dh = D / heads,
    every query attends to every key of its head, and the heads' outputs are
    concatenated back. The softmax goes into s, (..., heads, N, N).
    """
    c = 1.0 / math.sqrt(q.shape[-1] / heads)
    np.matmul(_heads(q, heads), np.swapaxes(_heads(k, heads), -1, -2), out=s)
    s *= c  # an in-place softmax, op for op the out-of-place one
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    np.matmul(s, _heads(v, heads), out=_heads(out, heads))


def _attend_grads(g, q, k, v, s, heads: int, gs, prod, gq, gk, gv):
    """_attend's gradients for upstream g: q's and v's into gq and gv, k's
    into gk in the (..., heads, dh, N) layout of its product (_keys_grad).

    gs and prod are score-sized scratch; the score gradient
    gsc = s * (gs - rowsum(gs * s)) * c is built in gs.
    """
    c = 1.0 / math.sqrt(q.shape[-1] / heads)
    g4 = _heads(g, heads)
    np.matmul(g4, np.swapaxes(_heads(v, heads), -1, -2), out=gs)
    np.matmul(np.swapaxes(s, -1, -2), g4, out=_heads(gv, heads))
    gs -= np.multiply(gs, s, out=prod).sum(axis=-1, keepdims=True)
    gs *= s
    gs *= c
    np.matmul(gs, _heads(k, heads), out=_heads(gq, heads))
    np.matmul(np.swapaxes(_heads(q, heads), -1, -2), gs, out=gk)


# -- elementwise primitives ---------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bwd)


# -- linear algebra -------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor, rows: Optional[np.ndarray] = None) -> Tensor:
    """x @ w + b over the last axis of x.

    rows, if given, names the (B, K) grid rows, unique per clip, of a larger
    token grid that a (B, K, D) x holds. The bias gradient is then summed as
    over the whole grid: per grid row over the clips first, then over grid
    rows in ascending order, so projecting a row subset leaves it bitwise that
    of the full grid, whose other rows contribute exact zeros.
    """
    idx = None if rows is None else np.asarray(rows)
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]
            or (idx is not None and (idx.ndim != 2 or idx.shape != x.shape[:-1]))):
        raise DimensionError(f"linear: x {x.shape}, w {w.shape}, b {b.shape}, "
                             f"rows {None if idx is None else idx.shape}")
    xd, wd = x.data, w.data
    k, m = wd.shape
    # a 2-D x is one GEMM: split by rows, its weight gradient would be summed
    # in another order. A GEMM with K < 64 is bound by writing its output.
    clips = xd.shape[0] if xd.ndim > 2 else 1
    per_clip = math.prod(xd.shape[1:-1]) * k * m // 32 if k >= 64 else 0
    out = np.empty(xd.shape[:-1] + (m,), np.result_type(xd, wd))

    _by_clips(lambda ix: _affine(xd[ix], wd, b.data, out[ix]), clips, per_clip)

    def bwd(g):
        # an operand that needs no gradient (raw cube tokens, a frozen
        # weight) gets none computed
        gx = np.empty(g.shape[:-1] + (k,), np.result_type(g, wd)) if x.requires_grad else None
        # one weight gradient per clip, summed over clips by _unbroadcast
        gw = np.empty(xd.shape[:-2] + (k, m), np.result_type(xd, g)) if w.requires_grad else None

        _by_clips(lambda ix: _affine_grads(xd[ix], wd, g[ix], None if gx is None else gx[ix],
                                           None if gw is None else gw[ix]), clips, per_clip)
        gb = None
        if gw is not None:
            gw = _unbroadcast(gw, w.shape)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape) if idx is None else _rows_bias_grad(g, idx)
        return gx, gw, gb

    return _record(Tensor(out), (x, w, b), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.shape
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        return (g.reshape(orig),)

    return _record(out, (x,), bwd)


# -- normalization ----------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine width mismatch: x has D={d}, gamma {gamma.shape}, beta {beta.shape}"
        )
    xd = x.data
    xhat, inv = np.empty_like(xd), np.empty(xd.shape[:-1] + (1,), xd.dtype)
    out = np.empty_like(xd, dtype=np.result_type(xd, gamma.data, beta.data))
    _normalize(xd, gamma.data, beta.data, _LN_EPS, xhat, inv, out)

    def bwd(g):
        gxhat, dx = np.empty_like(g), np.empty_like(g)
        _normalize_grads(g, gamma.data, xhat, inv, gxhat, dx)
        return dx, _unbroadcast(gxhat, gamma.shape), _unbroadcast(g, beta.shape)

    return _record(Tensor(out), (x, gamma, beta), bwd)


# -- reductions -------------------------------------------------------------

def mean_axis(x: Tensor, axis: int) -> Tensor:
    n = x.shape[axis]
    out = Tensor(x.data.mean(axis=axis))

    def bwd(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _record(out, (x,), bwd)


# -- gather / scatter --------------------------------------------------------

def _row_index(x: Tensor, indices: np.ndarray, name: str) -> tuple:
    """An advanced index that picks the (B, K) rows `indices` of (B, N, D) x.

    Plain advanced indexing: np.take_along_axis/put_along_axis are an order
    of magnitude slower on (B, N, 1536) pixel arrays.
    """
    idx = np.asarray(indices)
    if x.data.ndim != 3 or idx.ndim != 2 or len(idx) != len(x.data):
        raise DimensionError(f"{name} expects (B, N, D) input with (B, K) indices, "
                             f"got {x.shape} and {idx.shape}")
    return np.arange(len(idx))[:, None], idx


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select the (B, K) rows `indices`, unique per clip, of (B, N, D) x."""
    ix = _row_index(x, indices, "gather_rows")
    out = Tensor(x.data[ix])

    def bwd(g):
        # unique indices: the scatter that undoes the gather is an assignment
        gx = np.zeros_like(x.data)
        gx[ix] = g
        return (gx,)

    return _record(out, (x,), bwd)


def scatter_rows(visible: Tensor, indices: np.ndarray, fill: Tensor, n_rows: int) -> Tensor:
    """Place (B, K, D) visible rows at their (B, K) `indices`, unique per clip,
    in (B, n_rows, D) grids; every other row is `fill`.

    fill is a single vector of width D (the learnable mask token); its
    gradient is the sum over all filled positions.
    """
    ix = _row_index(visible, indices, "scatter_rows")
    clips, _, d = visible.shape
    if fill.shape != (d,):
        raise DimensionError(f"fill vector width {fill.shape} != row width {d}")
    data = np.broadcast_to(fill.data, (clips, n_rows, d)).copy()
    data[ix] = visible.data
    out = Tensor(data)

    def bwd(g):
        gvis = g[ix]
        return gvis, g.sum(axis=(0, 1)) - gvis.sum(axis=(0, 1))

    return _record(out, (visible, fill), bwd)


def mse(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of (pred - targets)**2 over every entry; targets is cast to pred's dtype."""
    if targets.shape != pred.shape:
        raise DimensionError(f"mse: pred {pred.shape} vs targets {targets.shape}")
    if pred.size == 0:
        raise ContractError("mse needs at least one entry")
    diff, sq = np.empty_like(pred.data), np.empty_like(pred.data)
    _sq_err(pred.data, targets.astype(pred.dtype, copy=False), diff, sq)
    out = Tensor(np.array([sq.mean()], dtype=pred.dtype))

    def bwd(g):
        scale = g.reshape(-1)[0] / diff.size
        gp = np.empty(diff.shape, np.result_type(diff, scale))
        _sq_err_grads(diff, scale, gp)
        return (gp,)

    return _record(out, (pred,), bwd)


def pixel_mse(x: Tensor, w: Tensor, b: Tensor, rows: np.ndarray, targets: np.ndarray) -> Tensor:
    """mse(linear(x, w, b, rows), targets) as one recorded op, bitwise.

    x is (B, K, D), the rows `rows` (B, K) of each clip's token grid; w, b
    project them to targets' width. The forward and the backward each take
    every clip through one _by_clips call: projection plus bias, minus
    target, squared; then the scaled difference and the x and per-clip w
    gradients. The mean of the squares, the sum of w's gradient over clips
    and the rows-bias sum follow the join, in the composed ops' order.
    """
    xd, wd = x.data, w.data
    idx = np.asarray(rows)
    if (xd.ndim != 3 or wd.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]
            or idx.shape != x.shape[:-1] or targets.shape != x.shape[:-1] + w.shape[1:]):
        raise DimensionError(f"pixel_mse: x {x.shape}, w {w.shape}, b {b.shape}, "
                             f"rows {idx.shape}, targets {targets.shape}")
    if targets.size == 0:
        raise ContractError("pixel_mse needs at least one entry")
    clips, per_clip = xd.shape[0], math.prod(targets.shape[1:])
    dt = np.result_type(xd, wd)
    t = targets.astype(dt, copy=False)
    diff, sq = np.empty(targets.shape, dt), np.empty(targets.shape, dt)

    def forward(ix):
        _affine(xd[ix], wd, b.data, diff[ix])
        _sq_err(diff[ix], t[ix], diff[ix], sq[ix])

    _by_clips(forward, clips, per_clip)
    out = Tensor(np.array([sq.mean()], dtype=dt))

    def bwd(g):
        scale = g.reshape(-1)[0] / diff.size
        gp = sq  # the squares are spent
        gx = np.empty(xd.shape, np.result_type(gp, wd)) if x.requires_grad else None
        gw = np.empty((clips,) + wd.shape, np.result_type(xd, gp)) if w.requires_grad else None

        def backward(ix):
            _sq_err_grads(diff[ix], scale, gp[ix])
            _affine_grads(xd[ix], wd, gp[ix], None if gx is None else gx[ix],
                          None if gw is None else gw[ix])

        _by_clips(backward, clips, per_clip)
        return (gx, None if gw is None else _unbroadcast(gw, w.shape),
                _rows_bias_grad(gp, idx) if b.requires_grad else None)

    return _record(out, (x, w, b), bwd)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the leading axes; labels are ints."""
    lab = np.asarray(labels)
    if lab.shape != logits.shape[:-1]:
        raise DimensionError(f"labels {lab.shape} do not match logits {logits.shape}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    flat_lab = lab.reshape(-1)
    flat_logp = logp.reshape(-1, logits.shape[-1])
    n = flat_lab.shape[0]
    nll = -flat_logp[np.arange(n), flat_lab].mean()
    out = Tensor(np.array([nll], dtype=logits.dtype))

    def bwd(g):
        p = np.exp(logp)
        onehot = np.zeros_like(p.reshape(-1, logits.shape[-1]))
        onehot[np.arange(n), flat_lab] = 1.0
        grad = (p.reshape(-1, logits.shape[-1]) - onehot).reshape(logits.shape)
        return (grad * (g.reshape(-1)[0] / n),)

    return _record(out, (logits,), bwd)


# -- transformer block -------------------------------------------------------

def _block_layout(width: int, mlp_ratio: int) -> dict:
    """Shape and fill of each block parameter, keyed as attention_block reads them.

    The fill is the constant a parameter starts at, or None for a
    trunc_normal draw; draws happen in this order.
    """
    hidden = mlp_ratio * width
    layout = {"ln1/g": ((width,), 1.0), "ln1/b": ((width,), 0.0)}
    for k in "qkvo":
        layout[f"w{k}"] = ((width, width), None)
        layout[f"b{k}"] = ((width,), 0.0)
    layout.update({"ln2/g": ((width,), 1.0), "ln2/b": ((width,), 0.0),
                   "w1": ((width, hidden), None), "b1": ((hidden,), 0.0),
                   "w2": ((hidden, width), None), "b2": ((width,), 0.0)})
    return layout


def _init_from_layout(layout: dict, rng: np.random.Generator, dtype) -> dict[str, Param]:
    """One Param per layout entry, in order: a std-0.02 trunc_normal draw where
    the fill is None, else the constant fill."""
    return {name: Param(trunc_normal(rng, shape, dtype=dtype) if fill is None
                        else np.full(shape, fill, dtype), name, dtype=dtype)
            for name, (shape, fill) in layout.items()}


def init_block_params(width: int, name: str, rng: np.random.Generator,
                      mlp_ratio: int = 4, dtype=np.float32) -> dict:
    """Parameters of one pre-norm attention block, keyed by f'{name}/...'."""
    layout = {f"{name}/{k}": v for k, v in _block_layout(width, mlp_ratio).items()}
    return _init_from_layout(layout, rng, dtype)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within 2 std."""
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2.0 * std
    return vals.astype(dtype)


def attention_block(tokens: Tensor, params: dict, name: str, heads: int) -> Tensor:
    """Pre-norm block: LN -> multi-head self-attention -> residual -> LN -> MLP -> residual.

    Joint space-time attention: every token of a clip attends to every token
    of that clip; tokens is (B, N, D). The block is one recorded op. Its
    forward and its backward each take every clip through the whole block in
    one _by_clips call, so a large batch hands half its clips to the second
    core once per pass; every intermediate goes into an array allocated
    here. Cross-clip sums (the weight, bias and gain gradients) follow the
    join. The arithmetic and its order are those of the composed ops:
    layer_norm, linear, the attention and GELU kernels, add.
    """
    xd = tokens.data
    if xd.ndim != 3 or xd.shape[1] < 1:
        raise ContractError(f"attention_block needs (B, N, D) tokens, N >= 1, got {xd.shape}")
    clips, n, d = xd.shape
    if d % heads != 0:
        raise ConfigError(f"token width {d} is not divisible by heads {heads}")
    p = {key: params[f"{name}/{key}"].value for key in _block_layout(d, 1)}
    hidden = p["w1"].shape[-1]
    wrong = [f"{key} {p[key].shape}" for key, (shape, _) in _block_layout(d, hidden // d).items()
             if p[key].shape != shape]
    if wrong:
        raise DimensionError(f"{name} parameters do not fit tokens {xd.shape}: {', '.join(wrong)}")
    w = {key: t.data for key, t in p.items()}
    dt = np.result_type(xd, *w.values())
    per_clip = heads * n * n + 7 * n * hidden // 2 + n * d * (4 * d + 2 * hidden) // 64

    out = np.empty(xd.shape, dt)
    xhat1, y, q, k, v, att, h, xhat2, y2, a1, cdf, u, inv1, inv2, s = _carve(
        dt, *[(clips, n, d)] * 9, *[(clips, n, hidden)] * 3, *[(clips, n, 1)] * 2,
        (clips, heads, n, n))

    def forward(ix):
        _normalize(xd[ix], w["ln1/g"], w["ln1/b"], _LN_EPS, xhat1[ix], inv1[ix], y[ix])
        for key, o in (("q", q), ("k", k), ("v", v)):
            _affine(y[ix], w["w" + key], w["b" + key], o[ix])
        _attend(q[ix], k[ix], v[ix], heads, s[ix], att[ix])
        _affine(att[ix], w["wo"], w["bo"], h[ix])
        np.add(h[ix], xd[ix], out=h[ix])
        _normalize(h[ix], w["ln2/g"], w["ln2/b"], _LN_EPS, xhat2[ix], inv2[ix], y2[ix])
        _affine(y2[ix], w["w1"], w["b1"], a1[ix])
        _gelu(a1[ix], cdf[ix], u[ix])
        _affine(u[ix], w["w2"], w["b2"], out[ix])
        np.add(out[ix], h[ix], out=out[ix])

    _by_clips(forward, clips, per_clip)

    def bwd(g):
        gt = np.result_type(g, dt)
        gpart = np.empty(xd.shape, gt)  # scratch, then the tokens' gradient
        # one weight gradient per clip, summed over the clips after the join
        wkeys = ("wq", "wk", "wv", "wo", "w1", "w2")
        gu, ga1, gy2, gxhat2, gh, gq, gv, gy, gxhat1, gk, gs, prod, *gws = _carve(
            gt, *[(clips, n, hidden)] * 2, *[(clips, n, d)] * 7, (clips, heads, d // heads, n),
            s.shape, s.shape, *[(clips,) + w[key].shape for key in wkeys])
        gw = dict(zip(wkeys, gws))
        gkn = _keys_grad(gk)

        def backward(ix):
            _affine_grads(u[ix], w["w2"], g[ix], gu[ix], gw["w2"][ix])
            _gelu_grads(a1[ix], cdf[ix], gu[ix], ga1[ix])
            _affine_grads(y2[ix], w["w1"], ga1[ix], gy2[ix], gw["w1"][ix])
            _normalize_grads(gy2[ix], w["ln2/g"], xhat2[ix], inv2[ix], gxhat2[ix], gh[ix])
            np.add(gh[ix], g[ix], out=gh[ix])  # h's gradient: g + LN2's
            _affine_grads(att[ix], w["wo"], gh[ix], gpart[ix], gw["wo"][ix])
            _attend_grads(gpart[ix], q[ix], k[ix], v[ix], s[ix], heads, gs[ix], prod[ix],
                          gq[ix], gk[ix], gv[ix])
            # y's gradient: (v's part + k's part) + q's part, the tape's order
            _affine_grads(y[ix], w["wv"], gv[ix], gy[ix], gw["wv"][ix])
            _affine_grads(y[ix], w["wk"], gkn[ix], gpart[ix], gw["wk"][ix])
            np.add(gy[ix], gpart[ix], out=gy[ix])
            _affine_grads(y[ix], w["wq"], gq[ix], gpart[ix], gw["wq"][ix])
            np.add(gy[ix], gpart[ix], out=gy[ix])
            _normalize_grads(gy[ix], w["ln1/g"], xhat1[ix], inv1[ix], gxhat1[ix], gpart[ix])
            np.add(gpart[ix], gh[ix], out=gpart[ix])  # the tokens' gradient: h's + LN1's

        _by_clips(backward, clips, per_clip)
        per_clip_grads = {"ln1/g": gxhat1, "ln1/b": gy, "bq": gq, "bk": gkn, "bv": gv,
                          "bo": gh, "ln2/g": gxhat2, "ln2/b": gy2, "b1": ga1, "b2": g, **gw}
        return (gpart, *(_unbroadcast(per_clip_grads[key], p[key].shape) for key in p))

    return _record(Tensor(out), (tokens, *p.values()), bwd)


# -- gradient checking --------------------------------------------------------

def finite_diff_check(f: Callable[[], Tensor], params: Iterable[Param],
                      h: float = 1e-5, samples_per_param: Optional[int] = None,
                      seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    f evaluates the scalar loss from the current parameter values; it is
    called under a fresh tape for the analytic pass and without a tape for
    the numeric probes. Run in float64: central differences at h=1e-5 are
    meaningless in float32. When samples_per_param is set, only that many
    randomly chosen entries of each parameter are probed (needed to keep
    whole-model checks tractable).

    Entries whose gradient is too small for central differences to resolve
    (discrepancy below the roundoff noise floor ~eps * |loss| / h, gradient
    within 1e4 of it) are skipped: structurally dead directions (a dead param,
    or a softmax-invariant bias shift) and true gradients near 1e-7 would
    otherwise report pure roundoff as large relative error.
    """
    if h <= 0:
        raise ContractError("finite_diff_check needs h > 0")
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is non-finite at the evaluation point")
    analytic = {p.name: p.grad.copy() for p in params}
    # Central differences cannot resolve differences below roundoff in the
    # loss itself; discrepancies under this floor are indistinguishable
    # from zero.
    eps = float(np.finfo(np.float64).eps)
    noise_floor = 32.0 * eps * max(1.0, abs(loss.item())) / h

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.value.data.reshape(-1)
        n = flat.shape[0]
        if samples_per_param is None or samples_per_param >= n:
            entries = range(n)
        else:
            entries = rng.choice(n, size=samples_per_param, replace=False)
        a_flat = analytic[p.name].reshape(-1)
        for i in entries:
            orig = flat[i]
            flat[i] = orig + h
            lp = f().item()
            flat[i] = orig - h
            lm = f().item()
            flat[i] = orig
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise NumericError(f"non-finite evaluation while probing {p.name}[{i}]")
            numeric = (lp - lm) / (2.0 * h)
            a = float(a_flat[i])
            if (abs(a - numeric) < noise_floor
                    and max(abs(a), abs(numeric)) < 1e4 * noise_floor):
                continue
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
