"""Dense tensors with a recorded-operation tape for reverse-mode differentiation.

The engine is deliberately small: numpy arrays carry the data, a Tape records
every primitive application in execution order, and backward() replays the
tape in reverse. Float32 is the training dtype; float64 exists for gradient
checking only.
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError, NumericError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """N-dimensional array plus autodiff bookkeeping.

    A Tensor is a leaf (user-created, optionally requires_grad) or the output
    of a recorded primitive. Leaf gradients accumulate in .grad; intermediate
    gradients live only inside a backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op_output")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
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

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Param:
    """Named trainable tensor with an always-allocated gradient buffer."""

    def __init__(self, value, name: str, dtype=np.float32):
        if isinstance(value, Tensor):
            tensor = value
        else:
            tensor = Tensor(np.asarray(value, dtype=dtype))
        tensor.requires_grad = True
        tensor.zero_grad()
        self.value = tensor
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        return self.value.grad

    def zero_grad(self):
        self.value.zero_grad()

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
# slower, of 204,800 or more faster; linear and gelu set their units so that
# their crossovers fall on the same floor.
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
    attention score entry (heads x N x N per clip), 32 multiply-adds of a
    linear's GEMM (rows x K x M / 32 per clip, none when K < 64), or 2/7 of
    a gelu element (3.5 x elements per clip). If the worker has not started
    its half by the time this one is done (its core is busy elsewhere), that
    half runs here too.

    fn must call only numpy and scipy on array slices (which release the
    GIL), never maskvid or the tape, and write each clip into its own slice
    of outputs allocated up front.
    """
    global _POOL
    mid = (clips + 1) // 2
    if clips < 2 or (clips - mid) * per_clip < _SPLIT_FLOOR:
        return fn(...)
    if _POOL is None:
        if len(os.sched_getaffinity(0)) < 2:
            return fn(...)
        _POOL = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="maskvid")
    upper = _POOL.submit(fn, slice(mid, clips))
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


# -- elementwise primitives ---------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x).

    Elementwise, so large batches run half their clips (index along the
    first axis) on a second core (_by_clips).
    """
    xd = x.data
    clips, per_clip = (xd.shape[0] if xd.ndim else 1), 7 * math.prod(xd.shape[1:]) // 2
    cdf, out = np.empty_like(xd), np.empty_like(xd)

    def forward(ix):  # in place, op for op cdf = 0.5 * (1 + erf(x / sqrt2)), x * cdf
        ci = np.multiply(xd[ix], _INV_SQRT2, out=cdf[ix])
        erf(ci, out=ci)
        ci += 1.0
        ci *= 0.5
        np.multiply(xd[ix], ci, out=out[ix])

    _by_clips(forward, clips, per_clip)

    def bwd(g):
        gx = np.empty(xd.shape, np.result_type(g, xd))
        t = gx if gx.dtype == xd.dtype else np.empty_like(xd)

        def backward(ix):  # g * (cdf + x * pdf), pdf = exp(-x * x / 2) / sqrt(2 pi), built in t
            xi = xd[ix]
            ti = np.multiply(xi, -0.5, out=t[ix])
            ti *= xi
            np.exp(ti, out=ti)
            ti *= _INV_SQRT2PI
            ti *= xi
            ti += cdf[ix]
            np.multiply(g[ix], ti, out=gx[ix])

        _by_clips(backward, clips, per_clip)
        return (gx,)

    return _record(Tensor(out), (x,), bwd)


# -- linear algebra -------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor, rows: Optional[np.ndarray] = None) -> Tensor:
    """x @ w + b over the last axis of x.

    rows, if given, names the grid rows (x.shape[:-1], unique along the last
    axis) of a larger token grid that x holds. The bias gradient is then
    summed as over the whole grid: per grid row over the leading axes first,
    then over grid rows in ascending order, so projecting a row subset leaves
    it bitwise that of the full grid, whose other rows contribute exact zeros.
    """
    idx = None if rows is None else np.asarray(rows)
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]
            or (idx is not None and idx.shape != x.shape[:-1])):
        raise DimensionError(f"linear: x {x.shape}, w {w.shape}, b {b.shape}, "
                             f"rows {None if idx is None else idx.shape}")
    xd, wd = x.data, w.data
    k, m = wd.shape
    # a 2-D x is one GEMM: split by rows, its weight gradient would be summed
    # in another order. A GEMM with K < 64 is bound by writing its output.
    clips = xd.shape[0] if xd.ndim > 2 else 1
    per_clip = math.prod(xd.shape[1:-1]) * k * m // 32 if k >= 64 else 0
    out = np.empty(xd.shape[:-1] + (m,), np.result_type(xd, wd))

    def forward(ix):
        oi = np.matmul(xd[ix], wd, out=out[ix])
        oi += b.data

    _by_clips(forward, clips, per_clip)

    def bwd(g):
        # an operand that needs no gradient (raw cube tokens, a frozen
        # weight) gets none computed
        gx = np.empty(g.shape[:-1] + (k,), np.result_type(g, wd)) if x.requires_grad else None
        # one weight gradient per clip, summed over clips by _unbroadcast
        gw = np.empty(xd.shape[:-2] + (k, m), np.result_type(xd, g)) if w.requires_grad else None

        def backward(ix):
            if gx is not None:
                np.matmul(g[ix], wd.T, out=gx[ix])
            if gw is not None:
                np.matmul(np.swapaxes(xd[ix], -1, -2), g[ix], out=gw[ix])

        _by_clips(backward, clips, per_clip)
        gb = None
        if gw is not None:
            gw = _unbroadcast(gw, w.shape)
        if b.requires_grad and idx is None:
            gb = _unbroadcast(g, b.shape)
        elif b.requires_grad:
            d = g.shape[-1]
            flat_g, flat_rows = g.reshape(-1, idx.shape[-1], d), idx.reshape(-1, idx.shape[-1])
            per_row = np.zeros((int(flat_rows.max(initial=0)) + 1, d), dtype=g.dtype)
            for gi, ri in zip(flat_g, flat_rows):
                per_row[ri] += gi
            gb = per_row.sum(axis=0)
        return gx, gw, gb

    return _record(Tensor(out), (x, w, b), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(dh)) v over (..., N, D) inputs.

    Each of q, k, v is split into `heads` slices of width dh = D/heads, every
    query attends to every key of its head, and the heads' outputs are
    concatenated back to (..., N, D). The softmax is kept for the backward.
    A clip (index along the first axis) never reads another clip's data, so
    large batches run half their clips on a second core (_by_clips).
    """
    if not q.shape == k.shape == v.shape:
        raise DimensionError(f"attention needs equal q, k, v shapes, got {q.shape}, {k.shape}, {v.shape}")
    lead, (n, d) = q.shape[:-2], q.shape[-2:]
    if d % heads != 0:
        raise ConfigError(f"token width {d} is not divisible by heads {heads}")
    c = 1.0 / math.sqrt(d / heads)
    clips = lead[0] if lead else 1
    per_clip = math.prod(lead[1:]) * heads * n * n

    def split(a):  # (..., N, D) -> (..., heads, N, dh), a view
        return np.swapaxes(a.reshape(lead + (n, heads, d // heads)), -3, -2)

    def merge(a):  # (..., heads, N, dh) -> (..., N, D)
        return np.swapaxes(a, -3, -2).reshape(lead + (n, d))

    q4, k4, v4 = split(q.data), split(k.data), split(v.data)
    s = np.empty(lead + (heads, n, n), np.result_type(q.data, k.data))
    out = np.empty(lead + (n, d), np.result_type(s, v.data))
    out4 = split(out)

    def forward(ix):  # an in-place softmax, op for op the out-of-place one
        si = s[ix]
        np.matmul(q4[ix], np.swapaxes(k4[ix], -1, -2), out=si)
        si *= c
        si -= si.max(axis=-1, keepdims=True)
        np.exp(si, out=si)
        si /= si.sum(axis=-1, keepdims=True)
        np.matmul(si, v4[ix], out=out4[ix])

    _by_clips(forward, clips, per_clip)

    def bwd(g):
        g4 = split(g)
        t = np.result_type(s, g, v.data)  # of the score gradients
        gq = np.empty(lead + (n, d), np.result_type(t, k.data))
        gv = np.empty(lead + (n, d), np.result_type(s, g))
        # k's gradient stays a transposed view of matmul(q4^T, gsc)'s
        # (..., heads, dh, N) layout: its consumers sum it in memory order
        gk = np.empty(lead + (heads, d // heads, n), np.result_type(q.data, t))
        gq4, gv4 = split(gq), split(gv)
        # scratch allocated here: a worker that allocates its own large arrays
        # makes this thread page-fault afresh after each split
        gs, prod = np.empty(s.shape, t), np.empty(s.shape, t)

        def backward(ix):  # gsc = s * (gs - rowsum(gs * s)) * c, built in gs
            g4i, si, gsi = g4[ix], s[ix], gs[ix]
            np.matmul(g4i, np.swapaxes(v4[ix], -1, -2), out=gsi)
            np.matmul(np.swapaxes(si, -1, -2), g4i, out=gv4[ix])
            gsi -= np.multiply(gsi, si, out=prod[ix]).sum(axis=-1, keepdims=True)
            gsi *= si
            gsi *= c
            np.matmul(gsi, k4[ix], out=gq4[ix])
            np.matmul(np.swapaxes(q4[ix], -1, -2), gsi, out=gk[ix])

        _by_clips(backward, clips, per_clip)
        return gq, merge(np.swapaxes(gk, -1, -2)), gv

    return _record(Tensor(out), (q, k, v), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.shape
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        return (g.reshape(orig),)

    return _record(out, (x,), bwd)


# -- normalization ----------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine width mismatch: x has D={d}, gamma {gamma.shape}, beta {beta.shape}"
        )
    if eps <= 0:
        raise ContractError("layer_norm eps must be > 0")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.data + beta.data)

    def bwd(g):
        dgamma = _unbroadcast(g * xhat, gamma.shape)
        dbeta = _unbroadcast(g, beta.shape)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return _record(out, (x, gamma, beta), bwd)


# -- reductions -------------------------------------------------------------

def mean_axis(x: Tensor, axis: int) -> Tensor:
    n = x.shape[axis]
    out = Tensor(x.data.mean(axis=axis))

    def bwd(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _record(out, (x,), bwd)


# -- gather / scatter --------------------------------------------------------

def _row_index(x: Tensor, indices: np.ndarray, name: str) -> tuple:
    """An advanced index that picks rows `indices` along axis -2 of x.

    Plain advanced indexing: np.take_along_axis/put_along_axis are an order
    of magnitude slower on (B, N, 1536) pixel arrays.
    """
    idx = np.asarray(indices)
    if idx.shape[:-1] != x.shape[:-2] or idx.ndim != x.data.ndim - 1:
        raise DimensionError(
            f"{name} expects indices {x.shape[:-2] + ('K',)} for input {x.shape}, got {idx.shape}"
        )
    lead = np.indices(idx.shape[:-1], sparse=True)
    return tuple(a[..., None] for a in lead) + (idx,)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows along axis -2; indices is x.shape[:-2] + (K,), unique along K."""
    ix = _row_index(x, indices, "gather_rows")
    out = Tensor(x.data[ix])

    def bwd(g):
        # unique indices: the scatter that undoes the gather is an assignment
        gx = np.zeros_like(x.data)
        gx[ix] = g
        return (gx,)

    return _record(out, (x,), bwd)


def scatter_rows(visible: Tensor, indices: np.ndarray, fill: Tensor, n_rows: int) -> Tensor:
    """Place visible rows at `indices` along axis -2; every other row is `fill`.

    indices is visible.shape[:-1], unique along its last axis. fill is a
    single vector of width visible.shape[-1] (the learnable mask token); its
    gradient is the sum over all filled positions.
    """
    ix = _row_index(visible, indices, "scatter_rows")
    d = visible.shape[-1]
    if fill.shape != (d,):
        raise DimensionError(f"fill vector width {fill.shape} != row width {d}")
    data = np.broadcast_to(fill.data, visible.shape[:-2] + (n_rows, d)).copy()
    data[ix] = visible.data
    out = Tensor(data)
    lead = tuple(range(visible.data.ndim - 1))

    def bwd(g):
        gvis = g[ix]
        return gvis, g.sum(axis=lead) - gvis.sum(axis=lead)

    return _record(out, (visible, fill), bwd)


def mse(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of (pred - targets)**2 over every entry; targets is cast to pred's dtype."""
    if targets.shape != pred.shape:
        raise DimensionError(f"mse: pred {pred.shape} vs targets {targets.shape}")
    if pred.size == 0:
        raise ContractError("mse needs at least one entry")
    diff = pred.data - targets.astype(pred.dtype, copy=False)
    n = diff.size
    out = Tensor(np.array([(diff * diff).mean()], dtype=pred.dtype))

    def bwd(g):
        gp = diff * (g.reshape(-1)[0] / n)
        gp *= 2
        return (gp,)

    return _record(out, (pred,), bwd)


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

    Joint space-time attention: every token attends to every token.
    """
    if tokens.shape[-2] < 1:
        raise ContractError("attention_block needs at least one token")

    def p(key):
        return params[f"{name}/{key}"].value

    y = layer_norm(tokens, p("ln1/g"), p("ln1/b"))
    # q, k, v in this order: the gradient into y sums v's, k's, then q's part
    q = linear(y, p("wq"), p("bq"))
    k = linear(y, p("wk"), p("bk"))
    v = linear(y, p("wv"), p("bv"))
    h = add(tokens, linear(attention(q, k, v, heads), p("wo"), p("bo")))

    y2 = layer_norm(h, p("ln2/g"), p("ln2/b"))
    m = linear(gelu(linear(y2, p("w1"), p("b1"))), p("w2"), p("b2"))
    return add(h, m)


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
