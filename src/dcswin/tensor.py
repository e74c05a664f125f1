"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is a tape: every differentiable op appends one entry to the
active tape in execution order, which is a topological order by
construction. `backward(loss)` replays the tape in reverse, visits each
entry at most once, and accumulates gradients into the `.grad` of every
leaf that has `requires_grad=True`.

The tape keeps only what backward reads. Each recorded output gets a
serial key, and an entry holds its output's key, its backward rule and,
per input, the leaf `Tensor` (a leaf that needs a gradient), the key and
shape (a recorded output) or nothing (no gradient). So an intermediate
array lives only while its caller or some backward rule holds it, and
the sweep drops each entry before it runs the rule, which frees the
arrays that rule saved as soon as it is done with them. A model forward
records a handful of fused ops, each one entry that keeps less than the
ops it replaced and rebuilds the rest in backward by the forward's own
calls:
  * `mlp_branch`, a block's ln2 and MLP, keeps the norm's xn and denom,
    and rebuilds the norm output, the hidden pre-activation (one
    product), gelu's tanh and the activation;
  * `attention.window_attention`, a block's ln1 and window attention at
    one window or mixed over several, keeps the norm's xn and denom and,
    per window, the attention weights, and rebuilds the norm output, the
    projections, the context and the output (without a folded norm it
    keeps its input map instead of xn and denom);
  * `attention.cross_attention`, the cross-scale fusion's attention and
    residual add, keeps both maps and the attention weights, and
    rebuilds q, k^T, v and the context;
  * `patch_embed` keeps the image, not the patch copy its product reads.
The attention rules work over chunks of whole images' windows of about
256 KB of weights each (`_attention_grads`), so their scratch stays
small; their values are the unchunked ones.

Conventions:
  * ops are the module functions below and take `Tensor`s, never raw
    arrays; `Tensor` has no operator forms and holds only data, a
    gradient and a tape key;
  * storage is contiguous row-major float64 (the reference dtype), with
    one exception: `broadcast_to` returns NumPy's read-only broadcast
    view of its input. No op writes into its inputs;
  * no implicit broadcasting: `add`/`mul`/`div` demand identical shapes,
    expansion is explicit via `broadcast_to`; the exceptions are `matmul`,
    which broadcasts its leading batch dimensions, and two in-op
    broadcasts: the bias of `linear` over the leading axes, and the
    additive constant mask of `multihead_attention` over heads and over
    the batch-major windows;
  * inside a request scope (`_request_buffers`, entered by
    `trainer.predict_probs`), the large arrays of `linear`, `gelu`,
    `layer_norm`, `mlp_branch`, `multihead_attention`, `patch_embed`,
    `attention.window_attention`, `attention.cross_attention`, `add` and
    the `reshape`/`permute` copies may be views of recycled
    buffers that no live array references any more. Only where results
    are written changes, so values are the same bits, and still no op
    writes into its inputs;
  * checked mode (default on) rejects NaN/Inf with a `NumericsError` that
    names the op that produced it. Every op screens its output, except
    inside a model forward: `DCSWin.forward` screens only its logits and,
    if they are not finite, replays itself with every op screened. Four
    in-op screens run even there, because each guards a result that
    would otherwise be finite but wrong: layer_norm's variance, the
    attention logits, the attention mask and `div`'s divisor.

Tapes nest: `with Tape() as t:` records onto `t`; outside any explicit
tape, ops record onto a lazily created default tape that is consumed and
reset by `backward`. `no_grad()` suspends recording entirely.
"""
from __future__ import annotations

import bisect
import itertools
import math
import sys
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericsError, ShapeError, TapeError

__all__ = [
    "Tensor", "Tape", "backward", "no_grad", "checked_mode", "is_checked",
    "zeros", "ones", "trunc_normal",
    "add", "add_scalar", "sub", "neg", "mul", "div", "scale",
    "exp", "log", "sqrt", "tanh", "relu", "gelu",
    "broadcast_to", "reshape", "permute", "roll", "pad2d", "slice_nd",
    "concat", "reduce_sum", "reduce_mean", "mean_pool", "avg_pool2d",
    "matmul", "softmax", "multihead_attention", "log_softmax",
    "cross_entropy",
    "conv1x1", "linear", "layer_norm", "mlp_branch", "patch_embed",
    "detach",
]

_grad_enabled: bool = True
_checked: bool = True
# set inside a model forward, which screens its logits instead of each op
_deferred: bool = False
# flat float64 buffers by ascending size, inside a request scope only
_pool: Optional[list[np.ndarray]] = None


def is_checked() -> bool:
    return _checked


@contextmanager
def checked_mode(enabled: bool):
    """Temporarily enable or disable NaN/Inf screening, per op or of a
    model forward's logits (see the module docstring)."""
    global _checked
    prev = _checked
    _checked = enabled
    try:
        yield
    finally:
        _checked = prev


@contextmanager
def no_grad():
    """Suspend tape recording; forwards run but build no graph."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def _deferred_screening():
    """Ops skip their output screen; the caller screens the end result and
    replays with screening on to name the op that went non-finite."""
    global _deferred
    prev = _deferred
    _deferred = True
    try:
        yield
    finally:
        _deferred = prev


@contextmanager
def _request_buffers():
    """Ops draw their large arrays from a pool of flat buffers (see `_empty`)
    that lives until the scope exits, so a request's chunks reuse the
    memory of the chunks before them instead of the heap returning it to
    the system and faulting it back."""
    global _pool
    prev = _pool
    _pool = []
    try:
        yield
    finally:
        _pool = prev


def _empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of `shape`. Inside a request scope it
    is a view of the first elements of the smallest pooled buffer that is
    large enough and that no array references: every NumPy view names
    the buffer that owns its memory as its base, so the buffer's reference
    count says exactly whether anything still reads it."""
    if _pool is None:
        return np.empty(shape)
    size = math.prod(shape)
    for buf in _pool:
        # the pool's slot, `buf` and the call's argument: no view is left
        if buf.size >= size and sys.getrefcount(buf) == 3:
            break
    else:
        buf = np.empty(size)
        bisect.insort(_pool, buf, key=len)
    return buf[:size].reshape(shape)


def _contiguous(a: np.ndarray) -> np.ndarray:
    """`a` if it is C-contiguous, else a copy of it from `_empty`."""
    if a.flags.c_contiguous:
        return a
    out = _empty(a.shape)
    np.copyto(out, a)
    return out


def _screen(arr: np.ndarray, what: str) -> None:
    if _checked and not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in {what}")


class Tensor:
    """A leaf or op output. Data is float64; grad (leaves only) matches shape.

    A recorded op output carries the serial key its tape entry names it by;
    leaves and outputs recorded on no tape have key None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_key", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _screen(arr, "tensor constructor input")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._key: Optional[int] = None
        self._tape: Optional["Tape"] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Entry:
    """One recorded op: its output's key, its backward rule `bw`, and per
    input what the sweep needs to route that input's gradient: the leaf
    `Tensor` itself, `(key, shape)` for a recorded output, or None when
    the input needs no gradient. No array is held here except through
    `bw`'s closure, which saves only what the rule reads."""
    __slots__ = ("inputs", "key", "bw")

    def __init__(self, inputs: list, key: int, bw: Callable):
        self.inputs = inputs
        self.key = key
        self.bw = bw


class Tape:
    """Ordered record of ops. Reverse replay yields reverse-mode gradients.

    `backward` consumes the tape: it pops each entry before running its
    rule, so the arrays the rule saved are freed as the sweep passes it,
    and a tape is never swept twice. An autoreset tape (the default one)
    is empty and ready again afterwards; an explicit tape needs `reset()`.
    """

    def __init__(self, autoreset: bool = False):
        self._entries: list[_Entry] = []
        self._used = False
        self._autoreset = autoreset

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _tape_stack.pop()
        assert popped is self

    def reset(self) -> None:
        self._entries.clear()
        self._used = False

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and sweep the tape once, in reverse."""
        if self._used:
            raise TapeError("backward already ran on this tape; reset() first")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        key = loss._key
        if key is None or not any(entry.key == key for entry in self._entries):
            raise TapeError("loss is not recorded on this tape (already "
                            "consumed by a previous backward, or built "
                            "elsewhere)")
        self._used = True
        flows = {key: np.ones_like(loss.data)}
        entries = self._entries
        try:
            while entries:
                entry = entries.pop()
                g = flows.pop(entry.key, None)
                # rebinding `entry` frees the previous one, and the arrays
                # its rule saved, before the next rule runs; a rule's
                # gradient tuple dies when `_accumulate` returns
                if g is not None:
                    _accumulate(entry.inputs, entry.bw(g), flows)
        finally:
            if self._autoreset:
                self.reset()


def _accumulate(routes: list, grads: Sequence[Optional[np.ndarray]],
                flows: dict[int, np.ndarray]) -> None:
    """Add one rule's input gradients into leaf `.grad`s and into the
    pending flows of recorded outputs."""
    for route, ig in zip(routes, grads):
        if ig is None or route is None:
            continue
        if type(route) is tuple:
            key, shape = route
            if ig.shape != shape:
                raise ShapeError(f"backward produced grad shape {ig.shape} "
                                 f"for input shape {shape}")
            prev = flows.get(key)
            flows[key] = ig if prev is None else prev + ig
        else:
            if ig.shape != route.data.shape:
                raise ShapeError(f"backward produced grad shape {ig.shape} "
                                 f"for input shape {route.data.shape}")
            route.grad = ig.copy() if route.grad is None else route.grad + ig


def _saved_arrays(tape: Tape):
    """(op, closure variable, base array) for every array the rules on
    `tape` hold, in tape order, each base array (the one that owns the
    memory) once: the bytes backward still has to read."""
    seen = set()
    for entry in tape._entries:
        op = entry.bw.__qualname__.split(".")[0]
        cells = entry.bw.__closure__ or ()
        for var, cell in zip(entry.bw.__code__.co_freevars, cells):
            try:
                value = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            stack = [value]
            while stack:
                v = stack.pop()
                if isinstance(v, (list, tuple)):
                    stack.extend(v)
                elif isinstance(v, np.ndarray):
                    while isinstance(v.base, np.ndarray):
                        v = v.base
                    if id(v) not in seen:
                        seen.add(id(v))
                        yield op, var, v


_tape_stack: list[Tape] = []
_default_tape = Tape(autoreset=True)
_serial = itertools.count()


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation for the tape that recorded `loss`."""
    if loss._tape is None:
        raise TapeError("loss has no recorded graph (leaf, detached, or no_grad)")
    loss._tape.backward(loss)


def _finish(data: np.ndarray, inputs: tuple[Tensor, ...], bw: Callable,
            what: str) -> Tensor:
    if not _deferred:
        _screen(data, what)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._key = None
    out._tape = None
    if not _grad_enabled:
        return out
    for t in inputs:
        if t.requires_grad:
            break
    else:
        return out
    # per input: the leaf itself, (key, shape) of a recorded output, or None
    routes = [(t if t._key is None else (t._key, t.data.shape))
              if t.requires_grad else None for t in inputs]
    tape = _tape_stack[-1] if _tape_stack else _default_tape
    out.requires_grad = True
    out._key = next(_serial)
    out._tape = tape
    tape._entries.append(_Entry(routes, out._key, bw))
    return out


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ "
                         "(broadcasting is explicit; see broadcast_to)")


# ---- constructors -------------------------------------------------------

def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64), requires_grad=requires_grad)


def trunc_normal(shape, rng: np.random.Generator, std: float = 0.02,
                 requires_grad: bool = False) -> Tensor:
    """Normal(0, std) resampled until every draw lies within two deviations."""
    vals = rng.standard_normal(shape) * std
    bad = np.abs(vals) > 2.0 * std
    while np.any(bad):
        vals[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(vals) > 2.0 * std
    return Tensor(vals, requires_grad=requires_grad)


# ---- elementwise --------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = np.add(a.data, b.data, out=_empty(a.data.shape))
    return _finish(out, (a, b), lambda g: (g, g), "add")


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _finish(a.data + c, (a,), lambda g: (g,), "add_scalar")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _finish(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def neg(a: Tensor) -> Tensor:
    return _finish(-a.data, (a,), lambda g: (-g,), "neg")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _finish(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "div")
    ad, bd = a.data, b.data
    # x / inf is a finite 0, so a deferred screen would never see it
    _screen(bd, "div divisor")
    out = ad / bd

    def bw(g):
        return g / bd, -g * ad / (bd * bd)

    return _finish(out, (a, b), bw, "div")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _finish(a.data * c, (a,), lambda g: (g * c,), "scale")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _finish(out, (a,), lambda g: (g * out,), "exp")


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _finish(np.log(ad), (a,), lambda g: (g / ad,), "log")


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _finish(out, (a,), lambda g: (g * (0.5 / out),), "sqrt")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _finish(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _finish(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,), "relu")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c * (x + a * x * x * x)), the one array gelu's rule needs
    besides `x`."""
    th = np.multiply(x, x, out=_empty(x.shape))
    th *= x
    th *= _GELU_A
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    return th


def _gelu_out(x: np.ndarray, th: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """gelu(x) = (th + 1) * x * 0.5 from `x` and `_gelu_tanh(x)`, into
    `out` (which may be `th`) or a new array."""
    out = np.add(th, 1.0, out=_empty(x.shape) if out is None else out)
    out *= x
    out *= 0.5
    return out


def _gelu_grad(g: np.ndarray, x: np.ndarray, th: np.ndarray,
               d: np.ndarray) -> np.ndarray:
    """The input gradient of gelu for the output gradient `g`, written
    into `th`, which no caller reads again; `d` is a scratch array shaped
    like `x`."""
    # 0.5 * x * (1 - th^2) * c * (1 + 3a * x^2) + 0.5 * (1 + th)
    np.multiply(x, 0.5, out=d)
    t = th * th
    np.subtract(1.0, t, out=t)
    d *= t
    d *= _GELU_C
    np.multiply(x, 3.0 * _GELU_A, out=t)
    t *= x
    t += 1.0
    d *= t
    del t
    th += 1.0
    th *= 0.5
    th += d
    th *= g
    return th


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form.

    Forward and backward each work in two full-size buffers. They round
    exactly as `0.5 * x * (1 + tanh(c * (x + a * x * x * x)))` and its
    textbook derivative do: the products are taken in the same order, and
    halving a product is exact outside the subnormal range.
    """
    x = a.data
    th = _gelu_tanh(x)
    out = _gelu_out(x, th)

    def bw(g):
        return (_gelu_grad(g, x, th, np.empty(x.shape)),)

    return _finish(out, (a,), bw, "gelu")


# ---- shape --------------------------------------------------------------

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` over the axes that broadcasting `shape` to `g.shape` added
    or expanded from size 1."""
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    keep = tuple(i for i, (s, t) in enumerate(zip(shape, g.shape)) if s == 1 and t != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Explicit expansion as a read-only view of `a`'s data, no copy;
    backward sums over the expanded axes."""
    shape = tuple(int(s) for s in shape)
    src = a.data.shape
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError as e:
        raise ShapeError(f"broadcast_to: cannot expand {src} to {shape}") from e
    return _finish(out, (a,), lambda g: (_unbroadcast(g, src).reshape(src),),
                   "broadcast_to")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    src = a.data.shape
    try:
        out = _contiguous(a.data).reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {src} has {a.data.size} elements, "
                         f"target {shape} disagrees") from e
    return _finish(out, (a,), lambda g: (g.reshape(src),), "reshape")


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of axes "
                         f"of shape {a.data.shape}")
    inv = np.argsort(axes)
    out = _contiguous(np.transpose(a.data, axes))
    return _finish(out, (a,), lambda g: (np.ascontiguousarray(np.transpose(g, inv)),),
                   "permute")


def roll(a: Tensor, shifts: Sequence[int], axes: Sequence[int]) -> Tensor:
    """Cyclic shift along the given axes; exactly inverted by rolling back."""
    shifts = tuple(int(s) for s in shifts)
    axes = tuple(int(x) for x in axes)
    out = np.roll(a.data, shifts, axis=axes)
    back = tuple(-s for s in shifts)
    return _finish(out, (a,), lambda g: (np.roll(g, back, axis=axes),), "roll")


def pad2d(a: Tensor, pad_bottom: int, pad_right: int) -> Tensor:
    """Zero-pad axes 1 and 2 (H and W of a [B,H,W,...] map) at the
    bottom/right edges."""
    if a.data.ndim < 3:
        raise ShapeError(f"pad2d needs >=3 axes, got shape {a.data.shape}")
    if pad_bottom < 0 or pad_right < 0:
        raise ShapeError("pad2d: negative padding")
    width = [(0, 0), (0, pad_bottom), (0, pad_right)] + \
        [(0, 0)] * (a.data.ndim - 3)
    out = np.pad(a.data, width)
    h, w = a.data.shape[1], a.data.shape[2]

    def bw(g):
        return (np.ascontiguousarray(g[:, :h, :w]),)

    return _finish(out, (a,), bw, "pad2d")


def slice_nd(a: Tensor, key: tuple) -> Tensor:
    """Basic slicing by a tuple of slices (no ints: ranks stay stable)."""
    if not (isinstance(key, tuple) and all(isinstance(k, slice) for k in key)):
        raise ShapeError("slice_nd accepts a tuple of slice objects only")
    out = np.ascontiguousarray(a.data[key])
    src = a.data.shape

    def bw(g):
        z = np.zeros(src, dtype=np.float64)
        z[key] = g
        return (z,)

    return _finish(out, (a,), bw, "slice_nd")


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    datas = [p.data for p in parts]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: incompatible shapes "
                         f"{[d.shape for d in datas]} along axis {axis}") from e
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(np.ascontiguousarray(p) for p in pieces)

    return _finish(out, tuple(parts), bw, "concat")


# ---- reductions ----------------------------------------------------------

def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _restore_axes(g: np.ndarray, src: tuple[int, ...], axes: tuple[int, ...],
                  keepdims: bool) -> np.ndarray:
    """A reduction's output gradient with its reduced axes back as size 1,
    ready to broadcast over the input shape `src`."""
    if keepdims:
        return g
    return g.reshape(tuple(1 if i in axes else s for i, s in enumerate(src)))


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    src = a.data.shape

    def bw(g):
        g = _restore_axes(g, src, axes, keepdims)
        return (np.broadcast_to(g, src).copy(),)

    return _finish(np.asarray(out), (a,), bw, "reduce_sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    count = math.prod(a.data.shape[ax] for ax in axes)
    out = a.data.mean(axis=axes, keepdims=keepdims)
    src = a.data.shape

    def bw(g):
        g = _restore_axes(g, src, axes, keepdims)
        return (np.broadcast_to(g / count, src).copy(),)

    return _finish(np.asarray(out), (a,), bw, "reduce_mean")


def mean_pool(a: Tensor, axes) -> Tensor:
    """Mean over the given axes (global average pooling of a [B,H,W,C] map
    when axes=(1,2))."""
    return reduce_mean(a, axis=axes, keepdims=False)


def avg_pool2d(a: Tensor, factor_h: int, factor_w: Optional[int] = None) -> Tensor:
    """Non-overlapping box average over axes 1 and 2 (H and W of a
    [B,H,W,...] map)."""
    if factor_w is None:
        factor_w = factor_h
    if a.data.ndim < 3:
        raise ShapeError(f"avg_pool2d needs >=3 axes, got shape {a.data.shape}")
    b, h, w = a.data.shape[:3]
    if h % factor_h or w % factor_w:
        raise ShapeError(f"avg_pool2d: spatial shape ({h},{w}) not divisible "
                         f"by factors ({factor_h},{factor_w})")
    x = reshape(a, (b, h // factor_h, factor_h, w // factor_w, factor_w)
                + a.data.shape[3:])
    return reduce_mean(x, axis=(2, 4), keepdims=False)


# ---- linear algebra -------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading batch dims broadcast (only here)."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.data.shape} "
                         f"and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for {a.data.shape} "
                         f"and {b.data.shape}")
    ad, bd = a.data, b.data
    try:
        out = np.matmul(ad, bd)
    except ValueError as e:
        raise ShapeError(f"matmul: batch dims of {ad.shape} and {bd.shape} "
                         "do not broadcast") from e

    def bw(g):
        da = np.matmul(g, np.swapaxes(bd, -1, -2))
        db = np.matmul(np.swapaxes(ad, -1, -2), g)
        return _unbroadcast(da, ad.shape), _unbroadcast(db, bd.shape)

    return _finish(out, (a, b), bw, "matmul")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis; rows sum to 1."""
    ax = axis % a.data.ndim
    out = a.data - a.data.max(axis=ax, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=ax, keepdims=True)
        return ((g - inner) * out,)

    return _finish(out, (a,), bw, "softmax")


def _heads(a: np.ndarray, num_heads: int) -> np.ndarray:
    """[N, L, C] as a strided [N, heads, L, C // heads] view, no copy."""
    n, length, c = a.shape
    return a.reshape(n, length, num_heads, c // num_heads).transpose(0, 2, 1, 3)


def _attention_probs(qd: np.ndarray, kd: np.ndarray, num_heads: int,
                     mask: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-head softmax(q k^T / sqrt(d) + mask) as [N, heads, Lq, Lk], and
    the contiguous k^T [N, heads, d, Lk] it was computed with."""
    if qd.ndim != 3 or kd.ndim != 3 or qd.shape[0] != kd.shape[0] \
            or qd.shape[2] != kd.shape[2]:
        raise ShapeError(f"multihead_attention expects [N, Lq, C] queries and "
                         f"[N, Lk, C] keys, got {qd.shape} and {kd.shape}")
    n, lq, c = qd.shape
    lk = kd.shape[1]
    if num_heads < 1 or c % num_heads:
        raise ShapeError(f"multihead_attention: width {c} does not split "
                         f"into {num_heads} heads")
    if mask is not None:
        m = np.asarray(mask, dtype=np.float64)
        if m.ndim == 2:
            m = m[None]
        if m.ndim != 3 or m.shape[1:] != (lq, lk) or n % m.shape[0]:
            raise ShapeError(f"multihead_attention: mask of shape {m.shape} "
                             f"does not tile {n} windows of {lq}x{lk}")
        _screen(m, "attention mask")
    # k^T is the one head-split copy: with it every product below runs
    # on operands oriented as a plain batched matmul would orient them,
    # so results round exactly as that matmul chain does
    kt = _contiguous(_heads(kd, num_heads).transpose(0, 1, 3, 2))
    probs = np.matmul(_heads(qd, num_heads), kt,
                      out=_empty((n, num_heads, lq, lk)))
    probs *= 1.0 / math.sqrt(c // num_heads)
    _screen(probs, "attention logits")
    if mask is not None:
        # windows are batch-major, so the nW window masks repeat per image
        per_image = probs.reshape((n // m.shape[0], m.shape[0], num_heads,
                                   lq, lk))
        per_image += m[:, None]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs, kt


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
                        mask: Optional[np.ndarray] = None) -> Tensor:
    """softmax(q_h k_h^T / sqrt(d) + mask) v_h for every head h.

    q is [N, Lq, C], k and v are [N, Lk, C]; head h owns channels
    [h*d, (h+1)*d) with d = C // num_heads, and the heads of the output
    [N, Lq, C] are laid out the same way. `mask` is an additive constant
    (no gradient), [Lq, Lk] or one [nW, Lq, Lk] block per window, tiled
    over the batch-major windows of N: 0 keeps a pair, a large negative
    value such as -1e9 suppresses it.

    With P the weights and dP = g_h v_h^T, the gradients are
    dS = (dP - rowsum(dP * P)) * P / sqrt(d), dq_h = dS k_h,
    dk_h = (q_h^T dS)^T and dv_h = P^T g_h.
    """
    qd, kd, vd = q.data, k.data, v.data
    if vd.shape != kd.shape:
        raise ShapeError(f"multihead_attention: values {vd.shape} and keys "
                         f"{kd.shape} differ")
    # the rule reads k only through kt
    probs, kt = _attention_probs(qd, kd, num_heads, mask)
    out = _attention_context(probs, vd, num_heads)
    return _finish(out, (q, k, v),
                   lambda g: _attention_grads(g, probs, qd, kt, vd, num_heads),
                   "multihead_attention")


def _attention_context(probs: np.ndarray, vd: np.ndarray,
                       num_heads: int) -> np.ndarray:
    """The [N, Lq, C] weighted values `probs` v_h of every head."""
    n, _, lq, _ = probs.shape
    out = _empty((n, lq, vd.shape[2]))
    np.matmul(probs, _heads(vd, num_heads), out=_heads(out, num_heads))
    return out


# the attention weights one chunk of `_attention_grads` reads, in bytes:
# small enough that the chunk's scratch arrays stay in cache
_GRAD_CHUNK_BYTES = 1 << 18


def _attention_grads(g: np.ndarray, probs: np.ndarray, qd: np.ndarray,
                     kt: np.ndarray, vd: np.ndarray, num_heads: int,
                     per_image: int = 1) -> tuple:
    """The q, k and v gradients of `multihead_attention` for the output
    gradient `g`, from its weights, q, the k^T of `_attention_probs` and v.

    It runs over chunks of whole images' windows, `per_image` windows an
    image, with about `_GRAD_CHUNK_BYTES` of weights each, so the weights'
    gradient and its scratch never span the whole batch. Every window's
    products are those of one unchunked pass, so are its bits."""
    n = probs.shape[0]
    image_bytes = probs.nbytes // n * per_image
    step = per_image * max(1, _GRAD_CHUNK_BYTES // image_bytes)
    inv_sqrt_d = 1.0 / math.sqrt(qd.shape[2] // num_heads)
    gh, qh, vh = (_heads(a, num_heads) for a in (g, qd, vd))
    dq, dk, dv = np.empty(qd.shape), np.empty(vd.shape), np.empty(vd.shape)
    dqh, dkh, dvh = (_heads(a, num_heads) for a in (dq, dk, dv))
    for start in range(0, n, step):
        c = slice(start, start + step)
        p = probs[c]
        np.matmul(p.swapaxes(-1, -2), gh[c], out=dvh[c])
        ds = np.matmul(gh[c], vh[c].swapaxes(-1, -2))
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= inv_sqrt_d
        np.matmul(ds, kt[c].swapaxes(-1, -2), out=dqh[c])
        dkh[c] = np.matmul(qh[c].swapaxes(-1, -2), ds).swapaxes(-1, -2)
        del ds
    return dq, dk, dv


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Composite log-softmax; the row max is a constant shift, so the
    gradient is exact despite detaching it."""
    ax = axis % a.data.ndim
    mx = Tensor(a.data.max(axis=ax, keepdims=True))
    shifted = sub(a, broadcast_to(mx, a.shape))
    lse = log(reduce_sum(exp(shifted), axis=ax, keepdims=True))
    return sub(shifted, broadcast_to(lse, a.shape))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax(logits).

    `logits` is [N, C] and `targets` N integer class indices in [0, C); a
    target array of any other dtype (float, bool) raises TypeError rather
    than being truncated. A weighted loss scales this mean with `scale`.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [N, C] logits, got {logits.shape}")
    n, c = logits.data.shape
    if n == 0:
        raise ShapeError("cross_entropy: empty batch")
    t = np.asarray(targets)
    if t.shape != (n,):
        raise ShapeError(f"cross_entropy: {n} rows but target shape {t.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        raise TypeError(f"cross_entropy: targets must be integers, got dtype "
                        f"{t.dtype}")
    if t.min(initial=0) < 0 or t.max(initial=0) >= c:
        raise IndexError(f"cross_entropy: target outside [0, {c})")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(n)
    per_sample = -logp[rows, t]
    value = per_sample.sum() / n

    def bw(g):
        p = np.exp(logp)
        p[rows, t] -= 1.0
        return (g * (1.0 / n) * p,)

    return _finish(np.asarray(value), (logits,), bw, "cross_entropy")


def conv1x1(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Pointwise convolution: [B,C,H,W] x [S,C] (+[S]) -> [B,S,H,W]."""
    if x.data.ndim != 4 or w.data.ndim != 2:
        raise ShapeError(f"conv1x1 expects [B,C,H,W] and [S,C], got {x.shape} "
                         f"and {w.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"conv1x1: channel mismatch between input {x.shape} "
                         f"and kernel {w.shape}")
    xd, wd = x.data, w.data
    need_dx = x.requires_grad
    bsz, c, h, w_sp = xd.shape
    s = wd.shape[0]
    # one matmul per product, each operand oriented as NumPy's optimized
    # einsum ("bchw,sc->bshw" and its gradients) orients it, so the values
    # keep that form's bits; the output stays the s-major view it returned,
    # the memory order in which the mixture's spatial mean sums it
    out = np.matmul(wd, xd.transpose(1, 0, 2, 3).reshape(c, -1)) \
        .reshape(s, bsz, h, w_sp).transpose(1, 0, 2, 3)
    inputs: tuple[Tensor, ...]
    if b is not None:
        if b.data.shape != (s,):
            raise ShapeError(f"conv1x1: bias shape {b.shape} != ({s},)")
        out = out + b.data[None, :, None, None]
        inputs = (x, w, b)
    else:
        inputs = (x, w)

    def bw(g):
        dx = np.matmul(wd.T, g.transpose(1, 0, 2, 3).reshape(s, -1)) \
            .reshape(c, bsz, h, w_sp).transpose(1, 0, 2, 3) \
            if need_dx else None
        dw = np.matmul(xd.transpose(1, 0, 2, 3).reshape(c, -1),
                       g.transpose(0, 2, 3, 1).reshape(-1, s)).T
        if b is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    return _finish(out, inputs, bw, "conv1x1")


def _affine(x2: np.ndarray, wd: np.ndarray, bd: Optional[np.ndarray]
            ) -> np.ndarray:
    """[M, K] @ [K, N] (+ [N]) of a contiguous [M, K] input."""
    out = np.matmul(x2, wd, out=_empty((x2.shape[0], wd.shape[1])))
    if bd is not None:
        out += bd
    return out


def _affine_grads(g2: np.ndarray, x2: np.ndarray, wd: np.ndarray,
                  need_dx: bool, has_b: bool) -> tuple:
    """The [M, K] input, [K, N] weight and, if `has_b`, [N] bias gradients
    of `_affine` for the [M, N] output gradient `g2`; the input's is None
    unless `need_dx`."""
    grads = (g2 @ wd.T if need_dx else None, x2.T @ g2)
    return grads + (g2.sum(axis=0),) if has_b else grads


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: [..., K] @ [K, N] + [N].

    The leading axes are flattened into one 2-D product, so the weight
    gradient is a single [K, N] product rather than one per batch entry.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear expects [..., K] and [K, N], got {xd.shape} "
                         f"and {wd.shape}")
    n = wd.shape[1]
    if b is not None and b.data.shape != (n,):
        raise ShapeError(f"linear: bias shape {b.data.shape} != ({n},)")
    x2 = _contiguous(xd).reshape(-1, xd.shape[-1])
    xshape, need_dx = xd.shape, x.requires_grad
    out = _affine(x2, wd, None if b is None else b.data)
    inputs = (x, w) if b is None else (x, w, b)

    def bw(g):
        dx, *grads = _affine_grads(g.reshape(-1, n), x2, wd, need_dx,
                                   b is not None)
        return (None if dx is None else dx.reshape(xshape), *grads)

    return _finish(out.reshape(xshape[:-1] + (n,)), inputs, bw, "linear")


# [B, C, H/p, p, W/p, p] -> [B, H/p, W/p, C, p, p]
_PATCH_AXES = (0, 2, 4, 1, 3, 5)


def _patch_rows(xd: np.ndarray, patch: int) -> np.ndarray:
    """The [B*H/p*W/p, C*p*p] rows of a [B,C,H,W] image's p x p patches,
    each channel-major, copied as `reshape` and `permute` copy them."""
    b, c, h, w = xd.shape
    t = _contiguous(xd).reshape(b, c, h // patch, patch, w // patch, patch)
    return _contiguous(np.transpose(t, _PATCH_AXES)).reshape(
        -1, c * patch * patch)


def patch_embed(x: Tensor, w: Tensor, b: Tensor, patch: int) -> Tensor:
    """The non-overlapping `patch` x `patch` patches of a channels-first
    [B,C,H,W] image, each flattened channel-major and projected by
    [C*p*p, N] `w` and [N] `b`: a channels-last [B,H/p,W/p,N] map, as
    one tape entry.

    The result is that of the chain `reshape`, `permute`, `reshape` and
    `linear`. The rule keeps the image instead of the patch copy the
    product reads, cuts the patches again by the same copy, and runs
    `linear`'s rule and then the layout's, so values and gradients are
    the same bits as the chain's.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 4 or patch < 1 or xd.shape[2] % patch \
            or xd.shape[3] % patch:
        raise ShapeError(f"patch_embed: {patch}x{patch} patches do not tile "
                         f"a [B,C,H,W] image of shape {xd.shape}")
    bsz, c, h, w_sp = xd.shape
    k = c * patch * patch
    if wd.ndim != 2 or wd.shape[0] != k or b.data.shape != wd.shape[1:]:
        raise ShapeError(f"patch_embed: {k}-wide patches need [{k}, N] w and "
                         f"[N] b, got {wd.shape} and {b.data.shape}")
    n = wd.shape[1]
    grid = (bsz, h // patch, w_sp // patch)
    need_dx = x.requires_grad
    out = _affine(_patch_rows(xd, patch), wd, b.data)

    def bw(g):
        dx, dw, db = _affine_grads(g.reshape(-1, n), _patch_rows(xd, patch),
                                   wd, need_dx, True)
        if dx is not None:
            dx = np.ascontiguousarray(np.transpose(
                dx.reshape(grid + (c, patch, patch)),
                np.argsort(_PATCH_AXES))).reshape(xd.shape)
        return dx, dw, db

    return _finish(out.reshape(grid + (n,)), (x, w, b), bw, "patch_embed")


# the epsilon of every layer norm: `layer_norm`'s and `mlp_branch`'s
_LN_EPS = 1e-5


def _row_mean(x: np.ndarray) -> np.ndarray:
    """`x.mean(axis=-1, keepdims=True)` with its bits: the sum and the
    in-place true divide that NumPy's mean makes, without its dispatch."""
    m = np.add.reduce(x, -1, keepdims=True)
    m /= x.shape[-1]
    return m


def _norm_stats(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """xn = (x - mean) / denom over the last axis, and denom =
    sqrt(var + _LN_EPS)."""
    # centred here, scaled below
    xn = np.subtract(xd, _row_mean(xd), out=_empty(xd.shape))
    var = _row_mean(np.multiply(xn, xn, out=_empty(xd.shape)))
    # squares that overflow would otherwise normalize x to 0 and return beta
    _screen(var, "layer_norm variance")
    denom = np.sqrt(var + _LN_EPS)
    xn /= denom
    return xn, denom


def _norm_out(xn: np.ndarray, gd: np.ndarray, bd: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """The layer norm output xn * gamma + beta, into `out` (which may be
    `xn`) or a new array."""
    out = np.multiply(xn, gd, out=_empty(xn.shape) if out is None else out)
    out += bd
    return out


def _norm_grads(g: np.ndarray, xn: np.ndarray, denom: np.ndarray,
                gd: np.ndarray) -> tuple:
    """The input, gamma and beta gradients of a layer norm."""
    lead = tuple(range(xn.ndim - 1))
    dxn = g * gd
    dx = dxn - _row_mean(dxn)
    dx -= xn * _row_mean(dxn * xn)
    dx /= denom
    return dx, (g * xn).sum(axis=lead), g.sum(axis=lead)


def _check_norm_params(c: int, gamma: Tensor, beta: Tensor, op: str) -> None:
    for name, p in (("gamma", gamma), ("beta", beta)):
        if p.data.shape != (c,):
            raise ShapeError(f"{op}: {name} shape {p.data.shape} != ({c},)")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    With xn = (x - mean) / denom, denom = sqrt(var + _LN_EPS) and
    dxn = g * gamma, the input gradient is
    (dxn - mean(dxn) - xn * mean(dxn * xn)) / denom.
    """
    _check_norm_params(x.data.shape[-1], gamma, beta, "layer_norm")
    gd = gamma.data
    xn, denom = _norm_stats(x.data)
    out = _norm_out(xn, gd, beta.data)
    return _finish(out, (x, gamma, beta),
                   lambda g: _norm_grads(g, xn, denom, gd), "layer_norm")


def mlp_branch(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
               w2: Tensor, b2: Tensor) -> Tensor:
    """The pre-norm MLP residual branch
    `linear(gelu(linear(layer_norm(x, gamma, beta), w1, b1)), w2, b2)`
    as one tape entry: [..., C] -> [..., C] through a hidden width H, with
    [C, H] `w1` and [H, C] `w2`.

    The rule keeps only the norm's xn and denom. It rebuilds the norm
    output, the hidden pre-activation h from it by fc1's one product, and
    gelu's tanh and the activation from h, with the calls the forward
    made, and reuses the norm output for fc1's weight gradient. It runs
    the four ops' rules in the order a sweep of them would, so values and
    gradients are the same bits as that chain's.
    """
    xd = x.data
    c = xd.shape[-1]
    _check_norm_params(c, gamma, beta, "mlp_branch")
    if xd.ndim < 2 or w1.data.ndim != 2 or w1.data.shape[0] != c \
            or w2.data.shape != w1.data.shape[::-1] \
            or b1.data.shape != w1.data.shape[1:] or b2.data.shape != (c,):
        raise ShapeError(f"mlp_branch: input {xd.shape} needs [C, H] w1, [H] "
                         f"b1, [H, C] w2 and [C] b2, got {w1.data.shape}, "
                         f"{b1.data.shape}, {w2.data.shape} and "
                         f"{b2.data.shape}")
    xshape = xd.shape
    gd, bd, w1d, b1d, w2d = gamma.data, beta.data, w1.data, b1.data, w2.data
    inputs = (x, gamma, beta, w1, b1, w2, b2)
    need_n = x.requires_grad or gamma.requires_grad or beta.requires_grad
    need_h = need_n or w1.requires_grad or b1.requires_grad
    # without a graph nothing outlives its last reader, and the norm output
    # overwrites the array it is computed from; the activation always does
    keep = _grad_enabled and (need_h or w2.requires_grad or b2.requires_grad)
    xn, denom = _norm_stats(xd)
    n = _norm_out(xn, gd, bd, None if keep else xn).reshape(-1, c)
    if not keep:
        xn = None
    h = _affine(n, w1d, b1d)
    del n
    th = _gelu_tanh(h)
    act = _gelu_out(h, th, th)
    del th, h
    out = _affine(act, w2d, b2.data)
    del act

    def bw(g):
        g2 = g.reshape(-1, c)
        n = _norm_out(xn, gd, bd).reshape(-1, c)
        h = _affine(n, w1d, b1d)
        th = _gelu_tanh(h)
        act = _gelu_out(h, th)
        da, dw2, db2 = _affine_grads(g2, act, w2d, need_h, True)
        if not need_h:
            return None, None, None, None, None, dw2, db2
        dh = _gelu_grad(da, h, th, act)
        del act, da, h
        dn, dw1, db1 = _affine_grads(dh, n, w1d, need_n, True)
        del n, dh
        if not need_n:
            return None, None, None, dw1, db1, dw2, db2
        return (*_norm_grads(dn.reshape(xshape), xn, denom, gd),
                dw1, db1, dw2, db2)

    return _finish(out.reshape(xshape), inputs, bw, "mlp_branch")


def detach(a: Tensor) -> Tensor:
    """Constant copy: same values, no graph connection."""
    return Tensor(a.data.copy())
