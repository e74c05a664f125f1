"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is a tape: every differentiable op appends one entry (inputs,
output, backward rule) to the active tape in execution order, which is a
topological order by construction. `backward(loss)` replays the tape in
reverse, visits each entry at most once, and accumulates gradients into
the `.grad` of every leaf that has `requires_grad=True`.

Conventions:
  * storage is always contiguous row-major float64 (the reference dtype);
  * no implicit broadcasting: `add`/`mul`/`div` demand identical shapes,
    expansion is explicit via `broadcast_to`; the exceptions are `matmul`,
    which broadcasts its leading batch dimensions, and two in-op
    broadcasts of a trailing operand: the bias of `linear` and the
    additive constant mask of `softmax`;
  * checked mode (default on) rejects NaN/Inf at every op boundary.

Tapes nest: `with Tape() as t:` records onto `t`; outside any explicit
tape, ops record onto a lazily created default tape that is consumed and
reset by `backward`. `no_grad()` suspends recording entirely.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericsError, ShapeError, TapeError

__all__ = [
    "Tensor", "Tape", "backward", "no_grad", "checked_mode", "is_checked",
    "set_checked",
    "tensor", "zeros", "ones", "full", "randn", "trunc_normal",
    "add", "add_scalar", "sub", "neg", "mul", "div", "scale",
    "exp", "log", "sqrt", "tanh", "relu", "gelu",
    "broadcast_to", "reshape", "permute", "roll", "pad2d", "slice_nd",
    "concat", "reduce_sum", "reduce_mean", "mean_pool", "avg_pool2d",
    "matmul", "softmax", "log_softmax", "cross_entropy",
    "conv1x1", "linear", "layer_norm", "detach",
]

_grad_enabled: bool = True
_checked: bool = True


def is_checked() -> bool:
    return _checked


def set_checked(enabled: bool) -> None:
    """Globally enable or disable NaN/Inf screening at op boundaries."""
    global _checked
    _checked = bool(enabled)


@contextmanager
def checked_mode(enabled: bool):
    """Temporarily enable or disable NaN/Inf screening at op boundaries."""
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


def _screen(arr: np.ndarray, what: str) -> None:
    if _checked and not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values in {what}")


class Tensor:
    """A leaf or op output. Data is float64; grad (leaves only) matches shape."""

    __slots__ = ("data", "requires_grad", "grad", "_is_leaf", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _screen(arr, "tensor constructor input")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._is_leaf = True
        self._tape: Optional["Tape"] = None

    # ---- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data)

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    # ---- sugar ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(neg(self), float(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return scale(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)


class _Entry:
    __slots__ = ("inputs", "output", "bw")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor, bw: Callable):
        self.inputs = inputs
        self.output = output
        self.bw = bw


class Tape:
    """Ordered record of ops. Reverse replay yields reverse-mode gradients."""

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
        if not any(entry.output is loss for entry in self._entries):
            raise TapeError("loss is not recorded on this tape (already "
                            "consumed by a previous backward, or built "
                            "elsewhere)")
        self._used = True
        flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for entry in reversed(self._entries):
            g = flows.pop(id(entry.output), None)
            if g is None:
                continue
            grads = entry.bw(g)
            for t, ig in zip(entry.inputs, grads):
                if ig is None or not t.requires_grad:
                    continue
                if ig.shape != t.data.shape:
                    raise ShapeError(
                        f"backward produced grad shape {ig.shape} for input "
                        f"shape {t.data.shape}")
                if t._is_leaf:
                    t.grad = ig.copy() if t.grad is None else t.grad + ig
                else:
                    prev = flows.get(id(t))
                    flows[id(t)] = ig if prev is None else prev + ig
        if self._autoreset:
            self.reset()


_tape_stack: list[Tape] = []
_default_tape = Tape(autoreset=True)


def _active_tape() -> Optional[Tape]:
    if not _grad_enabled:
        return None
    if _tape_stack:
        return _tape_stack[-1]
    return _default_tape


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation for the tape that recorded `loss`."""
    if loss._tape is None:
        raise TapeError("loss has no recorded graph (leaf, detached, or no_grad)")
    loss._tape.backward(loss)


def _finish(data: np.ndarray, inputs: tuple[Tensor, ...], bw: Callable,
            what: str) -> Tensor:
    _screen(data, what)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._tape = None
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._is_leaf = False
        out._tape = tape
        tape._entries.append(_Entry(inputs, out, bw))
    else:
        out.requires_grad = False
        out._is_leaf = True
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ "
                         "(broadcasting is explicit; see broadcast_to)")


# ---- constructors -------------------------------------------------------

def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value, dtype=np.float64), requires_grad=requires_grad)


def randn(shape, rng: np.random.Generator, std: float = 1.0,
          requires_grad: bool = False) -> Tensor:
    return Tensor(rng.standard_normal(shape) * std, requires_grad=requires_grad)


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
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "add")
    return _finish(a.data + b.data, (a, b), lambda g: (g, g), "add")


def add_scalar(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _finish(a.data + c, (a,), lambda g: (g,), "add_scalar")


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "sub")
    return _finish(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _finish(-a.data, (a,), lambda g: (-g,), "neg")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _finish(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "div")
    ad, bd = a.data, b.data
    out = ad / bd

    def bw(g):
        return g / bd, -g * ad / (bd * bd)

    return _finish(out, (a, b), bw, "div")


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _finish(a.data * c, (a,), lambda g: (g * c,), "scale")


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _finish(out, (a,), lambda g: (g * out,), "exp")


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return _finish(np.log(ad), (a,), lambda g: (g / ad,), "log")


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return _finish(out, (a,), lambda g: (g * (0.5 / out),), "sqrt")


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _finish(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    return _finish(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,), "relu")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form."""
    a = _as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + _GELU_A * (x * x * x))
    th = np.tanh(inner)
    out = 0.5 * x * (1.0 + th)

    def bw(g):
        sech2 = 1.0 - th * th
        d = 0.5 * (1.0 + th) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        return (g * d,)

    return _finish(out, (a,), bw, "gelu")


# ---- shape --------------------------------------------------------------

def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Explicit expansion; backward sums over the expanded axes."""
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    src = a.data.shape
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError as e:
        raise ShapeError(f"broadcast_to: cannot expand {src} to {shape}") from e

    lead = len(shape) - len(src)

    def bw(g):
        if lead:
            g = g.sum(axis=tuple(range(lead)))
        keep = tuple(i for i, (s, t) in enumerate(zip(src, g.shape)) if s == 1 and t != 1)
        if keep:
            g = g.sum(axis=keep, keepdims=True)
        return (g.reshape(src),)

    return _finish(out, (a,), bw, "broadcast_to")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    src = a.data.shape
    try:
        out = np.reshape(a.data, shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {src} has {a.data.size} elements, "
                         f"target {shape} disagrees") from e
    out = np.ascontiguousarray(out)
    return _finish(out, (a,), lambda g: (g.reshape(src),), "reshape")


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of axes "
                         f"of shape {a.data.shape}")
    inv = np.argsort(axes)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    return _finish(out, (a,), lambda g: (np.ascontiguousarray(np.transpose(g, inv)),),
                   "permute")


def roll(a: Tensor, shifts: Sequence[int], axes: Sequence[int]) -> Tensor:
    """Cyclic shift along the given axes; exactly inverted by rolling back."""
    a = _as_tensor(a)
    shifts = tuple(int(s) for s in shifts)
    axes = tuple(int(x) for x in axes)
    out = np.roll(a.data, shifts, axis=axes)
    back = tuple(-s for s in shifts)
    return _finish(out, (a,), lambda g: (np.roll(g, back, axis=axes),), "roll")


def pad2d(a: Tensor, pad_bottom: int, pad_right: int) -> Tensor:
    """Zero-pad axes 1 and 2 (H and W of a [B,H,W,...] map) at the
    bottom/right edges."""
    a = _as_tensor(a)
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
    """Basic slicing (slice objects / ints forbidden: keep ranks stable)."""
    a = _as_tensor(a)
    if not isinstance(key, tuple):
        key = (key,)
    if not all(isinstance(k, slice) for k in key):
        raise ShapeError("slice_nd accepts slice objects only")
    out = np.ascontiguousarray(a.data[key])
    src = a.data.shape

    def bw(g):
        z = np.zeros(src, dtype=np.float64)
        z[key] = g
        return (z,)

    return _finish(out, (a,), bw, "slice_nd")


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
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


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    src = a.data.shape

    def bw(g):
        if not keepdims:
            shape = list(src)
            for ax in axes:
                shape[ax] = 1
            g = g.reshape(shape)
        return (np.broadcast_to(g, src).copy(),)

    return _finish(np.asarray(out), (a,), bw, "reduce_sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    out = a.data.mean(axis=axes, keepdims=keepdims)
    src = a.data.shape

    def bw(g):
        if not keepdims:
            shape = list(src)
            for ax in axes:
                shape[ax] = 1
            g = g.reshape(shape)
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
    a = _as_tensor(a)
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

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    keep = tuple(i for i, (s, t) in enumerate(zip(shape, g.shape)) if s == 1 and t != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading batch dims broadcast (only here)."""
    a, b = _as_tensor(a), _as_tensor(b)
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


def softmax(a: Tensor, axis: int = -1,
            mask: Optional[np.ndarray] = None) -> Tensor:
    """Stable softmax along one axis; rows sum to 1.

    `mask` is an optional additive constant (no gradient), broadcast onto
    `a` before the row max: 0 keeps an entry, a large negative value such
    as -1e9 suppresses it.
    """
    a = _as_tensor(a)
    ax = axis % a.data.ndim
    if mask is None:
        out = a.data - a.data.max(axis=ax, keepdims=True)
    else:
        m = np.asarray(mask, dtype=np.float64)
        try:
            grown = np.broadcast_shapes(m.shape, a.data.shape) != a.data.shape
        except ValueError:
            grown = True
        if grown:
            raise ShapeError(f"softmax: mask shape {m.shape} does not "
                             f"broadcast onto {a.data.shape}")
        _screen(m, "softmax mask")
        out = a.data + m
        out -= out.max(axis=ax, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=ax, keepdims=True)
        return ((g - inner) * out,)

    return _finish(out, (a,), bw, "softmax")


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Composite log-softmax; the row max is a constant shift, so the
    gradient is exact despite detaching it."""
    a = _as_tensor(a)
    ax = axis % a.data.ndim
    mx = Tensor(a.data.max(axis=ax, keepdims=True))
    shifted = sub(a, broadcast_to(mx, a.shape))
    lse = log(reduce_sum(exp(shifted), axis=ax, keepdims=True))
    return sub(shifted, broadcast_to(lse, a.shape))


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax(logits).

    `weights` is an optional per-sample vector; a uniform vector factors out
    of the sum, so `cross_entropy(x, t, w*ones) == w * cross_entropy(x, t)`
    holds exactly.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [N, C] logits, got {logits.shape}")
    n, c = logits.data.shape
    if n == 0:
        raise ShapeError("cross_entropy: empty batch")
    t = np.asarray(targets)
    if t.shape != (n,):
        raise ShapeError(f"cross_entropy: {n} rows but target shape {t.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        t = t.astype(np.int64)
    if t.min(initial=0) < 0 or t.max(initial=0) >= c:
        raise IndexError(f"cross_entropy: target outside [0, {c})")

    w = None
    uniform = 1.0
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ShapeError(f"cross_entropy: weight shape {w.shape} != ({n},)")
        if np.all(w == w[0]):
            uniform, w = float(w[0]), None

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(n)
    per_sample = -logp[rows, t]
    if w is None:
        value = uniform * (per_sample.sum() / n)
    else:
        value = (w * per_sample).sum() / n

    def bw(g):
        p = np.exp(logp)
        p[rows, t] -= 1.0
        if w is None:
            return (g * (uniform / n) * p,)
        return (g * (w[:, None] / n) * p,)

    return _finish(np.asarray(value), (logits,), bw, "cross_entropy")


def conv1x1(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Pointwise convolution: [B,C,H,W] x [S,C] (+[S]) -> [B,S,H,W]."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 2:
        raise ShapeError(f"conv1x1 expects [B,C,H,W] and [S,C], got {x.shape} "
                         f"and {w.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"conv1x1: channel mismatch between input {x.shape} "
                         f"and kernel {w.shape}")
    xd, wd = x.data, w.data
    out = np.einsum("bchw,sc->bshw", xd, wd, optimize=True)
    inputs: tuple[Tensor, ...]
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (wd.shape[0],):
            raise ShapeError(f"conv1x1: bias shape {b.shape} != ({wd.shape[0]},)")
        out = out + b.data[None, :, None, None]
        inputs = (x, w, b)
    else:
        inputs = (x, w)

    def bw(g):
        dx = np.einsum("bshw,sc->bchw", g, wd, optimize=True)
        dw = np.einsum("bshw,bchw->sc", g, xd, optimize=True)
        if b is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    return _finish(out, inputs, bw, "conv1x1")


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: [..., K] @ [K, N] + [N].

    The leading axes are flattened into one 2-D product, so the weight
    gradient is a single [K, N] product rather than one per batch entry.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear expects [..., K] and [K, N], got {xd.shape} "
                         f"and {wd.shape}")
    n = wd.shape[1]
    x2 = xd.reshape(-1, xd.shape[-1])
    out = x2 @ wd
    inputs: tuple[Tensor, ...] = (x, w)
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (n,):
            raise ShapeError(f"linear: bias shape {b.data.shape} != ({n},)")
        out += b.data
        inputs = (x, w, b)

    def bw(g):
        g2 = g.reshape(-1, n)
        grads = ((g2 @ wd.T).reshape(xd.shape), x2.T @ g2)
        return grads + (g2.sum(axis=0),) if b is not None else grads

    return _finish(out.reshape(xd.shape[:-1] + (n,)), inputs, bw, "linear")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    With xn = (x - mean) / denom, denom = sqrt(var + eps) and
    dxn = g * gamma, the input gradient is
    (dxn - mean(dxn) - xn * mean(dxn * xn)) / denom.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c = x.data.shape[-1]
    for name, p in (("gamma", gamma), ("beta", beta)):
        if p.data.shape != (c,):
            raise ShapeError(f"layer_norm: {name} shape {p.data.shape} != ({c},)")
    xd, gd = x.data, gamma.data
    xn = xd - xd.mean(axis=-1, keepdims=True)  # centred here, scaled below
    var = (xn * xn).mean(axis=-1, keepdims=True)
    # squares that overflow would otherwise normalize x to 0 and return beta
    _screen(var, "layer_norm variance")
    denom = np.sqrt(var + eps)
    xn /= denom
    out = xn * gd
    out += beta.data
    lead = tuple(range(xd.ndim - 1))

    def bw(g):
        dxn = g * gd
        dx = dxn - dxn.mean(axis=-1, keepdims=True)
        dx -= xn * (dxn * xn).mean(axis=-1, keepdims=True)
        dx /= denom
        return dx, (g * xn).sum(axis=lead), g.sum(axis=lead)

    return _finish(out, (x, gamma, beta), bw, "layer_norm")


def detach(a: Tensor) -> Tensor:
    """Constant copy: same values, no graph connection."""
    a = _as_tensor(a)
    return Tensor(a.data.copy())
