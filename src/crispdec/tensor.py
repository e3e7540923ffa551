"""Minimal dense-tensor engine with reverse-mode differentiation.

Arrays are plain numpy buffers in N,C,H,W layout for feature maps. Every
primitive records its parents and a closure that routes the upstream
gradient; `backward` replays the tape in reverse topological order.
Double precision is the default so analytic gradients can be checked
against central finite differences at tight tolerances.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "Tensor",
    "no_grad",
    "cat",
    "conv2d",
    "bilinear_upsample",
    "softmax",
    "log_softmax",
]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _sigmoid(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sigmoid(x) from e = exp(-|x|), split by sign so exp never overflows."""
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _consumed(g=None):
    """The backward of a node whose graph `Tensor.backward` has consumed."""
    raise RuntimeError("backward through a graph an earlier backward consumed")


class Tensor:
    """A dense array plus optional gradient accumulator.

    Only singleton-axis broadcasting is supported in binary ops; that is
    all the decoder needs (gates over class channels, per-image scalars).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    _recording = True  # off inside `no_grad`

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data, parents, backward):
        out = cls(data)
        out.requires_grad = cls._recording and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        """Add `g` into `grad`. A first contribution lands as 0 + g, the
        values that zero-filling and adding give, in one pass instead of
        two, and in an array of its own, so no gradient aliases g."""
        if self.grad is None:
            self.grad = np.add(0.0, g, out=np.empty_like(self.data))
        else:
            self.grad += g

    # -- autodiff --------------------------------------------------------------

    def backward(self):
        """Populate `grad` on every reachable leaf, consuming the graph.

        The root must be scalar. Once a node's backward has run, its
        closure, its parent links and, unless it is a leaf, its gradient are
        dropped, so what only the tape held (saved activations, im2col
        columns, intermediate gradients) is freed with the graph instead of
        living until the caller drops the root. Repeated calls without
        `zero_grad` accumulate into the leaves, each through a freshly
        built graph; a pass that reaches a node an earlier pass consumed
        raises RuntimeError.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar root tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._backward is _consumed:
                _consumed()  # before any gradient moves
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _consumed, ()

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)):
            # python scalars follow the tensor's dtype instead of promoting
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(np.asarray(other))

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._from_op(a.data + b.data, (a, b), bwd)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def bwd(g):
            a._accumulate(-g)

        return Tensor._from_op(-a.data, (a,), bwd)

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(-_unbroadcast(g, b.shape))

        return Tensor._from_op(a.data - b.data, (a, b), bwd)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(a.data * b.data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._from_op(a.data / b.data, (a, b), bwd)

    def __getitem__(self, idx):
        a = self

        def bwd(g):
            full = np.zeros_like(a.data)
            full[idx] = g
            a._accumulate(full)

        return Tensor._from_op(a.data[idx], (a,), bwd)

    # -- pointwise nonlinearities ------------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bwd(g):
            a._accumulate(g * out_data)

        return Tensor._from_op(out_data, (a,), bwd)

    def log(self):
        if np.any(self.data <= 0):
            raise ValueError("log requires strictly positive inputs")
        a = self

        def bwd(g):
            a._accumulate(g / a.data)

        return Tensor._from_op(np.log(a.data), (a,), bwd)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def bwd(g):
            a._accumulate(g * 0.5 / out_data)

        return Tensor._from_op(out_data, (a,), bwd)

    def abs(self):
        a = self

        def bwd(g):
            a._accumulate(g * np.sign(a.data))

        return Tensor._from_op(np.abs(a.data), (a,), bwd)

    def relu(self):
        a = self
        mask = a.data > 0

        def bwd(g):
            a._accumulate(g * mask)

        return Tensor._from_op(a.data * mask, (a,), bwd)

    def sigmoid(self):
        a = self
        out_data = _sigmoid(np.exp(-np.abs(a.data)), a.data)

        def bwd(g):
            a._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (a,), bwd)

    def softplus(self):
        """ln(1+e^x) with a large-x branch: softplus(x) = max(x,0) + log1p(e^-|x|)."""
        a = self
        e = np.exp(-np.abs(a.data))
        out_data = np.maximum(a.data, 0.0) + np.log1p(e)
        sig = _sigmoid(e, a.data)

        def bwd(g):
            a._accumulate(g * sig)

        return Tensor._from_op(out_data, (a,), bwd)

    # -- reductions ----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def bwd(g):
            # _accumulate broadcasts g over the summed axes itself
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape))

        return Tensor._from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        s = self.sum(axis=axis, keepdims=keepdims)
        return s * (1.0 / (self.size // s.size))

    def _extreme(self, axis, keepdims, fn):
        a = self
        out_data = fn(a.data, axis=axis, keepdims=True)
        mask = a.data == out_data
        counts = mask.sum(axis=axis, keepdims=True)

        def bwd(g):
            gk = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(mask * (gk / counts))

        out = out_data if keepdims else np.squeeze(out_data, axis=axis)
        return Tensor._from_op(out, (a,), bwd)

    def max(self, axis, keepdims: bool = False):
        return self._extreme(axis, keepdims, np.max)

    def min(self, axis, keepdims: bool = False):
        return self._extreme(axis, keepdims, np.min)


@contextmanager
def no_grad():
    """Inside this block ops record no parents and no backward closure, so
    a forward-only pass keeps no graph; the values are the same."""
    prev = Tensor._recording
    Tensor._recording = False
    try:
        yield
    finally:
        Tensor._recording = prev


# -- structural ops ------------------------------------------------------------------


def cat(tensors, axis: int = 1) -> Tensor:
    """Concatenate along `axis`; backward splits the gradient."""
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._from_op(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd
    )


def softmax(t: Tensor, axis: int) -> Tensor:
    """Softmax e / sum(e), e = exp(t - max t), along `axis`, as one node
    whose backward is the chain rule through the division, the sum and the
    exp, in the order and so with the rounding of those primitives."""
    e = np.exp(t.data - t.data.max(axis=axis, keepdims=True))
    s = e.sum(axis=axis, keepdims=True)

    def bwd(g):
        t._accumulate((g / s + (-g * e / (s * s)).sum(axis=axis, keepdims=True)) * e)

    return Tensor._from_op(e / s, (t,), bwd)


def log_softmax(t: Tensor, axis: int) -> Tensor:
    """z - log(sum(exp z)), z = t - max t, along `axis`, as one node whose
    backward is g - sum(g) / sum(exp z) * exp z, as the primitives round it."""
    z = t.data - t.data.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    s = ez.sum(axis=axis, keepdims=True)

    def bwd(g):
        t._accumulate(g + -g.sum(axis=axis, keepdims=True) / s * ez)

    return Tensor._from_op(z - np.log(s), (t,), bwd)


def conv2d(t: Tensor, kernel: Tensor, bias: Tensor | None = None,
           padding: int = 0, stride: int = 1) -> Tensor:
    """Cross-correlation of an N,Cin,H,W map with a Cout,Cin,k,k kernel.

    Odd kernels only; padding 0 for 1x1 and 1 for 3x3 preserve spatial size
    at stride 1. Differentiable w.r.t. input, kernel, and bias.
    """
    if t.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    n, cin, h, w = t.shape
    cout, cin_k, kh, kw = kernel.shape
    if cin != cin_k:
        raise ValueError(f"channel mismatch: input has {cin}, kernel expects {cin_k}")
    if kh != kw:
        raise ValueError("square kernels only")
    k, p, s = kh, padding, stride
    hout = (h + 2 * p - k) // s + 1
    wout = (w + 2 * p - k) // s + 1
    if hout <= 0 or wout <= 0:
        raise ValueError("spatial output would be empty")

    if p:
        xp = np.zeros((n, cin, h + 2 * p, w + 2 * p), dtype=t.data.dtype)
        xp[:, :, p:p + h, p:p + w] = t.data
    else:
        xp = t.data
    # cols[n, cin, ki, kj, ho, wo] = xp[n, cin, ki + s*ho, kj + s*wo], copied
    # in one pass from a window view; for a 1x1 stride-1 kernel over a
    # contiguous input the view already is contiguous and is not copied
    sn, sc, sh, sw = xp.strides
    cols = np.ascontiguousarray(as_strided(
        xp, (n, cin, k, k, hout, wout), (sn, sc, sh, sw, s * sh, s * sw), writeable=False))
    # one GEMM per image, with the image as matmul's batch axis: an image's
    # output then sums in the same order whatever batch it is in
    cols = cols.reshape(n, cin * k * k, hout * wout)
    kmat = kernel.data.reshape(cout, cin * k * k)
    out_data = np.matmul(kmat, cols).reshape(n, cout, hout, wout)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, cout, 1, 1)

    parents = (t, kernel) if bias is None else (t, kernel, bias)

    def bwd(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)).reshape(bias.shape))
        gmat = g.reshape(n, cout, hout * wout)
        if kernel.requires_grad:
            gk = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0)
            kernel._accumulate(gk.reshape(kernel.shape))
        if t.requires_grad and k == 1 and s == 1 and p == 0:
            # the GEMM itself: no other column adds into an input pixel. With
            # one output channel numpy's matmul leaves BLAS for a loop that
            # forms 0 + k * g; a broadcast product and an in-place 0 + give
            # its bytes at a fraction of its time
            if cout == 1:
                gx = kmat.reshape(1, cin, 1) * gmat
                gx += 0.0
            else:
                gx = np.matmul(kmat.T, gmat)
            t._accumulate(gx.astype(t.data.dtype, copy=False).reshape(t.shape))
        elif t.requires_grad:
            gcols = np.matmul(kmat.T, gmat).reshape(n, cin, k, k, hout, wout)
            gxp = np.zeros_like(xp)
            for ki in range(k):
                for kj in range(k):
                    gxp[:, :, ki:ki + s * hout:s, kj:kj + s * wout:s] += gcols[:, :, ki, kj]
            t._accumulate(gxp[:, :, p:p + h, p:p + w] if p else gxp)

    return Tensor._from_op(out_data, parents, bwd)


@lru_cache(maxsize=64)
def _interp_matrix(src: int, dst: int, dtype=np.float64) -> np.ndarray:
    """[dst, src] half-pixel-center bilinear weights: row i blends the two
    source samples nearest output i, clamped at the edges, so each row has
    at most two nonzeros and sums to 1. Built in float64 and rounded to
    `dtype`. Cached per (src, dst, dtype), a model uses a handful of
    triples, and read-only, since every caller shares it."""
    coords = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    coords = np.clip(coords, 0.0, src - 1.0)
    lo = np.floor(coords).astype(np.intp)
    hi = np.minimum(lo + 1, src - 1)
    frac = coords - lo
    rows = np.arange(dst)
    m = np.zeros((dst, src))
    m[rows, hi] += frac
    m[rows, lo] += 1.0 - frac
    m = m.astype(dtype, copy=False)
    m.flags.writeable = False
    return m


def bilinear_upsample(t: Tensor, target_h: int, target_w: int, dtype=None) -> Tensor:
    """Bilinear interpolation to (target_h, target_w), half-pixel centers
    (align_corners false). Mean-preserving on constant inputs. Separable and
    linear, so the forward is R_h X R_w^T and the backward its transpose.
    The weights are in `dtype`, by default the input's, and numpy's type
    promotion gives the output the wider of the two."""
    if t.data.ndim != 4:
        raise ValueError("bilinear_upsample expects an N,C,H,W tensor")
    h, w = t.shape[2:]
    if h == 0 or w == 0 or target_h <= 0 or target_w <= 0:
        raise ValueError("zero-sized spatial dimensions")
    if target_h < h or target_w < w:
        raise ValueError("only upsampling is supported")
    dtype = np.dtype(t.data.dtype if dtype is None else dtype).type
    if (target_h, target_w) == (h, w):
        return t * np.ones((), dtype)  # identity, but keeps a graph node

    rh = _interp_matrix(h, target_h, dtype)
    rw = _interp_matrix(w, target_w, dtype)

    def bwd(g):
        t._accumulate(rh.T @ g @ rw)

    return Tensor._from_op(rh @ t.data @ rw.T, (t,), bwd)
