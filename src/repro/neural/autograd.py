"""A small tape-based reverse-mode autograd engine on numpy arrays.

Just enough surface for LSTM seq2seq models with attention and copying:
dense algebra (matmul, add with broadcasting, elementwise mul), the
gate nonlinearities, softmax/log, slicing and concatenation, embedding
gather, batched attention primitives (stack / attention scores /
weighted context), and a scatter op for copy distributions.

Every op records a backward closure on the global tape implicitly via
parent links; ``Tensor.backward()`` topologically sorts the graph and
accumulates gradients.  Gradients are checked against finite differences
in the test suite.

Dtype policy (see :mod:`repro.neural.dtype`): float32 and float64
arrays pass through untouched — ops never upcast — while everything
else is cast to the process default (float64).  Inference paths wrap
their forwards in :func:`no_grad` so no graph is recorded at all.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.neural.dtype import get_default_dtype

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording: ops built inside produce constant
    tensors with no parents, so decoding holds no activation graph."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """Whether ops currently record the backward graph."""
    return _grad_enabled


class Tensor:
    """A numpy array with gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        array = np.asarray(data)
        if array.dtype not in _FLOAT_DTYPES:
            array = array.astype(get_default_dtype())
        self.data = array
        self.grad: Optional[np.ndarray] = None
        if _grad_enabled:
            self.requires_grad = requires_grad or any(
                p.requires_grad for p in parents
            )
            self._parents = parents
        else:
            # Inside no_grad the node is a constant: keeping parent
            # links would pin every intermediate of a decode loop.
            self.requires_grad = requires_grad if not parents else False
            self._parents = ()
        self._backward = backward
        self.name = name

    # ----- bookkeeping ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Copy so later in-place += never aliases an op's output.
            self.grad = np.array(grad)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient the caller freshly allocated and will
        never mutate again: the first touch takes the array by
        reference instead of copying it.  Only for closures that can
        guarantee ownership — passing a view of a child's gradient
        here would corrupt it on a later ``+=``."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(
        self, grad: Optional[np.ndarray] = None, free_graph: bool = False
    ) -> None:
        """Backpropagate from this tensor (default seed: ones).

        With ``free_graph=True`` each interior node's gradient, parent
        links, and backward closure are dropped as soon as its closure
        has run, so the peak memory of a training step is the forward
        activations plus one gradient front instead of the whole tape.
        Leaf parameters keep their accumulated gradients.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def visit(node: Tensor) -> None:
            # Constant nodes are marked visited too: a shared constant
            # (e.g. the scatter indices' subgraph) is then checked once
            # instead of on every edge that reaches it.
            if id(node) in visited:
                return
            visited.add(id(node))
            if not node.requires_grad:
                return
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if free_graph and node._parents:
                node.grad = None
                node._parents = ()
                node._backward = None

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}, name={self.name!r})"

    # ----- operators -------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def parameter(array: np.ndarray, name: str = "") -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(array, requires_grad=True, name=name)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* back to *shape* after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ----- arithmetic -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(grad: np.ndarray) -> None:
        # grad * data is a fresh array, so even when _unbroadcast is a
        # no-op the result is ours to hand over by reference.
        if a.requires_grad:
            a._accumulate_owned(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate_owned(_unbroadcast(grad * a.data, b.shape))

    out._backward = backward
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    out = Tensor(a.data * factor, parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_owned(grad * factor)

    out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_owned(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate_owned(a.data.T @ grad)

    out._backward = backward
    return out


# ----- nonlinearities --------------------------------------------------------


def sigmoid_array(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The logistic ``1 / (1 + exp(-clip(z, -60, 60)))`` of a raw array,
    into *out* (a new array when omitted).

    The one gate activation of the engine: :func:`sigmoid`, both LSTM
    kernels and :mod:`repro.neural.infer` all call it, so their values
    agree bit for bit.  ``np.maximum`` then ``np.minimum`` equal
    ``np.clip`` bit for bit (NaN, ±inf and -0.0 included) but skip its
    Python wrapper, which costs more than the math on gate-sized blocks.
    """
    out = np.maximum(z, -60, out=out)
    np.minimum(out, 60, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def sigmoid(a: Tensor) -> Tensor:
    value = sigmoid_array(a.data)
    out = Tensor(value, parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_owned(grad * value * (1.0 - value))

    out._backward = backward
    return out


def tanh(a: Tensor) -> Tensor:
    value = np.tanh(a.data)
    out = Tensor(value, parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_owned(grad * (1.0 - value**2))

    out._backward = backward
    return out


# ----- shaping ----------------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad: np.ndarray) -> None:
        start = 0
        for tensor, size in zip(tensors, sizes):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, start + size)
            if tensor.requires_grad:
                tensor._accumulate(grad[tuple(index)])
            start += size

    out._backward = backward
    return out


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[:, start:stop], parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[:, start:stop] = grad
            a._accumulate_owned(full)

    out._backward = backward
    return out


def stack_seq(tensors: Sequence[Tensor]) -> Tensor:
    """Stack L tensors of shape (B, H) into (B, L, H)."""
    out = Tensor(np.stack([t.data for t in tensors], axis=1), parents=tuple(tensors))

    def backward(grad: np.ndarray) -> None:
        for index, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(grad[:, index, :])

    out._backward = backward
    return out


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two (B, L, H) sequences along the feature axis.

    The bi-directional encoder uses this to join the stacked forward
    and backward passes with one node instead of L per-position
    :func:`concat` nodes.
    """
    width = a.data.shape[2]
    out = Tensor(np.concatenate([a.data, b.data], axis=2), parents=(a, b))

    def backward(grad: np.ndarray) -> None:
        # The halves are views of the child's gradient — copying
        # accumulation only; taking them by reference would let a later
        # += corrupt the child.
        if a.requires_grad:
            a._accumulate(grad[:, :, :width])
        if b.requires_grad:
            b._accumulate(grad[:, :, width:])

    out._backward = backward
    return out


# ----- embeddings --------------------------------------------------------------


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows: weight (V, D), indices (B,) → (B, D)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = Tensor(weight.data[indices], parents=(weight,))

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            full = np.zeros_like(weight.data)
            np.add.at(full, indices, grad)
            weight._accumulate_owned(full)

    out._backward = backward
    return out


def embedding_seq(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather a whole sequence at once: weight (V, D), indices (B, L)
    → (B, L, D).

    One gather plus one scatter-add replaces the L per-position
    :func:`embedding` calls (each of which allocated a dense (V, D)
    gradient buffer) — the single biggest allocation sink of the
    per-position encoder backward.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out = Tensor(weight.data[indices], parents=(weight,))

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            full = np.zeros_like(weight.data)
            np.add.at(
                full,
                indices.reshape(-1),
                grad.reshape(-1, weight.data.shape[1]),
            )
            weight._accumulate_owned(full)

    out._backward = backward
    return out


def slice_time(a: Tensor, position: int) -> Tensor:
    """Pick one timestep: a (B, L, D) → (B, D).

    The backward writes straight into ``a.grad`` instead of building a
    dense (B, L, D) scratch per position.
    """
    out = Tensor(a.data[:, position, :], parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[:, position, :] += grad

    out._backward = backward
    return out


# ----- fused recurrence ---------------------------------------------------------


def matmul_seq(a: Tensor, b: Tensor) -> Tensor:
    """Sequence matmul: a (B, L, D) @ b (D, M) → (B, L, M).

    One GEMM over the flattened (B·L, D) sequence.  The encoder uses it
    to hoist every timestep's input projection ``x_t @ w_x`` out of the
    recurrence: the per-step kernel then only pays the state matmul,
    and the backward pays two sequence-sized GEMMs instead of 2·L
    step-sized ones.
    """
    batch, length, dim = a.data.shape
    flat = a.data.reshape(batch * length, dim)
    value = (flat @ b.data).reshape(batch, length, -1)
    out = Tensor(value, parents=(a, b))

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch * length, -1)
        if a.requires_grad:
            a._accumulate_owned(
                (grad_flat @ b.data.T).reshape(batch, length, dim)
            )
        if b.requires_grad:
            b._accumulate_owned(flat.T @ grad_flat)

    out._backward = backward
    return out


def lstm_step(
    x: Optional[Tensor],
    w_x: Tensor,
    w_h: Tensor,
    bias: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    x_proj: Optional[Tensor] = None,
) -> Tuple[Tensor, Tensor]:
    """One fused LSTM step: all four gates, the cell update, and the
    output in two graph nodes instead of ~14.

    Forward math (and therefore values, bit for bit) matches the
    composed op-by-op cell in :class:`repro.neural.layers.LSTMCell`:
    ``z = (x @ w_x + h @ w_h) + b``; ``i, f, g, o`` from the four gate
    blocks; ``c = f*c_prev + i*g``; ``h = o*tanh(c)``.

    The backward is split across the two returned nodes: ``h``'s
    closure runs first (``c`` is its parent, so topological order
    guarantees it) and stashes the output-gate pre-activation gradient;
    ``c``'s closure then has the *total* cell gradient — the ``tanh``
    path through ``h`` plus whatever the next step contributed — and
    backpropagates the whole gate block at once.

    When *x_proj* is given it is the precomputed ``x @ w_x`` for this
    step (a :func:`slice_time` of a :func:`matmul_seq` projection); the
    kernel then skips the input matmul entirely and routes ``dz``
    straight to the projection node.
    """
    if x_proj is not None:
        z = x_proj.data + h_prev.data @ w_h.data
    else:
        # Built in place; the value association is still
        # (x @ w_x + h @ w_h) + bias, bit-identical to the unfused path.
        z = x.data @ w_x.data
        z += h_prev.data @ w_h.data
    z += bias.data
    hidden = z.shape[1] // 4
    # One activation pass over the whole (B, 4H) block: sigmoid
    # everywhere (elementwise bitwise-identical to the seed's
    # 1/(1+exp(-clip(z)))), then the g block is overwritten with its
    # tanh.  On one core, ufunc dispatch — not FLOPs — dominates these
    # small arrays, so 4 dispatches beat 12 even with the wasted
    # quarter-block exp.
    gates = sigmoid_array(z)
    g = np.tanh(z[:, 2 * hidden : 3 * hidden])
    gates[:, 2 * hidden : 3 * hidden] = g
    i = gates[:, :hidden]
    f = gates[:, hidden : 2 * hidden]
    o = gates[:, 3 * hidden :]
    c_value = f * c_prev.data
    c_value += i * g
    tanh_c = np.tanh(c_value)
    h_value = o * tanh_c

    if x_proj is not None:
        step_parents = (x_proj, w_h, bias, h_prev, c_prev)
    else:
        step_parents = (x, w_x, w_h, bias, h_prev, c_prev)
    c_out = Tensor(c_value, parents=step_parents)
    h_out = Tensor(h_value, parents=(c_out,))
    # h's backward runs before c's; it parks the output-gate piece of
    # the pre-activation gradient here for c's closure to pick up.
    stash = {}

    def backward_h(grad: np.ndarray) -> None:
        # Park d(activation_o) = dh * tanh(c); the sigmoid derivative is
        # applied in backward_c's single whole-block pass.
        stash["dact_o"] = grad * tanh_c
        dct = tanh_c * tanh_c
        np.subtract(1.0, dct, out=dct)
        dct *= o
        dct *= grad
        c_out._accumulate_owned(dct)

    def backward_c(dc: np.ndarray) -> None:
        # Fill dz with d(activation) per gate block, then multiply the
        # whole (B, 4H) block by the activation derivatives in one pass:
        # s*(1-s) everywhere, with the g block patched to 1-g².
        dz = np.empty_like(z)
        np.multiply(dc, g, out=dz[:, :hidden])
        np.multiply(dc, c_prev.data, out=dz[:, hidden : 2 * hidden])
        np.multiply(dc, i, out=dz[:, 2 * hidden : 3 * hidden])
        dact_o = stash.get("dact_o")
        if dact_o is None:
            dz[:, 3 * hidden :] = 0.0
        else:
            dz[:, 3 * hidden :] = dact_o
        deriv = 1.0 - gates
        deriv *= gates
        gblock = deriv[:, 2 * hidden : 3 * hidden]
        np.multiply(g, g, out=gblock)
        np.subtract(1.0, gblock, out=gblock)
        dz *= deriv
        if c_prev.requires_grad:
            c_prev._accumulate_owned(dc * f)
        if bias.requires_grad:
            bias._accumulate_owned(dz.sum(axis=0, keepdims=True))
        if x_proj is not None:
            if x_proj.requires_grad:
                # dz is created by this closure and never mutated after,
                # so the projection node can take it by reference.
                x_proj._accumulate_owned(dz)
        else:
            if x.requires_grad:
                x._accumulate_owned(dz @ w_x.data.T)
            if w_x.requires_grad:
                w_x._accumulate_owned(x.data.T @ dz)
        if h_prev.requires_grad:
            h_prev._accumulate_owned(dz @ w_h.data.T)
        if w_h.requires_grad:
            w_h._accumulate_owned(h_prev.data.T @ dz)

    h_out._backward = backward_h
    c_out._backward = backward_c
    return h_out, c_out


def lstm_seq(
    x_proj: Tensor,
    w_h: Tensor,
    bias: Tensor,
    h0: Tensor,
    c0: Tensor,
    keep: Optional[np.ndarray] = None,
    reverse: bool = False,
) -> Tensor:
    """Run a whole LSTM recurrence as ONE graph node.

    *x_proj* (B, L, 4H) holds every timestep's input projection (a
    :func:`matmul_seq`); the loop here is pure numpy — no per-step
    tensors, closures, or topo-sort bookkeeping, which on one core is
    most of what a step costs.  Per element the math (and its
    association) is identical to :func:`lstm_step`, so the forward
    values match the op-by-op cell bit for bit.

    *keep* is the (B, L) validity mask: padded positions carry the
    previous state through, with the same ``h_new*keep + h_prev*drop``
    blend the layer-level path uses.  ``reverse=True`` runs the
    recurrence right-to-left (the backward direction of a bi-LSTM);
    outputs stay laid out by absolute position.

    Returns the carried hidden states (B, L, H).  The recurrence's
    backward batches the weight gradient into one (L·B)-row GEMM and
    hands the input-projection gradient over as a single array, so only
    the unavoidable per-step ``dz @ w_h.T`` GEMM remains in the loop.
    """
    P = x_proj.data
    batch, length, width = P.shape
    hidden = width // 4
    dtype = P.dtype
    wh = w_h.data
    b = bias.data
    h = h0.data
    c = c0.data
    times = list(range(length))
    if reverse:
        times.reverse()
    if keep is not None:
        keep_arr = np.asarray(keep, dtype=dtype)
        full_cols = keep_arr.all(axis=0)
        if full_cols.all():
            keep_arr = None
    else:
        keep_arr = None
    # Time-major saved state: [t] slices are contiguous, which keeps
    # every ufunc in the loops on contiguous memory.
    gates_seq = np.empty((length, batch, width), dtype=dtype)
    tanhc_seq = np.empty((length, batch, hidden), dtype=dtype)
    c_seq = np.empty((length, batch, hidden), dtype=dtype)
    h_seq = np.empty((length, batch, hidden), dtype=dtype)

    for t in times:
        z = P[:, t] + h @ wh  # same association as the fused cell
        z += b
        gates = sigmoid_array(z, out=gates_seq[t])
        np.tanh(z[:, 2 * hidden : 3 * hidden], out=gates[:, 2 * hidden : 3 * hidden])
        i = gates[:, :hidden]
        f = gates[:, hidden : 2 * hidden]
        g = gates[:, 2 * hidden : 3 * hidden]
        o = gates[:, 3 * hidden :]
        c_new = c_seq[t]
        np.multiply(f, c, out=c_new)
        c_new += i * g
        tanh_c = tanhc_seq[t]
        np.tanh(c_new, out=tanh_c)
        h_new = h_seq[t]
        np.multiply(o, tanh_c, out=h_new)
        if keep_arr is not None and not full_cols[t]:
            kt = keep_arr[:, t : t + 1]
            dt = 1.0 - kt
            h_new *= kt
            h_new += h * dt
            c_new *= kt
            c_new += c * dt
        h = h_new
        c = c_new
    value = np.ascontiguousarray(h_seq.transpose(1, 0, 2))
    out = Tensor(value, parents=(x_proj, w_h, bias, h0, c0))

    def backward(grad: np.ndarray) -> None:
        grad_t = grad.transpose(1, 0, 2)  # (L, B, H) view
        dh_carry = np.zeros((batch, hidden), dtype=dtype)
        dc_carry = np.zeros((batch, hidden), dtype=dtype)
        dz_seq = np.empty((length, batch, width), dtype=dtype)
        deriv = np.empty((batch, width), dtype=dtype)
        for step in range(length - 1, -1, -1):
            t = times[step]
            dh = grad_t[t] + dh_carry
            dc_in = dc_carry
            masked = keep_arr is not None and not full_cols[t]
            if masked:
                kt = keep_arr[:, t : t + 1]
                dt = 1.0 - kt
                dh_blend = dh * dt
                dc_blend = dc_in * dt
                dh = dh * kt
                dc_in = dc_in * kt
            gates = gates_seq[t]
            tanh_c = tanhc_seq[t]
            i = gates[:, :hidden]
            f = gates[:, hidden : 2 * hidden]
            g = gates[:, 2 * hidden : 3 * hidden]
            o = gates[:, 3 * hidden :]
            dact_o = dh * tanh_c
            # total cell grad: carried + the tanh path through h
            dct = tanh_c * tanh_c
            np.subtract(1.0, dct, out=dct)
            dct *= o
            dct *= dh
            dct += dc_in
            if step > 0:
                c_prev = c_seq[times[step - 1]]
                h_prev = h_seq[times[step - 1]]
            else:
                c_prev = c0.data
                h_prev = h0.data
            dz = dz_seq[t]
            np.multiply(dct, g, out=dz[:, :hidden])
            np.multiply(dct, c_prev, out=dz[:, hidden : 2 * hidden])
            np.multiply(dct, i, out=dz[:, 2 * hidden : 3 * hidden])
            dz[:, 3 * hidden :] = dact_o
            np.subtract(1.0, gates, out=deriv)
            deriv *= gates
            gblock = deriv[:, 2 * hidden : 3 * hidden]
            np.multiply(g, g, out=gblock)
            np.subtract(1.0, gblock, out=gblock)
            dz *= deriv
            dc_carry = dct * f
            dh_carry = dz @ wh.T
            if masked:
                dc_carry += dc_blend
                dh_carry += dh_blend
        if h0.requires_grad:
            h0._accumulate_owned(dh_carry)
        if c0.requires_grad:
            c0._accumulate_owned(dc_carry)
        if bias.requires_grad:
            bias._accumulate_owned(
                dz_seq.sum(axis=(0, 1))[None, :]
            )
        if w_h.requires_grad:
            # One (L·B, H).T @ (L·B, 4H) GEMM instead of L small ones.
            h_prevs = np.empty((length, batch, hidden), dtype=dtype)
            h_prevs[times[0]] = h0.data
            for step in range(1, length):
                h_prevs[times[step]] = h_seq[times[step - 1]]
            w_h._accumulate_owned(
                h_prevs.reshape(length * batch, hidden).T
                @ dz_seq.reshape(length * batch, width)
            )
        if x_proj.requires_grad:
            x_proj._accumulate_owned(
                np.ascontiguousarray(dz_seq.transpose(1, 0, 2))
            )

    out._backward = backward
    return out


# ----- attention primitives -----------------------------------------------------


def attention_scores(memory: Tensor, query: Tensor) -> Tensor:
    """Dot scores: memory (B, L, H) · query (B, H) → (B, L).

    Batched ``np.matmul`` instead of ``einsum`` — on these shapes the
    einsum path spends most of its time in Python-level parsing and
    dispatch, which the decoder pays once per timestep.
    """
    value = np.matmul(memory.data, query.data[:, :, None])[:, :, 0]
    out = Tensor(value, parents=(memory, query))

    def backward(grad: np.ndarray) -> None:
        # Outer products are fastest through einsum here; reductions
        # through batched matmul (measured on the training shapes).
        if memory.requires_grad:
            memory._accumulate_owned(
                np.einsum("bl,bh->blh", grad, query.data)
            )
        if query.requires_grad:
            query._accumulate_owned(
                np.matmul(grad[:, None, :], memory.data)[:, 0]
            )

    out._backward = backward
    return out


def attention_context(weights: Tensor, memory: Tensor) -> Tensor:
    """Weighted sum: weights (B, L) × memory (B, L, H) → (B, H)."""
    value = np.matmul(weights.data[:, None, :], memory.data)[:, 0]
    out = Tensor(value, parents=(weights, memory))

    def backward(grad: np.ndarray) -> None:
        if weights.requires_grad:
            weights._accumulate_owned(
                np.matmul(memory.data, grad[:, :, None])[:, :, 0]
            )
        if memory.requires_grad:
            memory._accumulate_owned(
                np.einsum("bl,bh->blh", weights.data, grad)
            )

    out._backward = backward
    return out


def attention_scores_seq(query_seq: Tensor, memory: Tensor) -> Tensor:
    """Dot scores for every decoder step at once:
    query_seq (B, T, H) · memory (B, L, H) → (B, T, L)."""
    value = np.matmul(query_seq.data, memory.data.transpose(0, 2, 1))
    out = Tensor(value, parents=(query_seq, memory))

    def backward(grad: np.ndarray) -> None:
        if query_seq.requires_grad:
            query_seq._accumulate_owned(np.matmul(grad, memory.data))
        if memory.requires_grad:
            memory._accumulate_owned(
                np.matmul(grad.transpose(0, 2, 1), query_seq.data)
            )

    out._backward = backward
    return out


def attention_context_seq(weights: Tensor, memory: Tensor) -> Tensor:
    """Weighted sums for every decoder step at once:
    weights (B, T, L) × memory (B, L, H) → (B, T, H)."""
    value = np.matmul(weights.data, memory.data)
    out = Tensor(value, parents=(weights, memory))

    def backward(grad: np.ndarray) -> None:
        if weights.requires_grad:
            weights._accumulate_owned(
                np.matmul(grad, memory.data.transpose(0, 2, 1))
            )
        if memory.requires_grad:
            memory._accumulate_owned(
                np.matmul(weights.data.transpose(0, 2, 1), grad)
            )

    out._backward = backward
    return out


def reshape_merge(a: Tensor) -> Tensor:
    """Merge the leading two axes: (B, T, D) → (B·T, D).

    Pure view forward; the backward reshapes the gradient back, which
    is again a view of the child's gradient, so accumulation copies.
    """
    batch, steps, dim = a.data.shape
    out = Tensor(a.data.reshape(batch * steps, dim), parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(batch, steps, dim))

    out._backward = backward
    return out


def masked_softmax(a: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis; positions where ``mask == 0`` get
    probability zero (mask is a constant, not differentiated)."""
    logits = a.data.copy()
    if mask is not None:
        logits = np.where(mask > 0, logits, -1e30)
    logits -= logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits)
    value = exp / exp.sum(axis=-1, keepdims=True)
    out = Tensor(value, parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            dot = (grad * value).sum(axis=-1, keepdims=True)
            a._accumulate_owned(value * (grad - dot))

    out._backward = backward
    return out


# ----- probabilities and loss ------------------------------------------------


def scatter_probs(weights: Tensor, indices: np.ndarray, size: int) -> Tensor:
    """Scatter-add attention weights onto vocabulary slots.

    weights (B, L), indices (B, L) of vocab ids → (B, size).  The copy
    mechanism uses this to turn attention over source tokens into a
    distribution over the output vocabulary.
    """
    indices = np.asarray(indices, dtype=np.int64)
    batch, length = weights.data.shape
    value = np.zeros((batch, size), dtype=weights.data.dtype)
    rows = np.repeat(np.arange(batch), length)
    np.add.at(value, (rows, indices.reshape(-1)), weights.data.reshape(-1))
    out = Tensor(value, parents=(weights,))

    def backward(grad: np.ndarray) -> None:
        if weights.requires_grad:
            weights._accumulate_owned(
                grad[rows, indices.reshape(-1)].reshape(batch, length)
            )

    out._backward = backward
    return out


def gather_cols(a: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one column per row: a (B, V), indices (B,) → (B,)."""
    indices = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, indices], parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[rows, indices] = grad
            a._accumulate_owned(full)

    out._backward = backward
    return out


def log(a: Tensor, eps: float = 1e-12) -> Tensor:
    value = np.log(a.data + eps)
    out = Tensor(value, parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_owned(grad / (a.data + eps))

    out._backward = backward
    return out


def masked_mean(a: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of the elements where ``mask == 1`` (mask is constant)."""
    mask = np.asarray(mask, dtype=a.data.dtype)
    # Plain float: NEP-50 keeps python scalars "weak", so dividing a
    # float32 loss by the token count cannot upcast it to float64.
    total = float(max(mask.sum(), 1.0))
    out = Tensor((a.data * mask).sum() / total, parents=(a,))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_owned(grad * mask / total)

    out._backward = backward
    return out


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Fused log-softmax + NLL per row: logits (B, V), targets (B,) → (B,)."""
    targets = np.asarray(targets, dtype=np.int64)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsumexp
    rows = np.arange(logits.data.shape[0])
    out = Tensor(-log_probs[rows, targets], parents=(logits,))

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            probs = np.exp(log_probs)
            full = probs * grad[:, None]
            full[rows, targets] -= grad
            logits._accumulate_owned(full)

    out._backward = backward
    return out
