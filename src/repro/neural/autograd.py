"""A small tape-based reverse-mode autograd engine on numpy arrays.

Just enough surface for LSTM seq2seq models with attention and copying:
dense algebra (matmul, add with broadcasting, elementwise mul), the
gate nonlinearities, softmax/log, slicing and concatenation, embedding
gather, batched attention primitives (stack / attention scores /
weighted context), and a scatter op for copy distributions.  Training
runs on sequence-level nodes: whole LSTM recurrences
(:func:`lstm_seq`, :func:`bilstm_seq`), attention over every decoder
step, and the fused losses :func:`cross_entropy_logits` and
:func:`copy_nll`.

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
        # Depth-first post-order, parents in order, walked with an
        # explicit stack: the order (and so every gradient sum) of a
        # recursive walk, but no self-referencing closure, whose cycle
        # would keep ``topo`` (the whole graph and its activations)
        # alive after return until the cyclic collector ran.  Constant
        # nodes are marked visited too: a shared constant is then
        # checked once instead of on every edge that reaches it.
        topo: List[Tensor] = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))] if self.requires_grad else []
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    if parent.requires_grad:
                        stack.append((parent, iter(parent._parents)))
                        break
            else:
                stack.pop()
                topo.append(node)
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


def concat_last(*tensors: Tensor) -> Tensor:
    """Concatenate (B, L, ·) sequences along the feature axis.

    One node joins whole sequences, e.g. the decoder states with their
    attention contexts, instead of L per-position :func:`concat` nodes.
    """
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=2), parents=tensors
    )
    bounds = np.cumsum([0] + [t.data.shape[2] for t in tensors])

    def backward(grad: np.ndarray) -> None:
        # The parts are views of the child's gradient — copying
        # accumulation only; taking them by reference would let a later
        # += corrupt the child.
        for tensor, start, stop in zip(tensors, bounds[:-1], bounds[1:]):
            if tensor.requires_grad:
                tensor._accumulate(grad[:, :, start:stop])

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


def time_major(seq: np.ndarray, direction: int) -> np.ndarray:
    """A (B, L, ·) sequence as the (L, B, ·) steps of *direction*, a
    view: direction 0 visits positions left to right, direction 1
    right to left."""
    steps = seq.transpose(1, 0, 2)
    return steps[::-1] if direction else steps


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """*arrays* stacked on a new axis 0; a view of a lone array, whose
    copy would cost the one-direction loop more than it takes."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _stack_steps(seqs: Sequence[np.ndarray]) -> np.ndarray:
    """Each direction's (B, L, ·) sequence as the (L, B, ·) steps it
    visits (:func:`time_major`), stacked into one (L, D, B, ·) block;
    a view when there is one direction."""
    if len(seqs) == 1:
        return time_major(seqs[0], 0)[:, None]
    batch, length, width = seqs[0].shape
    steps = np.empty((length, len(seqs), batch, width), dtype=seqs[0].dtype)
    for d, seq in enumerate(seqs):
        steps[:, d] = time_major(seq, d)
    return steps


def _batch_major(steps: np.ndarray, direction: int) -> np.ndarray:
    """The inverse of :func:`time_major`: (L, B, ·) steps of
    *direction* back to (B, L, ·) positions, a view."""
    return (steps[::-1] if direction else steps).transpose(1, 0, 2)


def lstm_recurrence(
    proj: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    h0: Optional[np.ndarray] = None,
    c0: Optional[np.ndarray] = None,
    keep: Optional[np.ndarray] = None,
    save: bool = True,
) -> Tuple[np.ndarray, Optional[tuple]]:
    """Run D LSTM recurrences side by side on raw arrays.

    Direction 0 runs left to right and direction 1 right to left.
    ``proj[:, d]`` (L, B, 4H) holds direction d's input projections
    ``x_t @ w_x`` in the order it visits them (:func:`time_major`),
    with its ``w_h[d]`` (H, 4H) and ``bias[d]`` (1, 4H).  Step s
    advances every direction as one (D, B, ·) block: one batched state
    GEMM, then one pass of each gate ufunc.  *h0*/*c0* (D, B, H) default
    to zeros.  *keep* is the (B, L) validity mask: a padded position
    carries the previous state through with
    ``h_new*keep + h_prev*(1-keep)``, in the directions whose column
    pads.

    Per direction the values are those of a lone one-direction loop bit
    for bit: ``P + h@w_h`` then ``+ b`` (addition commutes, and the
    batched GEMM runs each slice as the 2-D product does), the same gate
    ufuncs in the same order, the same blend.  Time-major saved state
    keeps every step's ufuncs on contiguous memory.

    Returns the carried states by position, (B, L, D·H) — a bi-LSTM's
    memory, forward half first — and the state
    :func:`lstm_recurrence_backward` needs.  With ``save=False``
    (inference) that state is ``None``: the gates and cells go to
    two reused step buffers, which stay in cache, instead of L.
    """
    length, directions, batch, width = proj.shape
    hidden = width // 4
    dtype = proj.dtype
    if h0 is None:
        h0 = np.zeros((directions, batch, hidden), dtype=dtype)
    if c0 is None:
        c0 = np.zeros((directions, batch, hidden), dtype=dtype)
    keep_steps, padded = _blend_steps(keep, directions, dtype)
    slots = length if save else 2  # a step's c must not overwrite c_prev
    gates_seq = np.empty((slots, directions, batch, width), dtype=dtype)
    tanhc_seq = np.empty((slots, directions, batch, hidden), dtype=dtype)
    c_seq = np.empty((slots, directions, batch, hidden), dtype=dtype)
    h_seq = np.empty((length, directions, batch, hidden), dtype=dtype)
    h, c = h0, c0
    for s in range(length):
        slot = s % slots
        z = np.matmul(h, w_h)
        z += proj[s]
        z += bias
        gates = sigmoid_array(z, out=gates_seq[slot])
        g = gates[..., 2 * hidden : 3 * hidden]
        np.tanh(z[..., 2 * hidden : 3 * hidden], out=g)
        c_new = c_seq[slot]
        np.multiply(gates[..., hidden : 2 * hidden], c, out=c_new)
        c_new += gates[..., :hidden] * g
        tanh_c = tanhc_seq[slot]
        np.tanh(c_new, out=tanh_c)
        h_new = h_seq[s]
        np.multiply(gates[..., 3 * hidden :], tanh_c, out=h_new)
        if padded is not None:
            for d in padded[s]:
                kept = keep_steps[s, d]
                dropped = 1.0 - kept
                h_new[d] *= kept
                h_new[d] += h[d] * dropped
                c_new[d] *= kept
                c_new[d] += c[d] * dropped
        h, c = h_new, c_new
    value = np.empty((batch, length, directions * hidden), dtype=dtype)
    for d in range(directions):
        value[:, :, d * hidden : (d + 1) * hidden] = _batch_major(h_seq[:, d], d)
    if not save:
        return value, None
    return value, (w_h, h0, c0, keep_steps, padded, gates_seq, tanhc_seq, c_seq, h_seq)


def _blend_steps(keep, directions: int, dtype):
    """The (L, D, B, 1) keep mask of every step and direction, and per
    step the directions whose column pads; ``(None, None)`` when no
    position pads."""
    if keep is None:
        return None, None
    keep = np.asarray(keep, dtype=dtype)
    if keep.all():
        return None, None
    keep_steps = _stack_steps([keep[:, :, None]] * directions)
    full = keep_steps.all(axis=(2, 3))
    return keep_steps, [tuple(np.flatnonzero(~row)) for row in full]


def lstm_recurrence_backward(grad: np.ndarray, saved: tuple):
    """Backpropagate (B, L, D·H) state gradients through
    :func:`lstm_recurrence`.

    The loop runs the steps in reverse as the same (D, B, ·) blocks,
    with one batched ``dz @ w_hᵀ`` per step.  Each direction's ``w_h``
    gradient is then one (B·L)-row GEMM and its projection gradient one
    array.  Returns per-direction lists of the projection, ``w_h`` and
    bias gradients, and the (D, B, H) gradients of ``h0`` and ``c0``.
    """
    w_h, h0, c0, keep_steps, padded, gates_seq, tanhc_seq, c_seq, h_seq = saved
    length, directions, batch, width = gates_seq.shape
    hidden = width // 4
    dtype = gates_seq.dtype
    grad_steps = _stack_steps(
        [grad[:, :, d * hidden : (d + 1) * hidden] for d in range(directions)]
    )
    w_h_t = w_h.transpose(0, 2, 1)
    dh_carry = np.zeros((directions, batch, hidden), dtype=dtype)
    dc_carry = np.zeros((directions, batch, hidden), dtype=dtype)
    dz_seq = np.empty((length, directions, batch, width), dtype=dtype)
    deriv = np.empty((directions, batch, width), dtype=dtype)
    for s in range(length - 1, -1, -1):
        dh = grad_steps[s] + dh_carry
        dc_in = dc_carry
        masked = padded is not None and padded[s]
        if masked:
            # A full column keeps 1 and drops 0, so one blend over the
            # whole block is exact for the directions that do not pad.
            kept = keep_steps[s]
            dropped = 1.0 - kept
            dh_blend = dh * dropped
            dc_blend = dc_in * dropped
            dh = dh * kept
            dc_in = dc_in * kept
        gates = gates_seq[s]
        tanh_c = tanhc_seq[s]
        i = gates[..., :hidden]
        f = gates[..., hidden : 2 * hidden]
        g = gates[..., 2 * hidden : 3 * hidden]
        o = gates[..., 3 * hidden :]
        dact_o = dh * tanh_c
        # total cell grad: carried + the tanh path through h
        dct = tanh_c * tanh_c
        np.subtract(1.0, dct, out=dct)
        dct *= o
        dct *= dh
        dct += dc_in
        c_prev = c_seq[s - 1] if s else c0
        dz = dz_seq[s]
        np.multiply(dct, g, out=dz[..., :hidden])
        np.multiply(dct, c_prev, out=dz[..., hidden : 2 * hidden])
        np.multiply(dct, i, out=dz[..., 2 * hidden : 3 * hidden])
        dz[..., 3 * hidden :] = dact_o
        np.subtract(1.0, gates, out=deriv)
        deriv *= gates
        gblock = deriv[..., 2 * hidden : 3 * hidden]
        np.multiply(g, g, out=gblock)
        np.subtract(1.0, gblock, out=gblock)
        dz *= deriv
        dc_carry = dct * f
        dh_carry = np.matmul(dz, w_h_t)
        if masked:
            dc_carry += dc_blend
            dh_carry += dh_blend
    dprojs, dw_hs, dbiases = [], [], []
    for d in range(directions):
        dproj = np.ascontiguousarray(_batch_major(dz_seq[:, d], d))
        # The state each position's step started from, in the same
        # (B, L) layout: the previous step's state, or h0.
        h_prev = np.empty((batch, length, hidden), dtype=dtype)
        prev_steps = time_major(h_prev, d)
        prev_steps[0] = h0[d]
        prev_steps[1:] = h_seq[:-1, d]
        rows = batch * length
        dw_hs.append(h_prev.reshape(rows, hidden).T @ dproj.reshape(rows, width))
        dbiases.append(dproj.sum(axis=(0, 1))[None, :])
        dprojs.append(dproj)
    return dprojs, dw_hs, dbiases, dh_carry, dc_carry


def _recurrence(
    projs: Sequence[Tensor],
    w_hs: Sequence[Tensor],
    biases: Sequence[Tensor],
    h0: Optional[Tensor],
    c0: Optional[Tensor],
    keep: Optional[np.ndarray],
) -> Tensor:
    """:func:`lstm_recurrence` as one graph node."""
    # Stacked per call, never kept: the weights change in place
    # between steps.
    value, saved = lstm_recurrence(
        _stack_steps([p.data for p in projs]),
        _stacked([w.data for w in w_hs]),
        _stacked([b.data for b in biases]),
        None if h0 is None else h0.data[None],
        None if c0 is None else c0.data[None],
        keep,
    )
    states = tuple(t for t in (h0, c0) if t is not None)
    inputs = (*projs, *w_hs, *biases)
    out = Tensor(value, parents=inputs + states)

    def backward(grad: np.ndarray) -> None:
        dprojs, dw_hs, dbiases, dh0, dc0 = lstm_recurrence_backward(grad, saved)
        # Every gradient is a fresh array no one else holds.
        for tensor, g in zip(inputs, (*dprojs, *dw_hs, *dbiases)):
            if tensor.requires_grad:
                tensor._accumulate_owned(g)
        for tensor, g in ((h0, dh0), (c0, dc0)):
            if tensor is not None and tensor.requires_grad:
                tensor._accumulate_owned(g[0])

    out._backward = backward
    return out


def lstm_seq(
    x_proj: Tensor, w_h: Tensor, bias: Tensor, h0: Tensor, c0: Tensor
) -> Tensor:
    """Run a whole LSTM recurrence as ONE graph node.

    *x_proj* (B, L, 4H) holds every timestep's input projection (a
    :func:`matmul_seq`); *h0*/*c0* (B, H) are the initial state.  The
    loop is :func:`lstm_recurrence`'s, with one direction: pure numpy,
    no per-step tensors, closures or topo-sort bookkeeping, which on
    one core is most of what a step costs.  Per element the math (and
    its association) is that of :func:`lstm_step`, so the forward
    values match the op-by-op cell bit for bit.

    Returns the hidden states (B, L, H).  The backward batches the
    weight gradient into one (L·B)-row GEMM and hands the projection
    gradient over as a single array, so only the unavoidable per-step
    ``dz @ w_h.T`` GEMM remains in the loop.
    """
    return _recurrence((x_proj,), (w_h,), (bias,), h0, c0, None)


def bilstm_seq(
    proj_fwd: Tensor,
    proj_bwd: Tensor,
    w_h_fwd: Tensor,
    w_h_bwd: Tensor,
    bias_fwd: Tensor,
    bias_bwd: Tensor,
    keep: np.ndarray,
) -> Tensor:
    """Both directions of a bi-LSTM from zero state, as ONE graph node.

    Step s advances the forward direction at position s and the
    backward direction at position L-1-s as one stacked (2, B, ·) block
    (:func:`lstm_recurrence`); its backward runs the same stacked loop
    in reverse.  *keep* is the (B, L) validity mask.  The values equal
    two one-direction recurrences bit for bit.

    Returns the memory (B, L, 2H): the forward state at each position,
    then the backward one.
    """
    return _recurrence(
        (proj_fwd, proj_bwd), (w_h_fwd, w_h_bwd), (bias_fwd, bias_bwd),
        None, None, keep,
    )


def final_states(memory: Tensor) -> Tensor:
    """A bi-LSTM's last state per direction: memory (B, L, 2H) →
    (B, 2H), the forward half at position L-1 joined to the backward
    half at position 0.

    The backward writes straight into ``memory.grad``, as
    :func:`slice_time` does.
    """
    hidden = memory.data.shape[2] // 2
    out = Tensor(
        np.concatenate(
            [memory.data[:, -1, :hidden], memory.data[:, 0, hidden:]], axis=1
        ),
        parents=(memory,),
    )

    def backward(grad: np.ndarray) -> None:
        if memory.requires_grad:
            if memory.grad is None:
                memory.grad = np.zeros_like(memory.data)
            memory.grad[:, -1, :hidden] += grad[:, :hidden]
            memory.grad[:, 0, hidden:] += grad[:, hidden:]

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


def copy_nll(
    logits: Tensor,
    gate: Tensor,
    weights: Tensor,
    source_ids: np.ndarray,
    targets: np.ndarray,
    eps: float = 1e-12,
) -> Tensor:
    """Per-row negative log-likelihood of the copy mixture, all rows at
    once: ``-log(p + eps)`` with
    ``p = g·softmax(logits)[y] + (1-g)·Σ_l w_l·[source_ids_l = y]``.

    logits (N, V), gate (N, 1) the generation probability ``g``,
    weights (N, L) the attention weights, source_ids (N, L) the source
    tokens in output-vocab ids, targets (N,) → (N,).

    The per-step reference builds the (N, V) copy distribution with a
    scatter and mixes it with the vocabulary softmax; only the target's
    column of that mixture is ever read, so this node reads the copy
    mass off an (N, L) match mask instead.  The mixture keeps the
    reference association, ``vocab·g + copy·((g·-1) + 1)``; only the
    copy sum's order may differ when a target repeats in the source.
    The backward needs just the softmax and the match mask.
    """
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(targets.shape[0])
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    vocab = exp / exp.sum(axis=1, keepdims=True)
    match = np.asarray(source_ids) == targets[:, None]
    copied = (weights.data * match).sum(axis=1)
    g = gate.data[:, 0]
    picked = vocab[rows, targets]
    p = picked * g + copied * ((g * -1.0) + 1.0)
    out = Tensor(-np.log(p + eps), parents=(logits, gate, weights))

    def backward(grad: np.ndarray) -> None:
        dp = -grad / (p + eps)
        if logits.requires_grad:
            # d p / d logits = g·s_y·(onehot_y - s)
            scaled = dp * g * picked
            full = vocab * -scaled[:, None]
            full[rows, targets] += scaled
            logits._accumulate_owned(full)
        if gate.requires_grad:
            gate._accumulate_owned((dp * (picked - copied))[:, None])
        if weights.requires_grad:
            weights._accumulate_owned((dp * ((g * -1.0) + 1.0))[:, None] * match)

    out._backward = backward
    return out
