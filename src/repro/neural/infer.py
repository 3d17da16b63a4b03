"""Graph-free inference kernels for :class:`~repro.neural.model.Seq2Vis`.

Decoding needs no gradients, yet the graph ops build a :class:`Tensor`
and a backward closure per op, and on these small shapes that
bookkeeping, not the arithmetic, is most of a step.  The two kernels
here work on raw arrays:

* :func:`encode` runs the bi-LSTM's two directions in one recurrence:
  step ``s`` advances the forward direction at position ``s`` and the
  backward direction at ``L-1-s`` as one stacked ``(2, B, ·)`` block,
  so each step is one batched state GEMM and one pass of every gate
  ufunc instead of two.
* :class:`DecoderStep` is one decoder step bound to one decode call's
  weights and encoder memory.

Both compute every value bit for bit as the graph path
(``Seq2Vis._encode``, ``_step``, ``out_proj``, ``_copy_probs``) does:
the same ufuncs, in the same association order, on the same dtypes.
``np.matmul`` over a stacked ``(2, B, H) @ (2, H, 4H)`` runs the same
GEMM per slice as the graph's 2-D product.  Two rewrites that look
harmless would change rounding and are deliberately absent: hoisting
``memory @ W_q.T`` out of the decode loop, and splitting a
``concat @ W`` into two GEMMs.

Weights are read from the model on every call and never cached or
written: hot swap and ``load_state_dict`` rewrite them in place,
quantized parameters dequantize on first touch, and pool workers read
them from shared memory.  The kernels keep no module state, so executor
threads may run them concurrently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.neural.autograd import sigmoid_array

if TYPE_CHECKING:
    from repro.neural.model import Batch, EncodedBatch, Seq2Vis


def _lstm_gates(z: np.ndarray, c_prev: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(h, c)`` from the gate pre-activations ``z`` (..., 4H): the
    math of :func:`repro.neural.autograd.lstm_step` on any leading
    shape."""
    hidden = z.shape[-1] // 4
    gates = sigmoid_array(z)
    g = gates[..., 2 * hidden : 3 * hidden]
    np.tanh(z[..., 2 * hidden : 3 * hidden], out=g)
    c = gates[..., hidden : 2 * hidden] * c_prev
    c += gates[..., :hidden] * g
    h = gates[..., 3 * hidden :] * np.tanh(c)
    return h, c


def encode(model: Seq2Vis, batch: Batch) -> EncodedBatch:
    """The bi-LSTM encoder and bridges of *model* over *batch*.

    Bit-identical to ``model._encode(batch)`` under ``no_grad``.
    """
    from repro.neural.model import EncodedBatch

    fwd = model.encoder.forward_cell
    bwd = model.encoder.backward_cell
    src_ids = np.asarray(batch.src_ids, dtype=np.int64)
    embedded = model.embed_in.weight.data[src_ids]
    batch_size, length, dim = embedded.shape
    flat = embedded.reshape(batch_size * length, dim)
    dtype = fwd.w_x.data.dtype
    width = fwd.w_x.data.shape[1]

    def time_major(cell) -> np.ndarray:
        # One input-projection GEMM per direction, as in ``_encode``.
        seq = (flat @ cell.w_x.data).reshape(batch_size, length, width)
        return seq.transpose(1, 0, 2)

    # Slot 1 of step s holds the backward direction's position L-1-s.
    proj = np.empty((length, 2, batch_size, width), dtype=dtype)
    proj[:, 0] = time_major(fwd)
    proj[:, 1] = time_major(bwd)[::-1]
    # Stacked per call, never kept: the weights may change in place
    # between calls.
    w_h = np.stack([fwd.w_h.data, bwd.w_h.data])      # (2, H, 4H)
    bias = np.stack([fwd.bias.data, bwd.bias.data])   # (2, 1, 4H)
    hidden = width // 4
    keep = np.asarray(batch.src_mask, dtype=dtype)
    full = keep.all(axis=0)
    states = np.empty((length, 2, batch_size, hidden), dtype=dtype)
    h = np.zeros((2, batch_size, hidden), dtype=dtype)
    c = np.zeros((2, batch_size, hidden), dtype=dtype)
    for step in range(length):
        # hW + P is lstm_seq's P + hW bit for bit: addition commutes.
        z = np.matmul(h, w_h)
        z += proj[step]
        z += bias
        h_new, c_new = _lstm_gates(z, c)
        # A padded position carries the previous state through, with
        # lstm_seq's blend, only where that direction's column pads.
        for direction, position in ((0, step), (1, length - 1 - step)):
            if not full[position]:
                kept = keep[:, position : position + 1]
                dropped = 1.0 - kept
                h_new[direction] *= kept
                h_new[direction] += h[direction] * dropped
                c_new[direction] *= kept
                c_new[direction] += c[direction] * dropped
        states[step] = h_new
        h, c = h_new, c_new
    memory = np.concatenate(
        [states[:, 0].transpose(1, 0, 2), states[::-1, 1].transpose(1, 0, 2)],
        axis=2,
    )
    final_h = np.concatenate([h[0], h[1]], axis=1)
    bridge, bridge_c = model.bridge, model.bridge_c
    return EncodedBatch(
        memory=memory,
        h0=np.tanh(final_h @ bridge.weight.data + bridge.bias.data),
        c0=np.tanh(final_h @ bridge_c.weight.data + bridge_c.bias.data),
        src_mask=np.asarray(batch.src_mask),
        src_out_ids=np.asarray(batch.src_out_ids),
    )


class DecoderStep:
    """One decoder step on raw arrays, for one decode call.

    Holds the call's weight arrays, the encoder *memory* (B, L, 2H),
    ``src_mask > 0`` and the copy scatter's indices, so the step itself
    only moves ``(tokens, h, c)``.  A beam search builds a new one when
    its front fans out from B rows to B·K.

    ``step(tokens, h, c)`` returns ``(scores, h, c)``: the output
    distribution for the ``copy`` variant, the output logits for the
    others.
    """

    def __init__(
        self,
        model: Seq2Vis,
        memory: np.ndarray,
        src_mask: np.ndarray,
        src_out_ids: np.ndarray,
    ):
        self.variant = model.variant
        self.embed = model.embed_out.weight.data
        cell = model.decoder
        self.w_x, self.w_h, self.bias = cell.w_x.data, cell.w_h.data, cell.bias.data
        self.out_w = model.out_proj.weight.data
        self.out_b = model.out_proj.bias.data
        if self.variant == "basic":
            return
        self.memory = memory
        self.keep = np.asarray(src_mask) > 0
        self.query_w = model.query_proj.weight.data
        self.query_b = model.query_proj.bias.data
        self.combine_w = model.combine.weight.data
        self.combine_b = model.combine.bias.data
        if self.variant == "copy":
            self.gate_w = model.gen_gate.weight.data
            self.gate_b = model.gen_gate.bias.data
            rows, length = self.keep.shape
            self.vocab_size = model.out_vocab_size
            self.scatter_at = (
                np.repeat(np.arange(rows), length),
                np.asarray(src_out_ids, dtype=np.int64).reshape(-1),
            )

    def __call__(
        self, tokens: np.ndarray, h: np.ndarray, c: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        embedded = self.embed[np.asarray(tokens, dtype=np.int64)]
        z = embedded @ self.w_x
        z += h @ self.w_h
        z += self.bias
        h, c = _lstm_gates(z, c)
        if self.variant == "basic":
            return h @ self.out_w + self.out_b, h, c
        query = h @ self.query_w + self.query_b
        scores = np.matmul(self.memory, query[:, :, None])[:, :, 0]
        scores = np.where(self.keep, scores, -1e30)
        scores -= scores.max(axis=-1, keepdims=True)
        exp = np.exp(scores)
        weights = exp / exp.sum(axis=-1, keepdims=True)
        context = np.matmul(weights[:, None, :], self.memory)[:, 0]
        output = np.tanh(
            np.concatenate([h, context], axis=1) @ self.combine_w + self.combine_b
        )
        logits = output @ self.out_w + self.out_b
        if self.variant != "copy":
            return logits, h, c
        logits -= logits.max(axis=-1, keepdims=True)
        exp = np.exp(logits)
        vocab = exp / exp.sum(axis=-1, keepdims=True)
        p_gen = sigmoid_array(
            np.concatenate([output, context, embedded], axis=1) @ self.gate_w
            + self.gate_b
        )
        copy = np.zeros((weights.shape[0], self.vocab_size), dtype=weights.dtype)
        np.add.at(copy, self.scatter_at, weights.reshape(-1))
        return vocab * p_gen + copy * ((p_gen * -1.0) + 1.0), h, c
