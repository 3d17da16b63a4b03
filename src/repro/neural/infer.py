"""Graph-free inference kernels for :class:`~repro.neural.model.Seq2Vis`.

Decoding needs no gradients, yet the graph ops build a :class:`Tensor`
and a backward closure per op, and on these small shapes that
bookkeeping, not the arithmetic, is most of a step.  The two kernels
here work on raw arrays:

* :func:`encode` runs the bi-LSTM's two directions in one recurrence,
  the forward loop of the training node
  (:func:`repro.neural.autograd.lstm_recurrence`): step ``s`` advances
  the forward direction at position ``s`` and the backward direction at
  ``L-1-s`` as one stacked ``(2, B, ·)`` block, so each step is one
  batched state GEMM and one pass of every gate ufunc instead of two.
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

from repro.neural.autograd import lstm_recurrence, sigmoid_array, time_major

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

    Bit-identical to ``model._encode(batch)`` under ``no_grad``: the
    input projections are one GEMM per direction, as ``matmul_seq``
    computes them, and both directions run through the training node's
    own loop, :func:`repro.neural.autograd.lstm_recurrence`.
    """
    from repro.neural.model import EncodedBatch

    fwd = model.encoder.forward_cell
    bwd = model.encoder.backward_cell
    src_ids = np.asarray(batch.src_ids, dtype=np.int64)
    embedded = model.embed_in.weight.data[src_ids]
    batch_size, length, dim = embedded.shape
    flat = embedded.reshape(batch_size * length, dim)
    width = fwd.w_x.data.shape[1]
    # One direction's projection at a time: holding both beside the
    # stacked block costs fresh pages on every call.
    proj = np.empty((length, 2, batch_size, width), dtype=fwd.w_x.data.dtype)
    for d, cell in enumerate((fwd, bwd)):
        proj[:, d] = time_major(
            (flat @ cell.w_x.data).reshape(batch_size, length, width), d
        )
    # Stacked per call, never kept: the weights may change in place
    # between calls.
    memory, _ = lstm_recurrence(
        proj,
        np.stack([fwd.w_h.data, bwd.w_h.data]),
        np.stack([fwd.bias.data, bwd.bias.data]),
        keep=batch.src_mask,
        save=False,
    )
    hidden = fwd.w_h.data.shape[0]
    # autograd.final_states: forward at L-1, backward at 0.
    final_h = np.concatenate(
        [memory[:, -1, :hidden], memory[:, 0, hidden:]], axis=1
    )
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
