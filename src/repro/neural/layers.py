"""Neural layers built on the autograd engine."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.neural import autograd as ag
from repro.neural.autograd import Tensor, parameter
from repro.neural.dtype import DtypeLike, resolve_dtype


class Module:
    """Base class: tracks parameters for the optimizer."""

    def parameters(self) -> List[Tensor]:
        """All trainable tensors, recursively."""
        params: List[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def modules(self) -> Iterator["Module"]:
        """This module and every submodule, depth first."""
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def to_dtype(self, dtype: DtypeLike) -> "Module":
        """Cast every parameter to *dtype* in place; returns self.

        Call this before constructing an optimizer — the flat-buffer
        Adam aliases parameter storage, and casting re-binds arrays.
        """
        resolved = resolve_dtype(dtype)
        for param in self.parameters():
            if param.data.dtype != resolved:
                param.data = param.data.astype(resolved)
        return self

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype (models are kept dtype-uniform)."""
        params = self.parameters()
        return params[0].data.dtype if params else np.dtype(np.float64)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays, keyed by position."""
        return {
            str(index): param.data.copy()
            for index, param in enumerate(self.parameters())
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore arrays saved by :meth:`state_dict`.

        Copies *into* the existing arrays (dtype-preserving) so any
        optimizer holding flat-buffer views of the parameters keeps
        seeing them.
        """
        for index, param in enumerate(self.parameters()):
            stored = state[str(index)]
            if stored.shape != param.data.shape:
                raise ValueError(
                    f"parameter {index} shape mismatch: "
                    f"{stored.shape} vs {param.data.shape}"
                )
            param.data[...] = stored


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Embedding(Module):
    """Token embedding table, optionally initialized from pre-trained
    vectors (the paper initializes from corpus-trained GloVe)."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        rng: np.random.Generator,
        pretrained: Optional[np.ndarray] = None,
    ):
        if pretrained is not None:
            if pretrained.shape != (vocab_size, dim):
                raise ValueError(
                    f"pretrained shape {pretrained.shape} does not match "
                    f"({vocab_size}, {dim})"
                )
            weight = pretrained.copy()
        else:
            weight = rng.normal(scale=0.1, size=(vocab_size, dim))
        self.weight = parameter(weight, name="embedding")

    def __call__(self, indices: np.ndarray) -> Tensor:
        return ag.embedding(self.weight, indices)


class Linear(Module):
    """Affine layer with Glorot-initialized weights."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "linear"):
        self.weight = parameter(_glorot(rng, in_dim, out_dim), name=f"{name}.w")
        self.bias = parameter(np.zeros((1, out_dim)), name=f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return ag.add(ag.matmul(x, self.weight), self.bias)


class LSTMCell(Module):
    """A standard LSTM cell; the forget-gate bias starts at 1.

    ``fused`` (the default) routes steps through the two-node
    :func:`repro.neural.autograd.lstm_step` kernel; ``fused=False``
    keeps the original op-by-op composition, retained as the reference
    implementation for gradient and parity checks.  Both compute the
    same forward values bit for bit.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator, name: str = "lstm"):
        self.hidden_dim = hidden_dim
        self.fused = True
        self.w_x = parameter(_glorot(rng, input_dim, 4 * hidden_dim), name=f"{name}.wx")
        self.w_h = parameter(_glorot(rng, hidden_dim, 4 * hidden_dim), name=f"{name}.wh")
        bias = np.zeros((1, 4 * hidden_dim))
        bias[:, hidden_dim : 2 * hidden_dim] = 1.0
        self.bias = parameter(bias, name=f"{name}.b")

    def __call__(
        self,
        x: Optional[Tensor],
        state: Tuple[Tensor, Tensor],
        x_proj: Optional[Tensor] = None,
    ) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        if self.fused:
            return ag.lstm_step(
                x, self.w_x, self.w_h, self.bias, h_prev, c_prev, x_proj=x_proj
            )
        return self.step_unfused(x, state)

    def step_unfused(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """The original gate-by-gate composition (~14 graph nodes)."""
        h_prev, c_prev = state
        gates = ag.add(
            ag.add(ag.matmul(x, self.w_x), ag.matmul(h_prev, self.w_h)), self.bias
        )
        H = self.hidden_dim
        i = ag.sigmoid(ag.slice_cols(gates, 0, H))
        f = ag.sigmoid(ag.slice_cols(gates, H, 2 * H))
        g = ag.tanh(ag.slice_cols(gates, 2 * H, 3 * H))
        o = ag.sigmoid(ag.slice_cols(gates, 3 * H, 4 * H))
        c = ag.add(ag.mul(f, c_prev), ag.mul(i, g))
        h = ag.mul(o, ag.tanh(c))
        return h, c

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        """Zero (h, c) state for a batch, in the cell's dtype."""
        zeros = np.zeros((batch, self.hidden_dim), dtype=self.w_x.data.dtype)
        return Tensor(zeros), Tensor(zeros.copy())


class BiLSTMEncoder(Module):
    """Bi-directional LSTM over an embedded sequence.

    Returns per-position states (B, L, 2H) and a final state projected
    to the decoder's dimensions.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.forward_cell = LSTMCell(input_dim, hidden_dim, rng, name="enc.fwd")
        self.backward_cell = LSTMCell(input_dim, hidden_dim, rng, name="enc.bwd")
        self.hidden_dim = hidden_dim

    def __call__(
        self,
        embedded: Optional[List[Tensor]],
        mask: np.ndarray,
        embedded_seq: Optional[Tensor] = None,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """``embedded`` is a list of L tensors (B, D); ``mask`` (B, L).

        Padded positions keep the previous state (standard masked RNN).
        When *embedded_seq* (B, L, D) is given and the cells are fused,
        each direction's input projections are hoisted out of the
        recurrence as one sequence GEMM, and both directions run as one
        stacked recurrence node (:func:`repro.neural.autograd.bilstm_seq`);
        the per-position list is not needed at all.
        """
        if embedded_seq is not None and self.forward_cell.fused:
            fwd, bwd = self.forward_cell, self.backward_cell
            memory = ag.bilstm_seq(
                ag.matmul_seq(embedded_seq, fwd.w_x),
                ag.matmul_seq(embedded_seq, bwd.w_x),
                fwd.w_h, bwd.w_h, fwd.bias, bwd.bias, mask,
            )
            last = ag.slice_time(memory, embedded_seq.shape[1] - 1)
            return memory, ag.final_states(memory), last

        batch, length = embedded[0].shape[0], len(embedded)
        dtype = self.forward_cell.w_x.data.dtype
        # Preallocated per-position blend masks, cast once to the cell
        # dtype so padded steps never upcast a float32 state.
        keep_cols = np.asarray(mask, dtype=dtype)[:, :, None]
        drop_cols = 1.0 - keep_cols

        def run(cell: LSTMCell, order: range) -> List[Tensor]:
            h, c = cell.initial_state(batch)
            outputs: List[Optional[Tensor]] = [None] * length
            for position in order:
                h_new, c_new = cell(embedded[position], (h, c))
                keep = keep_cols[:, position]
                if keep.all():
                    # Fast path: length-bucketed batches rarely pad, so
                    # most positions skip the mask blend entirely.
                    h, c = h_new, c_new
                else:
                    keep_t = Tensor(keep)
                    drop_t = Tensor(drop_cols[:, position])
                    h = ag.add(ag.mul(h_new, keep_t), ag.mul(h, drop_t))
                    c = ag.add(ag.mul(c_new, keep_t), ag.mul(c, drop_t))
                outputs[position] = h
            return outputs  # type: ignore[return-value]

        fwd = run(self.forward_cell, range(length))
        bwd = run(self.backward_cell, range(length - 1, -1, -1))
        # Join the directions with two stacks and one feature concat
        # instead of L per-position concat nodes; the values are the
        # same arrays either way.
        memory = ag.concat_last(ag.stack_seq(fwd), ag.stack_seq(bwd))
        final_h = ag.concat([fwd[-1], bwd[0]], axis=1)
        return memory, final_h, ag.slice_time(memory, length - 1)
