"""The seq2vis model: basic seq2seq, +attention, +copying (Section 4.1).

The encoder is a bi-directional LSTM over the NL question concatenated
with the database schema tokens (as in the paper's Figure 15); the
decoder is a uni-directional LSTM that emits the canonical VIS token
sequence.  Variants:

* ``basic``      — plain encoder-decoder (final encoder state only);
* ``attention``  — Luong-style dot attention over encoder states;
* ``copy``       — attention plus a pointer/copy mechanism that mixes
  the vocabulary distribution with attention mass scattered onto the
  source tokens (how rare column names get produced).

Training (:meth:`Seq2Vis.loss`) runs every variant as sequence-level
graph nodes over all target steps at once; the per-step graph loop is
the ``fused=False`` reference engine the tests compare against.
Decoding runs the graph-free kernels of :mod:`repro.neural.infer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.neural import autograd as ag
from repro.neural import infer
from repro.neural.autograd import Tensor
from repro.neural.layers import BiLSTMEncoder, Embedding, Linear, LSTMCell, Module
from repro.obs.trace import traced

VARIANTS = ("basic", "attention", "copy")


@dataclass
class EncodedBatch:
    """Frozen encoder outputs for a padded batch, held as plain arrays.

    Produced by :meth:`Seq2Vis.encode_batch` and accepted by every
    decode entry point via ``encoded=``, so a serving layer can cache
    the (expensive) bi-LSTM pass and replay only the decoder.  Because
    the encoder masks padding out of both the final state and the
    attention weights, the arrays are padding-invariant: re-padding the
    same source tokens to a different length yields the same decode.
    """

    memory: np.ndarray   # (B, L, 2H) encoder states
    h0: np.ndarray       # (B, H) bridged initial decoder hidden
    c0: np.ndarray       # (B, H) bridged initial decoder cell
    src_mask: np.ndarray     # (B, L) the mask the memory was built under
    src_out_ids: np.ndarray  # (B, L) source tokens in output-vocab ids

    @property
    def batch_size(self) -> int:
        return self.memory.shape[0]

    def row(self, index: int) -> "EncodedBatch":
        """A one-example view (no copy) for per-example decoding."""
        sl = slice(index, index + 1)
        return EncodedBatch(
            memory=self.memory[sl],
            h0=self.h0[sl],
            c0=self.c0[sl],
            src_mask=self.src_mask[sl],
            src_out_ids=self.src_out_ids[sl],
        )

    def inference_batch(self) -> Batch:
        """A decode-only :class:`Batch` carrying this encoding's mask
        and copy ids; ``src_ids`` is a dummy — decoding never reads it."""
        return Batch.for_inference(
            src_ids=np.zeros_like(self.src_out_ids),
            src_mask=self.src_mask,
            src_out_ids=self.src_out_ids,
        )


@dataclass
class BeamCandidate:
    """One ranked beam hypothesis: stripped tokens + normalized score.

    ``score`` is the length-normalized negative log probability used
    for ranking (lower is better), identical to the sort key inside
    :meth:`Seq2Vis._beam_one`.
    """

    tokens: List[int]
    score: float


@dataclass
class Batch:
    """One padded minibatch (see :mod:`repro.neural.data`)."""

    src_ids: np.ndarray        # (B, L) input-vocab ids
    src_mask: np.ndarray       # (B, L) 1 for real tokens
    src_out_ids: np.ndarray    # (B, L) same tokens in output-vocab ids
    tgt_in: np.ndarray         # (B, T) decoder inputs (BOS ...)
    tgt_out: np.ndarray        # (B, T) decoder targets (... EOS)
    tgt_mask: np.ndarray       # (B, T)

    @classmethod
    def for_inference(
        cls,
        src_ids: np.ndarray,
        src_mask: np.ndarray,
        src_out_ids: np.ndarray,
    ) -> "Batch":
        """A decode-only batch: padded source arrays, dummy targets.

        The encoder and both decode paths only read the ``src_*`` arrays
        and the mask; the target arrays exist so the dataclass stays one
        shape for training and serving.
        """
        batch = src_ids.shape[0]
        return cls(
            src_ids=src_ids,
            src_mask=src_mask,
            src_out_ids=src_out_ids,
            tgt_in=np.zeros((batch, 1), dtype=np.int64),
            tgt_out=np.zeros((batch, 1), dtype=np.int64),
            tgt_mask=np.zeros((batch, 1)),
        )


class Seq2Vis(Module):
    """Encoder-decoder translation from NL tokens to VIS tokens."""

    def __init__(
        self,
        in_vocab_size: int,
        out_vocab_size: int,
        variant: str = "attention",
        embed_dim: int = 64,
        hidden_dim: int = 96,
        seed: int = 0,
        pretrained_in: Optional[np.ndarray] = None,
        dtype: Optional[str] = None,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
        self.variant = variant
        self.out_vocab_size = out_vocab_size
        rng = np.random.default_rng(seed)
        self.embed_in = Embedding(in_vocab_size, embed_dim, rng, pretrained=pretrained_in)
        self.embed_out = Embedding(out_vocab_size, embed_dim, rng)
        self.encoder = BiLSTMEncoder(embed_dim, hidden_dim, rng)
        self.bridge = Linear(2 * hidden_dim, hidden_dim, rng, name="bridge")
        self.bridge_c = Linear(2 * hidden_dim, hidden_dim, rng, name="bridge_c")
        self.decoder = LSTMCell(embed_dim, hidden_dim, rng, name="dec")
        self.hidden_dim = hidden_dim
        if variant in ("attention", "copy"):
            self.query_proj = Linear(hidden_dim, 2 * hidden_dim, rng, name="query")
            self.combine = Linear(3 * hidden_dim, hidden_dim, rng, name="combine")
        self.out_proj = Linear(hidden_dim, out_vocab_size, rng, name="out")
        if variant == "copy":
            self.gen_gate = Linear(3 * hidden_dim + embed_dim, 1, rng, name="pgen")
        if dtype is not None:
            # Initialization always happens at float64 (above), so a
            # float32 and a float64 model share the same rounded init.
            self.to_dtype(dtype)

    def set_fused(self, fused: bool) -> "Seq2Vis":
        """Switch every LSTM cell (and the sequence-fused embedding
        path) between the fused kernels and the reference op-by-op
        graph; returns self."""
        for module in self.modules():
            if isinstance(module, LSTMCell):
                module.fused = fused
        return self

    @property
    def fused(self) -> bool:
        """True when the fused kernels are active."""
        return self.decoder.fused

    # ----- shared encoder ------------------------------------------------

    def _encode(self, batch: Batch) -> Tuple[Tensor, Tensor, Tensor]:
        length = batch.src_ids.shape[1]
        if self.fused:
            # One gather for the whole sequence; the encoder hoists the
            # input projections itself, so no per-position slices here.
            embedded_seq = ag.embedding_seq(self.embed_in.weight, batch.src_ids)
            memory, final_h, _ = self.encoder(
                None, batch.src_mask, embedded_seq=embedded_seq
            )
        else:
            embedded = [self.embed_in(batch.src_ids[:, i]) for i in range(length)]
            memory, final_h, _ = self.encoder(embedded, batch.src_mask)
        h0 = ag.tanh(self.bridge(final_h))
        c0 = ag.tanh(self.bridge_c(final_h))
        return memory, h0, c0

    def _step(
        self,
        token_embed: Tensor,
        state: Tuple[Tensor, Tensor],
        memory: Tensor,
        src_mask: np.ndarray,
    ) -> Tuple[Tensor, Optional[Tensor], Optional[Tensor], Tuple[Tensor, Tensor]]:
        """One decoder step → (pre-output, attention weights, context)."""
        h, c = self.decoder(token_embed, state)
        if self.variant == "basic":
            return h, None, None, (h, c)
        query = self.query_proj(h)
        scores = ag.attention_scores(memory, query)
        weights = ag.masked_softmax(scores, mask=src_mask)
        context = ag.attention_context(weights, memory)
        combined = ag.tanh(self.combine(ag.concat([h, context], axis=1)))
        return combined, weights, context, (h, c)

    # ----- training loss ---------------------------------------------------

    def loss(self, batch: Batch) -> Tensor:
        """Teacher-forced mean token loss over a batch.

        With the fused kernels (the default) every variant runs as a
        dozen sequence-level nodes (:meth:`_sequence_loss`).  The
        per-step loop below is the ``fused=False`` reference engine,
        kept as the parity oracle of the tests.
        """
        memory, h, c = self._encode(batch)
        if self.fused:
            return self._sequence_loss(batch, memory, h, c)
        losses: List[Tensor] = []
        for t in range(batch.tgt_in.shape[1]):
            token_embed = self.embed_out(batch.tgt_in[:, t])
            output, weights, context, (h, c) = self._step(
                token_embed, (h, c), memory, batch.src_mask
            )
            targets = batch.tgt_out[:, t]
            if self.variant == "copy":
                step_loss = self._copy_loss(
                    output, weights, context, token_embed, targets, batch
                )
            else:
                logits = self.out_proj(output)
                step_loss = ag.cross_entropy_logits(logits, targets)
            losses.append(step_loss)
        per_step = ag.stack_seq([_as_column(loss) for loss in losses])
        flat = _flatten_steps(per_step)
        return ag.masked_mean(flat, batch.tgt_mask.T.reshape(-1))

    def _sequence_loss(
        self, batch: Batch, memory: Tensor, h0: Tensor, c0: Tensor
    ) -> Tensor:
        """The loss as sequence ops over all T target steps at once.

        Teacher forcing means the decoder recurrence never reads the
        attention output, so the decoder is one recurrence node, one
        attention chain serves every step, and the output logits are
        one (B·T, H) GEMM.  ``basic`` and ``attention`` end in one
        cross-entropy; ``copy`` adds one (B·T, 3H+E) gate GEMM and ends
        in :func:`repro.neural.autograd.copy_nll`.
        """
        steps = batch.tgt_in.shape[1]
        tgt_embedded = ag.embedding_seq(self.embed_out.weight, batch.tgt_in)
        h_seq = ag.lstm_seq(
            ag.matmul_seq(tgt_embedded, self.decoder.w_x),
            self.decoder.w_h, self.decoder.bias, h0, c0,
        )  # (B, T, H)
        targets = batch.tgt_out.reshape(-1)
        if self.variant == "basic":
            outputs = h_seq
        else:
            q_seq = ag.add(
                ag.matmul_seq(h_seq, self.query_proj.weight),
                self.query_proj.bias,
            )
            scores = ag.attention_scores_seq(q_seq, memory)
            weights = ag.masked_softmax(scores, mask=batch.src_mask[:, None, :])
            context = ag.attention_context_seq(weights, memory)
            outputs = ag.tanh(
                ag.add(
                    ag.matmul_seq(
                        ag.concat_last(h_seq, context), self.combine.weight
                    ),
                    self.combine.bias,
                )
            )
        logits = self.out_proj(ag.reshape_merge(outputs))       # (B·T, V)
        if self.variant == "copy":
            gate_input = ag.concat_last(outputs, context, tgt_embedded)
            p_gen = ag.sigmoid(self.gen_gate(ag.reshape_merge(gate_input)))
            token_losses = ag.copy_nll(
                logits, p_gen, ag.reshape_merge(weights),
                np.repeat(batch.src_out_ids, steps, axis=0), targets,
            )
        else:
            token_losses = ag.cross_entropy_logits(logits, targets)
        return ag.masked_mean(token_losses, batch.tgt_mask.reshape(-1))

    def _copy_loss(
        self,
        output: Tensor,
        weights: Tensor,
        context: Tensor,
        token_embed: Tensor,
        targets: np.ndarray,
        batch: Batch,
    ) -> Tensor:
        probs = self._copy_probs(output, weights, context, token_embed, batch)
        picked = ag.gather_cols(probs, targets)
        negative = ag.scale(ag.log(picked), -1.0)
        return negative

    def _copy_probs(
        self,
        output: Tensor,
        weights: Tensor,
        context: Tensor,
        token_embed: Tensor,
        batch: Batch,
    ) -> Tensor:
        logits = self.out_proj(output)
        vocab_dist = ag.masked_softmax(logits)
        gate_input = ag.concat([output, context, token_embed], axis=1)
        p_gen = ag.sigmoid(self.gen_gate(gate_input))
        copy_dist = ag.scatter_probs(weights, batch.src_out_ids, self.out_vocab_size)
        one_minus = ag.add(ag.scale(p_gen, -1.0), Tensor(np.ones_like(p_gen.data)))
        return ag.add(ag.mul(vocab_dist, p_gen), ag.mul(copy_dist, one_minus))

    # ----- decoding ----------------------------------------------------------

    def encode_batch(self, batch: Batch) -> EncodedBatch:
        """Run the encoder once, graph-free, and freeze the outputs.

        Bit-identical to :meth:`_encode` (see :func:`repro.neural.infer.encode`).
        The returned :class:`EncodedBatch` can be passed to any decode
        entry point via ``encoded=`` to skip re-encoding — the basis of
        the serve-layer encoder-output cache.
        """
        return infer.encode(self, batch)

    def greedy_decode(
        self,
        batch: Batch,
        bos_id: int,
        eos_id: int,
        max_len: int = 60,
        encoded: Optional[EncodedBatch] = None,
    ) -> List[List[int]]:
        """Greedy decoding; returns output-vocab id sequences sans EOS."""
        if encoded is None:
            memory, h, c = self._encode(batch)
        else:
            memory = Tensor(encoded.memory)
            h, c = Tensor(encoded.h0), Tensor(encoded.c0)
        batch_size = batch.src_ids.shape[0]
        tokens = np.full(batch_size, bos_id, dtype=np.int64)
        finished = np.zeros(batch_size, dtype=bool)
        outputs: List[List[int]] = [[] for _ in range(batch_size)]
        for _ in range(max_len):
            token_embed = self.embed_out(tokens)
            output, weights, context, (h, c) = self._step(
                token_embed, (h, c), memory, batch.src_mask
            )
            if self.variant == "copy":
                probs = self._copy_probs(output, weights, context, token_embed, batch)
                next_tokens = probs.data.argmax(axis=1)
            else:
                logits = self.out_proj(output)
                next_tokens = logits.data.argmax(axis=1)
            for row in range(batch_size):
                if not finished[row]:
                    if next_tokens[row] == eos_id:
                        finished[row] = True
                    else:
                        outputs[row].append(int(next_tokens[row]))
            if finished.all():
                break
            tokens = next_tokens.astype(np.int64)
        return outputs

    def greedy_decode_batch(
        self,
        batch: Batch,
        bos_id: int,
        eos_id: int,
        max_len: int = 60,
        encoded: Optional[EncodedBatch] = None,
    ) -> List[List[int]]:
        """Greedy decoding of a whole padded batch with no graph.

        Token-identical to :meth:`greedy_decode`, the per-example
        reference (the evaluation harness and the serving path both rely
        on that), but every step is one raw-array
        :class:`~repro.neural.infer.DecoderStep` call.
        """
        if encoded is None:
            encoded = self.encode_batch(batch)
        step = infer.DecoderStep(
            self, encoded.memory, batch.src_mask, batch.src_out_ids
        )
        h, c = encoded.h0, encoded.c0
        batch_size = batch.src_ids.shape[0]
        tokens = np.full(batch_size, bos_id, dtype=np.int64)
        finished = np.zeros(batch_size, dtype=bool)
        outputs: List[List[int]] = [[] for _ in range(batch_size)]
        for _ in range(max_len):
            scores, h, c = step(tokens, h, c)
            next_tokens = scores.argmax(axis=1)
            for row in range(batch_size):
                if not finished[row]:
                    if next_tokens[row] == eos_id:
                        finished[row] = True
                    else:
                        outputs[row].append(int(next_tokens[row]))
            if finished.all():
                break
            tokens = next_tokens
        return outputs

    def beam_decode(
        self,
        batch: Batch,
        bos_id: int,
        eos_id: int,
        beam_width: int = 4,
        max_len: int = 60,
        length_penalty: float = 0.7,
        token_mask: Optional[np.ndarray] = None,
        encoded: Optional[EncodedBatch] = None,
    ) -> List[List[int]]:
        """Beam-search decoding (extension beyond the paper's greedy
        decoder); one example at a time, scoring by length-normalized
        log probability.  ``token_mask`` (bool, shape ``(V,)``) zeroes
        forbidden output tokens out of candidate expansion."""
        results: List[List[int]] = []
        for row in range(batch.src_ids.shape[0]):
            single = Batch(
                src_ids=batch.src_ids[row : row + 1],
                src_mask=batch.src_mask[row : row + 1],
                src_out_ids=batch.src_out_ids[row : row + 1],
                tgt_in=batch.tgt_in[row : row + 1],
                tgt_out=batch.tgt_out[row : row + 1],
                tgt_mask=batch.tgt_mask[row : row + 1],
            )
            results.append(
                self._beam_one(
                    single, bos_id, eos_id, beam_width, max_len, length_penalty,
                    token_mask=token_mask,
                    encoded=None if encoded is None else encoded.row(row),
                )
            )
        return results

    def _beam_one(
        self,
        batch: Batch,
        bos_id: int,
        eos_id: int,
        beam_width: int,
        max_len: int,
        length_penalty: float,
        token_mask: Optional[np.ndarray] = None,
        encoded: Optional[EncodedBatch] = None,
    ) -> List[int]:
        if encoded is None:
            memory, h, c = self._encode(batch)
        else:
            memory = Tensor(encoded.memory)
            h, c = Tensor(encoded.h0), Tensor(encoded.c0)
        # Each hypothesis: (neg score, tokens, h, c, finished)
        beams = [(0.0, [bos_id], h, c, False)]
        for _ in range(max_len):
            if all(done for _, _, _, _, done in beams):
                break
            candidates = []
            for score, tokens, h_state, c_state, done in beams:
                if done:
                    candidates.append((score, tokens, h_state, c_state, True))
                    continue
                token_embed = self.embed_out(np.array([tokens[-1]]))
                output, weights, context, (h_new, c_new) = self._step(
                    token_embed, (h_state, c_state), memory, batch.src_mask
                )
                if self.variant == "copy":
                    probs = self._copy_probs(
                        output, weights, context, token_embed, batch
                    ).data[0]
                else:
                    logits = self.out_proj(output).data[0]
                    shifted = logits - logits.max()
                    probs = np.exp(shifted) / np.exp(shifted).sum()
                if token_mask is not None:
                    probs = np.where(token_mask, probs, 0.0)
                top = np.argsort(-probs)[:beam_width]
                for token_id in top:
                    log_p = float(np.log(max(probs[token_id], 1e-12)))
                    candidates.append((
                        score - log_p,
                        tokens + [int(token_id)],
                        h_new,
                        c_new,
                        int(token_id) == eos_id,
                    ))
            # Keep the best hypotheses by length-normalized score.
            candidates.sort(
                key=lambda item: item[0] / max(len(item[1]) - 1, 1) ** length_penalty
            )
            beams = candidates[:beam_width]
        best = min(
            beams,
            key=lambda item: item[0] / max(len(item[1]) - 1, 1) ** length_penalty,
        )
        tokens = best[1][1:]
        if tokens and tokens[-1] == eos_id:
            tokens = tokens[:-1]
        return tokens

    def beam_decode_batch(
        self,
        batch: Batch,
        bos_id: int,
        eos_id: int,
        beam_width: int = 4,
        max_len: int = 60,
        length_penalty: float = 0.7,
        token_mask: Optional[np.ndarray] = None,
        encoded: Optional[EncodedBatch] = None,
        tracer=None,
    ) -> List[List[int]]:
        """Best hypothesis per example from the vectorized batched beam.

        Token-identical to :meth:`beam_decode` at every width (see
        :meth:`beam_search_batch` for the parity argument) but decodes
        the whole batch's beam front with one fused step per iteration.
        """
        ranked = self.beam_search_batch(
            batch, bos_id, eos_id, beam_width=beam_width, max_len=max_len,
            length_penalty=length_penalty, num_candidates=1,
            token_mask=token_mask, encoded=encoded, tracer=tracer,
        )
        return [example[0].tokens for example in ranked]

    def beam_search_batch(
        self,
        batch: Batch,
        bos_id: int,
        eos_id: int,
        beam_width: int = 4,
        max_len: int = 60,
        length_penalty: float = 0.7,
        num_candidates: Optional[int] = None,
        token_mask: Optional[np.ndarray] = None,
        encoded: Optional[EncodedBatch] = None,
        tracer=None,
    ) -> List[List[BeamCandidate]]:
        """Vectorized beam search over the whole padded batch.

        Instead of looping examples (and hypotheses) one at a time like
        :meth:`beam_decode`, the full beam front is flattened to a
        ``(B·K, ·)`` pseudo-batch so every step is one raw-array
        :class:`~repro.neural.infer.DecoderStep` call, bit-identical to
        the graph step :meth:`_beam_one` runs.  The bookkeeping replicates
        :meth:`_beam_one` exactly — same per-row softmax, same
        ``argsort`` candidate order, same length-normalized key under
        the same stable sort — so the results are token-identical to the
        per-example path at every width, and ``beam_width=1`` with
        ``length_penalty=0.0`` matches :meth:`greedy_decode_batch`.

        Returns, per example, up to ``num_candidates`` (default: the
        beam width) hypotheses ranked best-first as
        :class:`BeamCandidate` with stripped tokens and the normalized
        score used for ranking.
        """
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if beam_width > self.out_vocab_size:
            raise ValueError(
                f"beam_width {beam_width} exceeds output vocab size "
                f"{self.out_vocab_size}"
            )
        keep = beam_width if num_candidates is None else max(1, min(num_candidates, beam_width))
        if encoded is None:
            encoded = self.encode_batch(batch)
        state_h, state_c = encoded.h0, encoded.c0
        batch_size = batch.src_ids.shape[0]
        src_mask = np.asarray(batch.src_mask)
        src_out_ids = np.asarray(batch.src_out_ids)

        def norm(item) -> float:
            return item[0] / max(len(item[1]) - 1, 1) ** length_penalty

        # beams[b][j] = (neg score, tokens, finished); its decoder state
        # lives at row b*k + j of the flattened (B·k, H) front.
        beams = [[(0.0, [bos_id], False)] for _ in range(batch_size)]
        k = 1
        decode_step = infer.DecoderStep(self, encoded.memory, src_mask, src_out_ids)
        for step in range(max_len):
            if all(done for example in beams for _, _, done in example):
                break
            front = batch_size * k
            with traced(
                tracer, "beam.step",
                step=step, front=front, beam_width=beam_width,
            ):
                last = np.fromiter(
                    (hyp[1][-1] for example in beams for hyp in example),
                    dtype=np.int64, count=front,
                )
                scores, h_new, c_new = decode_step(last, state_h, state_c)
                if self.variant == "copy":
                    probs = scores
                else:
                    shifted = scores - scores.max(axis=1, keepdims=True)
                    exp = np.exp(shifted)
                    probs = exp / exp.sum(axis=1, keepdims=True)
                if token_mask is not None:
                    probs = np.where(token_mask[None, :], probs, 0.0)
                top = np.argsort(-probs, axis=1)[:, :beam_width]
                log_p = np.log(np.maximum(
                    np.take_along_axis(probs, top, axis=1), 1e-12
                ))
                new_beams: List[List[Tuple[float, List[int], bool]]] = []
                select: List[int] = []
                for b in range(batch_size):
                    candidates = []  # (neg score, tokens, source row, finished)
                    for j, (score, tokens, done) in enumerate(beams[b]):
                        row = b * k + j
                        if done:
                            candidates.append((score, tokens, row, True))
                            continue
                        for rank in range(top.shape[1]):
                            token_id = int(top[row, rank])
                            candidates.append((
                                score - float(log_p[row, rank]),
                                tokens + [token_id],
                                row,
                                token_id == eos_id,
                            ))
                    candidates.sort(key=norm)
                    kept = candidates[:beam_width]
                    new_beams.append([(s, t, d) for s, t, _, d in kept])
                    select.extend(item[2] for item in kept)
                beams = new_beams
                sel = np.asarray(select, dtype=np.intp)
                state_h = h_new[sel]
                state_c = c_new[sel]
                if k != beam_width:
                    # The front fans out from B to B·K after the first
                    # expansion; the encoder side is repeated once here
                    # and reused for every remaining step.
                    k = beam_width
                    decode_step = infer.DecoderStep(
                        self,
                        np.repeat(encoded.memory, k, axis=0),
                        np.repeat(src_mask, k, axis=0),
                        np.repeat(src_out_ids, k, axis=0),
                    )
        results: List[List[BeamCandidate]] = []
        for example in beams:
            ranked = sorted(example, key=norm)[:keep]
            out: List[BeamCandidate] = []
            for score, tokens, _ in ranked:
                stripped = tokens[1:]
                if stripped and stripped[-1] == eos_id:
                    stripped = stripped[:-1]
                out.append(BeamCandidate(tokens=stripped, score=norm((score, tokens))))
            results.append(out)
        return results


def _as_column(loss_vector: Tensor) -> Tensor:
    """(B,) per-example step loss → (B, 1) so steps can be stacked."""
    out = Tensor(loss_vector.data.reshape(-1, 1), parents=(loss_vector,))

    def backward(grad: np.ndarray) -> None:
        if loss_vector.requires_grad:
            loss_vector._accumulate(grad.reshape(-1))

    out._backward = backward
    return out


def _flatten_steps(stacked: Tensor) -> Tensor:
    """(B, T, 1) stacked step losses → (T*B,) flat vector.

    ``stack_seq`` lays the data out as (B, T, 1); transposing to (T, B)
    before flattening matches the ``tgt_mask.T`` layout used in
    :meth:`Seq2Vis.loss`.
    """
    data = stacked.data[:, :, 0].T.reshape(-1)
    out = Tensor(data, parents=(stacked,))
    batch, steps = stacked.data.shape[0], stacked.data.shape[1]

    def backward(grad: np.ndarray) -> None:
        if stacked.requires_grad:
            stacked._accumulate(grad.reshape(steps, batch).T[:, :, None])

    out._backward = backward
    return out
