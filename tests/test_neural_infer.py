"""The graph-free inference kernels equal the graph path bit for bit.

``repro.neural.infer`` re-implements the encoder and the decoder step on
raw arrays.  Every value they produce must equal, byte for byte, what
the autograd graph computes (``Seq2Vis._encode``, ``_step``,
``out_proj``, ``_copy_probs``), for every variant and precision, on one
row and on a padded batch, and whatever the weights were rewritten to
since the model was built.
"""

import numpy as np
import pytest

from repro.neural import infer
from repro.neural.autograd import Tensor, no_grad, sigmoid_array
from repro.neural.data import Example, Seq2VisDataset
from repro.neural.model import Batch, EncodedBatch, Seq2Vis, VARIANTS
from repro.neural.persist import load_model, save_model
from repro.neural.quantize import quantized_copy
from repro.neural.shared import SharedModel, share_model
from repro.nlp.vocab import Vocabulary

PRECISIONS = ("float32", "float64", "int8", "float16")

#: Sources of three lengths (so the padded batch pads both encoder
#: directions) that repeat output-vocab tokens (so the copy scatter
#: sums over repeated ids).
SOURCES = [
    ["show", "out1", "by", "out2", "out1", "please"],
    ["count", "out3"],
    ["plot", "out0", "out0", "per", "out4"],
]
TARGETS = [
    ["select", "out1", "out2"],
    ["select", "out3"],
    ["select", "out0", "out4", "out0"],
]


def _dataset() -> Seq2VisDataset:
    examples = [
        Example(src_tokens=s, tgt_tokens=t, pair=None)
        for s, t in zip(SOURCES, TARGETS)
    ]
    return Seq2VisDataset(
        examples=examples,
        in_vocab=Vocabulary.build([e.src_tokens for e in examples]),
        out_vocab=Vocabulary.build([e.tgt_tokens for e in examples]),
    )


DATASET = _dataset()
BOS, EOS = DATASET.out_vocab.bos_id, DATASET.out_vocab.eos_id


def _model(variant: str, precision: str, seed: int = 3) -> Seq2Vis:
    dtype = "float64" if precision == "float64" else "float32"
    model = Seq2Vis(
        len(DATASET.in_vocab), len(DATASET.out_vocab), variant, 8, 12,
        seed=seed, dtype=dtype,
    )
    if precision in ("int8", "float16"):
        model = quantized_copy(model, precision)
    return model


def _batch(rows: int) -> Batch:
    return DATASET.batch_of(DATASET.examples[:rows])


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, same shape, same bytes (stricter than ``==``: -0.0
    differs from 0.0, and equal NaNs match)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == (
        np.ascontiguousarray(expected).tobytes()
    )


class GraphStep:
    """The graph path's decoder step with :class:`infer.DecoderStep`'s
    interface: ``_step`` plus ``out_proj`` or ``_copy_probs`` on
    tensors, as the decode loops ran before the kernels."""

    def __init__(self, model, memory, src_mask, src_out_ids):
        self.model = model
        self.memory = Tensor(memory)
        self.batch = Batch.for_inference(
            src_ids=src_out_ids, src_mask=src_mask, src_out_ids=src_out_ids
        )

    def __call__(self, tokens, h, c):
        model = self.model
        with no_grad():
            embedded = model.embed_out(tokens)
            output, weights, context, (h, c) = model._step(
                embedded, (Tensor(h), Tensor(c)), self.memory,
                self.batch.src_mask,
            )
            if model.variant == "copy":
                scores = model._copy_probs(
                    output, weights, context, embedded, self.batch
                )
            else:
                scores = model.out_proj(output)
        return scores.data, h.data, c.data


def graph_encode_batch(model, batch):
    """``Seq2Vis.encode_batch`` on the graph path."""
    with no_grad():
        memory, h0, c0 = model._encode(batch)
    return EncodedBatch(
        memory=memory.data, h0=h0.data, c0=c0.data,
        src_mask=np.asarray(batch.src_mask),
        src_out_ids=np.asarray(batch.src_out_ids),
    )


MATRIX = pytest.mark.parametrize("rows", [1, 3], ids=["one-row", "padded-3"])
VARIANT = pytest.mark.parametrize("variant", VARIANTS)
PRECISION = pytest.mark.parametrize("precision", PRECISIONS)


@VARIANT
@PRECISION
@MATRIX
class TestKernelsMatchTheGraph:
    def test_encoder_outputs(self, variant, precision, rows):
        model, batch = _model(variant, precision), _batch(rows)
        encoded = model.encode_batch(batch)
        expected = graph_encode_batch(model, batch)
        assert_bitwise(encoded.memory, expected.memory)
        assert_bitwise(encoded.h0, expected.h0)
        assert_bitwise(encoded.c0, expected.c0)

    def test_decoder_steps(self, variant, precision, rows):
        model, batch = _model(variant, precision), _batch(rows)
        encoded = model.encode_batch(batch)
        args = (model, encoded.memory, batch.src_mask, batch.src_out_ids)
        kernel, graph = infer.DecoderStep(*args), GraphStep(*args)
        tokens = np.full(rows, BOS, dtype=np.int64)
        h, c = encoded.h0, encoded.c0
        for _ in range(4):
            scores, h_next, c_next = kernel(tokens, h, c)
            expected = graph(tokens, h, c)
            assert_bitwise(scores, expected[0])
            assert_bitwise(h_next, expected[1])
            assert_bitwise(c_next, expected[2])
            tokens, h, c = scores.argmax(axis=1), h_next, c_next

    def test_greedy_tokens(self, variant, precision, rows):
        model, batch = _model(variant, precision), _batch(rows)
        assert model.greedy_decode_batch(
            batch, BOS, EOS, max_len=8
        ) == model.greedy_decode(batch, BOS, EOS, max_len=8)

    def test_beam_candidates(self, variant, precision, rows, monkeypatch):
        model, batch = _model(variant, precision), _batch(rows)

        def search():
            return model.beam_search_batch(
                batch, BOS, EOS, beam_width=3, max_len=6
            )

        ranked = search()
        assert [example[0].tokens for example in ranked] == model.beam_decode(
            batch, BOS, EOS, beam_width=3, max_len=6
        )
        monkeypatch.setattr(infer, "DecoderStep", GraphStep)
        monkeypatch.setattr(Seq2Vis, "encode_batch", graph_encode_batch)
        expected = search()
        assert [
            [(c.tokens, c.score) for c in example] for example in ranked
        ] == [[(c.tokens, c.score) for c in example] for example in expected]


def _decodes(model: Seq2Vis):
    """Greedy tokens and beam candidates on the padded batch, after
    checking that the model's encoding still equals the graph's (which
    reads the weights afresh): a stale weight copy kept by the kernels
    would fail here whatever it was copied from."""
    batch = _batch(3)
    encoded = model.encode_batch(batch)
    expected = graph_encode_batch(model, batch)
    assert_bitwise(encoded.memory, expected.memory)
    assert_bitwise(encoded.h0, expected.h0)
    return (
        model.greedy_decode_batch(batch, BOS, EOS, max_len=8),
        [
            [(c.tokens, c.score) for c in example]
            for example in model.beam_search_batch(
                batch, BOS, EOS, beam_width=2, max_len=6
            )
        ],
    )


@pytest.mark.parametrize("variant", ["attention", "copy"])
def test_load_state_dict_decodes_as_a_fresh_load(variant, tmp_path):
    """Rewritten weights are what the next decode reads: no stale copy
    (such as stacked encoder weights) survives a call."""
    model = _model(variant, "float32", seed=3)
    before = _decodes(model)
    donor = _model(variant, "float32", seed=4)
    path = save_model(donor, DATASET.in_vocab, DATASET.out_vocab,
                      tmp_path / "donor")
    fresh, _, _ = load_model(path)
    model.load_state_dict(donor.state_dict())
    after = _decodes(model)
    assert after == _decodes(fresh)
    assert after != before


@pytest.mark.parametrize("precision", ["float32", "int8"])
def test_attached_model_decodes_as_the_loaded_one(precision):
    model = _model("copy", precision)
    shared = share_model(model, DATASET.in_vocab, DATASET.out_vocab)
    try:
        attached = SharedModel.attach(shared.manifest)
        try:
            view, _, _ = attached.views()
            assert _decodes(view) == _decodes(model)
            del view
        finally:
            attached.close()
    finally:
        shared.destroy()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_array_equals_the_clip_formula(dtype):
    """max/min replace np.clip bit for bit, specials included."""
    values = np.concatenate([
        np.random.default_rng(0).normal(scale=80.0, size=20_000),
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 60.0, -60.0, 61.0, -61.0],
    ]).astype(dtype)
    expected = 1.0 / (1.0 + np.exp(-np.clip(values, -60, 60)))
    assert_bitwise(sigmoid_array(values), expected)
