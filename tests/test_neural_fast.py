"""Fast-engine tests: fused kernels, flat Adam, dtype policy, batched
decode, and persistence of the new checkpoint metadata.

The fused LSTM kernel and the flat-buffer optimizer are validated two
ways: against finite differences (absolute ground truth, float64) and
against the retained reference implementations (``step_unfused``,
``ReferenceAdam``), which the seed test-suite already proved correct.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.neural import autograd as ag
from repro.neural.data import Example, Seq2VisDataset
from repro.neural.layers import LSTMCell
from repro.neural.model import VARIANTS, Seq2Vis
from repro.neural.optimizer import Adam, ReferenceAdam
from repro.neural.persist import load_model, save_model
from repro.neural.trainer import TrainConfig, evaluate_loss, train_model
from repro.nlp.vocab import Vocabulary


def sum_all(t: ag.Tensor) -> ag.Tensor:
    """Scalar sum via masked_mean (the engine has no bare sum op)."""
    return ag.scale(ag.masked_mean(t, np.ones(t.shape)), float(t.data.size))


def toy_dataset(n_patterns: int = 6) -> Seq2VisDataset:
    examples = []
    for i in range(n_patterns):
        src = ["show", f"in{i}", "please"]
        tgt = ["select", f"out{i}", f"out{(i + 1) % n_patterns}"]
        examples.append(Example(src_tokens=src, tgt_tokens=tgt, pair=None))
    in_vocab = Vocabulary.build([e.src_tokens for e in examples])
    out_vocab = Vocabulary.build([e.tgt_tokens for e in examples])
    return Seq2VisDataset(examples=examples, in_vocab=in_vocab, out_vocab=out_vocab)


def copy_dataset() -> Seq2VisDataset:
    """Sources of three lengths (so batches pad the encoder) holding
    target tokens, some of them twice (so the copy mass sums over
    repeated source ids), and targets of four lengths."""
    pairs = [
        (["show", "out1", "by", "out2", "out1"], ["select", "out1", "out2"]),
        (["count", "out3"], ["select", "out3", "out0"]),
        (["plot", "out0", "per", "out4"],
         ["select", "out0", "out4", "out0", "out2"]),
        (["list", "out2", "out2"], ["select", "out2"]),
    ]
    examples = [Example(src_tokens=s, tgt_tokens=t, pair=None) for s, t in pairs]
    in_vocab = Vocabulary.build([e.src_tokens for e in examples])
    out_vocab = Vocabulary.build([e.tgt_tokens for e in examples])
    return Seq2VisDataset(examples=examples, in_vocab=in_vocab, out_vocab=out_vocab)


def numeric_grad(scalar, tensor: ag.Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central differences of ``scalar()`` in every element of
    ``tensor.data`` (perturbed in place and restored)."""
    numeric = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = scalar()
        flat[index] = original - eps
        minus = scalar()
        flat[index] = original
        num_flat[index] = (plus - minus) / (2 * eps)
    return numeric


def toy_model(dataset, variant="attention", seed=1, **kw) -> Seq2Vis:
    return Seq2Vis(
        in_vocab_size=len(dataset.in_vocab),
        out_vocab_size=len(dataset.out_vocab),
        variant=variant,
        embed_dim=16,
        hidden_dim=24,
        seed=seed,
        **kw,
    )


def _lstm_inputs(seed=0, batch=3, in_dim=4, hidden=5):
    rng = np.random.default_rng(seed)
    make = lambda *shape: ag.Tensor(
        rng.normal(size=shape), requires_grad=True
    )
    x = make(batch, in_dim)
    w_x = make(in_dim, 4 * hidden)
    w_h = make(hidden, 4 * hidden)
    bias = make(1, 4 * hidden)
    h_prev = make(batch, hidden)
    c_prev = make(batch, hidden)
    return x, w_x, w_h, bias, h_prev, c_prev


def _lstm_scalar_loss(tensors, weights):
    """Deterministic scalar from (h, c) so both outputs get gradients."""
    x, w_x, w_h, bias, h_prev, c_prev = tensors
    h, c = ag.lstm_step(x, w_x, w_h, bias, h_prev, c_prev)
    return float((h.data * weights[0]).sum() + (c.data * weights[1]).sum()), (h, c)


class TestFusedLSTMGradients:
    def test_finite_difference_gradcheck_float64(self):
        tensors = _lstm_inputs()
        rng = np.random.default_rng(42)
        w_h_out = rng.normal(size=tensors[4].data.shape)
        w_c_out = rng.normal(size=tensors[5].data.shape)

        h, c = ag.lstm_step(*tensors)
        loss = ag.add(
            sum_all(ag.mul(h, ag.Tensor(w_h_out))),
            sum_all(ag.mul(c, ag.Tensor(w_c_out))),
        )
        loss.backward()

        eps = 1e-6
        for tensor in tensors:
            analytic = tensor.grad
            assert analytic is not None
            numeric = np.zeros_like(tensor.data)
            flat = tensor.data.reshape(-1)
            num_flat = numeric.reshape(-1)
            for index in range(flat.size):
                original = flat[index]
                flat[index] = original + eps
                plus, _ = _lstm_scalar_loss(tensors, (w_h_out, w_c_out))
                flat[index] = original - eps
                minus, _ = _lstm_scalar_loss(tensors, (w_h_out, w_c_out))
                flat[index] = original
                num_flat[index] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_fused_matches_unfused_forward_bitwise(self):
        rng = np.random.default_rng(3)
        cell = LSTMCell(4, 5, rng)
        cell.to_dtype("float64")
        x = ag.Tensor(rng.normal(size=(3, 4)))
        state = cell.initial_state(3)
        cell.fused = True
        h_fused, c_fused = cell(x, state)
        cell.fused = False
        h_ref, c_ref = cell(x, state)
        np.testing.assert_array_equal(h_fused.data, h_ref.data)
        np.testing.assert_array_equal(c_fused.data, c_ref.data)

    def test_fused_matches_unfused_gradients(self):
        rng = np.random.default_rng(4)
        grads = {}
        for fused in (True, False):
            cell = LSTMCell(4, 5, np.random.default_rng(4))
            cell.fused = fused
            x = ag.Tensor(
                np.random.default_rng(9).normal(size=(3, 4)), requires_grad=True
            )
            h, c = cell(x, cell.initial_state(3))
            h2, c2 = cell(x, (h, c))  # chain two steps through the state
            ag.add(sum_all(h2), sum_all(c2)).backward()
            grads[fused] = {
                "x": x.grad.copy(),
                "w_x": cell.w_x.grad.copy(),
                "w_h": cell.w_h.grad.copy(),
                "bias": cell.bias.grad.copy(),
            }
        for key in grads[True]:
            np.testing.assert_allclose(
                grads[True][key], grads[False][key], rtol=1e-10, atol=1e-12
            )

    def test_c_only_backward_zeroes_output_gate(self):
        # Backprop through c alone: the output gate contributed nothing,
        # and the stashed h-gradient must not be required.
        tensors = _lstm_inputs(seed=7)
        h, c = ag.lstm_step(*tensors)
        sum_all(c).backward()
        assert tensors[1].grad is not None  # w_x got a gradient
        # o-gate block of the bias gradient is exactly zero
        hidden = tensors[5].data.shape[1]
        np.testing.assert_array_equal(
            tensors[3].grad[:, 3 * hidden :], np.zeros((1, hidden))
        )


class TestSequenceKernels:
    """The whole-recurrence node and the batched attention ops must
    agree with the per-step graph composition they replace."""

    def _seq_inputs(self, seed=0, batch=3, length=4, in_dim=3, hidden=2):
        rng = np.random.default_rng(seed)
        make = lambda *shape: ag.Tensor(rng.normal(size=shape), requires_grad=True)
        proj = make(batch, length, 4 * hidden)
        w_h = make(hidden, 4 * hidden)
        bias = make(1, 4 * hidden)
        h0 = make(batch, hidden)
        c0 = make(batch, hidden)
        mask = np.ones((batch, length))
        mask[0, -1] = 0.0  # padded positions exercise the blend
        mask[batch - 1, -2:] = 0.0
        return proj, w_h, bias, h0, c0, mask

    def _stepwise(self, proj, w_h, bias, h0, c0, mask, reverse):
        """Reference: chain lstm_step nodes with the layer-level blend."""
        batch, length = proj.shape[0], proj.shape[1]
        keep_cols = np.asarray(mask, dtype=proj.data.dtype)[:, :, None]
        order = range(length - 1, -1, -1) if reverse else range(length)
        h, c = h0, c0
        outputs = [None] * length
        for t in order:
            x_proj = ag.slice_time(proj, t)
            h_new, c_new = ag.lstm_step(
                None, None, w_h, bias, h, c, x_proj=x_proj
            )
            keep = keep_cols[:, t]
            if keep.all():
                h, c = h_new, c_new
            else:
                keep_t = ag.Tensor(keep)
                drop_t = ag.Tensor(1.0 - keep)
                h = ag.add(ag.mul(h_new, keep_t), ag.mul(h, drop_t))
                c = ag.add(ag.mul(c_new, keep_t), ag.mul(c, drop_t))
            outputs[t] = h
        return ag.stack_seq(outputs)

    def test_lstm_seq_matches_stepwise_graph(self):
        readout = np.random.default_rng(99).normal(size=(3, 4, 2))
        grads = {}
        for mode in ("seq", "step"):
            proj, w_h, bias, h0, c0, _ = self._seq_inputs()
            if mode == "seq":
                h_seq = ag.lstm_seq(proj, w_h, bias, h0, c0)
            else:
                full = np.ones((3, 4))
                h_seq = self._stepwise(proj, w_h, bias, h0, c0, full, False)
            grads[mode + "_value"] = h_seq.data.copy()
            sum_all(ag.mul(h_seq, ag.Tensor(readout))).backward()
            grads[mode] = [t.grad.copy() for t in (proj, w_h, bias, h0, c0)]
        np.testing.assert_array_equal(grads["seq_value"], grads["step_value"])
        for got, want in zip(grads["seq"], grads["step"]):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_lstm_seq_finite_difference_gradcheck(self):
        readout = np.random.default_rng(5).normal(size=(2, 3, 2))
        tensors = self._seq_inputs(seed=8, batch=2, length=3, in_dim=2, hidden=2)[:5]

        def forward():
            return ag.lstm_seq(*tensors)

        forward().backward(readout)
        for tensor in tensors:
            numeric = numeric_grad(
                lambda: float((forward().data * readout).sum()), tensor
            )
            np.testing.assert_allclose(
                tensor.grad, numeric, rtol=1e-4, atol=1e-6
            )

    def _bi_inputs(self, seed=0, batch=3, length=4, hidden=2):
        """Both directions' (proj, w_h, bias) and a mask whose padded
        columns come first in one direction and last in the other."""
        fwd = self._seq_inputs(seed, batch, length, hidden=hidden)
        bwd = self._seq_inputs(seed + 1, batch, length, hidden=hidden)
        mask = fwd[5]
        mask[1, 0] = 0.0  # a left-padded column too
        return fwd[:3], bwd[:3], mask

    def test_bilstm_seq_matches_stepwise_graphs(self):
        """The stacked node equals two one-direction graphs: the
        forward one, and the reversed one read back by position."""
        readout = np.random.default_rng(99).normal(size=(3, 4, 4))
        grads = {}
        for mode in ("seq", "step"):
            (pf, whf, bf), (pb, whb, bb), mask = self._bi_inputs()
            if mode == "seq":
                memory = ag.bilstm_seq(pf, pb, whf, whb, bf, bb, mask)
            else:
                zeros = lambda: ag.Tensor(np.zeros((3, 2)))
                memory = ag.concat_last(
                    self._stepwise(pf, whf, bf, zeros(), zeros(), mask, False),
                    self._stepwise(pb, whb, bb, zeros(), zeros(), mask, True),
                )
            grads[mode + "_value"] = memory.data.copy()
            sum_all(ag.mul(memory, ag.Tensor(readout))).backward()
            grads[mode] = [t.grad.copy() for t in (pf, whf, bf, pb, whb, bb)]
        np.testing.assert_array_equal(grads["seq_value"], grads["step_value"])
        for got, want in zip(grads["seq"], grads["step"]):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_bilstm_seq_finite_difference_gradcheck(self):
        readout = np.random.default_rng(5).normal(size=(3, 4, 4))
        fwd, bwd, mask = self._bi_inputs(seed=8)
        tensors = (fwd[0], bwd[0], fwd[1], bwd[1], fwd[2], bwd[2])

        def forward():
            return ag.bilstm_seq(*tensors, mask)

        forward().backward(readout)
        for tensor in tensors:
            numeric = numeric_grad(
                lambda: float((forward().data * readout).sum()), tensor
            )
            np.testing.assert_allclose(
                tensor.grad, numeric, rtol=1e-4, atol=1e-6
            )

    def test_final_states_are_each_directions_last_step(self):
        fwd, bwd, mask = self._bi_inputs()
        memory = ag.bilstm_seq(fwd[0], bwd[0], fwd[1], bwd[1], fwd[2], bwd[2], mask)
        final = ag.final_states(memory)
        np.testing.assert_array_equal(final.data[:, :2], memory.data[:, -1, :2])
        np.testing.assert_array_equal(final.data[:, 2:], memory.data[:, 0, 2:])
        readout = np.random.default_rng(3).normal(size=(3, 4))
        sum_all(ag.mul(final, ag.Tensor(readout))).backward()
        expected = np.zeros((3, 4, 4))
        expected[:, -1, :2] = readout[:, :2]
        expected[:, 0, 2:] = readout[:, 2:]
        np.testing.assert_array_equal(memory.grad, expected)

    def _copy_inputs(self):
        """Three rows: a target that occurs twice in the source, one
        that never occurs, and one that also sits at a padded position."""
        rng = np.random.default_rng(21)
        make = lambda *shape: ag.Tensor(rng.normal(size=shape), requires_grad=True)
        logits, gate_logit, scores = make(3, 6), make(3, 1), make(3, 4)
        source_ids = np.array([[2, 5, 2, 1], [0, 3, 4, 1], [1, 3, 0, 0]])
        src_mask = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0.0]])
        targets = np.array([2, 5, 0])
        return (logits, gate_logit, scores), source_ids, src_mask, targets

    def _copy_losses(self, tensors, source_ids, src_mask, targets, node):
        logits, gate_logit, scores = tensors
        weights = ag.masked_softmax(scores, mask=src_mask)
        gate = ag.sigmoid(gate_logit)
        if node:
            return ag.copy_nll(logits, gate, weights, source_ids, targets)
        # Seq2Vis._copy_probs and _copy_loss, composed op by op
        vocab = ag.masked_softmax(logits)
        copied = ag.scatter_probs(weights, source_ids, logits.shape[1])
        one_minus = ag.add(ag.scale(gate, -1.0), ag.Tensor(np.ones((3, 1))))
        probs = ag.add(ag.mul(vocab, gate), ag.mul(copied, one_minus))
        return ag.scale(ag.log(ag.gather_cols(probs, targets)), -1.0)

    def test_copy_nll_matches_the_scatter_composition(self):
        readout = np.random.default_rng(4).normal(size=3)
        results = {}
        for node in (True, False):
            tensors, *rest = self._copy_inputs()
            losses = self._copy_losses(tensors, *rest, node=node)
            results[node] = losses.data.copy()
            losses.backward(readout)
            results[(node, "grad")] = [t.grad.copy() for t in tensors]
        np.testing.assert_allclose(results[True], results[False], rtol=1e-12)
        for got, want in zip(results[(True, "grad")], results[(False, "grad")]):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_copy_nll_finite_difference_gradcheck(self):
        readout = np.random.default_rng(6).normal(size=3)
        tensors, *rest = self._copy_inputs()

        def forward():
            return self._copy_losses(tensors, *rest, node=True)

        forward().backward(readout)
        for tensor in tensors:
            numeric = numeric_grad(
                lambda: float((forward().data * readout).sum()), tensor
            )
            np.testing.assert_allclose(
                tensor.grad, numeric, rtol=1e-4, atol=1e-6
            )
        # The padded position takes no attention, so no gradient.
        assert tensors[2].grad[2, 3] == 0.0

    def test_attention_seq_ops_match_per_step(self):
        rng = np.random.default_rng(12)
        batch, steps, length, width = 3, 4, 5, 6
        src_mask = np.ones((batch, length))
        src_mask[1, -2:] = 0.0
        readout = rng.normal(size=(batch, steps, width))
        results = {}
        for mode in ("seq", "step"):
            gen = np.random.default_rng(12)
            memory = ag.Tensor(
                gen.normal(size=(batch, length, width)), requires_grad=True
            )
            q_seq = ag.Tensor(
                gen.normal(size=(batch, steps, width)), requires_grad=True
            )
            if mode == "seq":
                scores = ag.attention_scores_seq(q_seq, memory)
                weights = ag.masked_softmax(scores, mask=src_mask[:, None, :])
                context = ag.attention_context_seq(weights, memory)
            else:
                contexts = []
                for t in range(steps):
                    query = ag.slice_time(q_seq, t)
                    s_t = ag.attention_scores(memory, query)
                    w_t = ag.masked_softmax(s_t, mask=src_mask)
                    contexts.append(ag.attention_context(w_t, memory))
                context = ag.stack_seq(contexts)
            results[mode + "_value"] = context.data.copy()
            sum_all(ag.mul(context, ag.Tensor(readout))).backward()
            results[mode] = (memory.grad.copy(), q_seq.grad.copy())
        np.testing.assert_allclose(
            results["seq_value"], results["step_value"], rtol=1e-12, atol=1e-13
        )
        for got, want in zip(results["seq"], results["step"]):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


class TestFlatAdam:
    def _params(self, seed, dtype="float64"):
        rng = np.random.default_rng(seed)
        return [
            ag.Tensor(
                rng.normal(size=shape).astype(dtype), requires_grad=True
            )
            for shape in [(3, 4), (7,), (2, 2, 2)]
        ]

    def test_matches_reference_adam_trajectory(self):
        fast_params = self._params(0)
        ref_params = self._params(0)
        fast = Adam(fast_params, lr=1e-2, clip_norm=2.0)
        ref = ReferenceAdam(ref_params, lr=1e-2, clip_norm=2.0)
        grad_rng = np.random.default_rng(1)
        for _ in range(7):
            for fp, rp in zip(fast_params, ref_params):
                grad = grad_rng.normal(size=fp.data.shape) * 3.0
                fp.grad = grad.copy()
                rp.grad = grad.copy()
            fast.step()
            ref.step()
        for fp, rp in zip(fast_params, ref_params):
            np.testing.assert_allclose(fp.data, rp.data, rtol=1e-12, atol=1e-14)

    def test_none_grads_are_skipped(self):
        params = self._params(2)
        ref_params = self._params(2)
        fast = Adam(params, lr=1e-2)
        ref = ReferenceAdam(ref_params, lr=1e-2)
        params[1].grad = np.ones_like(params[1].data)
        ref_params[1].grad = np.ones_like(ref_params[1].data)
        fast.step()
        ref.step()
        # params without grads move identically (not at all, modulo the
        # zero-grad moment updates, which are zero)
        np.testing.assert_allclose(params[0].data, ref_params[0].data)
        np.testing.assert_allclose(params[1].data, ref_params[1].data, rtol=1e-12)

    def test_param_views_alias_flat_buffer(self):
        params = self._params(3)
        optimizer = Adam(params, lr=1e-2)
        group = optimizer._groups[0]
        for param in params:
            assert param.data.base is group.flat

    def test_clip_gradients_contract_preserved(self):
        # The public clip_gradients still mutates per-param grads and
        # returns the pre-clip norm (tier-1 relies on this).
        params = self._params(4)
        optimizer = Adam(params, lr=1e-2, clip_norm=1.0)
        for param in params:
            param.grad = np.ones_like(param.data)
        norm = optimizer.clip_gradients()
        total = float(sum((p.grad**2).sum() for p in params))
        assert norm > 1.0
        assert np.sqrt(total) == pytest.approx(1.0, rel=1e-6)

    def test_mixed_dtype_groups(self):
        p32 = ag.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        p64 = ag.Tensor(np.ones(3), requires_grad=True)
        optimizer = Adam([p32, p64], lr=1e-2)
        p32.grad = np.full((2, 2), 0.5, dtype=np.float32)
        p64.grad = np.full(3, 0.5)
        optimizer.step()
        assert p32.data.dtype == np.float32
        assert p64.data.dtype == np.float64
        assert (p32.data < 1.0).all() and (p64.data < 1.0).all()


class TestDtypePolicy:
    def test_float32_training_stays_float32(self):
        dataset = toy_dataset()
        model = toy_model(dataset)
        config = TrainConfig(epochs=2, batch_size=6, lr=5e-3, dtype="float32")
        result = train_model(model, dataset, None, config)
        assert str(model.dtype) == "float32"
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        assert np.isfinite(result.train_losses).all()
        loss = model.loss(dataset.batch_of(dataset.examples))
        assert loss.data.dtype == np.float32
        loss.backward()
        assert all(
            p.grad is None or p.grad.dtype == np.float32
            for p in model.parameters()
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_float64_config_reproduces_reference_engine(self, variant):
        # fused float64 vs the reference engine (unfused + ReferenceAdam):
        # loss curves agree to ~1e-6 per epoch.
        dataset = toy_dataset()
        losses = {}
        for fused in (True, False):
            model = toy_model(dataset, variant=variant)
            config = TrainConfig(
                epochs=4, batch_size=4, lr=5e-3, seed=0,
                dtype="float64", fused=fused,
            )
            losses[fused] = train_model(model, dataset, None, config).train_losses
        np.testing.assert_allclose(losses[True], losses[False], atol=1e-6)

    def test_training_is_deterministic_across_runs(self):
        dataset = toy_dataset()
        curves = []
        for _ in range(2):
            model = toy_model(dataset)
            config = TrainConfig(epochs=3, batch_size=4, lr=5e-3, seed=11)
            curves.append(train_model(model, dataset, None, config).train_losses)
        assert curves[0] == curves[1]

    def test_bucketed_batches_deterministic(self):
        dataset = toy_dataset(12)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            runs.append(dataset.batches(4, rng))
        assert len(runs[0]) == len(runs[1])
        for a, b in zip(runs[0], runs[1]):
            np.testing.assert_array_equal(a.src_ids, b.src_ids)
            np.testing.assert_array_equal(a.tgt_in, b.tgt_in)


class TestSequenceLoss:
    """The fused loss (sequence nodes) against the ``fused=False``
    reference engine (per-step graph), batch by batch, at float64."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loss_and_gradients_match_the_reference_engine(self, variant):
        dataset = copy_dataset()
        for batch in dataset.batches(3, np.random.default_rng(2)):
            results = {}
            for fused in (True, False):
                model = toy_model(dataset, variant=variant, dtype="float64")
                model.set_fused(fused)
                loss = model.loss(batch)
                loss.backward()
                results[fused] = (
                    loss.item(), [p.grad for p in model.parameters()]
                )
            assert results[True][0] == pytest.approx(results[False][0], rel=1e-12)
            for got, want in zip(results[True][1], results[False][1]):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


class TestTokenWeightedLoss:
    def test_epoch_train_loss_matches_evaluate_loss_at_lr_zero(self):
        dataset = toy_dataset(8)
        model = toy_model(dataset)
        config = TrainConfig(
            epochs=1, batch_size=3, lr=0.0, seed=2, dtype="float64"
        )
        result = train_model(model, dataset, None, config)
        reference = evaluate_loss(model, dataset, batch_size=32)
        # Token weighting makes the aggregate invariant to batch
        # composition, so the shuffled size-3 batches must reproduce
        # the one-big-batch statistic.
        assert result.train_losses[0] == pytest.approx(reference, abs=1e-9)


class TestGraphLifecycle:
    def test_no_grad_records_no_graph(self):
        a = ag.Tensor(np.ones(3), requires_grad=True)
        with ag.no_grad():
            out = ag.mul(a, a)
        assert out._parents == ()
        assert not out.requires_grad

    def test_free_graph_keeps_param_grads(self):
        dataset = toy_dataset()
        grads = {}
        for free in (True, False):
            model = toy_model(dataset)
            model.to_dtype("float64")
            loss = model.loss(dataset.batch_of(dataset.examples))
            loss.backward(free_graph=free)
            grads[free] = {
                p.name: p.grad.copy()
                for p in model.parameters()
                if p.grad is not None
            }
        assert grads[True].keys() == grads[False].keys()
        for name in grads[True]:
            np.testing.assert_array_equal(grads[True][name], grads[False][name])

    @pytest.mark.parametrize("free", [True, False])
    def test_dropped_loss_frees_every_activation_without_the_collector(
        self, free, monkeypatch
    ):
        """Once backward returns and the caller drops the loss, reference
        counting alone frees every interior activation: no reference
        cycle leaves the step's graph for the cyclic collector."""
        dataset = copy_dataset()
        model = toy_model(dataset, variant="copy", dtype="float64")
        batch = dataset.batch_of(dataset.examples)
        activations = []
        init = ag.Tensor.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self._parents:
                activations.append(weakref.ref(self.data))

        monkeypatch.setattr(ag.Tensor, "__init__", tracking_init)
        enabled = gc.isenabled()
        gc.disable()
        try:
            loss = model.loss(batch)
            loss.backward(free_graph=free)
            del loss
            alive = sum(ref() is not None for ref in activations)
        finally:
            if enabled:
                gc.enable()
        assert activations
        assert alive == 0

    def test_backward_skips_constant_subgraphs(self):
        const = ag.Tensor(np.ones(4))
        a = ag.Tensor(np.ones(4), requires_grad=True)
        out = sum_all(ag.mul(ag.mul(const, const), a))
        out.backward()
        assert const.grad is None
        np.testing.assert_array_equal(a.grad, np.ones(4))


class TestBatchedDecodeParity:
    def test_batch_decode_matches_per_example(self):
        dataset = toy_dataset()
        model = toy_model(dataset)
        config = TrainConfig(epochs=25, batch_size=6, lr=5e-3, patience=25)
        train_model(model, dataset, None, config)
        bos, eos = dataset.out_vocab.bos_id, dataset.out_vocab.eos_id
        batch = dataset.batch_of(dataset.examples)
        batched = model.greedy_decode_batch(batch, bos, eos, max_len=8)
        singles = []
        for example in dataset.examples:
            single = dataset.batch_of([example])
            singles.extend(model.greedy_decode(single, bos, eos, max_len=8))
        assert batched == singles


class TestPersistRoundTrip:
    def test_dtype_and_optimizer_round_trip(self, tmp_path):
        dataset = toy_dataset()
        model = toy_model(dataset)
        config = TrainConfig(epochs=1, batch_size=6, lr=3e-3, clip_norm=4.0)
        result = train_model(model, dataset, None, config)
        path = save_model(
            model, dataset.in_vocab, dataset.out_vocab,
            tmp_path / "fast_model", optimizer=result.optimizer,
        )
        loaded, in_vocab, out_vocab = load_model(path)
        assert str(loaded.dtype) == "float32"
        assert loaded.checkpoint_meta["dtype"] == "float32"
        hyper = loaded.checkpoint_meta["optimizer"]
        assert hyper["lr"] == pytest.approx(3e-3)
        assert hyper["clip_norm"] == pytest.approx(4.0)
        assert hyper["beta1"] == pytest.approx(0.9)
        for p_old, p_new in zip(model.parameters(), loaded.parameters()):
            assert p_new.data.dtype == np.float32
            np.testing.assert_array_equal(p_old.data, p_new.data)

    def test_legacy_archive_without_new_meta_loads(self, tmp_path):
        # save without an optimizer: meta carries dtype only
        dataset = toy_dataset()
        model = toy_model(dataset)  # stays float64 (no cast requested)
        path = save_model(
            model, dataset.in_vocab, dataset.out_vocab, tmp_path / "plain"
        )
        loaded, _, _ = load_model(path)
        assert str(loaded.dtype) == "float64"
        assert loaded.checkpoint_meta["optimizer"] is None
