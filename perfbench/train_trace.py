"""Per-layer spans for the ``train`` workload (traced runs only)."""

from __future__ import annotations

from spans import Recorder


def install_setup() -> Recorder:
    """Spans for the set-up: embedding training and dataset encoding."""
    import repro.eval.harness as harness

    rec = Recorder()
    rec.phase = "setup"
    rec.wrap(harness, "train_embeddings", "nlp.embeddings")
    rec.wrap(harness, "build_dataset", "neural.dataset")
    return rec


def install(rec: Recorder) -> None:
    """Spans for training and evaluation."""
    import repro.eval.harness as harness
    import repro.neural.autograd as autograd
    import repro.neural.model as model
    import repro.neural.optimizer as optimizer
    import repro.neural.trainer as trainer
    import repro.storage.executor as executor

    def count_padding(args, result):
        if rec.parent_name() != "neural.validate":
            mask = args[1].tgt_mask
            rec.counts["target_tokens"] += float(mask.sum())
            rec.counts["target_slots"] += float(mask.size)

    def count_decoded(args, result):
        rec.counts["decoded_tokens"] += sum(len(ids) for ids in result)

    rec.wrap(model.Seq2Vis, "loss", "neural.forward", count_padding)
    rec.wrap(model.Seq2Vis, "greedy_decode_batch", "neural.decode",
             count_decoded)
    rec.wrap(autograd.Tensor, "backward", "neural.backward")
    rec.wrap(optimizer.Adam, "zero_grad", "neural.zero_grad")
    rec.wrap(optimizer.Adam, "step", "neural.step")
    rec.wrap(trainer, "evaluate_loss", "neural.validate")
    rec.wrap(harness, "fill_value_slots", "neural.slot_fill")
    for name in ("tree_match", "result_match", "component_match"):
        rec.wrap(harness, name, "eval.match")
    rec.wrap(executor.Executor, "execute", "storage.execute")


def report(rec: Recorder, out, ctx) -> None:
    from train_wl import EVAL_REPEATS, SETUP_REPEATS

    setup_total = rec.total_seconds("setup")
    train_total = rec.total_seconds("train")
    eval_total = rec.total_seconds("eval")
    eval_self = rec.self_seconds("eval")
    forward = sum(
        (span[3] - span[2]) for span in rec.spans
        if span[0] == "neural.forward" and span[1] == "train"
        and (span[4] is None or rec.spans[span[4]][0] != "neural.validate")
    )
    metrics = [
        ("nlp.embeddings_s", setup_total["nlp.embeddings"] / SETUP_REPEATS, "s"),
        ("neural.dataset_s", setup_total["neural.dataset"] / SETUP_REPEATS, "s"),
        ("neural.forward_s", forward, "s"),
        ("neural.backward_s", train_total["neural.backward"], "s"),
        ("neural.optimizer_s",
         train_total["neural.zero_grad"] + train_total["neural.step"], "s"),
        ("neural.validate_s", train_total["neural.validate"], "s"),
        ("neural.steps", rec.calls("neural.step", "train"), "count"),
        ("neural.padding_ratio",
         rec.counts["target_tokens"] / max(rec.counts["target_slots"], 1.0),
         "ratio"),
        ("neural.decode_s", eval_total["neural.decode"] / EVAL_REPEATS, "s"),
        ("neural.decoded_tokens",
         rec.counts["decoded_tokens"] / EVAL_REPEATS, "count"),
        ("neural.slot_fill_s", eval_self["neural.slot_fill"] / EVAL_REPEATS, "s"),
        ("eval.match_s", eval_self["eval.match"] / EVAL_REPEATS, "s"),
        ("storage.execute_s", eval_total["storage.execute"] / EVAL_REPEATS, "s"),
    ]
    for name, value, unit in metrics:
        out.metric(name, value, unit)
    ctx.log(f"traced: {len(rec.spans)} spans; set-up and eval figures "
            f"are per repetition")
