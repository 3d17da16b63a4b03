"""Tests for model persistence and the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.neural.data import build_dataset
from repro.neural.model import Seq2Vis
from repro.neural.persist import load_model, normalize_model_path, save_model
from repro.nlp.vocab import SPECIALS, Vocabulary


class TestPersistence:
    def _model_and_vocabs(self, variant="attention"):
        in_vocab = Vocabulary.build([["show", "the", "price", "flight.price"]])
        out_vocab = Vocabulary.build([["select", "flight.price"]])
        model = Seq2Vis(len(in_vocab), len(out_vocab), variant, 12, 16, seed=3)
        return model, in_vocab, out_vocab

    @pytest.mark.parametrize("variant", ["basic", "attention", "copy"])
    def test_round_trip_preserves_weights(self, tmp_path, variant):
        model, in_vocab, out_vocab = self._model_and_vocabs(variant)
        path = str(tmp_path / "model.npz")
        save_model(model, in_vocab, out_vocab, path)
        loaded, in2, out2 = load_model(path)
        assert loaded.variant == variant
        assert in2.tokens == in_vocab.tokens
        assert out2.tokens == out_vocab.tokens
        for original, restored in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(original.data, restored.data)

    def test_suffixless_path_round_trips(self, tmp_path):
        model, in_vocab, out_vocab = self._model_and_vocabs()
        bare = tmp_path / "attn-model"
        written = save_model(model, in_vocab, out_vocab, str(bare))
        assert written == bare.with_name("attn-model.npz")
        assert written.exists()
        assert not bare.exists()
        # Load works with either spelling of the path.
        for spec in (str(bare), str(written)):
            loaded, in2, out2 = load_model(spec)
            assert in2.tokens == in_vocab.tokens
            assert out2.tokens == out_vocab.tokens
            for original, restored in zip(model.parameters(), loaded.parameters()):
                np.testing.assert_array_equal(original.data, restored.data)

    def test_normalize_model_path(self):
        from pathlib import Path

        assert normalize_model_path("m") == Path("m.npz")
        assert normalize_model_path("m.npz") == Path("m.npz")
        assert normalize_model_path("dir.v2/m") == Path("dir.v2/m.npz")
        assert normalize_model_path("m.ckpt") == Path("m.ckpt.npz")

    def test_round_trip_keeps_specials_unique(self, tmp_path):
        model, in_vocab, out_vocab = self._model_and_vocabs()
        path = str(tmp_path / "model")
        written = save_model(model, in_vocab, out_vocab, path)
        _, in2, out2 = load_model(written)
        for vocab in (in2, out2):
            specials = [t for t in vocab.tokens if t in SPECIALS]
            assert specials == list(vocab.tokens[: len(specials)])
            assert len(specials) == len(set(specials)), "specials duplicated"

    def test_loaded_model_decodes_identically(self, tmp_path, small_nvbench):
        pairs = small_nvbench.pairs[:40]
        dataset = build_dataset(pairs, small_nvbench.databases)
        model = Seq2Vis(len(dataset.in_vocab), len(dataset.out_vocab),
                        "attention", 16, 24, seed=1)
        path = str(tmp_path / "model.npz")
        save_model(model, dataset.in_vocab, dataset.out_vocab, path)
        loaded, _, _ = load_model(path)
        batch = dataset.batch_of(dataset.examples[:4])
        a = model.greedy_decode(batch, dataset.out_vocab.bos_id, dataset.out_vocab.eos_id)
        b = loaded.greedy_decode(batch, dataset.out_vocab.bos_id, dataset.out_vocab.eos_id)
        assert a == b


class TestCLI:
    def test_build_corpus_and_benchmark(self, tmp_path, capsys):
        corpus_path = str(tmp_path / "corpus.json")
        code = main([
            "build-corpus", "--databases", "3", "--pairs-per-db", "4",
            "--row-scale", "0.3", "--seed", "2", "--out", corpus_path,
        ])
        assert code == 0
        pairs_path = str(tmp_path / "bench.json")
        code = main([
            "build-benchmark", "--corpus", corpus_path,
            "--databases", "3", "--pairs-per-db", "4",
            "--row-scale", "0.3", "--seed", "2", "--out", pairs_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(NL, VIS) pairs" in out

        code = main(["stats", "--corpus", corpus_path, "--pairs", pairs_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "databases: 3" in out

    def test_train_and_translate(self, tmp_path, capsys):
        corpus_path = str(tmp_path / "corpus.json")
        pairs_path = str(tmp_path / "bench.json")
        # Deliberately suffixless: train must report (and translate must
        # accept) the normalized .npz path.
        model_path = str(tmp_path / "model")
        main(["build-corpus", "--databases", "3", "--pairs-per-db", "5",
              "--row-scale", "0.3", "--seed", "4", "--out", corpus_path])
        main(["build-benchmark", "--corpus", corpus_path, "--out", pairs_path])
        code = main([
            "train", "--corpus", corpus_path, "--pairs", pairs_path,
            "--variant", "basic", "--epochs", "2", "--embed-dim", "16",
            "--hidden-dim", "24", "--out", model_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"saved model to {model_path}.npz" in out
        assert (tmp_path / "model.npz").exists()

        from repro.spider.corpus import load_corpus

        db_name = sorted(load_corpus(corpus_path).databases)[0]
        code = main([
            "translate", "--corpus", corpus_path, "--model", model_path,
            "--database", db_name, "how many items per category?",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted tokens:" in out

        for fmt in ("vega-lite", "ascii"):
            code = main([
                "translate", "--corpus", corpus_path, "--model", model_path,
                "--database", db_name, "--format", fmt,
                "how many items per category?",
            ])
            assert code == 0
            capsys.readouterr()

    def test_translate_unknown_database(self, tmp_path, capsys):
        corpus_path = str(tmp_path / "corpus.json")
        pairs_path = str(tmp_path / "bench.json")
        model_path = str(tmp_path / "model.npz")
        main(["build-corpus", "--databases", "2", "--pairs-per-db", "3",
              "--row-scale", "0.3", "--seed", "5", "--out", corpus_path])
        main(["build-benchmark", "--corpus", corpus_path, "--out", pairs_path])
        main(["train", "--corpus", corpus_path, "--pairs", pairs_path,
              "--variant", "basic", "--epochs", "1", "--embed-dim", "12",
              "--hidden-dim", "16", "--out", model_path])
        capsys.readouterr()
        code = main([
            "translate", "--corpus", corpus_path, "--model", model_path,
            "--database", "nope", "anything",
        ])
        assert code == 2


class TestShardedCLI:
    """build-benchmark --out DIR + stats/train --benchmark DIR."""

    BASE = ["build-benchmark", "--databases", "2", "--pairs-per-db", "3",
            "--row-scale", "0.3", "--seed", "3"]

    def test_build_resume_and_stats_round_trip(self, tmp_path, capsys):
        bench_dir = str(tmp_path / "bench_dir")
        assert main(self.BASE + ["--out", bench_dir]) == 0
        out = capsys.readouterr().out
        assert "database shards" in out
        assert (tmp_path / "bench_dir" / "manifest.json").is_file()

        # resume over a finished build rebuilds nothing
        assert main(self.BASE + ["--out", bench_dir, "--resume"]) == 0
        assert "skipped clean 2" in capsys.readouterr().out

        assert main(["stats", "--benchmark", bench_dir]) == 0
        assert "databases: 2" in capsys.readouterr().out

    def test_stats_flag_validation(self, tmp_path, capsys):
        assert main(["stats"]) == 2
        assert "--benchmark" in capsys.readouterr().err
        assert main(["stats", "--benchmark", str(tmp_path / "d"),
                     "--corpus", "x.json"]) == 2
        assert "pick one" in capsys.readouterr().err

    def test_resume_rejects_json_out(self, tmp_path, capsys):
        code = main(self.BASE + ["--out", str(tmp_path / "bench.json"),
                                 "--resume"])
        assert code == 2
        assert "shard directory" in capsys.readouterr().err

    def test_stream_build_and_train(self, tmp_path, capsys):
        bench_dir = str(tmp_path / "streamed")
        code = main(self.BASE + ["--stream", "--out", bench_dir])
        assert code == 0
        capsys.readouterr()
        code = main([
            "train", "--benchmark", bench_dir, "--variant", "basic",
            "--epochs", "1", "--embed-dim", "12", "--hidden-dim", "16",
            "--out", str(tmp_path / "model"),
        ])
        assert code == 0
        assert "saved model to" in capsys.readouterr().out

    def test_paper_scale_capped_smoke(self, tmp_path, capsys):
        bench_dir = str(tmp_path / "paper")
        code = main(["build-benchmark", "--paper-scale",
                     "--max-databases", "1", "--out", bench_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 database shards" in out


class TestProfileContract:
    """The JSON documents ``--profile`` writes for a build and a training
    run: their keys, stage names, and shard counters."""

    BUILD = ["build-benchmark", "--databases", "2", "--pairs-per-db", "3",
             "--row-scale", "0.3", "--seed", "3"]

    def test_build_profile_fresh_and_resumed(self, tmp_path, capsys):
        bench_dir = str(tmp_path / "bench_dir")
        fresh_path = tmp_path / "fresh.json"
        resumed_path = tmp_path / "resumed.json"
        assert main(self.BUILD + ["--out", bench_dir,
                                  "--profile", str(fresh_path)]) == 0
        assert main(self.BUILD + ["--out", bench_dir, "--resume",
                                  "--profile", str(resumed_path)]) == 0
        capsys.readouterr()
        fresh = json.loads(fresh_path.read_text())
        resumed = json.loads(resumed_path.read_text())

        for report, stages in (
            (fresh, ("corpus_build", "filter_train", "synthesize")),
            (resumed, ("corpus_build", "synthesize")),
        ):
            assert set(report) == {"total_seconds", "stages", "counters"}
            assert report["total_seconds"] > 0.0
            for name in stages:
                assert set(report["stages"][name]) == {"calls", "seconds"}
                assert report["stages"][name]["calls"] >= 1
        # a clean resume verifies its shards and trains no filter
        assert "filter_train" not in resumed["stages"]
        for name in ("candidates", "featurize", "score", "select"):
            assert set(fresh["stages"][name]) == {"calls", "seconds"}
            assert fresh["stages"][name]["calls"] >= 1
            assert fresh["stages"][name]["seconds"] >= 0.0

        built = fresh["counters"]
        assert built["shards_total"] == 2
        assert built["shards_built"] == built["shards_total"]
        skipped = resumed["counters"]
        assert skipped["shards_skipped_clean"] == skipped["shards_total"]

    def test_train_profile(self, tmp_path, capsys):
        corpus_path = str(tmp_path / "corpus.json")
        pairs_path = str(tmp_path / "bench.json")
        profile_path = tmp_path / "train_profile.json"
        main(["build-corpus", "--databases", "2", "--pairs-per-db", "4",
              "--row-scale", "0.3", "--seed", "6", "--out", corpus_path])
        main(["build-benchmark", "--corpus", corpus_path, "--out", pairs_path])
        code = main([
            "train", "--corpus", corpus_path, "--pairs", pairs_path,
            "--variant", "basic", "--epochs", "2", "--embed-dim", "12",
            "--hidden-dim", "16", "--out", str(tmp_path / "model"),
            "--profile", str(profile_path),
        ])
        assert code == 0
        assert "tokens/sec" in capsys.readouterr().out

        report = json.loads(profile_path.read_text())
        assert set(report) == {
            "tokens", "steps", "train_seconds", "tokens_per_sec",
            "step_ms", "epochs",
        }
        assert report["tokens"] > 0
        assert report["steps"] > 0
        assert report["step_ms"]["count"] == report["steps"]
        assert report["tokens_per_sec"] > 0.0
        assert 1 <= len(report["epochs"]) <= 2
        for number, row in enumerate(report["epochs"]):
            assert set(row) == {
                "epoch", "seconds", "tokens", "steps", "tokens_per_sec",
                "train_loss", "val_loss",
            }
            assert row["epoch"] == number
        assert sum(row["tokens"] for row in report["epochs"]) == report["tokens"]
        assert sum(row["steps"] for row in report["epochs"]) == report["steps"]
