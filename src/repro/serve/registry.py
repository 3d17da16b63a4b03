"""Model registry: many translators behind one interface, hot-swappable.

A :class:`Translator` turns (question, database) requests into
:class:`~repro.serve.translate.TranslateResult` lists.  Two concrete
kinds exist:

* :class:`NeuralTranslator` — a saved seq2vis ``.npz`` model; genuinely
  batched (one padded numpy forward pass per request group);
* :class:`BaselineTranslator` — the DeepEye / NL4DV rule-based systems
  from Section 4.4, looped per request (they have no batch dimension).

The :class:`ModelRegistry` maps names to translators, supports hot-swap
(re-register under the same name; in-flight batches finish on the old
object), and can warm every model with a dummy request so first real
traffic doesn't pay allocation cost.
"""

from __future__ import annotations

import inspect
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.grammar.ast_nodes import VisQuery
from repro.grammar.serialize import to_text, to_tokens
from repro.serve.translate import DecodeConfig, TranslateResult, translate_batch
from repro.storage.schema import Database


class UnknownModelError(KeyError):
    """Raised when a request names a model the registry does not hold."""


class Translator:
    """Interface every served model implements."""

    #: "neural" or "baseline" — surfaced in /healthz.
    kind: str = "unknown"

    #: weight storage precision — part of response-cache keys, so a
    #: hot-swap between precisions can never serve stale answers.
    precision: str = "-"

    def translate_requests(
        self,
        requests: Sequence[Tuple[str, Database]],
        decode: Optional[DecodeConfig] = None,
        encoder_cache=None,
        model_name: str = "",
    ) -> List[TranslateResult]:
        """Results positionally aligned with *requests*.

        *decode* picks greedy vs beam (with how many ranked candidates);
        translators without a beam honor ``num_candidates`` as best they
        can and ignore the rest.  *encoder_cache* / *model_name* wire
        the server's encoder-output LRU through neural translators.
        """
        raise NotImplementedError

    def info(self) -> Dict[str, object]:
        """JSON-ready description for the health endpoint."""
        return {"kind": self.kind}


class NeuralTranslator(Translator):
    """A loaded seq2vis model plus its vocabularies."""

    kind = "neural"

    def __init__(self, model, in_vocab, out_vocab, source: str = "memory"):
        from repro.neural.quantize import model_precision

        self.model = model
        self.in_vocab = in_vocab
        self.out_vocab = out_vocab
        self.source = source
        self.precision = model_precision(model)

    @classmethod
    def from_npz(
        cls, path: str, precision: Optional[str] = None
    ) -> "NeuralTranslator":
        """Load a model archive saved by :func:`repro.neural.persist.save_model`.

        *precision* re-stores a float checkpoint's weights at load time
        (``"int8"`` / ``"float16"`` quantize, ``"float32"`` /
        ``"float64"`` cast) — the serve-time memory/speed knob.
        """
        from repro.neural.persist import load_model, normalize_model_path

        model, in_vocab, out_vocab = load_model(path, precision=precision)
        return cls(
            model, in_vocab, out_vocab,
            source=str(normalize_model_path(path)),
        )

    def translate_requests(
        self,
        requests: Sequence[Tuple[str, Database]],
        decode: Optional[DecodeConfig] = None,
        encoder_cache=None,
        model_name: str = "",
    ) -> List[TranslateResult]:
        return translate_batch(
            self.model, self.in_vocab, self.out_vocab, requests,
            decode=decode, encoder_cache=encoder_cache,
            model_name=model_name,
        )

    def info(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "variant": self.model.variant,
            "hidden_dim": self.model.hidden_dim,
            "source": self.source,
            "precision": self.precision,
        }


class BaselineTranslator(Translator):
    """A rule-based baseline served behind the same interface."""

    kind = "baseline"

    def __init__(
        self,
        name: str,
        predict: Callable[[str, Database], Union[Optional[VisQuery], List[VisQuery]]],
    ):
        self.name = name
        self._predict = predict
        # Multi-prediction rule systems take a top-k argument; detect it
        # once so candidate requests get a genuinely ranked list instead
        # of the single best chart.
        try:
            self._accepts_k = len(inspect.signature(predict).parameters) >= 3
        except (TypeError, ValueError):
            self._accepts_k = False

    @classmethod
    def from_name(cls, name: str) -> "BaselineTranslator":
        """Instantiate one of :data:`repro.baselines.BASELINES` by name."""
        from repro.baselines import BASELINES

        if name not in BASELINES:
            raise UnknownModelError(
                f"unknown baseline {name!r}; pick from {sorted(BASELINES)}"
            )
        return cls(name, BASELINES[name]().predict)

    def translate_requests(
        self,
        requests: Sequence[Tuple[str, Database]],
        decode: Optional[DecodeConfig] = None,
        encoder_cache=None,
        model_name: str = "",
    ) -> List[TranslateResult]:
        from repro.serve.translate import CandidateSummary

        want = decode.num_candidates if decode is not None else 1
        results = []
        for question, database in requests:
            if self._accepts_k:
                prediction = self._predict(question, database, max(1, want))
            else:
                prediction = self._predict(question, database)
            ranked = (
                prediction if isinstance(prediction, list)
                else [] if prediction is None else [prediction]
            )
            best = ranked[0] if ranked else None
            result = TranslateResult(question=question, db_name=database.name)
            if best is None:
                result.error = f"{self.name} produced no visualization"
            else:
                result.tree = best
                result.tokens = to_tokens(best)
            if want > 1:
                # Baselines have no beam, but a multi-prediction rule
                # system still yields a ranked candidate list.
                result.candidates = [
                    CandidateSummary(
                        tokens=to_tokens(tree),
                        score=float(rank),
                        vis=to_text(tree),
                    )
                    for rank, tree in enumerate(ranked[:want])
                ]
            results.append(result)
        return results

    def info(self) -> Dict[str, object]:
        return {"kind": self.kind, "baseline": self.name}


class ModelRegistry:
    """Thread-safe name → :class:`Translator` mapping with a default."""

    def __init__(self):
        self._lock = threading.RLock()
        self._models: Dict[str, Translator] = {}
        self._default: Optional[str] = None
        self._swap_listeners: List[Callable[[str], None]] = []

    def add_swap_listener(self, listener: Callable[[str], None]) -> None:
        """Call *listener(name)* whenever *name* is hot-swapped or
        unregistered.  The server hangs cache invalidation here — any
        state derived from the old translator (encoder outputs, cached
        responses) must not survive the swap."""
        with self._lock:
            self._swap_listeners.append(listener)

    def _notify_swap(self, name: str) -> None:
        with self._lock:
            listeners = list(self._swap_listeners)
        for listener in listeners:
            listener(name)

    def register(
        self, name: str, translator: Translator, default: bool = False
    ) -> None:
        """Add or hot-swap a translator under *name*.

        The swap is atomic: requests already holding the old translator
        finish on it, new lookups get the replacement.  A replacement
        (the name already existed) fires the swap listeners.
        """
        with self._lock:
            first = not self._models
            swapped = name in self._models
            self._models[name] = translator
            if default or first:
                self._default = name
        if swapped:
            self._notify_swap(name)

    def unregister(self, name: str) -> None:
        """Remove a model; the default falls back to any remaining one."""
        with self._lock:
            removed = self._models.pop(name, None) is not None
            if self._default == name:
                self._default = next(iter(sorted(self._models)), None)
        if removed:
            self._notify_swap(name)

    def load_npz(
        self,
        name: str,
        path: str,
        default: bool = False,
        precision: Optional[str] = None,
    ) -> None:
        """Load a saved seq2vis archive and register it under *name*.

        *precision* is the serve-time weight knob (see
        :meth:`NeuralTranslator.from_npz`).
        """
        self.register(
            name,
            NeuralTranslator.from_npz(path, precision=precision),
            default=default,
        )

    def register_baselines(self) -> None:
        """Register every rule-based baseline under its canonical name."""
        from repro.baselines import BASELINES

        for name in BASELINES:
            self.register(name, BaselineTranslator.from_name(name))

    @property
    def default_model(self) -> Optional[str]:
        """Name used when a request does not pick a model."""
        with self._lock:
            return self._default

    def set_default(self, name: str) -> None:
        """Point the default at an already-registered model."""
        with self._lock:
            if name not in self._models:
                raise UnknownModelError(
                    f"unknown model {name!r}; registered: {sorted(self._models)}"
                )
            self._default = name

    def get(self, name: Optional[str] = None) -> Translator:
        """The translator for *name* (or the default when ``None``)."""
        with self._lock:
            key = name if name is not None else self._default
            if key is None or key not in self._models:
                raise UnknownModelError(
                    f"unknown model {key!r}; registered: {sorted(self._models)}"
                )
            return self._models[key]

    def names(self) -> List[str]:
        """Registered model names, sorted."""
        with self._lock:
            return sorted(self._models)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def info(self) -> Dict[str, Dict[str, object]]:
        """Name → translator description for /healthz."""
        with self._lock:
            items = list(self._models.items())
        return {name: translator.info() for name, translator in items}

    def warm(
        self,
        databases: Dict[str, Database],
        question: str = "show the number of rows per category",
    ) -> Dict[str, float]:
        """Run one dummy request through every model; returns seconds per
        model.  First real traffic then skips cold-start allocations."""
        if not databases:
            return {}
        database = databases[sorted(databases)[0]]
        timings: Dict[str, float] = {}
        for name in self.names():
            translator = self.get(name)
            start = time.perf_counter()
            translator.translate_requests([(question, database)])
            timings[name] = time.perf_counter() - start
        return timings
