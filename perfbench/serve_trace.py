"""Per-layer metrics for ``serve`` and ``serve_pool`` (traced runs only).

The server runs with ``--trace`` and writes the program's own spans:
``http.request``, ``batch.wait``, ``decode``, ``render``, the pipeline's
stage spans and, in the pool, ``front.request``.  Cache counters come
from ``/metrics``.  Latency-like figures are medians over requests.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

STAGES = ("route", "generate", "verify", "execute", "repair")


def _load(path: Path, pool: bool):
    files = sorted(path.glob("*.jsonl")) if pool else [path]
    spans = []
    for file in files:
        for line in file.read_text().splitlines():
            record = json.loads(line)
            record["file"] = file.name
            spans.append(record)
    return spans


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def report(ctx, out, path: Path, pool: bool, metrics_doc: dict,
           health_doc: dict, schedule) -> None:
    spans = _load(path, pool)
    by_id = {span["span_id"]: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span.get("parent_id"):
            children[span["parent_id"]].append(span)

    requests = [s for s in spans if s["name"] == "http.request"
                and s["attributes"].get("target") in ("/translate", "/pipeline")]
    http_self = [
        s["duration_ms"] - sum(c["duration_ms"] for c in children[s["span_id"]])
        for s in requests
    ]
    decodes = [s for s in spans if s["name"] == "decode"
               and by_id.get(s.get("parent_id"), {}).get("name") == "http.request"]
    greedy = [s["duration_ms"] for s in decodes
              if s["attributes"].get("decode") == "greedy"]
    beam = [s["duration_ms"] for s in decodes
            if s["attributes"].get("decode") != "greedy"]

    stage = {name: [s["duration_ms"] for s in spans if s["name"] == name
                    and by_id.get(s.get("parent_id"), {}).get("name") == "pipeline"]
             for name in STAGES}
    pipelines = [s for s in spans if s["name"] == "pipeline"]
    judge = []
    for request in requests:
        if request["attributes"].get("target") != "/pipeline":
            continue
        start = request["start_unix"]
        end = start + request["duration_ms"] / 1000.0
        inside = [p for p in pipelines if p["file"] == request["file"]
                  and start <= p["start_unix"] <= end]
        if inside:
            judge.append(request["duration_ms"] - inside[0]["duration_ms"])
    repairs = sum(s["attributes"].get("attempted", 0) for s in spans
                  if s["name"] == "repair")

    workers = (list(metrics_doc["workers"].values()) if pool
               else [metrics_doc])

    def ratio(cache: str) -> float:
        hits = sum(doc[cache]["hits"] for doc in workers)
        misses = sum(doc[cache]["misses"] for doc in workers)
        return hits / max(hits + misses, 1)

    repeats = sum(1 for item in schedule if item["kind"] == "cached")
    response_hits = sum(doc["response_cache"]["hits"] for doc in workers)
    metrics = [
        ("serve.http_ms", _p50(http_self), "ms"),
        ("serve.batch_wait_ms",
         _p50([s["duration_ms"] for s in spans if s["name"] == "batch.wait"]),
         "ms"),
        ("serve.decode_ms", _p50(greedy), "ms"),
        ("serve.beam_decode_ms", _p50(beam), "ms"),
        ("serve.render_ms",
         _p50([s["duration_ms"] for s in spans if s["name"] == "render"]), "ms"),
        ("serve.response_cache_hit_ratio", response_hits / max(repeats, 1),
         "ratio"),
        ("serve.encoder_cache_hit_ratio", ratio("encoder_cache"), "ratio"),
        ("serve.execution_cache_hit_ratio", ratio("execution_cache"), "ratio"),
    ]
    metrics += [(f"pipeline.{name}_ms", _p50(stage[name]), "ms")
                for name in STAGES]
    metrics += [
        ("eval.judge_ms", _p50(judge), "ms"),
        ("pipeline.repairs_per_request", repairs / max(len(pipelines), 1),
         "count"),
    ]
    if pool:
        fronts = {s["span_id"]: s for s in spans if s["name"] == "front.request"}
        proxy = [fronts[r["parent_id"]]["duration_ms"] - r["duration_ms"]
                 for r in requests if r.get("parent_id") in fronts]
        served = defaultdict(int)
        for request in requests:
            served[request["file"]] += 1
        metrics += [
            ("serve.pool.proxy_ms", _p50(proxy), "ms"),
            ("serve.pool.worker_share",
             max(served.values()) / max(sum(served.values()), 1), "ratio"),
            ("serve.pool.shared_weight_bytes",
             health_doc["weights"]["shared_bytes"], "bytes"),
        ]
    else:
        # One process answers every request: no front hop, no segment.
        metrics += [
            ("serve.pool.proxy_ms", 0.0, "ms"),
            ("serve.pool.worker_share", 1.0, "ratio"),
            ("serve.pool.shared_weight_bytes", 0, "bytes"),
        ]
    for name, value, unit in metrics:
        out.metric(name, value, unit)
    ctx.log(f"traced: {len(spans)} spans, {len(requests)} traced requests")
