"""Shared fixtures: a tiny hand-built database and small session-scoped
corpora so individual tests stay fast."""

from __future__ import annotations

import socket

import pytest

from repro.core.nvbench import NVBenchConfig, build_nvbench
from repro.serve import ServerConfig
from repro.spider.corpus import CorpusConfig, build_spider_corpus
from repro.storage.schema import Column, Database, ForeignKey, Table

#: Requests whose HTTP framing cannot be read, with the status the
#: server (or pool front) must answer before it closes the connection.
MALFORMED_FRAMING = {
    "request-line": (b"GARBAGE\r\n\r\n", 400),
    "length-not-a-number": (
        b"POST /translate HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400
    ),
    "negative-length": (
        b"POST /translate HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400
    ),
    "oversized-body": (
        b"POST /translate HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (ServerConfig().max_body_bytes + 1),
        413,
    ),
    "header-line-too-long": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 400
    ),
    "too-many-header-lines": (
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
        + b"".join(b"X-Pad-%d: a\r\n" % i for i in range(100))
        + b"\r\n",
        431,
    ),
}


@pytest.fixture()
def flight_db() -> Database:
    """A small flights database with one FK join."""
    flight = Table(
        "flight",
        (
            Column("fno", "C"),
            Column("origin", "C"),
            Column("destination", "C"),
            Column("price", "Q"),
            Column("departure_date", "T"),
        ),
    )
    flight.extend(
        [
            ("F1", "APG", "ATL", 300.0, "2020-01-05"),
            ("F2", "APG", "BOS", 150.0, "2020-02-11"),
            ("F3", "LAX", "ATL", 500.0, "2020-02-20"),
            ("F4", "APG", "SFO", 250.0, "2021-03-02"),
            ("F5", "LAX", "SFO", 700.0, "2021-07-09"),
            ("F6", "BOS", "LAX", 450.0, "2021-11-19"),
        ]
    )
    airline = Table("airline", (Column("code", "C"), Column("name", "C")))
    airline.extend([("F1", "Alpha"), ("F3", "Beta"), ("F5", "Gamma")])
    db = Database(name="flights", domain="flight")
    db.add_table(flight)
    db.add_table(airline)
    db.foreign_keys.append(ForeignKey("airline", "code", "flight", "fno"))
    return db


@pytest.fixture(scope="session")
def small_corpus():
    """A deterministic 12-database corpus shared across tests."""
    return build_spider_corpus(
        CorpusConfig(num_databases=12, pairs_per_database=10, row_scale=0.5, seed=5)
    )


@pytest.fixture(scope="session")
def small_nvbench():
    """A small but full nvBench build (filter training included)."""
    config = NVBenchConfig(
        corpus=CorpusConfig(
            num_databases=12, pairs_per_database=10, row_scale=0.5, seed=5
        ),
        filter_training_pairs=40,
        seed=5,
    )
    return build_nvbench(config=config)


@pytest.fixture(params=sorted(MALFORMED_FRAMING))
def malformed_exchange(request):
    """Send one unframeable request from :data:`MALFORMED_FRAMING`.

    Returns ``exchange(host, port) -> (reply bytes, expected status)``;
    the reply is everything read until the server closes.
    """
    payload, status = MALFORMED_FRAMING[request.param]

    def exchange(host: str, port: int):
        chunks = []
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(payload)
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            except ConnectionResetError:
                pass  # closed with unread request bytes: keep the reply
        return b"".join(chunks), status

    return exchange
