"""Compile-service overhead: one submit -> schedule -> fetch -> purge
round trip through a live TCP broker with an attached worker.

The stage cache is warmed before timing starts, so the measured mean is
pure service-path latency — RPC framing, job spec persistence, result
recording and pickling, scheduler finalization — not compile time.
This is the number the CI gate watches: a regression here slows *every*
job the compile farm serves, however cheap its points are.
"""

import threading

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.flow import DiskStageCache, FlowOptions, ServiceClient, SystemOptions
from repro.flow.nettransport import run_tcp_worker
from repro.flow.service import start_service_broker

TOKEN = "bench-secret"
POINT = (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=2, m=2)).to_spec())


def roundtrip(client):
    job = client.submit([POINT])
    job.wait(timeout=120.0, poll_seconds=0.002)
    payloads = job.fetch_payloads()
    # purge (a cancel of a terminal job) keeps the job table flat, so
    # thousands of rounds never trip the admission limit
    job.cancel()
    return payloads


@pytest.fixture(scope="module")
def service_client(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-bench")
    server = start_service_broker(
        "127.0.0.1", 0, TOKEN, DiskStageCache(root / "cache"),
        root / "service", poll_seconds=0.002,
    )
    worker = threading.Thread(
        target=run_tcp_worker,
        args=(server.address, TOKEN, root / "worker"),
        kwargs={"poll_seconds": 0.002},
        daemon=True,
    )
    worker.start()
    client = ServiceClient(server.address, TOKEN).connect()
    roundtrip(client)  # warm the cache; timed rounds are service-only
    try:
        yield client
    finally:
        client.close()
        server.close()  # the worker exits on the closed transport
        worker.join(timeout=10.0)


def test_service_submit_fetch_roundtrip(benchmark, service_client):
    payloads = benchmark(roundtrip, service_client)
    (payload,) = payloads
    assert payload["outcome"].system.k == 2
    # every stage of the warm round was a cache hit somewhere
    assert all(cached for _, _, cached, _ in payload["events"])
