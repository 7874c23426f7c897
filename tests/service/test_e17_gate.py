"""E17's behavioural gates, asserted in tier 1.

E17 established two claims behind the service frontend; their shapes
are checked here at smoke size (5,000 census rows, 4 workers, queue 8)
over real HTTP sockets:

* **the cache answers what the engine answers**: every cold answer
  equals the local engine's, map for map, and a repeat of the same
  query is served from the result cache (``cached``);
* **admission control sheds, clients survive**: 1, 4 and 16 concurrent
  :class:`ServiceClient`\\ s finish a mixed 40-query workload with 0
  errors — overflow is rejected with fast 429s that the client's
  busy-retry absorbs, instead of queueing without bound.

The old wall-clock bar (warm repeats at least 5x faster than cold
ones) is retired: it measured the machine as much as the cache.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from repro.datagen import census_table
from repro.engine import explorer
from repro.evaluation.workloads import FIGURE2_QUERY_TEXT
from repro.service import ExplorationService, ServiceClient, serve

N_ROWS = 5_000
WORKLOAD_SIZE = 40

#: Distinct query shapes; cycling them to 40 requests gives a mixed
#: workload with the repetition interactive traffic has.
QUERY_MIX = [
    None,
    FIGURE2_QUERY_TEXT,
    "Age: [17, 45]",
    "Age: [46, 90]",
    "Age: [17, 60]\nSex: any",
    "Age: [25, 70]\nEducation: any\nSalary: any",
    "Sex: any\nSalary: any",
    "Age: [30, 50]\nEye color: any",
]


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=N_ROWS, seed=0)


@pytest.fixture
def server(table):
    service = ExplorationService(max_workers=4, max_queue_depth=8)
    service.register(table)
    server = serve(service)
    yield server
    server.close(close_service=True)


def test_cold_answers_match_the_engine_and_repeats_are_cached(
    table, server
):
    local = explorer(table)
    with closing(ServiceClient(server.url)) as client:
        for query in QUERY_MIX:
            cold = client.explore("census", query)
            assert not cold.cached
            assert cold.map_set.maps == local.explore(query).maps
        for query in QUERY_MIX:
            assert client.explore("census", query).cached


@pytest.mark.parametrize("n_clients", [1, 4, 16])
def test_concurrent_clients_finish_the_mix_without_errors(
    server, n_clients
):
    workload = [QUERY_MIX[i % len(QUERY_MIX)] for i in range(WORKLOAD_SIZE)]

    def run_client(index):
        answered = 0
        with closing(ServiceClient(server.url)) as client:
            for query in workload[index::n_clients]:
                client.explore(
                    "census", query, retry_busy=100, busy_backoff=0.01
                )
                answered += 1
        return answered

    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        answered = list(pool.map(run_client, range(n_clients)))
    assert sum(answered) == WORKLOAD_SIZE
