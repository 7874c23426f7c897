"""E23's behavioural gates, asserted in tier 1.

E23 measured the HTTP frontend under 64–256 concurrent asyncio
clients.  What CI checked was behaviour, not speed, and those gates
live here at smoke size (5,000 census rows, fleets of 8 and 16
clients, 4 workers, queue 8):

* **0 protocol errors**: every request of an asyncio client fleet
  completes or is shed with a typed busy rejection that the client's
  backoff absorbs;
* **every 429 carries ``Retry-After``**: a rate-limited heavy tenant is
  shed, and each rejection names when to come back;
* **the light tenant is never shed** while the heavy one saturates its
  limit — the shape form of the retired wall-clock bar (light p90
  within 2x of its solo run);
* **deadlines stop between stages**: an exceeded deadline answers 504
  with the stage boundary it stopped at, and a generous one completes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.datagen import census_table
from repro.service import (
    AsyncServiceClient,
    DeadlineExceededError,
    ExplorationService,
    RateLimitError,
    ServiceClient,
    Tenant,
    serve,
)

#: Distinct query shapes; clients cycle through them.
QUERY_MIX = [
    None,
    "Age: [17, 45]",
    "Age: [46, 90]",
    "Age: [17, 60]\nSex: any",
    "Age: [25, 70]\nEducation: any\nSalary: any",
    "Sex: any\nSalary: any",
    "Age: [30, 50]\nEye color: any",
]


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=5_000, seed=0)


async def fleet(url, n_clients, per_client, *, api_key=None, retry_busy=2000):
    """``n_clients`` concurrent uncached explorers; returns their errors."""
    errors: list[str] = []

    async def one(index: int) -> None:
        async with AsyncServiceClient(url, api_key=api_key) as client:
            for k in range(per_client):
                query = QUERY_MIX[(index + k) % len(QUERY_MIX)]
                try:
                    response = await client.explore(
                        "census",
                        query,
                        use_cache=False,
                        retry_busy=retry_busy,
                        busy_backoff=0.005,
                    )
                    assert response.map_set.maps
                except Exception as error:  # noqa: BLE001 - counted
                    errors.append(f"{type(error).__name__}: {error}")

    await asyncio.gather(*(one(i) for i in range(n_clients)))
    return errors


@pytest.mark.parametrize("clients", [8, 16])
def test_a_client_fleet_sees_no_protocol_error(table, clients):
    with ExplorationService(max_workers=4, max_queue_depth=8) as service:
        service.register(table)
        with serve(service) as server:
            errors = asyncio.run(fleet(server.url, clients, per_client=2))
        assert errors == []
        requests = service.metrics()["requests"]
        assert requests["completed"] == 2 * clients
        assert service.metrics()["service"]["pending"] == 0


def test_a_saturating_heavy_tenant_is_shed_and_the_light_one_never(table):
    service = ExplorationService(
        max_workers=4,
        max_queue_depth=8,
        tenants=(
            Tenant("light", api_key="k-light"),
            Tenant(
                "heavy", api_key="k-heavy", rate=0.5, burst=1, max_inflight=1
            ),
        ),
    )
    service.register(table)
    heavy = {"429s": 0, "retry_after": 0, "errors": []}

    async def contended(url):
        done = asyncio.Event()

        async def hammer(index: int) -> None:
            async with AsyncServiceClient(url, api_key="k-heavy") as client:
                while not done.is_set():
                    try:
                        await client.explore(
                            "census", QUERY_MIX[index], use_cache=False
                        )
                    except RateLimitError as error:
                        heavy["429s"] += 1
                        if error.detail.get("retry_after_header"):
                            heavy["retry_after"] += 1
                    except Exception as error:  # noqa: BLE001 - counted
                        heavy["errors"].append(repr(error))
                    await asyncio.sleep(0.01)

        async def light():
            try:
                # retry_busy=0: a single busy answer is a shed request.
                return await fleet(
                    url, 4, per_client=6, api_key="k-light", retry_busy=0
                )
            finally:
                done.set()

        light_errors, *_ = await asyncio.gather(
            light(), *(hammer(i) for i in range(4))
        )
        return light_errors

    with service, serve(service) as server:
        light_errors = asyncio.run(contended(server.url))
        shed = [
            entry
            for status in ("rejected", "rate_limited")
            for entry in service.history_entries(tenant="light", status=status)
        ]
    assert light_errors == []
    assert shed == []
    assert heavy["errors"] == []
    assert heavy["429s"] > 0
    assert heavy["retry_after"] == heavy["429s"]


def test_deadlines_stop_between_stages(table):
    with ExplorationService(max_workers=2) as service:
        service.register(table)
        with serve(service) as server:
            client = ServiceClient(server.url)
            try:
                with pytest.raises(DeadlineExceededError) as info:
                    client.explore(
                        "census", use_cache=False, deadline_seconds=1e-9
                    )
                generous = client.explore(
                    "census",
                    "Age: [17, 90]",
                    use_cache=False,
                    deadline_seconds=60.0,
                )
            finally:
                client.close()
    assert isinstance(info.value.detail["stages_completed"], int)
    assert isinstance(info.value.detail["next_stage"], str)
    assert generous.map_set.maps
