"""The context registry: one bounded LRU of shared execution contexts."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.config import AtlasConfig
from repro.dataset.table import Table
from repro.engine.contexts import ContextRegistry, config_key


def table(n: int = 60, name: str = "t") -> Table:
    rng = np.random.default_rng(0)
    return Table.from_dict(
        {
            "x": rng.normal(size=n).tolist(),
            "g": rng.choice(["a", "b", "c"], n).tolist(),
        },
        name=name,
    )


def grown(base: Table) -> Table:
    return base.append({"x": [0.5, 1.5], "g": ["a", "c"]})


class TestLru:
    def test_the_least_recently_used_is_evicted_at_capacity(self):
        registry, base = ContextRegistry(capacity=2), table()
        first = registry.context_for("t", base, AtlasConfig(seed=1))
        registry.context_for("t", base, AtlasConfig(seed=2))
        # A hit refreshes: seed 2 is now the least recently used.
        assert registry.context_for("t", base, AtlasConfig(seed=1)) is first
        registry.context_for("t", base, AtlasConfig(seed=3))
        assert registry.snapshot()["contexts"] == 2
        assert registry.peek("t", AtlasConfig(seed=2)) is None
        assert registry.peek("t", AtlasConfig(seed=1)) is first

    def test_worker_counts_share_one_context(self):
        registry, base = ContextRegistry(), table()
        sketch = AtlasConfig(fidelity="sketch:20")
        one = sketch.replace(parallelism="parallel:1")
        four = sketch.replace(parallelism="parallel:4")
        assert config_key(one) == config_key(four)
        context = registry.context_for("t", base, one)
        assert registry.context_for("t", base, four) is context
        assert context.config.parallelism.workers == 1  # the builder's
        assert registry.snapshot()["contexts"] == 1


class TestStreaming:
    def test_a_lagging_context_is_caught_up(self):
        registry, base = ContextRegistry(), table()
        context = registry.context_for("t", base, AtlasConfig())
        built = context.stats()
        later = grown(base)
        assert registry.context_for("t", later, AtlasConfig()) is context
        assert context.table is later
        assert context.stats() is not built  # the successor, not a rebuild

    def test_advance_moves_every_context_of_the_table(self):
        registry, base, other = ContextRegistry(), table(), table(name="u")
        contexts = [
            registry.context_for("t", base, AtlasConfig(seed=seed))
            for seed in (1, 2)
        ]
        untouched = registry.context_for("u", other, AtlasConfig())
        registry.advance("t", grown(base))
        assert [c.version for c in contexts] == [1, 1]
        assert untouched.version == 0

    def test_drop_forgets_the_named_tables(self):
        registry, base, other = ContextRegistry(), table(), table(name="u")
        dropped = registry.context_for("t", base, AtlasConfig())
        kept = registry.context_for("u", other, AtlasConfig())
        registry.drop(("t",))
        assert registry.peek("t", AtlasConfig()) is None
        assert registry.peek("u", AtlasConfig()) is kept
        assert registry.context_for("t", base, AtlasConfig()) is not dropped


class TestWarmSource:
    def test_only_a_miss_asks_for_a_warm_factory(self):
        asked = []

        def warm(name, table, config):
            asked.append((name, table.version))
            return None

        registry, base = ContextRegistry(warm=warm), table()
        registry.context_for("t", base, AtlasConfig())
        registry.context_for("t", base, AtlasConfig())
        assert asked == [("t", 0)]
        assert registry.snapshot()["warm_starts"] == 0


class TestConcurrency:
    def test_peek_answers_none_while_the_registry_is_busy(self):
        registry, base = ContextRegistry(), table()
        context = registry.context_for("t", base, AtlasConfig())
        held, release = threading.Event(), threading.Event()

        def hold():
            with registry._lock:
                held.set()
                release.wait(5)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert held.wait(5)
            assert registry.peek("t", AtlasConfig()) is None
        finally:
            release.set()
            thread.join()
        assert registry.peek("t", AtlasConfig()) is context

    def test_racers_on_one_cold_key_get_one_context(self):
        registry, base = ContextRegistry(), table(n=2_000)
        barrier = threading.Barrier(8)

        def race(_):
            barrier.wait()
            return registry.context_for("t", base, AtlasConfig())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                contexts = list(pool.map(race, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert all(context is contexts[0] for context in contexts)
        assert registry.snapshot()["contexts"] == 1
