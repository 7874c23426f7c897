"""Warm-start summaries: extract, serialize, restore bit-identically."""

from __future__ import annotations

import base64
import dataclasses
import json
import shutil
import sqlite3
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.datagen import census_table, split_for_streaming, support_tickets_table
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.engine.backends import SketchBackend
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import Pipeline
from repro.errors import StoreError
from repro.evaluation.metrics import map_set_fingerprint
from repro.query.parser import parse_query
from repro.service.service import ExplorationService
from repro.sketch.state import encode_sample
from repro.store import TableStore
from repro.store.warm import (
    SketchSummary,
    extract_summary,
    restore_backend,
    summary_key,
)


DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def census():
    return census_table(n_rows=2_000, seed=3)


@pytest.fixture
def built_backend(census) -> SketchBackend:
    """A sketch backend with quantile, frequency, and token state built."""
    backend = SketchBackend(census, Fidelity.parse("sketch:500"), rng=7)
    backend.quantile_sketch("Age")
    backend.frequency_sketch("Education")
    backend.token_sketch("Education")
    return backend


class TestSummaryKey:
    def test_workers_canonicalized_out(self):
        base = AtlasConfig(fidelity=Fidelity.parse("sketch:500"), seed=4)
        wide = base.replace(
            parallelism=Parallelism(workers=8, shards=1)
        )
        assert summary_key(base) == summary_key(wide)

    def test_shards_and_seed_are_identity(self):
        base = AtlasConfig(fidelity=Fidelity.parse("sketch:500"), seed=4)
        assert summary_key(base) != summary_key(base.replace(seed=5))
        sharded = base.replace(
            parallelism=Parallelism(workers=1, shards=4)
        )
        assert summary_key(base) != summary_key(sharded)

    def test_exact_fidelity_rejected(self):
        config = AtlasConfig(fidelity=Fidelity.exact())
        with pytest.raises(StoreError, match="sketch"):
            summary_key(config)


class TestRoundTrip:
    def test_summary_survives_json(self, built_backend, census):
        summary = extract_summary(
            built_backend, table_name="census", key="k"
        )
        payload = json.loads(json.dumps(summary.to_dict()))
        again = SketchSummary.from_dict(payload)
        assert again.state.version == summary.state.version
        assert again.key == "k"
        # The sample is row positions in the table, not rows.
        np.testing.assert_array_equal(again.state.sample, summary.state.sample)
        assert again.state.n_rows == census.n_rows
        assert set(again.state.quantiles) == {"Age"}
        assert set(again.state.frequencies) == {"Education"}
        assert set(again.state.tokens) == {"Education"}

    def test_restored_backend_answers_identically(
        self, built_backend, census
    ):
        summary = extract_summary(
            built_backend, table_name="census", key="k"
        )
        payload = json.loads(json.dumps(summary.to_dict()))
        warm = restore_backend(
            SketchSummary.from_dict(payload), census
        )
        assert warm.snapshot()["warm"] is True
        np.testing.assert_array_equal(
            warm.effective_table.numeric("Age").data,
            built_backend.effective_table.numeric("Age").data,
        )
        cold_q = built_backend.quantile_sketch("Age")
        warm_q = warm.quantile_sketch("Age")
        for fraction in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert warm_q.query(fraction) == cold_q.query(fraction)
        assert (
            warm.token_sketch("Education").heavy_hitters()
            == built_backend.token_sketch("Education").heavy_hitters()
        )

    def test_missing_sketch_rebuilds_from_reservoir(
        self, built_backend, census
    ):
        summary = extract_summary(
            built_backend, table_name="census", key="k"
        )
        warm = restore_backend(summary, census)
        # "Sex" was never sketched before capture: it rebuilds lazily
        # from the restored (bit-identical) reservoir.
        assert set(summary.state.frequencies) == {"Education"}
        cold = built_backend.frequency_sketch("Sex")
        assert (
            warm.frequency_sketch("Sex").heavy_hitters()
            == cold.heavy_hitters()
        )

    def test_snapshot_declares_warm_provenance(self, built_backend, census):
        summary = extract_summary(
            built_backend, table_name="census", key="k"
        )
        snapshot = restore_backend(summary, census).snapshot()
        assert snapshot["warm"] is True


class TestValidation:
    def test_version_mismatch_is_store_error(self, built_backend, census):
        summary = extract_summary(
            built_backend, table_name="census", key="k"
        )
        moved = SketchSummary(
            table_name=summary.table_name,
            key=summary.key,
            fidelity=summary.fidelity,
            state=dataclasses.replace(
                summary.state, version=summary.state.version + 1
            ),
        )
        with pytest.raises(StoreError, match="version"):
            restore_backend(moved, census)

    def test_oversized_reservoir_is_store_error(self, built_backend, census):
        summary = extract_summary(
            built_backend, table_name="census", key="k"
        )
        small = census.take(np.arange(100), name="small")
        with pytest.raises(StoreError, match="reservoir"):
            restore_backend(summary, small)

    def test_wrong_kind_rejected(self):
        with pytest.raises(StoreError, match="kind"):
            SketchSummary.from_dict({"kind": "other"})

    def test_full_budget_summary_adopts_live_table(self, census):
        backend = SketchBackend(census, Fidelity.parse("sketch:100000"))
        summary = extract_summary(backend, table_name="census", key="k")
        warm = restore_backend(summary, census)
        # The budget covered everything: the restored reservoir IS the
        # live table object, so identity-keyed memos line up.
        assert warm.effective_table is census


class TestWarmTracksColdAcrossAppends:
    """A restarted service and a never-restarted one must keep cutting
    the root scope identically, also once appends push the table past
    the reservoir budget (where a reservoir build starts thinning
    deltas and a full-scan build must not)."""

    @pytest.mark.parametrize(
        "parallelism, full_scan",
        [("serial", False), ("parallel:1:4", True)],
        ids=["serial", "sharded"],
    )
    def test_restored_backend_equals_the_cold_one_after_appends(
        self, parallelism, full_scan
    ):
        rows = census_table(n_rows=3_000, seed=5)
        table = rows.take(np.arange(1_000), name="census")
        config = AtlasConfig(
            fidelity="sketch:2000", parallelism=parallelism, seed=11
        )
        numeric = ("Age",)
        categorical = ("Sex", "Salary", "Education", "Eye color")
        cold = ExecutionContext(table, config)
        for attribute in numeric:
            cold.stats().quantile_sketch(attribute)
        for attribute in categorical:
            cold.stats().frequency_sketch(attribute)
        summary = extract_summary(cold.stats(), table_name="census", key="k")
        assert summary.state.full_scan is full_scan
        document = json.loads(json.dumps(summary.to_dict()))
        warm = ExecutionContext(table, config)
        warm.adopt_stats(
            lambda live, counters, lock: restore_backend(
                SketchSummary.from_dict(document), live,
                counters=counters, lock=lock,
            )
        )
        assert warm.stats().snapshot()["warm"] is True
        for low, high in ((1_000, 2_500), (2_500, 3_000)):
            table = table.append(rows.take(np.arange(low, high)))
            cold.advance(table)
            warm.advance(table)
        for attribute in numeric:
            assert (
                warm.stats().quantile_sketch(attribute).to_dict()
                == cold.stats().quantile_sketch(attribute).to_dict()
            )
        if full_scan:
            assert cold.stats().quantile_sketch("Age").count == 3_000
        for attribute in categorical:
            assert (
                warm.stats().frequency_sketch(attribute).to_dict()
                == cold.stats().frequency_sketch(attribute).to_dict()
            )
        assert map_set_fingerprint(
            Pipeline.default().run(None, warm)
        ) == map_set_fingerprint(Pipeline.default().run(None, cold))


def _borrowed_document(backend) -> dict:
    summary = extract_summary(backend, table_name="census", key="k")
    return json.loads(json.dumps(summary.to_dict()))


class TestBorrowedDictionaries:
    """Label text is stored once, with the table: a summary document
    carries row positions, and the restored reservoir shares the
    table's dictionaries."""

    def test_a_summary_repeats_no_label_text(self):
        table = _titled_table(6_000)
        backend = SketchBackend(table, Fidelity.parse("sketch:1000"), rng=1)
        backend.token_sketch("title")
        document = json.dumps(
            extract_summary(backend, table_name="tickets", key="k").to_dict()
        )
        labels = table.categorical("title").categories
        assert not any(label in document for label in labels)

    def test_restore_shares_the_live_dictionaries_by_identity(
        self, built_backend, census
    ):
        document = _borrowed_document(built_backend)
        warm = restore_backend(SketchSummary.from_dict(document), census)
        cold = built_backend.effective_table
        for column in warm.effective_table.columns:
            if isinstance(column, CategoricalColumn):
                live = census.categorical(column.name)
                assert column.categories is live.categories
                np.testing.assert_array_equal(
                    column.codes, cold.categorical(column.name).codes
                )
                assert not column.codes.flags.writeable

    def test_unbound_summary_reserializes_unchanged(self, built_backend):
        document = _borrowed_document(built_backend)
        assert SketchSummary.from_dict(document).to_dict() == document

    def test_document_size_is_bounded_by_a_bitmap_of_the_table(self, tmp_path):
        """53,996 bytes when the document copied its 2,000 reservoir rows."""
        path = str(tmp_path / "atlas.db")
        table = support_tickets_table(n_rows=20_000, seed=0)
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(table, persist=True)
            service.explore(
                table.name, "hours_open: [0, 48]", fidelity="sketch:2000",
                use_cache=False,
            )
            assert service.metrics()["requests"]["summaries_persisted"] == 1
        with sqlite3.connect(path) as conn:
            (size,) = conn.execute("SELECT length(payload) FROM summaries").fetchone()
        conn.close()
        assert size <= 6 * 1024


def _titled_table(n_rows: int) -> Table:
    return Table(
        [
            NumericColumn("hours", np.arange(n_rows, dtype=np.float64)),
            CategoricalColumn.from_values(
                "title",
                [f"ticket {i:05d}: disk outage on rack" for i in range(n_rows)],
            ),
        ],
        name="tickets",
    )


class TestBorrowedDictionaryErrors:
    def test_table_at_another_version_keeps_the_version_error(
        self, built_backend, census
    ):
        summary = SketchSummary.from_dict(_borrowed_document(built_backend))
        moved = census.append(census.take(np.arange(3)))
        with pytest.raises(StoreError, match="captured at version 0"):
            restore_backend(summary, moved)


class TestLegacyDocuments:
    """Summaries a schema-3 store holds copy their reservoir rows — with
    borrowed dictionaries, or inline ones from before borrowing.  Opening
    the store rewrites each as positions; each must restore to the
    answer that build gave."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((DATA / "store_v3_census.json").read_text())

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "atlas.db"
        shutil.copyfile(DATA / "store_v3_census.db", path)
        return str(path)

    @staticmethod
    def tables(golden) -> dict[str, list[Table]]:
        """Every stored table at every version, regenerated."""
        legacy, spec = golden["legacy"], golden["appended"]
        initial, _ = split_for_streaming(
            census_table(n_rows=spec["n_rows"], seed=spec["seed"]), spec["batches"]
        )
        versions = [initial.rename(spec["table"])]
        for rows in spec["appends"]:
            versions.append(versions[-1].append(rows))
        census = census_table(n_rows=legacy["n_rows"], seed=legacy["seed"])
        return {legacy["table"]: [census], spec["table"]: versions}

    def test_golden_legacy_summary_restores_bit_identically(self, path, golden):
        legacy = json.loads((DATA / "legacy_summary_census.json").read_text())
        assert all(
            column["kind"] == "numeric" or column["aux"]
            for column in legacy["document"]["sample"]["columns"]
        )
        with ExplorationService(max_workers=1, store=path) as service:
            warm = service.explore(
                "census", legacy["query"], config=legacy["config"], use_cache=False
            )
            assert service.metrics()["requests"]["warm_starts"] == 1
        assert map_set_fingerprint(warm.map_set) == legacy["fingerprint"]
        with ExplorationService(max_workers=1) as service:
            service.register(self.tables(golden)["census"][0])
            cold = service.explore(
                "census", legacy["query"], config=legacy["config"]
            )
        assert map_set_fingerprint(cold.map_set) == legacy["fingerprint"]

    def test_every_summary_migrates_and_restores_its_answer(self, path, golden):
        tables = self.tables(golden)
        config = AtlasConfig.from_dict(golden["config"])
        with TableStore(path) as store:
            assert [
                [name, *key] for name in tables for key in store.summary_keys(name)
            ] == [
                [s["table"], s["version"], s["summary_key"]]
                for s in golden["summaries"]
            ]
            for stored in golden["summaries"]:
                document = store.get_summary(
                    stored["table"], stored["version"], stored["summary_key"]
                )
                assert set(document["sample"]) == {"size", "bitmap"}
                summary = SketchSummary.from_dict(document)
                context = ExecutionContext(
                    tables[stored["table"]][stored["version"]], config
                )
                assert context.adopt_stats(
                    lambda table, counters, lock: restore_backend(
                        summary, table, counters=counters, lock=lock
                    )
                )
                answer = Pipeline.default().run(parse_query(golden["query"]), context)
                assert map_set_fingerprint(answer) == stored["fingerprint"], stored

    def test_the_appended_table_answers_warm_with_its_fingerprint(self, path, golden):
        name = golden["appended"]["table"]
        with ExplorationService(max_workers=1, store=path) as service:
            warm = service.explore(
                name, golden["query"], config=golden["config"], use_cache=False
            )
            assert service.metrics()["requests"]["warm_starts"] == 1
        assert map_set_fingerprint(warm.map_set) == golden["summaries"][-1]["fingerprint"]

    def test_an_unmatchable_summary_is_deleted(self, path, golden):
        with sqlite3.connect(path) as conn:
            (payload,) = conn.execute(
                "SELECT payload FROM summaries WHERE table_name='census'"
            ).fetchone()
            document = json.loads(payload)
            age = document["sample"]["columns"][0]
            assert age["name"] == "Age"
            age["data"] = base64.b64encode(
                np.full(100, -1.5).tobytes()
            ).decode()  # an age no census row has
            conn.execute(
                "UPDATE summaries SET payload=? WHERE table_name='census'",
                (json.dumps(document),),
            )
        conn.close()
        with TableStore(path) as store:
            assert store.summary_keys("census") == []
            assert len(store.summary_keys(golden["appended"]["table"])) == 3


CORRUPT_QUERY = "Age: [20, 70]\nEducation: {'BSc', 'MSc'}"
CORRUPT_CONFIG = {"fidelity": "sketch:500", "seed": 3}


def _missing_field(document):
    del document["table_name"]


def _bad_gk_arrays(document):
    gk = next(iter(document["quantiles"].values()))
    gk["count"] += 1  # its tuples no longer sum to it


def _bad_bitmap(document):
    document["sample"]["bitmap"] = "not base64!"


def _bitmap_count_mismatch(document):
    document["sample"]["size"] += 1


def _positions_past_the_table(document):
    n_rows = document["n_rows"] + 8
    positions = np.append(
        SketchSummary.from_dict(document).state.sample, n_rows - 1
    )
    document.update(n_rows=n_rows, sample=encode_sample(positions, 0, n_rows))


class TestMalformedSummaries:
    """A stored summary that does not decode, or does not fit its
    table, costs a cold build and never fails the explore."""

    @pytest.fixture(scope="class")
    def cold_fingerprint(self, census):
        with ExplorationService(max_workers=1) as service:
            service.register(census)
            answer = service.explore(
                "census", CORRUPT_QUERY, config=CORRUPT_CONFIG, use_cache=False
            )
        return map_set_fingerprint(answer.map_set)

    @pytest.mark.parametrize("corrupt", [
        _missing_field,
        _bad_gk_arrays,
        _bad_bitmap,
        _bitmap_count_mismatch,
        _positions_past_the_table,
    ])
    def test_the_explore_falls_back_to_a_cold_build(
        self, tmp_path, census, cold_fingerprint, corrupt
    ):
        path = str(tmp_path / "atlas.db")
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(census, persist=True)
            # The root scope builds (and persists) the GK summaries.
            service.explore("census", None, config=CORRUPT_CONFIG, use_cache=False)
        key = summary_key(AtlasConfig.from_dict(CORRUPT_CONFIG))
        with TableStore(path) as store:
            document = store.get_summary("census", 0, key)
            corrupt(document)
            store.put_summary("census", 0, key, document)
        with pytest.raises(StoreError):
            restore_backend(SketchSummary.from_dict(document), census)
        with ExplorationService(max_workers=1, store=path) as service:
            answer = service.explore(
                "census", CORRUPT_QUERY, config=CORRUPT_CONFIG, use_cache=False
            )
            assert service.metrics()["requests"]["warm_starts"] == 0
        assert map_set_fingerprint(answer.map_set) == cold_fingerprint
