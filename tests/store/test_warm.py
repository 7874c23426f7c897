"""Warm-start summaries: extract, serialize, restore bit-identically."""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.datagen import census_table
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.engine.backends import SketchBackend
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import Pipeline
from repro.errors import StoreError
from repro.evaluation.metrics import map_set_fingerprint
from repro.service.service import ExplorationService
from repro.store import TableStore
from repro.store.codec import column_blob
from repro.store.warm import (
    SketchSummary,
    extract_summary,
    restore_backend,
    summary_key,
)


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
        assert again.version == summary.version
        assert again.key == "k"
        # The label dictionaries live with the table: until
        # restore_backend binds them, the reservoir is not readable.
        with pytest.raises(StoreError, match="borrows its table"):
            again.sample
        assert again.bind(census).n_rows == summary.sample.n_rows
        assert set(again.quantiles) == {"Age"}
        assert set(again.frequencies) == {"Education"}
        assert set(again.tokens) == {"Education"}

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
        assert set(summary.frequencies) == {"Education"}
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
            version=summary.version + 1,
            key=summary.key,
            fidelity=summary.fidelity,
            full_scan=summary.full_scan,
            sample=summary.sample,
            quantiles=summary.quantiles,
            frequencies=summary.frequencies,
            tokens=summary.tokens,
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
        assert summary.full_scan is full_scan
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


def _entry(document: dict, name: str) -> dict:
    (entry,) = [
        column
        for column in document["sample"]["columns"]
        if column["name"] == name
    ]
    return entry


class TestBorrowedDictionaries:
    """Label text is stored once, with the table: a summary document
    carries codes and borrows the dictionaries at restore."""

    def test_document_marks_label_columns_instead_of_repeating_them(
        self, built_backend, census
    ):
        document = _borrowed_document(built_backend)
        for column in census.columns:
            entry = _entry(document, column.name)
            assert entry["aux"] is None
            is_label = isinstance(column, CategoricalColumn)
            assert (entry.get("dictionary") == "table") == is_label

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

    def test_a_differing_dictionary_stays_inline(self, built_backend, census):
        summary = extract_summary(built_backend, table_name="census", key="k")
        sex = summary.sample.categorical("Sex")
        widened = CategoricalColumn(
            "Sex", sex.codes, sex.categories + ("(unused)",)
        )
        columns = [
            widened if column.name == "Sex" else column
            for column in summary.sample.columns
        ]
        odd = SketchSummary(
            table_name="census",
            version=summary.version,
            key="k",
            fidelity=summary.fidelity,
            full_scan=summary.full_scan,
            sample=Table(columns, name=summary.sample.name),
            quantiles={},
            frequencies={},
            tokens={},
            base=census,
        )
        document = json.loads(json.dumps(odd.to_dict()))
        assert "dictionary" not in _entry(document, "Sex")
        assert json.loads(_entry(document, "Sex")["aux"])[-1] == "(unused)"
        assert _entry(document, "Education")["dictionary"] == "table"
        warm = restore_backend(SketchSummary.from_dict(document), census)
        restored = warm.effective_table.categorical("Sex")
        assert restored.categories == widened.categories
        np.testing.assert_array_equal(restored.codes, widened.codes)

    def test_summary_without_its_table_writes_inline(self, built_backend):
        summary = extract_summary(built_backend, table_name="census", key="k")
        alone = SketchSummary(
            table_name="census",
            version=summary.version,
            key="k",
            fidelity=summary.fidelity,
            full_scan=summary.full_scan,
            sample=summary.sample,
            quantiles={},
            frequencies={},
            tokens={},
        )
        document = alone.to_dict()
        assert all(
            "dictionary" not in column
            for column in document["sample"]["columns"]
        )
        assert SketchSummary.from_dict(document).sample.n_rows == 500

    def test_unbound_summary_reserializes_unchanged(self, built_backend):
        document = _borrowed_document(built_backend)
        assert SketchSummary.from_dict(document).to_dict() == document

    def test_document_size_is_bounded_by_the_reservoir_not_the_labels(self):
        n_rows, budget = 6_000, 1_000
        table = Table(
            [
                NumericColumn("hours", np.arange(n_rows, dtype=np.float64)),
                CategoricalColumn.from_values(
                    "title",
                    [f"ticket {i:05d}: disk outage on rack" for i in range(n_rows)],
                ),
            ],
            name="tickets",
        )
        backend = SketchBackend(table, Fidelity.parse(f"sketch:{budget}"), rng=1)
        summary = extract_summary(backend, table_name="tickets", key="k")
        assert len(summary.sample.categorical("title").categories) >= 5_000
        buffers = sum(
            len(base64.b64encode(column_blob(column)[1]))
            for column in summary.sample.columns
        )
        size = len(json.dumps(summary.to_dict()))
        assert size <= 2 * buffers + 4096


class TestLegacyDocuments:
    """Summaries written before dictionaries were borrowed carry them
    inline on every label column; they must keep restoring, through the
    same reader, to the same answers."""

    def test_golden_legacy_summary_restores_bit_identically(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "legacy_summary_census.json")
            .read_text()
        )
        document = golden["document"]
        assert all(
            column["kind"] == "numeric" or column["aux"]
            for column in document["sample"]["columns"]
        )
        spec = golden["table"]
        table = census_table(n_rows=spec["n_rows"], seed=spec["seed"])
        assert SketchSummary.from_dict(document).sample.n_rows == 100
        with TableStore() as store:
            store.register_table(table)
            store.put_summary(
                "census", document["version"], golden["summary_key"], document
            )
            with ExplorationService(max_workers=1, store=store) as service:
                warm = service.explore(
                    "census", golden["query"], config=golden["config"]
                )
                assert service.metrics()["requests"]["warm_starts"] == 1
        assert map_set_fingerprint(warm.map_set) == golden["fingerprint"]
        with ExplorationService(max_workers=1) as service:
            service.register(table)
            cold = service.explore(
                "census", golden["query"], config=golden["config"]
            )
        assert map_set_fingerprint(cold.map_set) == golden["fingerprint"]


def _rename_column(document, census):
    _entry(document, "Sex")["name"] = "Gender"
    return census, "Gender"


def _mark_numeric(document, census):
    _entry(document, "Age")["dictionary"] = "table"
    return census, "Age"


def _overflow_codes(document, census):
    entry = _entry(document, "Education")
    codes = np.full(500, len(census.categorical("Education").categories))
    entry["data"] = base64.b64encode(codes.astype(np.int32).tobytes()).decode()
    return census, "Education"


class TestBorrowedDictionaryErrors:
    @pytest.mark.parametrize(
        "corrupt", [_rename_column, _mark_numeric, _overflow_codes]
    )
    def test_unbindable_column_is_a_store_error_naming_the_culprit(
        self, built_backend, census, corrupt
    ):
        document = _borrowed_document(built_backend)
        table, column = corrupt(document, census)
        summary = SketchSummary.from_dict(document)
        with pytest.raises(StoreError) as raised:
            restore_backend(summary, table)
        message = str(raised.value)
        assert repr(column) in message
        assert "'census'" in message and "version 0" in message

    def test_table_at_another_version_keeps_the_version_error(
        self, built_backend, census
    ):
        summary = SketchSummary.from_dict(_borrowed_document(built_backend))
        moved = census.append(census.take(np.arange(3)))
        with pytest.raises(StoreError, match="captured at version 0"):
            restore_backend(summary, moved)

    def test_reading_an_unbound_reservoir_is_a_store_error(self, built_backend):
        summary = SketchSummary.from_dict(_borrowed_document(built_backend))
        with pytest.raises(StoreError, match="restore_backend"):
            summary.sample
