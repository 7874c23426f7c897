"""Sketch state pinned byte for byte: serial, sharded, appended, on the wire.

``data/sketch_state_census.json`` holds blake2b digests of nine
documents built from census (3,000 rows, seed 3), split by
``split_for_streaming`` into an initial half and two append batches:

* ``serial`` / ``sharded`` — ``json.dumps(SketchSummary.to_dict(),
  sort_keys=True)`` of the ``sketch:500`` backend (seed 3) a context
  builds over the initial table, serially or as a 4-shard inline build,
  after a root and a survey explore;
* ``serial_appended`` / ``sharded_appended`` — the same backends after
  both batches were appended (``context.advance``) and the survey
  re-answered at each version;
* ``serial_state`` … ``sharded_appended_state`` — the same four
  backends in a form no storage layout enters: each reservoir column's
  :func:`~repro.store.codec.column_row` fields (values or codes plus
  the dictionary's stored text), then every GK, Misra–Gries and token
  summary's ``to_dict``.  These hold when only the summary document's
  layout changes;
* ``scan_answer`` — ``json.dumps`` (key order kept) of the
  ``encode_scan_answer`` a shard server sends for a 2-shard scan of the
  whole table, with the wall-clock ``seconds`` and ``kernel_nanos``
  fields zeroed.

Capture recipe: run ``PYTHONPATH=src python
tests/engine/test_sketch_state_golden.py`` at the commit whose bytes
are to be pinned; it rewrites the data file.  The committed digests
were written that way before the one-``SketchState`` refactor, so the
refactor is held to the bytes of the code it replaced.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cluster.protocol import ScanRequest, encode_scan_answer
from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.datagen import census_table, split_for_streaming
from repro.engine.backends import table_fingerprint
from repro.engine.context import ExecutionContext
from repro.engine.parallel import (
    ShardedTable,
    _sketch_attributes,
    scan_shard_values,
    shard_column_values,
)
from repro.engine.pipeline import Pipeline
from repro.evaluation.workloads import figure2_query
from repro.store import extract_summary, summary_key
from repro.store.codec import column_row

GOLDEN = Path(__file__).parent / "data" / "sketch_state_census.json"
FIDELITY = Fidelity.parse("sketch:500")
SEED = 3


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def summary_digest(context: ExecutionContext) -> str:
    key = summary_key(context.config)
    summary = extract_summary(context.stats(), table_name="census", key=key)
    return digest(json.dumps(summary.to_dict(), sort_keys=True))


def state_digest(context: ExecutionContext) -> str:
    """The reservoir rows and summaries, whatever form stores them."""
    backend = context.stats()
    state = backend.export_state()
    digest = hashlib.blake2b(digest_size=16)
    for column in backend.effective_table.columns:
        for part in column_row(column):
            raw = part if isinstance(part, bytes) else repr(part).encode()
            digest.update(len(raw).to_bytes(8, "little"))
            digest.update(raw)
    for family in (state.quantiles, state.frequencies, state.tokens):
        sketches = {name: sketch.to_dict() for name, sketch in family.items()}
        digest.update(json.dumps(sketches, sort_keys=True).encode())
    return digest.hexdigest()


def session_digests(shards: int) -> tuple[str, str, str, str]:
    """Document and state digests of one backend before and after two
    appends."""
    table = census_table(n_rows=3000, seed=SEED)
    initial, batches = split_for_streaming(table, 2)
    config = AtlasConfig(
        fidelity=FIDELITY,
        parallelism=Parallelism(workers=1, shards=shards),
        seed=SEED,
    )
    pipeline, survey = Pipeline.default(), figure2_query()
    context = ExecutionContext(initial, config)
    pipeline.run(None, context)
    pipeline.run(survey, context)
    before, before_state = summary_digest(context), state_digest(context)
    current = initial
    for batch in batches:
        current = current.append(batch)
        context.advance(current)
        pipeline.run(survey, context)
    return before, summary_digest(context), before_state, state_digest(context)


def scan_answer_digest() -> str:
    table = census_table(n_rows=3000, seed=SEED)
    numeric, categorical = _sketch_attributes(table)
    bounds = ShardedTable(table, 2).bounds
    request = ScanRequest(
        table="census",
        version=table.version,
        fingerprint=table_fingerprint(table),
        seed=SEED,
        budget_rows=FIDELITY.budget_rows,
        sample_rows=True,
        epsilon=FIDELITY.epsilon,
        shards=tuple((i, low, high) for i, (low, high) in enumerate(bounds)),
    )
    statistics = []
    for index, low, high in request.shards:
        values, codes = shard_column_values(
            table, low, high, numeric, categorical
        )
        statistics.append(
            scan_shard_values(
                index=index,
                low=low,
                n_rows=high - low,
                seed=request.seed,
                fingerprint=request.fingerprint,
                budget_rows=request.budget_rows,
                sample_rows=request.sample_rows,
                epsilon=request.epsilon,
                numeric=values,
                categorical=codes,
            )
        )
    answer = encode_scan_answer(request, statistics)
    for entry in answer["statistics"]:
        # Wall-clock meters: present and typed, but not pinned.
        assert isinstance(entry["seconds"], float)
        assert all(isinstance(n, int) for n in entry["kernel_nanos"].values())
        entry["seconds"], entry["kernel_nanos"] = 0.0, {}
    return digest(json.dumps(answer))


def current_digests() -> dict[str, str]:
    digests = {}
    for name, shards in (("serial", 1), ("sharded", 4)):
        before, after, before_state, after_state = session_digests(shards)
        digests[name] = before
        digests[f"{name}_appended"] = after
        digests[f"{name}_state"] = before_state
        digests[f"{name}_appended_state"] = after_state
    digests["scan_answer"] = scan_answer_digest()
    return digests


def test_sketch_state_bytes_match_the_golden():
    assert current_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(current_digests(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
