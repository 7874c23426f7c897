"""A sharded build's folded GK state, pinned byte for byte.

``data/census_fold_gk.json`` holds the ``to_dict`` form of every GK
summary a 4-shard census build folds (6,000 rows, ε = 0.05, so the
fold's compress merges tuples), written by the list-of-tuples GK
implementation the array one replaced.  Both the inline venue and the
in-process cluster venue must still fold to exactly those bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import Fidelity, Parallelism
from repro.datagen import census_table
from repro.engine.parallel import InlineVenue, build_sharded_backend

GOLDEN = Path(__file__).parent / "data" / "census_fold_gk.json"


@pytest.mark.parametrize("venue", ["inline", "cluster"])
def test_folded_gk_state_is_byte_identical(venue, coordinator):
    table = census_table(n_rows=6000, seed=7)
    backend = build_sharded_backend(
        table,
        Fidelity.sketch(budget_rows=1000, epsilon=0.05),
        Parallelism(workers=1, shards=4),
        seed=7,
        venue=coordinator if venue == "cluster" else InlineVenue(),
    )
    state = {
        attribute: sketch.to_dict()
        for attribute, sketch in backend.export_state().quantiles.items()
    }
    assert json.dumps(state, sort_keys=True) + "\n" == GOLDEN.read_text()
