"""Stored label text: bit-identical labels, and the same scan answers.

A categorical dictionary is stored as its labels' UTF-8 joined by
``"\\n"``, their lengths and a CRC-32 (:func:`repro.store.codec.dictionary_row`).
Text predicates sweep a scan index made by one ``lower()`` over that
text.  Two properties pin the form:

* the labels come back bit-identical from the stored bytes;
* the stored-form scan admits exactly the codes the earlier scan
  admitted over the label tuple, which lowered the labels one by one
  (copied below as the oracle) — also for ``'İ'`` (lowering grows it),
  ``'ß'``, a final ``'Σ'``, embedded ``"\\n"``, punctuation and mixed
  case.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.column import LabelDictionary, label_text
from repro.errors import PredicateError
from repro.query.predicate import ContainsPredicate, MatchPredicate
from repro.store.codec import dictionary_row, stored_text

_ALNUM = frozenset("0123456789abcdefghijklmnopqrstuvwxyz")


def oracle_scan(categories: tuple, needles) -> np.ndarray:
    """The scan text predicates ran over the label tuple before the
    stored form: labels lowered one by one, then joined."""
    n = len(categories)
    lowered = list(map(str.lower, categories))
    starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        lengths = np.fromiter(map(len, lowered), dtype=np.int64, count=n)
        np.cumsum(lengths[:-1] + 1, out=starts[1:])
    joined, starts = "\n".join(lowered), starts.tolist()
    end = len(joined)
    admitted = np.ones(n, dtype=bool)
    for needle, token_bounded in needles:
        hits = np.zeros(n, dtype=bool)
        width = len(needle)
        pos = joined.find(needle)
        while pos != -1:
            if token_bounded and not (
                (pos == 0 or joined[pos - 1] not in _ALNUM)
                and (pos + width == end or joined[pos + width] not in _ALNUM)
            ):
                pos = joined.find(needle, pos + 1)
                continue
            label = bisect_right(starts, pos) - 1
            hits[label] = True
            if label + 1 >= n:
                break
            pos = joined.find(needle, starts[label + 1])
        admitted &= hits
        if not admitted.any():
            break
    return admitted


#: Characters that make lowering or splitting interesting: ``'İ'``
#: lowers to two code points, ``'Σ'`` lowers by context, U+0307 is
#: case-ignorable, ``'ǅ'`` is titlecase; plus separators and ASCII.
_TRICKY = "İıßΣσςΑΒǅﬁ\u0307\n\t -_.,!?'aAzZ09éÉΩдД中😀"

#: A sampled alphabet: hypothesis draws it several times faster than
#: ``st.characters()``, which keeps 2,000 examples within seconds.
labels = st.lists(
    st.text(st.sampled_from(_TRICKY + "bcdkxy"), max_size=8), max_size=12, unique=True
).map(tuple)
needles = st.text(st.sampled_from(_TRICKY + "bcdxy"), min_size=1, max_size=4)


def stored_dictionary(categories: tuple) -> LabelDictionary:
    """A dictionary loaded from its stored bytes, as a store row is."""
    data, sizes, checksum = dictionary_row(*label_text(categories))
    return LabelDictionary(
        len(categories),
        load=lambda: stored_text(data, sizes, checksum, len(categories), "it"),
    )


def check(categories: tuple, needle: str) -> None:
    dictionary = stored_dictionary(categories)
    contains = ContainsPredicate("title", needle)
    lowered = needle.lower()
    if "\n" in lowered:  # tested label by label, as the mask does
        expected = np.array([lowered in c.lower() for c in categories], dtype=bool)
    else:
        expected = oracle_scan(categories, [(lowered, False)])
    np.testing.assert_array_equal(contains.admitted(dictionary), expected)
    try:
        match = MatchPredicate("title", needle)
    except PredicateError:  # no token in the needle
        pass
    else:
        np.testing.assert_array_equal(
            match.admitted(dictionary),
            oracle_scan(categories, [(term, True) for term in match.terms]),
        )
    assert dictionary.labels == categories  # code point for code point
    assert all(type(label) is str for label in dictionary.labels)


@settings(max_examples=60, deadline=None)
@given(categories=labels, needle=needles)
def test_stored_text_round_trips_and_scans_as_the_tuple_did(categories, needle):
    check(categories, needle)


@pytest.mark.slow
@settings(max_examples=2_000, deadline=None)
@given(categories=labels, needle=needles)
def test_stored_text_round_trips_and_scans_as_the_tuple_did_at_length(categories, needle):
    check(categories, needle)


@pytest.mark.parametrize(
    "categories, needle",
    [
        (("İstanbul", "istanbul", "ISTANBUL"), "i"),
        (("İİ disk", "disk"), "disk"),
        (("ΟΔΟΣ", "οδος", "ΣΑΣ"), "ς"),
        (("ΟΔΟΣ", "οδος", "ΣΑΣ"), "σ"),
        (("STRASSE", "straße"), "ß"),
        (("multi\nline disk", "disk\n", "\n"), "disk"),
        (("a\nb", "b"), "a\nb"),
        (("punct: disk-error!", "Disk_Error"), "disk error"),
        ((), "x"),
        (("",), "x"),
    ],
)
def test_named_cases(categories, needle):
    check(categories, needle)
