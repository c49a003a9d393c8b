"""The fit corpus of ``tests/helpers.py`` against its record in ``tests/fit_corpus.json``.

Under the numpy version recorded in ``tests/golden/manifest.json``, each
chunk of the corpus must hash to its committed digest, over every fit's
``repr`` and fidelity, so a change that moves one fit in a chunk fails that
chunk's case. Under another version, sums may round differently and the
Poisson records are other draws (NEP 19), so the digests are skipped; the
table of the noiseless filter records' fits must match under any version,
each number within ``RTOL`` of its record, relative to ``1 + |record|``, and
each count exactly. ``scripts/regenerate_goldens.py`` rewrites the record.
"""

from pathlib import Path

import numpy as np
import pytest

from helpers import CORPUS_CHUNK, CORPUS_FIELDS, CORPUS_RECORDS, corpus_digest, corpus_table
from helpers import read_json
from test_golden import MANIFEST, RTOL

CORPUS = read_json(Path(__file__).parent / "fit_corpus.json")


@pytest.mark.parametrize("chunk", range(CORPUS_RECORDS // CORPUS_CHUNK))
def test_chunk_matches_its_digest(chunk):
    if np.__version__ != MANIFEST["numpy"]:
        pytest.skip(f"numpy {np.__version__} is not numpy {MANIFEST['numpy']}, which wrote "
                    "the digests; the noiseless table is compared instead")
    assert len(CORPUS["chunks"]) == CORPUS_RECORDS // CORPUS_CHUNK
    assert corpus_digest(chunk) == CORPUS["chunks"][chunk], (
        f"fit corpus chunk {chunk} (records {chunk * CORPUS_CHUNK}-"
        f"{(chunk + 1) * CORPUS_CHUNK - 1}) moved")


def test_noiseless_table_matches_within_rtol():
    table = corpus_table()
    assert len(table) == len(CORPUS["table"])
    for got, want in zip(table, CORPUS["table"]):
        assert got.keys() == want.keys()
        for key in want:
            if key in CORPUS_FIELDS:
                g, w = float.fromhex(got[key]), float.fromhex(want[key])
                assert abs(g - w) <= RTOL * (1.0 + abs(w)), (want["record"], key, g, w)
            else:
                assert got[key] == want[key], (want["record"], key)
