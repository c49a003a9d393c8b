"""Rewrite the README pipeline's goldens in ``tests/golden`` from the working tree.

Run from the repository root::

    PYTHONPATH=src python scripts/regenerate_goldens.py

It runs the pipeline of ``tests/helpers.py`` (the README's commands and
inputs) in a temporary directory, copies every output into
``tests/golden``, records the numpy version that wrote them in
``tests/golden/manifest.json`` and prints the name of each file whose bytes
moved. It then fits the fit corpus of ``tests/helpers.py`` and writes each
chunk's digest and the noiseless table to ``tests/fit_corpus.json``,
printing each chunk whose digest moved. A change that moves a golden or a
chunk lists each one in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "..", "tests", "golden")
CORPUS = os.path.join(HERE, "..", "tests", "fit_corpus.json")
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
from helpers import (  # noqa: E402
    CORPUS_CHUNK, CORPUS_RECORDS, README_OUTPUTS, corpus_digest, corpus_table, read_json,
    run_readme_pipeline,
)


def main() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        run_readme_pipeline(work)
        for name in README_OUTPUTS:
            with open(os.path.join(work, name), "rb") as fh:
                new = fh.read()
            path = os.path.join(GOLDEN, name)
            old = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    old = fh.read()
            if new != old:
                print(f"moved: {name}")
                with open(path, "wb") as fh:
                    fh.write(new)
    with open(os.path.join(GOLDEN, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"numpy": np.__version__, "outputs": README_OUTPUTS}, fh, indent=1)
        fh.write("\n")
    old = read_json(CORPUS)["chunks"] if os.path.exists(CORPUS) else []
    chunks = [corpus_digest(c) for c in range(CORPUS_RECORDS // CORPUS_CHUNK)]
    for c, digest in enumerate(chunks):
        if c >= len(old) or old[c] != digest:
            print(f"moved: fit corpus chunk {c} "
                  f"(records {c * CORPUS_CHUNK}-{(c + 1) * CORPUS_CHUNK - 1})")
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump({"chunks": chunks, "table": corpus_table()}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
