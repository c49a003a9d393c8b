"""Rewrite the README pipeline's goldens in ``tests/golden`` from the working tree.

Run from the repository root::

    PYTHONPATH=src python scripts/regenerate_goldens.py

It runs the pipeline of ``tests/helpers.py`` (the README's commands and
inputs) in a temporary directory, copies every output into
``tests/golden``, records the numpy version that wrote them in
``tests/golden/manifest.json`` and prints the name of each file whose bytes
moved. A change that moves a golden lists each moved file in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "..", "tests", "golden")
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
from helpers import README_OUTPUTS, run_readme_pipeline  # noqa: E402


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


if __name__ == "__main__":
    main()
