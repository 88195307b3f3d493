"""Byte-for-byte CLI output against the stored goldens.

Every command in ``perfbench/goldens/manifest.json`` runs in process and its
stdout and exit code must equal the stored ones exactly. The goldens are only
read here; ``perfbench/make_goldens.py`` is the one place that writes them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from oscdamp.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "perfbench" / "goldens"
MANIFEST = json.loads((GOLDENS / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(MANIFEST))
def test_cli_output_matches_golden(key, monkeypatch):
    entry = MANIFEST[key]
    monkeypatch.chdir(ROOT)  # manifest argv paths are relative to the repo root
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(entry["argv"]))
    assert code == entry["exit"]
    assert buf.getvalue().encode("utf-8") == (GOLDENS / f"{key}.out").read_bytes()
