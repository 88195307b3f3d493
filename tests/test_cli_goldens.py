"""Byte-for-byte CLI output against the stored goldens.

Every command in ``perfbench/goldens/manifest.json`` runs in process and its
stdout and exit code must equal the stored ones exactly. Its stderr must be
empty on exit 0 and one ``oscdamp:`` line otherwise. The goldens are only
read here; ``perfbench/make_goldens.py`` is the one place that writes them.
"""

from __future__ import annotations

import json
import re

import pytest

from conftest import PERFBENCH, run_cli

ROOT = PERFBENCH.parent
GOLDENS = PERFBENCH / "goldens"
MANIFEST = json.loads((GOLDENS / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(MANIFEST))
def test_cli_output_matches_golden(key, monkeypatch):
    entry = MANIFEST[key]
    monkeypatch.chdir(ROOT)  # manifest argv paths are relative to the repo root
    code, out, err = run_cli(list(entry["argv"]))
    assert code == entry["exit"]
    assert out.encode("utf-8") == (GOLDENS / f"{key}.out").read_bytes()
    assert re.fullmatch(r"oscdamp: [^\n]+\n" if code else "", err), err
