"""Every recorded command-line artifact keeps its bytes and exit code.

The record is ``tests/data/artifact_hashes.json``; see
``tests/artifact_manifest.py`` for what it holds and how to rewrite it.
"""

from __future__ import annotations

import json

import artifact_manifest

CANONICAL_COMMANDS = ("table", "recurrence-table", "genfunc")


def test_every_artifact_matches_the_manifest(monkeypatch):
    monkeypatch.setenv("COLUMNS", artifact_manifest.COLUMNS)
    current = {}
    not_canonical = []
    for argv in artifact_manifest.commands():
        key = " ".join(argv)
        code, stdout, stderr = artifact_manifest.run(argv)
        current[key] = artifact_manifest.entry(code, stdout, stderr)
        if code == 0 and argv[0] in CANONICAL_COMMANDS and "json" in argv:
            if json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n" != stdout:
                not_canonical.append(key)
    changed = artifact_manifest.changed_keys(artifact_manifest.load(), current)
    assert not changed, "artifacts differ from the manifest:\n" + "\n".join(changed)
    assert not not_canonical, "not canonical JSON:\n" + "\n".join(not_canonical)
