"""Replay the golden-output corpus: every CLI request keeps its exit code and stdout.

tests/golden/manifest.json holds the argv of each request, its exit code
and the sha256 of its stdout, plus the input files the requests name.
A change that alters stdout on purpose rebuilds it with
tests/golden/regenerate.py and lists each changed entry in CHANGES.md.
"""
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from weylorder.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"


def replay(argv: list) -> dict:
    """Run one request in this process: its exit code and the sha256 of its stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def write_files(files: dict, directory: Path) -> None:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def test_golden_outputs(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    write_files(manifest["files"], tmp_path)
    monkeypatch.chdir(tmp_path)
    changed = [(entry, got) for entry in manifest["requests"]
               if (got := replay(entry["argv"])) != entry]
    assert len(manifest["requests"]) >= 1500
    assert not changed, f"{len(changed)} requests changed, first: {changed[0]}"
