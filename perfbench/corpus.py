"""The fixed ``lint-tree`` corpus: ``src/repro`` at commit 2c572ab.

The corpus is stored as the archive ``git archive`` writes for that commit
and path, with a manifest of every file's SHA-256, so the input of the lint
workload never changes when the program's own source does.  Regenerate
(byte-identical) from a git checkout that has the commit::

    python3 perfbench/corpus.py --make

and check the stored archive against the manifest with ``--check``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMIT = "2c572abadac1b9f81b94ed44cfbeb82ce257a28b"
TREE = "src/repro"
ARCHIVE = HERE / "corpus" / "src-repro-2c572ab.tar.gz"
MANIFEST = HERE / "corpus" / "MANIFEST.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def module_count() -> int:
    return sum(1 for path in _manifest()["files"] if path.endswith(".py"))


def describe() -> dict:
    manifest = _manifest()
    return {
        "commit": manifest["commit"],
        "tree": manifest["tree"],
        "archive_sha256": manifest["archive_sha256"],
        "modules": module_count(),
    }


def extract(dest: Path) -> Path:
    """Unpack the verified corpus under ``dest``; returns its ``src`` root."""
    manifest = _manifest()
    data = ARCHIVE.read_bytes()
    if _sha256(data) != manifest["archive_sha256"]:
        raise RuntimeError(f"{ARCHIVE.name} does not match its manifest")
    shutil.rmtree(dest, ignore_errors=True)
    seen = set()
    with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as archive:
        for member in archive.getmembers():
            if not member.isfile():
                continue
            expected = manifest["files"].get(member.name)
            handle = archive.extractfile(member)
            body = handle.read() if handle is not None else b""
            if expected is None or _sha256(body) != expected:
                raise RuntimeError(f"corpus file {member.name} does not match")
            target = dest / member.name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(body)
            seen.add(member.name)
    if seen != set(manifest["files"]):
        raise RuntimeError("corpus archive is missing files")
    return dest / "src"


def make(repo: Path) -> None:
    """Write the archive and manifest from ``git archive`` of the commit."""
    data = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar.gz", COMMIT, TREE],
        check=True,
        capture_output=True,
    ).stdout
    files = {}
    with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as archive:
        for member in archive.getmembers():
            if member.isfile():
                handle = archive.extractfile(member)
                files[member.name] = _sha256(handle.read() if handle else b"")
    ARCHIVE.parent.mkdir(parents=True, exist_ok=True)
    ARCHIVE.write_bytes(data)
    MANIFEST.write_text(
        json.dumps(
            {
                "commit": COMMIT,
                "tree": TREE,
                "archive_sha256": _sha256(data),
                "files": dict(sorted(files.items())),
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--make", action="store_true", help="regenerate from git")
    group.add_argument("--check", action="store_true", help="verify the archive")
    args = parser.parse_args()
    if args.make:
        make(HERE.parent)
    else:
        scratch = HERE.parent / ".perfbench-work" / "corpus-check"
        extract(scratch)
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(describe()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
