"""Golden sha256 digests of the artifacts of the shipped configs.

Each line of ``golden.sha256`` names a command, a config under
``scripts/configs``, its overrides (comma-separated, ``-`` for none), one
artifact and its digest.  An override may hold spaces (``sweep.n_list=8
32``): the command and config are read from the left, the artifact and
digest from the right, and the overrides are what lies between.  The
``#`` lines record the Python, numpy and scipy versions the digests were
made with: the Philox-to-normal bytes depend on numpy, and the manifest
names all three.  The test runs every listed command
in process through ``cli.main`` and compares every digest, so any changed
byte fails tier-1.

A change that alters artifact bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each changed, added or dropped digest as ``old -> new`` (or
``no digest changed``) for the change's log.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from penmfg import cli

GOLDEN = Path(__file__).with_name("golden.sha256")
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
VERSIONS = {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def read_golden():
    """({tool: version}, [((command, config, overrides), file, digest)])."""
    versions, entries = {}, []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            tool, _, version = line[1:].strip().partition(" ")
            versions[tool] = version
        elif line.strip():
            command, config, rest = line.split(maxsplit=2)
            overrides, name, digest = rest.rsplit(maxsplit=2)
            entries.append(((command, config, overrides), name, digest))
    return versions, entries


def run_digests(runs, out_root: Path) -> dict:
    """(run, file) -> sha256 for every file each run writes."""
    digests = {}
    for i, run in enumerate(runs):
        command, config, overrides = run
        out = out_root / str(i)
        argv = [command, "--config", str(CONFIGS / config), "--out", str(out)]
        for item in ([] if overrides == "-" else overrides.split(",")):
            argv += ["--override", item]
        cli.main(argv)
        for path in sorted(out.iterdir()):
            digests[run, path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_shipped_artifacts_match_golden_digests(tmp_path):
    versions, entries = read_golden()
    for tool, version in VERSIONS.items():
        if versions.get(tool) != version:
            pytest.fail(f"golden digests were made with {tool} "
                        f"{versions.get(tool)}, this is {tool} {version}")
    runs = list(dict.fromkeys(run for run, _, _ in entries))
    got = run_digests(runs, tmp_path)
    changed = [f"{' '.join(run)} {name}: {digest} -> {got.get((run, name))}"
               for run, name, digest in entries if got.get((run, name)) != digest]
    assert not changed, "\n".join(changed)
    assert set(got) == {(run, name) for run, name, _ in entries}


if __name__ == "__main__":
    import tempfile

    _, entries = read_golden()
    old = {(run, name): digest for run, name, digest in entries}
    runs = list(dict.fromkeys(run for run, _ in old))
    with tempfile.TemporaryDirectory() as tmp:
        new = run_digests(runs, Path(tmp))
    log = [f"{' '.join(run)} {name}: {old.get((run, name), 'added')} -> "
           f"{new.get((run, name), 'dropped')}"
           for run, name in dict.fromkeys([*old, *new])
           if old.get((run, name)) != new.get((run, name))]
    print("\n".join(log) or "no digest changed")
    lines = [f"# {tool} {version}" for tool, version in VERSIONS.items()]
    lines += [f"{' '.join(run)} {name} {digest}"
              for (run, name), digest in new.items()]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
