"""Build the compiled core in a copy, never in the checkout.

``src/``, ``setup.py`` and ``pyproject.toml`` are copied into a
directory of their own and ``setup.py build_ext --inplace`` runs there,
so the checkout gains neither the extension nor ``build/`` nor an
``egg-info``. (``setup.py build`` would write ``src/repro.egg-info``
into the tree, and ``build_ext --build-lib`` would ship only the
``.so``.) The copy's ``src`` is what the workload processes and their
remote workers import.

Copies are keyed by a hash of the copied sources and the interpreter,
so a changed source builds afresh and an unchanged one is reused. A copy
is built under a temporary name and renamed into place when done.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SOURCES = ("src", "setup.py", "pyproject.toml")
_IGNORE = shutil.ignore_patterns(
    "__pycache__", "*.pyc", "*.so", "*.pyd", "*.egg-info", "build"
)
BUILD_TIMEOUT_S = 600


class BuildError(RuntimeError):
    """The sources to build are missing or could not be copied."""


@dataclass(frozen=True)
class Build:
    """A built copy: put ``src`` on the path to import the program."""

    root: Path
    accel: bool  # the compiled core was built

    @property
    def src(self) -> Path:
        return self.root / "src"


def _copied_files(checkout: Path) -> list[Path]:
    files = []
    for name in SOURCES:
        path = checkout / name
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*"))
                if p.is_file()
                and "__pycache__" not in p.parts
                and not any(part.endswith(".egg-info") for part in p.parts)
                and p.suffix not in (".pyc", ".so", ".pyd")
            )
        else:
            raise BuildError(f"{path} is missing; nothing to build")
    return files


def source_key(checkout: Path) -> str:
    """Hash of every copied file and the interpreter that builds it."""
    digest = hashlib.sha256(sys.version.encode())
    for path in _copied_files(checkout):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _accel_built(root: Path) -> bool:
    return any((root / "src" / "repro" / "_accel").glob("_ccore*.so"))


def ensure_build(checkout: Path, builds: Path) -> Build:
    """The built copy of ``checkout``'s sources, building it if needed."""
    final = builds / source_key(checkout)
    if not final.is_dir():
        builds.mkdir(parents=True, exist_ok=True)
        tmp = builds / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            for name in SOURCES:
                src = checkout / name
                if src.is_dir():
                    shutil.copytree(src, tmp / name, ignore=_IGNORE)
                else:
                    tmp.mkdir(parents=True, exist_ok=True)
                    shutil.copy2(src, tmp / name)
            env = {k: v for k, v in os.environ.items()
                   if k != "REPRO_BUILD_ACCEL"}
            with open(tmp / "build.log", "w") as log:
                # setup.py degrades a failed compile to a warning; whether
                # the extension exists afterwards is what counts.
                subprocess.run(
                    [sys.executable, "setup.py", "build_ext", "--inplace"],
                    cwd=tmp,
                    env=env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=BUILD_TIMEOUT_S,
                    check=False,
                )
            try:
                tmp.rename(final)
            except OSError:
                # Another run finished the same build first; use theirs.
                if not final.is_dir():
                    raise
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise BuildError(f"cannot prepare the build copy: {exc}") from exc
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return Build(root=final, accel=_accel_built(final))
