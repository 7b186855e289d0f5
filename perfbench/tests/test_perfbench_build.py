"""Building the compiled core happens in a copy, never in the checkout."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import builder  # noqa: E402


def _snapshot(root: Path) -> dict:
    """Every file the build could touch, with its size and mtime."""
    files = {}
    for name in builder.SOURCES:
        path = root / name
        paths = [path] if path.is_file() else path.rglob("*")
        for p in paths:
            if "__pycache__" not in p.parts:
                stat = p.stat()
                files[str(p.relative_to(root))] = (stat.st_size,
                                                   stat.st_mtime_ns)
    return files


def _fake_checkout(root: Path, body: str = "VALUE = 1\n") -> Path:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text(body)
    (root / "setup.py").write_text(
        "from setuptools import setup\nsetup(name='pkg', version='0')\n"
    )
    (root / "pyproject.toml").write_text("")
    return root


def test_building_the_real_core_leaves_the_checkout_untouched(tmp_path):
    before = _snapshot(ROOT)
    top_before = sorted(p.name for p in ROOT.iterdir())
    build = builder.ensure_build(ROOT, tmp_path / "builds")
    assert _snapshot(ROOT) == before
    assert sorted(p.name for p in ROOT.iterdir()) == top_before
    assert tmp_path in build.root.parents
    assert (build.src / "repro" / "__init__.py").is_file()
    assert not list((build.src / "repro").rglob("__pycache__"))


def test_unchanged_sources_reuse_the_copy_and_changed_ones_rebuild(tmp_path):
    checkout = _fake_checkout(tmp_path / "checkout")
    builds = tmp_path / "builds"
    first = builder.ensure_build(checkout, builds)
    assert builder.ensure_build(checkout, builds).root == first.root
    (checkout / "src" / "pkg" / "__init__.py").write_text("VALUE = 2\n")
    second = builder.ensure_build(checkout, builds)
    assert second.root != first.root
    assert (second.src / "pkg" / "__init__.py").read_text() == "VALUE = 2\n"
    assert not second.accel
    assert not list(checkout.rglob("*.egg-info"))
    assert not (checkout / "build").exists()


def test_missing_sources_are_refused(tmp_path):
    with pytest.raises(builder.BuildError):
        builder.ensure_build(tmp_path, tmp_path / "builds")
