"""Tests for the atomic result-file writer."""

import pytest

from repro.utils.io import atomic_write


def test_creates_and_replaces(tmp_path):
    path = tmp_path / "out.md"
    with atomic_write(path) as fh:
        fh.write("first")
    assert path.read_text() == "first"
    with atomic_write(path) as fh:
        fh.write("second")
    assert path.read_text() == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.md"]


def test_failure_mid_write_leaves_previous_file(tmp_path):
    path = tmp_path / "out.md"
    path.write_text("previous")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("serialisation failed")
    assert path.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.md"]


def test_failure_without_previous_file_creates_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "new.md") as fh:
            fh.write("partial")
            raise RuntimeError("boom")
    assert list(tmp_path.iterdir()) == []
