"""tools/same_outputs.py's ``differences``, the comparison behind its byte-identity
check, on small trees of files."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


differences = _load_tool().differences


def tree(root, files):
    """root with each relative path of files written with its bytes."""
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_identical_files_do_not_differ(tmp_path):
    files = {"fit/5/trace.csv": b"0,1.5\n", "fit/5/process.txt": b"0\n\n"}
    assert differences(tree(tmp_path / "a", files), tree(tmp_path / "b", files)) == []


def test_file_in_one_tree_only_differs(tmp_path):
    a = tree(tmp_path / "a", {"fit/5/trace.csv": b"x", "fit/7/draws.json": b"[]"})
    b = tree(tmp_path / "b", {"fit/5/trace.csv": b"x", "prior/5/weights.csv": b"y"})
    assert differences(a, b) == [Path("fit/7/draws.json"), Path("prior/5/weights.csv")]


def test_file_whose_bytes_differ_differs(tmp_path):
    a = tree(tmp_path / "a", {"fit/5/trace.csv": b"0,1.5\n", "fit/5/summary.csv": b"1\n"})
    b = tree(tmp_path / "b", {"fit/5/trace.csv": b"0,1.5\n", "fit/5/summary.csv": b"1 \n"})
    assert differences(a, b) == [Path("fit/5/summary.csv")]


def test_manifest_is_skipped(tmp_path):
    # it holds a timestamp: differing bytes, or a manifest in one tree only, are not listed
    a = tree(tmp_path / "a", {"fit/5/manifest.json": b'{"timestamp": "1"}',
                              "fit/7/manifest.json": b"{}"})
    b = tree(tmp_path / "b", {"fit/5/manifest.json": b'{"timestamp": "2"}'})
    assert differences(a, b) == []
