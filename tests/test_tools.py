import contextlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

import numpy as np

import msimg as m

_SPEC = importlib.util.spec_from_file_location(
    "compare_trees",
    Path(__file__).resolve().parents[1] / "tools" / "compare_trees.py")
compare_trees = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_trees)


def _tree(root: Path, values: np.ndarray, in_mask: bool) -> Path:
    """A run_configs-like tree: one field CSV with its PGM, compare JSON
    and log."""
    grid = m.make_grid([(-1, 1), (0, 2)], (5, 4))
    out = root / "cfg"
    out.mkdir(parents=True)
    fld = m.ScalarField(grid, values)
    m.write_field_csv(out / "field_1.csv", fld)
    m.write_pgm(out / "field_1.pgm", fld)
    report = {"directions": [{"index": 1, "ratio": float(values.max()),
                              "argmax_in_mask": in_mask}]}
    (out / "field_1.compare.json").write_text(json.dumps(report))
    (out / "image.log").write_text("kept 1 of 1 directions; dropped 0\n")
    return root


def _compare(a: Path, b: Path) -> tuple[int, str]:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = compare_trees.main([str(a), str(b)])
    return code, text.getvalue()


def test_compare_trees_accepts_last_digit_changes_and_ties(tmp_path):
    values = np.exp(np.linspace(0.0, 1.0, 20))
    values[7] = values[-1] * (1 - 1e-13)  # a near-tie with the maximum
    a = _tree(tmp_path / "a", values, True)
    moved = values * (1 + 1e-12)
    moved[7] = moved[-1] * (1 + 1e-13)  # the argmax moves to the near-tie
    b = _tree(tmp_path / "b", moved, False)
    assert _compare(a, a)[0] == 0
    code, text = _compare(a, b)
    assert code == 0, text
    assert "argmax flip True -> False" in text and "a tie" in text


def test_compare_trees_refuses_real_differences(tmp_path):
    values = np.exp(np.linspace(0.0, 1.0, 20))
    a = _tree(tmp_path / "a", values, True)
    changes = {
        "value": lambda t: _tree(t, values * (1 + 1e-6), True),
        "flip without a tie": lambda t: _tree(t, values, False),
        "log": lambda t: (_tree(t, values, True) / "cfg" / "image.log")
        .write_text("kept 0 of 1 directions; dropped 1 [1]\n"),
        "coordinates": lambda t: (
            _tree(t, values, True) / "cfg" / "field_1.csv").write_text(
            (a / "cfg" / "field_1.csv").read_text().replace("-1,0,", "-1,0.0,")),
        "missing file": lambda t: (
            _tree(t, values, True) / "cfg" / "field_1.pgm").unlink(),
    }
    for name, make in changes.items():
        b = tmp_path / name.replace(" ", "_")
        make(b)
        assert _compare(a, b)[0] == 1, name
        shutil.rmtree(b)
    # a PGM with one other pixel is counted and refused
    b = _tree(tmp_path / "b", values, True)
    pgm = b / "cfg" / "field_1.pgm"
    pgm.write_text(pgm.read_text().replace(" 255", " 254", 1))
    code, text = _compare(a, b)
    assert code == 1 and "1 of 20 pixels differ" in text
