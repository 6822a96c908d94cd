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


def _farfield_tree(root: Path, values: np.ndarray) -> Path:
    """A tree holding one far-field CSV of `values` on an 18-point band."""
    (root / "cfg").mkdir(parents=True)
    band = m.FrequencyBand(3 * np.pi, len(values))
    m.write_farfield_csv(root / "cfg" / "farfield_1.csv", m.FarFieldSamples(
        m.Direction.from_angle(0.0), band, values))
    return root


def test_compare_trees_farfield_rule(tmp_path):
    # re and im are held to rtol times the file's largest |w|: a last-digit
    # change passes, also in a component near 0, a 1e-6 change or another
    # k cell fails
    values = np.exp(-1j * np.linspace(0.0, 3.0, 18)) * np.linspace(2, 0.1, 18)
    values[4] = 1e-17 + 0.5j
    a = _farfield_tree(tmp_path / "a", values)
    moved = values * (1 + 2e-16)
    moved[4] = 3e-17 + 0.5j
    code, text = _compare(a, _farfield_tree(tmp_path / "b", moved))
    assert code == 0, text
    assert "re,im differ by at most" in text
    code, text = _compare(a, _farfield_tree(tmp_path / "c", values * (1 + 1e-6)))
    assert code == 1 and "more than rtol" in text
    d = _farfield_tree(tmp_path / "d", values)
    path = d / "cfg" / "farfield_1.csv"
    lines = path.read_text().splitlines(keepends=True)
    k, rest = lines[3].split(",", 1)
    lines[3] = f"{np.nextafter(float(k), 4.0):.17g},{rest}"
    path.write_text("".join(lines))
    code, text = _compare(a, d)
    assert code == 1 and "header or k column differ" in text
