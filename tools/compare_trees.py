"""Compare two output trees of tools/run_configs.sh number by number.

    python3 tools/compare_trees.py A B [--rtol 1e-9]

A change that reorders the arithmetic of the indicator moves field values
in their last digits, so `diff -r` of two trees stops being the gate.
This script holds them to these rules instead:

- both trees hold the same files;
- a field CSV (header x1,...,w) keeps its header and coordinate columns
  byte for byte, and each value agrees within --rtol (relative);
- a far-field CSV (header k,re,im) keeps its header and k column byte for
  byte, and each re and im agrees within --rtol times the file's largest
  |w| (a component near 0 cannot be judged relative to itself);
- a *.compare.json keeps its structure and every string, flag and null;
  its numbers agree within --rtol.  An `argmax_in_mask` that differs is
  listed with the field's relative gap between its maximum and its value
  at the other tree's argmax; it passes when the argmax moved and both
  gaps are within --rtol (a tie between lattice points);
- a PGM keeps its header, and its differing pixels are counted.  They
  pass when each is off by one grey level and the field CSV of the same
  stem moved and passes its rule: a value within --rtol of a rounding
  boundary moves its pixel by one level.  A pixel over an unchanged field,
  or off by two levels or more, fails;
- every other file is byte-identical.

It prints one line per difference and exits 0 when every rule holds, 1
otherwise.  numpy is its only dependency.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def _header(path: Path) -> bytes:
    with open(path, "rb") as f:
        return f.readline()


def _field(path: Path) -> tuple[list[bytes], np.ndarray]:
    """Header plus coordinate text of each line, and the value column."""
    lines = path.read_bytes().splitlines()
    heads, values = [lines[0]], []
    for line in lines[1:]:
        head, _, value = line.rpartition(b",")
        heads.append(head)
        values.append(float(value))
    return heads, np.array(values)


def _farfield(path: Path) -> tuple[list[bytes], np.ndarray]:
    """Header plus k text of each line, and the (rows, 2) re,im values."""
    lines = path.read_bytes().splitlines()
    keys, values = [lines[0]], []
    for line in lines[1:]:
        k, _, rest = line.partition(b",")
        keys.append(k)
        values.append([float(x) for x in rest.split(b",")])
    return keys, np.array(values).reshape(-1, 2)


def _close(a, b, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


class Comparison:
    def __init__(self, a: Path, b: Path, rtol: float):
        self.a, self.b, self.rtol = a, b, rtol
        self.failures = 0
        self.fields = {}  # field CSV -> (failure or None, note or None)

    def fail(self, message: str) -> None:
        self.failures += 1
        print(message)

    def field_rule(self, rel: str) -> tuple[str | None, str | None]:
        """The field rule on the field CSV `rel`: why it fails, or None,
        and how its values moved, or None."""
        (ha, va), (hb, vb) = _field(self.a / rel), _field(self.b / rel)
        if ha != hb:
            return f"{rel}: header or coordinate columns differ", None
        diff = va != vb
        scale = np.maximum(np.abs(va), np.abs(vb))
        with np.errstate(invalid="ignore"):
            change = np.abs(va - vb)[diff] / scale[diff]
        bad = int(np.sum(~(change <= self.rtol)))
        if bad:
            return (f"{rel}: {bad} values differ by more than rtol "
                    f"{self.rtol:g}", None)
        if diff.any():
            return None, (f"{rel}: {int(diff.sum())} of {len(va)} values "
                          f"differ, max relative change {change.max():.3g}")
        return None, None

    def field(self, rel: str) -> None:
        failure, note = self.fields[rel] = self.field_rule(rel)
        if failure:
            self.fail(failure)
        elif note:
            print(note)

    def farfield(self, rel: str) -> None:
        (ka, wa), (kb, wb) = _farfield(self.a / rel), _farfield(self.b / rel)
        if ka != kb:
            self.fail(f"{rel}: header or k column differ")
            return
        scale = max(np.hypot(*wa.T).max(), np.hypot(*wb.T).max())
        gap = float(np.abs(wa - wb).max())
        if not gap <= self.rtol * scale:
            self.fail(f"{rel}: re,im differ by {gap:.3g}, more than rtol "
                      f"{self.rtol:g} times the largest |w| {scale:.6g}")
        elif gap:
            print(f"{rel}: re,im differ by at most {gap:.3g}, "
                  f"{gap / scale:.3g} of the largest |w|")

    def compare_json(self, rel: str) -> None:
        a = json.loads((self.a / rel).read_text())
        b = json.loads((self.b / rel).read_text())
        self._walk(rel, "", a, b)

    def _walk(self, rel: str, where: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.fail(f"{rel}{where}: keys differ")
                return
            for k in a:
                self._walk(rel, f"{where}.{k}", a[k], b[k])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.fail(f"{rel}{where}: lengths differ")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self._walk(rel, f"{where}[{i}]", x, y)
        elif where.endswith(".argmax_in_mask") and a != b:
            self.flip(rel, where, a, b)
        elif (type(a) in (int, float) and type(b) in (int, float)
              and _close(a, b, self.rtol)):
            pass
        elif a != b or type(a) is not type(b):
            self.fail(f"{rel}{where}: {a!r} against {b!r}")

    def flip(self, rel: str, where: str, a, b) -> None:
        fld = rel[:-len(".compare.json")] + ".csv"
        va, vb = _field(self.a / fld)[1], _field(self.b / fld)[1]
        ia, ib = int(np.argmax(va)), int(np.argmax(vb))
        gap_a = (va[ia] - va[ib]) / va[ia]
        gap_b = (vb[ib] - vb[ia]) / vb[ib]
        # a tie moves the argmax; a flip at the same argmax is a mask change
        tie = ia != ib and max(gap_a, gap_b) <= self.rtol
        message = (f"{rel}{where}: argmax flip {a} -> {b}, argmax "
                   f"{ia} -> {ib}, relative gap {gap_a:.3g} (A) "
                   f"{gap_b:.3g} (B)")
        if tie:
            print(message + ", a tie")
        else:
            self.fail(message)

    def pgm(self, rel: str) -> None:
        ta = (self.a / rel).read_text().split("\n", 3)
        tb = (self.b / rel).read_text().split("\n", 3)
        if ta[:3] != tb[:3]:
            self.fail(f"{rel}: PGM headers differ")
            return
        pa = np.array(ta[3].split(), dtype=int)
        pb = np.array(tb[3].split(), dtype=int)
        if pa.shape != pb.shape:
            self.fail(f"{rel}: pixel counts differ")
        elif (n := int((pa != pb).sum())):
            # run() goes in name order, so the field CSV of the same stem
            # has been judged.  The PGM is drawn from that field: over a
            # field that did not move, or failed, no pixel may move.
            csv = rel[:-len(".pgm")] + ".csv"
            failure, note = self.fields.get(csv, (None, None))
            if np.abs(pa - pb).max() == 1 and failure is None and note:
                print(f"{rel}: {n} of {len(pa)} pixels differ by one grey "
                      f"level; {csv} agrees within rtol {self.rtol:g}")
            else:
                self.fail(f"{rel}: {n} of {len(pa)} pixels differ")

    def run(self) -> int:
        fa, fb = _files(self.a), _files(self.b)
        for rel in sorted(fa ^ fb):
            self.fail(f"{rel}: only in {'A' if rel in fa else 'B'}")
        common = sorted(fa & fb)
        for rel in common:
            header = _header(self.a / rel) if rel.endswith(".csv") else b""
            if header.startswith(b"x1,"):
                self.field(rel)
            elif header == b"k,re,im\n":
                self.farfield(rel)
            elif rel.endswith(".compare.json"):
                self.compare_json(rel)
            elif rel.endswith(".pgm"):
                self.pgm(rel)
            elif (self.a / rel).read_bytes() != (self.b / rel).read_bytes():
                self.fail(f"{rel}: bytes differ")
        print(f"{len(common)} files compared, {self.failures} failing")
        return 1 if self.failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--rtol", type=float, default=1e-9)
    args = p.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            p.error(f"{root} is not a directory")
    return Comparison(args.a, args.b, args.rtol).run()


if __name__ == "__main__":
    sys.exit(main())
