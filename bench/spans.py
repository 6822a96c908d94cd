"""In-memory span recorder that traces msimg from outside the package.

`Recorder.install` replaces module attributes (the names callers look up)
with wrappers, so calls made through a module -- including the ones `cli`
makes through `imaging`, `indicator`, ... -- are caught without any tracing
code in the package.  A span is recorded only where a call crosses into a
layer from outside it: a wrapped function called by code of its own module
runs unrecorded.  Counter hooks run on every call, recorded or not, and see
the call's arguments and result.

Spans live in memory and are written out once, by `dump`, when a run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time

# Modules whose public functions are wrapped, with the layer name used for
# spans.  `cli` contributes only its commands and config loader.
LAYERS = ("forward", "spectral", "indicator", "imaging", "trajectory")
CLI_NAMES = ("load_config", "cmd_synth", "cmd_classify", "cmd_image",
             "cmd_compare")
# Per-sample helpers that division_points and the extremum search call
# thousands of times per query; even an unrecorded wrapper adds ~10 %
# to those queries, so they stay unwrapped.
UNWRAPPED = {"trajectory": {"h_value", "h_values", "h_derivative",
                            "eval_position", "eval_velocity"}}


class Span:
    """One timed call: perf_counter start/end, parent span id, counters."""

    __slots__ = ("id", "parent", "name", "layer", "start", "end", "counts")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.start = start
        self.end = None
        self.counts = None

    def as_dict(self) -> dict:
        d = {"id": self.id, "parent": self.parent, "name": self.name,
             "start": self.start, "end": self.end}
        if self.counts:
            d["counts"] = self.counts
        return d

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one run, dumped together under the run's `run_id`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []
        self._home: list = []   # span stack of the thread that installed

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> Span:
        st = self._stack()
        # a worker thread (cli image --threads 2) starts with an empty
        # stack; its spans belong under the span its creator has open
        top = st[-1] if st else (self._home[-1] if self._home else None)
        span = Span(next(self._ids), top.id if top else None, name,
                    time.perf_counter())
        st.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span (workload operations, probe steps)."""
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, key: str, n: float = 1) -> None:
        """Add to a run-wide counter and to the innermost open span's."""
        self.counts[key] = self.counts.get(key, 0) + n
        st = self._stack()
        if st:
            c = st[-1].counts
            if c is None:
                c = st[-1].counts = {}
            c[key] = c.get(key, 0) + n

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, layer: str, name: str, counter=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = rec._stack()
            if st and st[-1].layer == layer:
                out = fn(*args, **kwargs)
            else:
                span = rec.open(f"{layer}.{name}")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.close(span)
            if counter is not None:
                counter(rec, args, out)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, counters: dict | None = None) -> None:
        """Wrap the public functions of every msimg layer and the CLI."""
        import msimg.cli as cli
        import msimg.imaging as imaging
        counters = counters or {}
        self._home = self._stack()
        for layer in LAYERS:
            mod = importlib.import_module(f"msimg.{layer}")
            for name, fn in vars(mod).copy().items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or name in UNWRAPPED.get(layer, ())):
                    continue
                self._patch(mod, name, self.wrap(
                    fn, layer, name, counters.get(f"{layer}.{name}")))
        # a method, but the lattice build every mask/CSV helper calls
        self._patch(imaging.SearchGrid, "points", self.wrap(
            imaging.SearchGrid.points, "imaging", "grid_points"))
        for name in CLI_NAMES:
            self._patch(cli, name, self.wrap(getattr(cli, name), "cli", name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- output -----------------------------------------------------------
    def extend(self, dumped: dict, parent: Span | None = None) -> None:
        """Append a trace that another process wrote with `dump`.

        Span ids are re-based past this recorder's; the other process's
        root spans become children of `parent`.
        """
        base = next(self._ids)
        top = base
        for d in dumped["spans"]:
            s = Span(d["id"] + base,
                     d["parent"] + base if d["parent"] else
                     (parent.id if parent else None),
                     d["name"], d["start"])
            s.end = d["end"]
            s.counts = d.get("counts")
            self.spans.append(s)
            top = max(top, s.id)
        for k, v in dumped["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v
        self._ids = itertools.count(top + 1)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id,
                       "counts": self.counts,
                       "spans": [s.as_dict() for s in self.spans]}, f)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover."""
    ivs = sorted((max(c.start, span.start), min(c.end, span.end))
                 for c in children)
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.duration - covered


def descendants(spans: list[Span], root: Span) -> list[Span]:
    """Spans below `root` (by parent links), in recording order."""
    below = {root.id}
    out = []
    # children always close before their parent, so they precede it in
    # `spans`; walk backwards from the root to collect the whole subtree
    for s in reversed(spans):
        if s.parent in below and s.id not in below:
            below.add(s.id)
            out.append(s)
    out.reverse()
    return out
