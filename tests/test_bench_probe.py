"""The traced benchmark's layer probe runs on the current package.

`bench/layers.py probe` reads per-layer numbers off the spans of calls the
CLI makes through its modules (`imaging.mask_strip` under
`cli.cmd_compare`, ...) and takes the median of each, so a refactor that
stops making one of those calls breaks the traced benchmark with an error,
not a failed test.  This runs the probe in process, as a traced run does,
with the bench modules imported from their directory and left unedited.
"""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_probe_runs_with_no_failed_operation(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    # the probe times `import msimg` in fresh interpreters
    src = str(ROOT / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    import layers
    import oracles
    import spans

    rec, tally = spans.Recorder("probe-test"), oracles.Tally()
    rec.install(layers._counters())
    try:
        metrics = layers.probe(rec, tally, str(tmp_path), 1)
    finally:
        rec.uninstall()
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages
    assert metrics["imaging.mask_strip_ms"][0] > 0
