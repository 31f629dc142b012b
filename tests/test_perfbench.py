"""The benchmark's fdd trace replay still runs against the package.

``perfbench --trace 1`` replays the fdd driver's task loop through the
record constructor, ``type1_q1``, ``structured_q`` and the baselines with
positional stream counts; this keeps a change under ``src/`` from breaking
it unseen.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_fdd_replay_writes_the_drivers_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans, workloads = (importlib.import_module(name) for name in ("spans", "workloads"))

    class TwoSamples(workloads.FddWorkload):
        SAMPLES = 2
        tasks_per_unit = SAMPLES * len(workloads.FddWorkload.STREAMS)

    wl = TwoSamples(seed=3, workdir=tmp_path, nproc=1)
    wl.setup()
    unit = wl.unit(0)
    outcome = wl.check(unit, wl.call(unit))
    rec = spans.Recorder()
    with rec.capturing_warnings():
        replay = wl.replay(unit, rec)
    assert outcome.failed == {} and replay.failed == {}
    assert outcome.tasks == replay.tasks == 4
    assert len(outcome.rows) > 0 and replay.csv == outcome.csv
