"""Timeline export and sparklines."""

import json

from repro.metrics.recorder import OpEvent, OpKind, Recorder
from repro.metrics.timeline import export_csv, export_json, sparkline
from repro.util.units import MiB


class TestTimelineExport:
    def _recorder(self):
        r = Recorder(process_id=2)
        r.record(OpEvent(OpKind.CHECKPOINT, 0, 0.0, 0.1, 128 * MiB))
        r.record(OpEvent(OpKind.RESTORE, 0, 1.0, 0.2, 128 * MiB, prefetch_distance=3))
        return r

    def test_csv_export(self, tmp_path):
        path = str(tmp_path / "tl.csv")
        assert export_csv(self._recorder(), path) == 2
        lines = open(path).read().splitlines()
        assert lines[0].startswith("kind,")
        assert len(lines) == 3

    def test_json_export(self, tmp_path):
        path = str(tmp_path / "tl.json")
        assert export_json(self._recorder(), path) == 2
        payload = json.loads(open(path).read())
        assert payload["process_id"] == 2
        assert payload["events"][1]["prefetch_distance"] == 3

    def test_events_sorted_by_start(self, tmp_path):
        r = Recorder()
        r.record(OpEvent(OpKind.RESTORE, 1, 5.0, 0.1, 1))
        r.record(OpEvent(OpKind.RESTORE, 0, 1.0, 0.1, 1))
        path = str(tmp_path / "tl.json")
        export_json(r, path)
        events = json.loads(open(path).read())["events"]
        assert [e["ckpt_id"] for e in events] == [0, 1]


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series(self):
        out = sparkline([(i, 5.0) for i in range(4)])
        assert out == "▁▁▁▁"

    def test_ramp_uses_full_range(self):
        out = sparkline([(i, float(i)) for i in range(8)])
        assert out[0] == "▁" and out[-1] == "█"

    def test_downsamples_to_width(self):
        out = sparkline([(i, float(i)) for i in range(1000)], width=40)
        assert len(out) == 40
