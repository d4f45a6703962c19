"""scripts/perf_trend.py: extraction, gating filters, baseline check."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "scripts", "perf_trend.py")


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location("perf_trend", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bench_json(path, name="test_x", extra_info=None, mean=1.5):
    doc = {"benchmarks": [{
        "name": name,
        "stats": {"mean": mean},
        "extra_info": extra_info or {},
    }]}
    path.write_text(json.dumps(doc))
    return str(path)


EXTRA = {
    "workload": "fio",
    "write_mbps": 812.5,
    "wall_s": 3.2,
    "obs": {"kernel_mode": "fast", "sample_rate": 0.01},
    "metrics": [
        {"kind": "arkfs", "metrics": {"counters": {
            "journal.commits": 17,
            "cache.flushes": 4,
            "client0.journal.commits": 9,
            "ceph-client7.cache.flushes": 2,
            "obs.root_ops": 2069,
        }}},
    ],
}


class TestExtract:
    def test_flattens_scalars_and_metric_counters(self, trend, tmp_path):
        out = trend.extract(_bench_json(tmp_path / "b.json",
                                        extra_info=dict(EXTRA)))
        b = out["test_x"]
        assert b["wall_s"] == 1.5
        assert b["obs"] == {"kernel_mode": "fast", "sample_rate": 0.01}
        s = b["scalars"]
        assert s["write_mbps"] == 812.5
        assert s["metrics.arkfs.journal.commits"] == 17
        assert s["metrics.arkfs.client0.journal.commits"] == 9
        assert "obs" not in s  # header popped, not flattened


class TestGating:
    def test_gated_keeps_counters_drops_nondet_and_per_instance(self, trend):
        scalars = {
            "metrics.arkfs.journal.commits": 17,
            "metrics.arkfs.cache.flushes": 4,
            "metrics.arkfs.obs.root_ops": 2069,
            "metrics.arkfs.client0.journal.commits": 9,
            "metrics.marfs.ceph-client7.cache.flushes": 2,
            "write_mbps": 812.5,      # not a gated pattern
            "wall_s": 3.2,            # nondeterministic
            "speedup": 4.4,           # nondeterministic
        }
        gated = trend._gated(scalars)
        assert gated == {
            "metrics.arkfs.journal.commits": 17,
            "metrics.arkfs.cache.flushes": 4,
            "metrics.arkfs.obs.root_ops": 2069,
        }


class TestCheck:
    def test_update_then_check_roundtrip(self, trend, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = str(tmp_path / "baseline.json")
        assert trend.update([res], base) == 0
        doc = json.loads(open(base).read())
        assert doc["scale"] == "small"
        exact = doc["benchmarks"]["test_x"]["exact"]
        assert "metrics.arkfs.journal.commits" in exact
        assert not any("client0" in k for k in exact)
        assert trend.check([res], base, strict_wall=True) == 0

    def test_counter_mismatch_fails(self, trend, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = str(tmp_path / "baseline.json")
        trend.update([res], base)
        info = dict(EXTRA)
        info["metrics"] = [{"kind": "arkfs", "metrics": {"counters": {
            "journal.commits": 18}}}]
        res2 = _bench_json(tmp_path / "b2.json", extra_info=info)
        assert trend.check([res2], base, strict_wall=False) == 1

    def test_scale_mismatch_skips_exact_gates(self, trend, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = str(tmp_path / "baseline.json")
        trend.update([res], base)
        monkeypatch.setenv("REPRO_SCALE", "default")
        info = dict(EXTRA)
        info["metrics"] = [{"kind": "arkfs", "metrics": {"counters": {
            "journal.commits": 999}}}]
        res2 = _bench_json(tmp_path / "b2.json", extra_info=info)
        assert trend.check([res2], base, strict_wall=False) == 0

    def test_wall_drift_advisory_unless_strict(self, trend, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA),
                          mean=1.0)
        base = str(tmp_path / "baseline.json")
        trend.update([res], base)
        res2 = _bench_json(tmp_path / "b2.json", extra_info=dict(EXTRA),
                           mean=3.0)  # 3x the reference wall
        assert trend.check([res2], base, strict_wall=False) == 0
        assert trend.check([res2], base, strict_wall=True) == 1


    def test_failed_update_leaves_old_baseline(self, trend, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = tmp_path / "baseline.json"
        trend.update([res], str(base))
        before = base.read_bytes()

        def torn_dump(obj, fp, **kwargs):
            fp.write('{"benchmarks": {')
            raise OSError("disk full")

        monkeypatch.setattr(trend.json, "dump", torn_dump)
        with pytest.raises(OSError):
            trend.update([res], str(base))
        assert base.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["b.json", "baseline.json"]


class TestAppend:
    def test_append_writes_jsonl_without_per_instance(self, trend, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        out = str(tmp_path / "trend.jsonl")
        assert trend.append([res], out, "unit@test") == 0
        rows = [json.loads(l) for l in open(out)]
        assert len(rows) == 1
        row = rows[0]
        assert row["label"] == "unit@test"
        assert row["scale"] == "small"
        b = row["benchmarks"]["test_x"]
        assert b["obs"]["sample_rate"] == 0.01
        assert "metrics.arkfs.journal.commits" in b["scalars"]
        assert not any("client0" in k or "ceph-client7" in k
                       for k in b["scalars"])
