"""Report dataclass, canonical JSON serialization, and payload assembly."""

import json

import numpy as np

from chaoslab.report import (
    TestReport,
    canonical_json,
    report_payload,
    version_string,
    without_meta,
    write_json,
)


def test_verdict_threshold_semantics():
    assert TestReport("x", statistic=0.5, threshold=1.0).passed
    assert TestReport("x", statistic=1.0, threshold=1.0).passed  # inclusive
    assert not TestReport("x", statistic=1.0 + 1e-12, threshold=1.0).passed


def test_summary_line_format():
    line = TestReport("my-check", statistic=0.25, threshold=1.0).summary_line()
    assert line.startswith("[PASS] my-check:")
    assert "statistic=0.25" in line and "threshold=1" in line
    bad = TestReport("my-check", statistic=2.0, threshold=1.0).summary_line()
    assert bad.startswith("[FAIL]")


def test_to_dict_isolates_meta():
    report = TestReport(
        "t",
        statistic=0.1,
        threshold=1.0,
        sample_sizes=(10,),
        seeds=(3,),
        extras={"alpha": 0.01},
        meta={"runtime_seconds": 1.23},
    )
    payload = report.to_dict()
    assert payload["meta"] == {"runtime_seconds": 1.23}
    assert payload["verdict"] == "pass"
    stripped = without_meta(payload)
    assert "meta" not in stripped
    assert stripped["extras"] == {"alpha": 0.01}


def test_canonical_json_is_sorted_and_stable():
    text = canonical_json({"b": 1, "a": {"d": 2, "c": [3, 1]}})
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {"a": {"c": [3, 1], "d": 2}, "b": 1}
    assert list(parsed) == ["a", "b"]  # keys sorted in the byte stream
    assert canonical_json({"b": 1, "a": {"d": 2, "c": [3, 1]}}) == text


def test_canonical_json_handles_numpy_types():
    payload = {
        "i": np.int64(3),
        "f": np.float64(0.5),
        "arr": np.arange(3),
        "nested": (np.float32(1.0), [np.bool_(True)]),
    }
    parsed = json.loads(canonical_json(payload))
    assert parsed == {"arr": [0, 1, 2], "f": 0.5, "i": 3, "nested": [1.0, [True]]}


def test_without_meta_recurses_into_lists():
    payload = {
        "meta": {"drop": 1},
        "reports": [
            {"name": "a", "meta": {"runtime": 2}},
            {"name": "b", "inner": {"meta": "x", "keep": 1}},
        ],
    }
    stripped = without_meta(payload)
    assert stripped == {"reports": [{"name": "a"}, {"name": "b", "inner": {"keep": 1}}]}


def test_report_payload_aggregation():
    good = TestReport("g", statistic=0.1, threshold=1.0)
    bad = TestReport("b", statistic=2.0, threshold=1.0)
    payload = report_payload([good, bad], config={"q": 2}, meta={"timestamp": "t"})
    assert payload["passed"] is False
    assert [r["name"] for r in payload["reports"]] == ["g", "b"]
    assert payload["config"] == {"q": 2}
    assert payload["version"] == version_string()
    all_good = report_payload([good], config={}, meta={})
    assert all_good["passed"] is True
    empty = report_payload([], config={}, meta={})
    assert empty["passed"] is True


def test_version_string_names_the_package():
    v = version_string()
    assert v.startswith("chaoslab-")


def test_write_json_round_trip(tmp_path):
    target = tmp_path / "out" / "report.json"
    write_json({"a": np.float64(1.5)}, target)
    assert json.loads(target.read_text()) == {"a": 1.5}


def test_payload_with_numpy_extras_serializes():
    report = TestReport(
        "t",
        statistic=np.float64(0.3),
        threshold=1.0,
        extras={"values": np.array([1.0, 2.0]), "count": np.int32(2)},
    )
    payload = report_payload([report], config={}, meta={})
    parsed = json.loads(canonical_json(payload))
    assert parsed["reports"][0]["extras"]["values"] == [1.0, 2.0]
