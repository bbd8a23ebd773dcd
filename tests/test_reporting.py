import pytest

from braidtiles.reporting import CheckRecord, Report


def test_status_validation():
    with pytest.raises(ValueError):
        CheckRecord("x", "maybe")


def test_ok_semantics():
    assert CheckRecord("a", "pass").ok
    assert not CheckRecord("a", "fail").ok
    # only a failure counts against the suite
    assert CheckRecord("a", "inconclusive").ok


def test_report_passed_and_counts():
    report = Report(
        "demo",
        (
            CheckRecord("one", "pass"),
            CheckRecord("two", "inconclusive"),
        ),
    )
    assert report.passed
    assert report.counts() == {"pass": 1, "fail": 0, "inconclusive": 1}
    failing = Report("demo", (CheckRecord("one", "fail", details="boom"),))
    assert not failing.passed


def test_json_shape():
    report = Report("demo", (CheckRecord("one", "pass", details="ok", wall_time=0.5),))
    obj = report.to_json_obj()
    assert obj["summary"]["suite"] == "demo"
    assert obj["summary"]["overall"] == "pass"
    assert obj["checks"][0] == {
        "name": "one",
        "status": "pass",
        "details": "ok",
        "wall_time": 0.5,
    }


def test_render():
    report = Report(
        "demo",
        (
            CheckRecord("alpha", "pass", details="fine"),
            CheckRecord("beta", "fail", details="broke"),
        ),
    )
    text = report.render()
    assert "PASS" in text and "FAIL" in text
    assert "alpha" in text and "broke" in text
    quiet = report.render(quiet=True)
    assert "alpha" not in quiet
    assert "fail" in quiet
