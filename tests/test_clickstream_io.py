"""Tests for clickstream serialization (JSONL and YooChoose CSV)."""

import json

import pytest

from repro.adaptation.online import OnlineAdaptationEngine
from repro.cli import main
from repro.clickstream import io as clickstream_io
from repro.clickstream.io import (
    read_jsonl,
    read_yoochoose,
    write_jsonl,
    write_yoochoose,
)
from repro.clickstream.models import Clickstream, Session
from repro.errors import ClickstreamFormatError
from repro.pipeline import InventoryReducer
from repro.workloads.datasets import build_dataset


@pytest.fixture
def stream() -> Clickstream:
    return Clickstream(
        [
            Session("s1", ("a", "b"), purchase="c"),
            Session("s2", ("a",)),
            Session("s3", (), purchase="a"),
        ]
    )


class TestJsonl:
    def test_roundtrip(self, stream, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_jsonl(stream, path)
        loaded = read_jsonl(path)
        assert loaded.n_sessions == 3
        assert loaded[0].clicks == ("a", "b")
        assert loaded[0].purchase == "c"
        assert loaded[1].purchase is None

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            '{"session_id": "s1", "clicks": ["a"]}\n\n'
            '{"session_id": "s2", "clicks": []}\n'
        )
        assert read_jsonl(path).n_sessions == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"session_id": "s1", "clicks": []}\nnot json\n')
        with pytest.raises(ClickstreamFormatError, match=":2"):
            read_jsonl(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"clicks": []}\n')
        with pytest.raises(ClickstreamFormatError, match="session_id"):
            read_jsonl(path)

    def test_string_clicks_rejected(self, tmp_path):
        # tuple("abc") would silently explode into per-character items.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"session_id": "s1", "clicks": "abc"}\n')
        with pytest.raises(ClickstreamFormatError, match=r":1.*list"):
            read_jsonl(path)

    def test_non_scalar_click_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"session_id": "s1", "clicks": [["a", "b"]]}\n'
        )
        with pytest.raises(ClickstreamFormatError, match=r":1.*scalar"):
            read_jsonl(path)

    def test_non_scalar_purchase_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"session_id": "s1", "clicks": [], "purchase": {"id": 1}}\n'
        )
        with pytest.raises(ClickstreamFormatError, match="purchase"):
            read_jsonl(path)

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["not", "an", "object"]\n')
        with pytest.raises(ClickstreamFormatError, match="object"):
            read_jsonl(path)


class TestJsonlDecoding:
    """Rejected lines keep the ``json.loads`` message and reason tag."""

    GOOD = '{"session_id": "s1", "clicks": ["a"], "purchase": "b"}'

    @pytest.mark.parametrize(
        "line, reason",
        [
            (GOOD + " trailing", "invalid-json"),
            (GOOD + GOOD, "invalid-json"),  # two objects on one line
            ("\ufeff" + GOOD, "invalid-json"),  # UTF-8 BOM
            ('["s1", ["a"], "b"]', "not-an-object"),
            ('{"session_id": "s1", "clicks": ["a"]', "invalid-json"),
            ("\x00garbled\x00" + GOOD[:8], "invalid-json"),
        ],
    )
    def test_rejection_message_unchanged(self, tmp_path, line, reason):
        path = tmp_path / "bad.jsonl"
        path.write_text(self.GOOD + "\n" + line + "\n", encoding="utf-8")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            detail = f"invalid JSON: {exc}"
        else:
            detail = (
                f"expected a JSON object per line, got "
                f"{type(record).__name__}"
            )
        with pytest.raises(ClickstreamFormatError) as caught:
            read_jsonl(path)
        assert str(caught.value) == f"{path}:2: {detail}"
        assert caught.value.reason == reason
        lenient = read_jsonl(path, on_error="quarantine", error_budget=None)
        assert lenient.quarantine.reasons == {reason: 1}
        assert lenient.quarantine.samples == [f"{path}:2: {detail}"]


class TestLenientJsonl:
    GOOD = '{"session_id": "s%d", "clicks": ["a"], "purchase": "a"}\n'

    def _mixed_file(self, tmp_path, n_good=20, bad_lines=()):
        path = tmp_path / "mixed.jsonl"
        lines = [self.GOOD % i for i in range(n_good)]
        for position, bad in bad_lines:
            lines.insert(position, bad)
        path.write_text("".join(lines))
        return path

    def test_skip_drops_bad_records(self, tmp_path):
        path = self._mixed_file(
            tmp_path, bad_lines=[(3, "not json\n")]
        )
        loaded = read_jsonl(path, on_error="skip")
        assert loaded.n_sessions == 20
        assert loaded.quarantine.quarantined == 1
        assert loaded.quarantine.reasons == {"invalid-json": 1}

    def test_quarantine_keeps_samples(self, tmp_path):
        path = self._mixed_file(
            tmp_path,
            bad_lines=[
                (0, "not json\n"),
                (5, '{"session_id": "x", "clicks": "oops"}\n'),
            ],
        )
        loaded = read_jsonl(path, on_error="quarantine", error_budget=0.5)
        report = loaded.quarantine
        assert report.quarantined == 2
        assert report.reasons == {
            "invalid-json": 1, "clicks-not-a-list": 1,
        }
        assert len(report.samples) == 2
        assert any(":1:" in sample for sample in report.samples)
        assert "quarantined 2/22" in report.summary()

    def test_quarantine_caps_samples_and_counts_suppressed(self, tmp_path):
        path = self._mixed_file(
            tmp_path, bad_lines=[(i, "not json\n") for i in range(8)]
        )
        loaded = read_jsonl(path, on_error="quarantine", error_budget=0.5)
        report = loaded.quarantine
        assert report.quarantined == 8
        assert len(report.samples) == 5  # retention cap
        assert report.suppressed == 3
        assert "... 3 more suppressed" in report.summary()
        assert report.to_dict()["suppressed"] == 3

    def test_skip_mode_retains_no_samples(self, tmp_path):
        path = self._mixed_file(
            tmp_path, bad_lines=[(i, "not json\n") for i in range(8)]
        )
        loaded = read_jsonl(path, on_error="skip", error_budget=0.5)
        report = loaded.quarantine
        assert report.quarantined == 8
        assert report.samples == []
        assert report.suppressed == 0

    def test_error_budget_aborts(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        lines = [self.GOOD % i for i in range(10)]
        lines += ["garbage\n"] * 30
        path.write_text("".join(lines))
        with pytest.raises(ClickstreamFormatError, match="error budget"):
            read_jsonl(path, on_error="skip", error_budget=0.05)

    def test_error_budget_final_check(self, tmp_path):
        # Too few records for the mid-stream check: the final check
        # still fires.
        path = tmp_path / "tiny.jsonl"
        path.write_text(self.GOOD % 0 + "garbage\n")
        with pytest.raises(ClickstreamFormatError, match="error budget"):
            read_jsonl(path, on_error="skip", error_budget=0.1)

    def test_unlimited_budget(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(self.GOOD % 0 + "garbage\n" * 50)
        loaded = read_jsonl(path, on_error="skip", error_budget=None)
        assert loaded.n_sessions == 1
        assert loaded.quarantine.quarantined == 50

    def test_strict_mode_has_no_report(self, tmp_path):
        path = self._mixed_file(tmp_path)
        loaded = read_jsonl(path)
        assert loaded.quarantine is None

    def test_unknown_policy_rejected(self, tmp_path):
        path = self._mixed_file(tmp_path)
        with pytest.raises(ClickstreamFormatError, match="on_error"):
            read_jsonl(path, on_error="ignore")

    def test_report_to_dict(self, tmp_path):
        path = self._mixed_file(tmp_path, bad_lines=[(2, "junk\n")])
        loaded = read_jsonl(path, on_error="quarantine")
        payload = loaded.quarantine.to_dict()
        assert payload["quarantined"] == 1
        assert payload["total"] == 21
        assert payload["reasons"] == {"invalid-json": 1}


class TestNonJsonConstants:
    """``NaN`` and ``Infinity`` are not JSON; Python's decoder accepts them."""

    LINES = (
        '{"session_id": "s1", "clicks": [NaN, "b"], "purchase": NaN}\n'
        '{"session_id": "s2", "clicks": ["a"], "purchase": "b"}\n'
        '{"session_id": "s3", "clicks": [], "purchase": Infinity}\n'
    )

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_rejected_as_invalid_json(self, tmp_path, constant):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"session_id": "s1", "clicks": ["a"], "purchase": "a"}\n'
            f'{{"session_id": "s2", "clicks": [{constant}], "purchase": "a"}}\n'
        )
        with pytest.raises(ClickstreamFormatError) as caught:
            read_jsonl(path)
        assert str(caught.value) == (
            f"{path}:2: invalid JSON: {constant} is not a JSON value"
        )
        assert caught.value.reason == "invalid-json"

    def test_fallback_decode_rejects_too(self, tmp_path, monkeypatch):
        # Lines that raw_decode refuses are decoded again by json.loads.
        def refuse(line):
            raise ValueError("refused")

        monkeypatch.setattr(clickstream_io, "_raw_decode", refuse)
        path = tmp_path / "bad.jsonl"
        path.write_text(self.LINES)
        loaded = read_jsonl(path, on_error="skip", error_budget=None)
        assert [s.session_id for s in loaded] == ["s2"]
        assert loaded.quarantine.reasons == {"invalid-json": 2}

    def test_no_nan_self_edge(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(self.LINES)
        loaded = read_jsonl(path, on_error="quarantine", error_budget=None)
        assert loaded.quarantine.reasons == {"invalid-json": 2}
        with pytest.warns(RuntimeWarning):  # k clamped to the one item
            report = InventoryReducer(k=2, variant="independent").run(loaded)
        assert list(report.retained) == ["b"]
        assert report.graph.n_edges == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_write_refuses_non_finite_ids(self, tmp_path, value):
        stream = Clickstream([Session("s1", (value,), purchase="a")])
        with pytest.raises(ClickstreamFormatError, match="'s1'"):
            write_jsonl(stream, tmp_path / "out.jsonl")


class TestBatchPathBuildsNoSession:
    """The batch consumers read a stream's columns, never its sessions."""

    @pytest.fixture
    def path(self, tmp_path, monkeypatch):
        stream, _model = build_dataset("PE", scale=0.002, seed=5)
        path = tmp_path / "pe.jsonl"
        write_jsonl(stream, path)

        def refuse(*args, **kwargs):
            raise AssertionError("a Session was built")

        monkeypatch.setattr(Session, "__init__", refuse)
        return path

    def test_stats(self, path, capsys):
        assert main(["stats", "--clickstream", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["sessions"] > 0

    def test_build_graph_auto(self, path, tmp_path):
        assert main([
            "build-graph", str(path), "--variant", "auto",
            "-o", str(tmp_path / "graph.json"),
        ]) == 0

    def test_pipeline_run(self, path):
        report = InventoryReducer(k=10, variant="auto").run(read_jsonl(path))
        assert len(report.retained) == 10

    def test_observe_all(self, path):
        engine = OnlineAdaptationEngine()
        engine.observe_all(read_jsonl(path))
        assert engine.snapshot().n_items > 0


class TestYoochoose:
    def test_roundtrip(self, stream, tmp_path):
        clicks = tmp_path / "clicks.dat"
        buys = tmp_path / "buys.dat"
        write_yoochoose(stream, clicks, buys)
        loaded = read_yoochoose(clicks, buys)
        by_id = {s.session_id: s for s in loaded}
        # Session ids become strings in CSV.
        assert by_id["s1"].clicks == ("a", "b")
        assert by_id["s1"].purchase == "c"
        assert by_id["s2"].purchase is None
        assert by_id["s3"].purchase == "a"  # purchase without click rows

    def test_yoochoose_native_format(self, tmp_path):
        # The real dataset's column layout.
        clicks = tmp_path / "yoochoose-clicks.dat"
        buys = tmp_path / "yoochoose-buys.dat"
        clicks.write_text(
            "1,2014-04-07T10:51:09.277Z,214536502,0\n"
            "1,2014-04-07T10:54:09.868Z,214536500,0\n"
            "2,2014-04-07T13:56:37.614Z,214662742,0\n"
        )
        buys.write_text(
            "1,2014-04-07T10:55:00.000Z,214536500,12462,1\n"
        )
        loaded = read_yoochoose(clicks, buys)
        assert loaded.n_sessions == 2
        assert loaded.n_purchases == 1
        first = [s for s in loaded if s.session_id == "1"][0]
        assert first.purchase == "214536500"
        assert first.alternatives() == ("214536502",)

    def test_multiple_buys_keep_first(self, tmp_path):
        clicks = tmp_path / "clicks.dat"
        buys = tmp_path / "buys.dat"
        clicks.write_text("1,t,100,0\n")
        buys.write_text("1,t,100,0,1\n1,t,200,0,1\n")
        loaded = read_yoochoose(clicks, buys)
        assert loaded[0].purchase == "100"

    def test_max_sessions_truncates(self, stream, tmp_path):
        clicks = tmp_path / "clicks.dat"
        buys = tmp_path / "buys.dat"
        write_yoochoose(stream, clicks, buys)
        loaded = read_yoochoose(clicks, buys, max_sessions=1)
        assert loaded.n_sessions == 1

    def test_short_rows_rejected(self, tmp_path):
        clicks = tmp_path / "clicks.dat"
        buys = tmp_path / "buys.dat"
        clicks.write_text("1,t\n")
        buys.write_text("")
        with pytest.raises(ClickstreamFormatError, match="columns"):
            read_yoochoose(clicks, buys)

    def test_truncated_buys_rows_rejected(self, tmp_path):
        # The buys format has 5 columns; a 3-4 column row is a
        # truncated export, not a purchase.
        clicks = tmp_path / "clicks.dat"
        buys = tmp_path / "buys.dat"
        clicks.write_text("1,t,100,0\n")
        buys.write_text("1,t,100\n")
        with pytest.raises(ClickstreamFormatError, match="5 columns"):
            read_yoochoose(clicks, buys)

    def test_truncated_buys_quarantined_not_purchased(self, tmp_path):
        clicks = tmp_path / "clicks.dat"
        buys = tmp_path / "buys.dat"
        clicks.write_text("1,t,100,0\n2,t,200,0\n")
        buys.write_text("1,t,100,0\n2,t,200,0,1\n")  # first is 4-col
        loaded = read_yoochoose(
            clicks, buys, on_error="quarantine", error_budget=0.5
        )
        by_id = {s.session_id: s for s in loaded}
        assert by_id["1"].purchase is None  # truncated row: no purchase
        assert by_id["2"].purchase == "200"
        report = loaded.quarantine
        assert report.reasons == {"buys-short-row": 1}
        assert any("buys" in sample for sample in report.samples)

    def test_lenient_short_clicks_row(self, tmp_path):
        clicks = tmp_path / "clicks.dat"
        buys = tmp_path / "buys.dat"
        clicks.write_text("1,t\n2,t,200,0\n")
        buys.write_text("")
        loaded = read_yoochoose(
            clicks, buys, on_error="skip", error_budget=0.9
        )
        assert loaded.n_sessions == 1
        assert loaded.quarantine.reasons == {"clicks-short-row": 1}
