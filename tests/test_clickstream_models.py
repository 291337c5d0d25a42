"""Tests for the clickstream data model."""

import json

import pytest

from repro.clickstream.io import read_jsonl
from repro.clickstream.models import Clickstream, Session, sessions_from_dicts
from repro.errors import ClickstreamFormatError


class TestSession:
    def test_alternatives_excludes_purchase(self):
        session = Session("s1", clicks=("a", "b", "a", "p"), purchase="p")
        assert session.alternatives() == ("a", "b")

    def test_alternatives_deduplicates_in_order(self):
        session = Session("s1", clicks=("b", "a", "b", "a"), purchase="p")
        assert session.alternatives() == ("b", "a")

    def test_click_on_a_nan_purchase_skipped(self):
        nan = float("nan")  # one object: nan != nan, but it is itself
        session = Session("s1", clicks=(nan, "b", nan), purchase=nan)
        assert session.alternatives() == ("b",)

    def test_browse_only(self):
        session = Session("s1", clicks=("a",))
        assert not session.has_purchase
        assert session.alternatives() == ("a",)

    def test_clicks_coerced_to_tuple(self):
        session = Session("s1", clicks=["a", "b"], purchase=None)
        assert session.clicks == ("a", "b")

    def test_frozen(self):
        session = Session("s1", clicks=("a",))
        with pytest.raises(AttributeError):
            session.purchase = "x"


class TestClickstream:
    def test_counts(self):
        stream = Clickstream(
            [
                Session("s1", ("a",), purchase="a"),
                Session("s2", ("b",)),
                Session("s3", (), purchase="c"),
            ]
        )
        assert stream.n_sessions == 3
        assert stream.n_purchases == 2
        assert len(stream) == 3

    def test_duplicate_session_id_rejected(self):
        with pytest.raises(ClickstreamFormatError, match="duplicate"):
            Clickstream([Session("s", ()), Session("s", ())])

    def test_purchasing_sessions_filter(self):
        stream = Clickstream(
            [Session("s1", (), purchase="a"), Session("s2", ("b",))]
        )
        filtered = stream.purchasing_sessions()
        assert filtered.n_sessions == 1
        assert filtered[0].session_id == "s1"

    def test_items_first_seen_order(self):
        stream = Clickstream(
            [
                Session("s1", ("x", "y"), purchase="z"),
                Session("s2", ("y", "w"), purchase="x"),
            ]
        )
        assert stream.items() == ["x", "y", "z", "w"]

    def test_purchase_counts(self):
        stream = Clickstream(
            [
                Session("s1", (), purchase="a"),
                Session("s2", (), purchase="a"),
                Session("s3", (), purchase="b"),
            ]
        )
        assert stream.purchase_counts() == {"a": 2, "b": 1}

    def test_stats(self):
        stream = Clickstream([Session("s1", ("x",), purchase="y")])
        assert stream.stats() == {"sessions": 1, "purchases": 1, "items": 2}

    def test_extend(self):
        a = Clickstream([Session("s1", ())])
        b = Clickstream([Session("s2", ())])
        combined = a.extend(b)
        assert combined.n_sessions == 2
        assert a.n_sessions == 1  # originals untouched

    def test_iteration_and_indexing(self):
        sessions = [Session("s1", ()), Session("s2", ())]
        stream = Clickstream(sessions)
        assert list(stream) == sessions
        assert stream[1].session_id == "s2"

    def test_repr(self):
        stream = Clickstream([Session("s1", (), purchase="a")])
        assert "sessions=1" in repr(stream)


class TestPurchaseEncoding:
    @pytest.fixture
    def stream(self):
        return Clickstream(
            [
                Session("s1", ("x", "y", "x", "p"), purchase="p"),
                Session("s2", ("q", "r")),  # browse-only: no row
                Session("s3", (), purchase="x"),
                Session("s4", ("y", 7, "p"), purchase=7),
                Session("s5", ("p", "y"), purchase="x"),
            ]
        )

    def test_codes_in_first_seen_order(self, stream):
        encoding = stream.encoding()
        assert encoding.items == ("p", "x", "y", 7)
        assert encoding.purchase.tolist() == [0, 1, 3, 1]
        assert encoding.offsets.tolist() == [0, 2, 2, 4, 6]
        assert encoding.alternatives.tolist() == [1, 2, 2, 0, 0, 2]
        assert encoding.n_purchases == 4
        assert encoding.lengths().tolist() == [2, 0, 2, 2]
        assert encoding.purchase_counts().tolist() == [1, 2, 0, 1]
        assert encoding.first_purchase_order().tolist() == [0, 1, 3]

    def test_rows_decode_to_session_alternatives(self, stream):
        encoding = stream.encoding()
        rows = [session for session in stream if session.has_purchase]
        for row, session in enumerate(rows):
            assert encoding.items[encoding.purchase[row]] == session.purchase
            begin, end = encoding.offsets[row], encoding.offsets[row + 1]
            assert tuple(
                encoding.items[code]
                for code in encoding.alternatives[begin:end]
            ) == session.alternatives()

    def test_pairs(self, stream):
        pairs = stream.encoding().pairs()
        # (source, target) sorted by code: p->x, p->y, x->p, x->y, 7->p, 7->y
        assert pairs.source.tolist() == [0, 0, 1, 1, 3, 3]
        assert pairs.target.tolist() == [1, 2, 0, 2, 0, 2]
        assert pairs.support.tolist() == [1, 1, 1, 1, 1, 1]
        assert pairs.first.tolist() == [0, 1, 4, 5, 3, 2]
        assert pairs.entry_pair.tolist() == [0, 1, 5, 4, 2, 3]
        assert stream.encoding().pairs() is pairs

    def test_built_once_without_sessions(self, stream, monkeypatch, encodings):
        def no_sessions(*args, **kwargs):
            raise AssertionError("the encoding built a Session")

        monkeypatch.setattr(Session, "__init__", no_sessions)
        monkeypatch.setattr(Session, "alternatives", no_sessions)
        encoding = stream.encoding()
        assert stream.encoding() is encoding
        assert len(encodings) == 1

    def test_arrays_are_readonly(self, stream):
        encoding = stream.encoding()
        for array in (encoding.purchase, *encoding.pairs()):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_empty_and_browse_only(self):
        for stream in (Clickstream([]), Clickstream([Session("s", ("a",))])):
            encoding = stream.encoding()
            assert encoding.n_purchases == 0
            assert encoding.pairs().support.size == 0


class TestSessionsFromDicts:
    def test_builds_sessions(self):
        stream = sessions_from_dicts(
            [{"clicks": ["a"], "purchase": "b"}, {"clicks": []}]
        )
        assert stream.n_sessions == 2
        assert stream[0].purchase == "b"
        assert stream[1].purchase is None

    def test_auto_numbered_ids(self):
        stream = sessions_from_dicts([{"clicks": []}, {"clicks": []}])
        assert [s.session_id for s in stream] == [0, 1]

    def test_explicit_ids_kept(self):
        stream = sessions_from_dicts([{"session_id": "x", "clicks": []}])
        assert stream[0].session_id == "x"

    def test_missing_clicks_rejected(self):
        with pytest.raises(ClickstreamFormatError, match="clicks") as caught:
            sessions_from_dicts([{"purchase": "a"}])
        assert caught.value.reason == "missing-fields"

    def test_string_clicks_rejected(self):
        # tuple("abc") would silently explode into per-character items.
        with pytest.raises(ClickstreamFormatError) as caught:
            sessions_from_dicts([{"clicks": "abc", "purchase": "x"}])
        assert str(caught.value) == (
            "session record 0: 'clicks' must be a list of item ids, got str"
        )
        assert caught.value.reason == "clicks-not-a-list"

    def test_unhashable_purchase_rejected(self):
        records = [
            {"clicks": ["a"], "purchase": "b"},
            {"clicks": [], "purchase": {"a": 1}},
        ]
        with pytest.raises(ClickstreamFormatError) as caught:
            sessions_from_dicts(records)
        assert str(caught.value) == (
            "session record 1: 'purchase' must be a scalar item id or "
            "null, got dict"
        )
        assert caught.value.reason == "non-scalar-purchase"

    @pytest.mark.parametrize(
        "record",
        [
            {"session_id": "s", "clicks": "abc"},
            {"session_id": "s", "clicks": [["a"]]},
            {"session_id": ["s"], "clicks": []},
            {"session_id": "s", "clicks": [], "purchase": [1]},
        ],
    )
    def test_same_checks_as_read_jsonl(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ClickstreamFormatError) as from_file:
            read_jsonl(path)
        with pytest.raises(ClickstreamFormatError) as from_dicts:
            sessions_from_dicts([record])
        assert from_dicts.value.reason == from_file.value.reason
        assert str(from_dicts.value).removeprefix("session record 0: ") == (
            str(from_file.value).removeprefix(f"{path}:1: ")
        )
