import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrlab.core import (
    DistillRecord,
    DuplicateEntryError,
    ParseError,
    Qrels,
    ScoredList,
    TrainingGroup,
    parse_distill_dataset,
    parse_qrels,
    parse_run,
    write_distill_dataset,
    write_qrels,
    write_run,
)


class TestParseRun:
    def test_basic_two_lines(self):
        run = parse_run("q1 Q0 dA 1 2.5 sys\nq1 Q0 dB 2 1.0 sys")
        assert set(run) == {"q1"}
        assert run["q1"].entries == (("dA", 2.5), ("dB", 1.0))

    def test_tie_broken_by_doc_id(self):
        run = parse_run("q1 Q0 dB 1 1.0 sys\nq1 Q0 dA 2 1.0 sys")
        assert run["q1"].docs == ("dA", "dB")

    def test_ranks_in_file_ignored_and_recomputed(self):
        # File claims dB is rank 1 but dA has the higher score.
        run = parse_run("q1 Q0 dB 1 1.0 sys\nq1 Q0 dA 2 9.0 sys")
        assert run["q1"].docs == ("dA", "dB")

    def test_malformed_rank_field(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_run("q1 Q0 dA x 2.5 sys")

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_run("q1 Q0 dA 1 2.5 sys\nq1 Q0 dB 2 1.0")

    def test_bad_q0_literal(self):
        with pytest.raises(ParseError, match="Q0"):
            parse_run("q1 QX dA 1 2.5 sys")

    def test_duplicate_pair(self):
        with pytest.raises(DuplicateEntryError):
            parse_run("q1 Q0 dA 1 2.5 sys\nq1 Q0 dA 2 1.0 sys")

    def test_non_finite_score(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_run("q1 Q0 dA 1 nan sys")

    def test_accepts_stream(self):
        run = parse_run(io.StringIO("q1 Q0 dA 1 2.5 sys\n"))
        assert run["q1"].entries == (("dA", 2.5),)

    def test_blank_lines_skipped(self):
        run = parse_run("q1 Q0 dA 1 2.5 sys\n\n")
        assert len(run["q1"]) == 1


class TestWriteRun:
    def test_format(self):
        text = "".join(write_run({"q1": ScoredList("q1", (("dA", 2.5),))}, tag="sys"))
        assert text == "q1 Q0 dA 1 2.500000 sys\n"

    def test_empty(self):
        assert "".join(write_run({}, tag="sys")) == ""

    def test_tag_validated(self):
        with pytest.raises(ValueError):
            "".join(write_run({}, tag="bad tag"))


@st.composite
def runs(draw):
    """Random runs whose scores are exactly representable at 6 decimals."""
    n_queries = draw(st.integers(1, 4))
    out = {}
    for qi in range(n_queries):
        qid = f"q{qi}"
        n_docs = draw(st.integers(1, 8))
        scores = draw(
            st.lists(
                st.integers(-10_000_000, 10_000_000).map(lambda v: v / 1e6),
                min_size=n_docs,
                max_size=n_docs,
            )
        )
        entries = tuple((f"d{j:02d}", s) for j, s in enumerate(scores))
        out[qid] = ScoredList(qid, entries)
    return out


@settings(max_examples=60, deadline=None)
@given(runs())
def test_run_round_trip(run):
    reparsed = parse_run("".join(write_run(run, tag="t")))
    assert set(reparsed) == set(run)
    for qid in run:
        expected = sorted(run[qid].entries, key=lambda e: (-e[1], e[0]))
        assert list(reparsed[qid].entries) == expected


class TestQrels:
    def test_parse_basic(self):
        qrels = parse_qrels("q1 0 dA 2")
        assert qrels.grade("q1", "dA") == 2
        assert qrels.grade("q1", "dZ") == 0

    def test_later_line_overrides_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            qrels = parse_qrels("q1 0 dA 2\nq1 0 dA 3")
        assert qrels.grade("q1", "dA") == 3
        assert any("overrides" in r.message for r in caplog.records)

    def test_negative_grade(self):
        with pytest.raises(ParseError):
            parse_qrels("q1 0 dA -1")

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_qrels("q1 0 dA 1\nq1 0 dA")

    def test_round_trip(self):
        qrels = Qrels({"q1": {"dA": 2, "dB": 0}, "q2": {"dC": 1}})
        assert parse_qrels(write_qrels(qrels)) == qrels

    def test_positives_sorted_by_grade_then_id(self):
        qrels = Qrels({"q": {"a": 1, "b": 2, "c": 2, "z": 0}})
        assert qrels.positives("q") == ("b", "c", "a")

    def test_restrict(self):
        qrels = Qrels({"q1": {"d": 1}, "q2": {"d": 1}})
        assert qrels.restrict(["q1"]).query_ids() == ("q1",)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 20),
            st.dictionaries(st.integers(0, 30), st.integers(0, 4), min_size=1, max_size=5),
            max_size=5,
        )
    )
    def test_round_trip_property(self, raw):
        qrels = Qrels({f"q{q}": {f"d{d}": g for d, g in docs.items()} for q, docs in raw.items()})
        assert parse_qrels(write_qrels(qrels)) == qrels


class TestDomainTypes:
    def test_scored_list_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ScoredList("q", (("d", 1.0), ("d", 2.0)))

    def test_scored_list_rejects_nan(self):
        with pytest.raises(ValueError):
            ScoredList("q", (("d", float("nan")),))

    def test_id_whitespace_rejected(self):
        with pytest.raises(ValueError):
            ScoredList("q 1", ())

    def test_training_group_positive_not_in_negatives(self):
        with pytest.raises(ValueError):
            TrainingGroup("q", "d1", ("d2", "d1"))

    def test_training_group_members(self):
        g = TrainingGroup("q", "pos", ("n1", "n2"))
        assert g.members == ("pos", "n1", "n2")


class TestDistillDataset:
    def _record(self):
        return DistillRecord(
            query="q1",
            docs=("d3", "d1", "d2"),
            features=np.arange(6.0).reshape(3, 2),
            first_stage_ranks=(3, 1, 2),
            source_depth=3,
        )

    def test_round_trip(self):
        rec = self._record()
        parsed = parse_distill_dataset("".join(write_distill_dataset([rec])))
        assert len(parsed) == 1
        got = parsed[0]
        assert got.query == rec.query
        assert got.docs == rec.docs
        assert got.first_stage_ranks == rec.first_stage_ranks
        assert got.source_depth == rec.source_depth
        assert np.array_equal(got.features, rec.features)

    def test_full_precision_floats(self):
        feats = np.array([[0.1 + 0.2, np.pi]])
        rec = DistillRecord("q", ("d",), feats, (1,), 1)
        got = parse_distill_dataset("".join(write_distill_dataset([rec])))[0]
        assert got.features[0, 0] == feats[0, 0]
        assert got.features[0, 1] == np.pi

    def test_teacher_rank_order_enforced(self):
        text = (
            '{"query_id":"q","source_depth":2,"passages":['
            '{"doc_id":"a","features":[1.0],"first_stage_rank":1,"teacher_rank":2},'
            '{"doc_id":"b","features":[1.0],"first_stage_rank":2,"teacher_rank":1}]}'
        )
        with pytest.raises(ParseError, match="teacher order"):
            parse_distill_dataset(text)

    def test_bad_json_line_number(self):
        good = "".join(write_distill_dataset([self._record()])).rstrip("\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_distill_dataset(good + "\n{broken")

    def test_record_validates_rank_range(self):
        with pytest.raises(ValueError):
            DistillRecord("q", ("a",), np.ones((1, 2)), (5,), source_depth=3)
