import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrlab import core
from ltrlab.core import (
    MAX_GRADE,
    DuplicateEntryError,
    ParseError,
    Qrels,
    ScoredList,
    parse_distill_dataset,
    parse_qrels,
    parse_run,
    write_distill_dataset,
    write_qrels,
    write_run,
)

from ltrlab.evaluation import grade_rows, ndcg_at_k, ndcg_rows

from _oracles import WORLD, ranked_rows, record_values, restrict_qrels, stack_records


# Every line break that `str.splitlines` knows.
LINE_BREAKS = (
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
)


class TestTextLines:
    """A str source is split a block at a time, with the lines and line
    numbers of `str.splitlines`."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(LINE_BREAKS) | st.text("ab ", min_size=1, max_size=3), max_size=30
        ),
        st.integers(1, 6),
    )
    def test_lines_of_splitlines(self, pieces, block):
        r"""Blocks of 1 to 6 characters put every break at and across block
        edges, a "\r" and a "\n" drawn one after the other among them."""
        text = "".join(pieces)
        with mock.patch.object(core, "_LINE_BLOCK", block):
            assert list(core._text_lines(text)) == text.splitlines()

    @pytest.mark.parametrize("block", [1, 2, 5, 16, 2**16])
    def test_parsers_number_lines_as_before(self, block):
        qrels = "q1 0 a 1\r\n\r\nq1 0 b 2\x85q2 0 c 1\r\nq2 0 d\r\n"
        run = "q1 Q0 a 1 2.0 t\r\nq1 Q0 b 2 1.0 t\u2028\nq2 Q0 c 1 3.0 t\r"
        with mock.patch.object(core, "_LINE_BLOCK", block):
            with pytest.raises(ParseError, match=r"^line 5: expected 4 fields, got 3$"):
                parse_qrels(qrels)
            parsed = parse_run(run)
            with pytest.raises(ParseError, match=r"^line 5: expected 6 fields, got 2$"):
                parse_run(run + "bad line\r\n")
        assert (parsed.queries, parsed.docs) == (("q1", "q2"), ["a", "b", "c"])


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

    @pytest.mark.parametrize("grouped", [True, False])
    def test_depth_past_the_entries_is_no_cut(self, grouped):
        """A depth at or past the number of entries, even one no int64
        holds, parses as no depth at all."""
        lines = ["q1 Q0 dB 1 2.0 t", "q1 Q0 dA 2 2.0 t", "q1 Q0 dD 3 0.5 t", "q2 Q0 dC 1 1.0 t"]
        text = "\n".join(lines if grouped else [lines[0], lines[3], *lines[1:3]])
        whole = parse_run(text)
        for depth in (4, 2**63 - 1, 2**63, 2**64):
            run = parse_run(text, depth)
            assert run == whole and run.offsets.tolist() == whole.offsets.tolist()
            assert run.docs == whole.docs and run.scores.tolist() == whole.scores.tolist()

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("q1 Q0 b 1_0 2 t", "rank field '1_0' is not an integer"),
            ("q1 Q0 b \u0662 2 t", "rank field '\u0662' is not an integer"),
            ("q1 Q0 b 2 1_5.5 t", "score field '1_5.5' is not a number"),
            ("q1 Q0 b 2 \u0661\u0660 t", "score field '\u0661\u0660' is not a number"),
            ("q1 Q0 b 2 1.\u0665 t", "score field '1.\u0665' is not a number"),
        ],
    )
    def test_numbers_past_the_ascii_grammar_refused(self, line, message):
        """`int` and `float` read digit-group underscores and non-ASCII
        digits; the run format's numbers are ASCII digits, a sign, a point
        and an exponent."""
        with pytest.raises(ParseError, match=f"^line 2: {message}$"):
            parse_run(f"q1 Q0 a 1 +1.5e-3 t\n{line}\n")

    def test_accepts_stream(self):
        run = parse_run(io.StringIO("q1 Q0 dA 1 2.5 sys\n"))
        assert run["q1"].entries == (("dA", 2.5),)

    def test_blank_lines_skipped(self):
        run = parse_run("q1 Q0 dA 1 2.5 sys\n\n")
        assert len(run["q1"]) == 1


class TestWriteRun:
    def test_format(self):
        text = "".join(write_run([("q1", ["dA"], [2.5])], tag="sys"))
        assert text == "q1 Q0 dA 1 2.500000 sys\n"

    def test_rows_written_in_the_order_given(self):
        rows = [("q2", ("dA", "dB"), (1.0, 1.0)), ("q1", ["dC"], [-0.5])]
        assert "".join(write_run(rows, tag="t")) == (
            "q2 Q0 dA 1 1.000000 t\nq2 Q0 dB 2 1.000000 t\nq1 Q0 dC 1 -0.500000 t\n"
        )

    def test_empty(self):
        assert "".join(write_run([], tag="sys")) == ""

    def test_tag_validated(self):
        with pytest.raises(ValueError):
            "".join(write_run([], tag="bad tag"))

    @pytest.mark.parametrize(
        "docs, scores", [(["a", "b"], [1.0]), (["a"], [1.0, 0.5]), ([], [1.0])]
    )
    def test_docs_and_scores_of_unequal_length_refused(self, docs, scores):
        rows = [("q0", ["z"], [2.0]), ("q1", docs, scores)]
        message = f"row for query 'q1' has {len(docs)} docs but {len(scores)} scores"
        with pytest.raises(ValueError, match=re.escape(message)):
            "".join(write_run(rows, tag="t"))

    @pytest.mark.parametrize(
        "qid, docs, bad",
        [
            ("q 1", ["a"], "q 1"),  # written unchecked, it would parse as 7 fields
            ("", ["a"], ""),
            ("q1", ["a", ""], ""),
            ("q1", ["a\tb"], "a\tb"),
            ("q1", ["a", "b\n"], "b\n"),
        ],
    )
    def test_ids_that_parse_run_refuses_are_refused(self, qid, docs, bad):
        rows = [("q0", ["z"], [2.0]), (qid, docs, [1.0] * len(docs))]
        message = f"row for query {qid!r}: id {bad!r} is empty or holds whitespace"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            "".join(write_run(rows, tag="t"))

    def test_percent_in_ids_round_trips(self):
        text = "".join(write_run([("q%1", ["d%s", "%%"], [2.0, 1.0])], tag="t%d"))
        assert text == "q%1 Q0 d%s 1 2.000000 t%d\nq%1 Q0 %% 2 1.000000 t%d\n"
        run = parse_run(text)
        assert run.queries == ("q%1",) and run.docs == ["d%s", "%%"]
        assert run.scores.tolist() == [2.0, 1.0]


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
    reparsed = parse_run("".join(write_run(ranked_rows(run), tag="t")))
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

    def test_grades_past_the_bound_refused(self):
        """At the bound every nDCG stays finite; one past it is refused by
        the parser, with its line, and by the constructor."""
        lines = "".join(f"q1 0 d{i} {MAX_GRADE}\n" for i in range(1000))
        qrels = parse_qrels(lines)
        ranking = ScoredList("q1", tuple((f"d{i}", 1.0) for i in range(1000)))
        assert ndcg_at_k(ranking, qrels, 1000) == 1.0
        assert ndcg_rows(*grade_rows(qrels, ["q1"], [ranking.docs]), 1000).tolist() == [1.0]
        for grade in (MAX_GRADE + 1, 1023, 5000, 10**30):
            with pytest.raises(ParseError, match=f"^line 2: grade {grade} exceeds {MAX_GRADE}$"):
                parse_qrels(f"q1 0 dA 1\nq1 0 dB {grade}\n")
            with pytest.raises(ValueError, match=f"^grade {grade} for \\('q', 'd'\\) exceeds"):
                Qrels({"q": {"d": grade}})

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_qrels("q1 0 dA 1\nq1 0 dA")

    @pytest.mark.parametrize("grade", ["1_0", "\u0664", "\u00b2", "\uff11", "1.0"])
    def test_grades_past_the_ascii_grammar_refused(self, grade):
        assert parse_qrels("q1 0 a +3\n").grade("q1", "a") == 3
        with pytest.raises(ParseError, match=f"^line 2: grade field '{grade}' is not an integer$"):
            parse_qrels(f"q1 0 a 1\nq1 0 b {grade}\n")

    def test_round_trip(self):
        qrels = Qrels({"q1": {"dA": 2, "dB": 0}, "q2": {"dC": 1}})
        assert parse_qrels(write_qrels(qrels)) == qrels

    def test_positives_sorted_by_grade_then_id(self):
        qrels = Qrels({"q": {"a": 1, "b": 2, "c": 2, "z": 0}})
        assert qrels.positives("q") == ("b", "c", "a")

    def test_restrict(self):
        qrels = Qrels({"q1": {"d": 1}, "q2": {"d": 1}})
        assert restrict_qrels(qrels, ["q1"]).query_ids() == ("q1",)

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


OMIT = object()


def record_line(query="q", depth=5, docs="ab", ranks=(2, 1), teacher=None, world=WORLD, **keys):
    """One dataset line; the teacher ranks default to 1..n. A key given as
    OMIT is left out, and any other keyword replaces the key of that name."""
    teacher = teacher or range(1, len(docs) + 1)
    passages = [
        {"doc_id": d, "first_stage_rank": r, "teacher_rank": t}
        for d, r, t in zip(docs, ranks, teacher)
    ]
    obj = {"query_id": query, "world_sha256": world, "source_depth": depth, "passages": passages}
    obj.update(keys)
    return json.dumps({k: v for k, v in obj.items() if v is not OMIT})


EMPTY = {"docs": (), "ranks": ()}
THREE = {"docs": ("a", "b", "c")}
BAD_INTEGER = "bad record structure: {} must be a 64-bit integer, got {}"
BAD_WORLD = "bad record structure: world_sha256 must be a string, got {}"


class TestDistillDataset:
    def _dataset(self):
        return stack_records([("q1", ("d3", "d1", "d2"), (3, 1, 2), 3), ("q2", ("d9",), (4,), 7)])

    def test_round_trip(self):
        dataset = self._dataset()
        parsed = parse_distill_dataset("".join(write_distill_dataset(dataset)))
        assert type(parsed) is type(dataset) and len(parsed) == 2
        assert record_values(parsed) == record_values(dataset)
        assert parsed.offsets.tolist() == [0, 3, 4]
        assert parsed.source_depths.tolist() == [3, 7]
        assert parsed.world == WORLD

    def test_records_are_views_with_a_length(self):
        dataset = self._dataset()
        first, second = dataset
        assert (first.query, first.docs, len(first), first.source_depth) == (
            "q1", ["d3", "d1", "d2"], 3, 3
        )
        assert np.shares_memory(first.first_stage_ranks, dataset.first_stage_ranks)
        assert second.first_stage_ranks.tolist() == [4]

    def test_record_of_the_old_format_rejected(self):
        """A record with features and no world names its line."""
        passage = {"doc_id": "d", "features": [0.5], "first_stage_rank": 1, "teacher_rank": 1}
        text = json.dumps({"query_id": "q", "source_depth": 1, "passages": [passage]})
        with pytest.raises(ParseError) as info:
            parse_distill_dataset(text)
        assert str(info.value) == "line 1: bad record structure: 'world_sha256'"

    def test_empty_source(self):
        dataset = parse_distill_dataset("\n  \n")
        assert len(dataset) == 0 and dataset.docs == [] and dataset.world is None
        assert list(dataset) == [] and dataset.offsets.tolist() == [0]

    def test_teacher_rank_order_enforced(self):
        with pytest.raises(ParseError, match="teacher order"):
            parse_distill_dataset(record_line(teacher=(2, 1)))

    def test_bad_json_line_number(self):
        good = "".join(write_distill_dataset(self._dataset())).rstrip("\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_distill_dataset(good + "\n{broken")

    @pytest.mark.parametrize(
        "fields, message",
        [
            # The checks that distillation records made on construction.
            ({"query": 5}, "query id must be a non-empty string, got 5"),
            ({"query": "a b"}, "query id 'a b' contains whitespace"),
            ({"world": 5}, BAD_WORLD.format(5)),
            (EMPTY, "record for query 'q' has no docs"),
            ({"docs": ("a", "a")}, "record for query 'q' has duplicate docs"),
            ({"world": None}, BAD_WORLD.format(None)),
            ({"world": OMIT}, "bad record structure: 'world_sha256'"),
            (dict(THREE, ranks=(3, 0, 9)), "first-stage rank 0 outside 1..5 for query 'q'"),
            (dict(THREE, ranks=(3, 9, 0)), "first-stage rank 9 outside 1..5 for query 'q'"),
            (dict(THREE, ranks=(6, 1, 2)), "first-stage rank 6 outside 1..5 for query 'q'"),
            (
                {"ranks": (5,), "depth": 3, "docs": "a"},
                "first-stage rank 5 outside 1..3 for query 'q'",
            ),
            ({"ranks": (2, 2)}, "record for query 'q' has duplicate first-stage ranks"),
            # Doc ids that could not be written back as a run.
            ({"docs": ("a", 5)}, "doc_id must be a non-empty string, got 5"),
            ({"docs": ("", "b")}, "doc_id must be a non-empty string, got ''"),
            ({"docs": ("a b", "b")}, "doc_id 'a b' contains whitespace"),
            ({"docs": ("a", None)}, "doc_id must be a non-empty string, got None"),
            # Integers must be JSON integers, not anything int() accepts.
            ({"depth": True}, BAD_INTEGER.format("source_depth", True)),
            ({"depth": 5.0}, BAD_INTEGER.format("source_depth", 5.0)),
            ({"depth": "5"}, BAD_INTEGER.format("source_depth", "'5'")),
            ({"depth": 2**63}, BAD_INTEGER.format("source_depth", 2**63)),
            ({"ranks": (2.7, 1)}, BAD_INTEGER.format("first_stage_rank", 2.7)),
            ({"ranks": ("3", 1)}, BAD_INTEGER.format("first_stage_rank", "'3'")),
            ({"ranks": (True, 2)}, BAD_INTEGER.format("first_stage_rank", True)),
            ({"teacher": (1.0, 2)}, BAD_INTEGER.format("teacher_rank", 1.0)),
            # Every key of a record and of its passages is required.
            ({"query_id": OMIT}, "bad record structure: 'query_id'"),
            ({"source_depth": OMIT}, "bad record structure: 'source_depth'"),
            (
                {"passages": [{"doc_id": "a", "teacher_rank": 1}]},
                "bad record structure: 'first_stage_rank'",
            ),
            # A file holds the lists of one world.
            (
                {"world": "f" * 64},
                f"record for query 'q' is from world {'f' * 64}, the first record from world {WORLD}",
            ),
        ],
    )
    def test_bad_record_named_with_its_line(self, fields, message):
        good = record_line(query="q0")
        with pytest.raises(ParseError) as info:
            parse_distill_dataset(good + "\n\n" + record_line(**fields))
        assert str(info.value) == f"line 3: {message}"
        assert info.value.line == 3

    def test_world_must_match_the_first_record(self):
        lines = [record_line("q1"), record_line("q2"), record_line("q3", world="ab")]
        with pytest.raises(ParseError) as info:
            parse_distill_dataset("\n".join(lines))
        assert str(info.value) == (
            f"line 3: record for query 'q3' is from world ab, the first record from world {WORLD}"
        )

    def test_passages_must_be_objects(self):
        with pytest.raises(ParseError, match="^line 1: bad record structure"):
            parse_distill_dataset(record_line(passages=[1, 2]))

    @pytest.mark.parametrize(
        "fields",
        [
            {"docs": "a", "ranks": (5,)},
            {"docs": "a", "ranks": (1,), "depth": 1},
            {"ranks": (1, 5)},
        ],
    )
    def test_edge_records_accepted(self, fields):
        dataset = parse_distill_dataset(record_line(**fields))
        assert len(dataset) == 1 and dataset.first_stage_ranks.tolist() == list(fields["ranks"])
