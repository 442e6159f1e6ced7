"""scc2020 parsing, serialization, and round-trip identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import antidiagonal_batch_matrix, chain_digraph_matrix, join_pair_matrix
from mpdec.fields import FieldConfig
from mpdec.generators import gen_intervals, gen_random_er
from mpdec.grading import GradedMatrix
from mpdec.sccio import SccParseError, parse_scc2020, strip_comments, write_scc2020

JOIN_DOC = """\
scc2020
# a two-generator module with one relation at the join
2
1 2 0
2 2 ; 0 1
0 1 ;
1 0 ;
"""


class TestParse:
    def test_join_pair_document(self):
        m = parse_scc2020(JOIN_DOC)
        assert m.equal(join_pair_matrix())

    def test_explicit_coefficients_f3(self):
        doc = JOIN_DOC.replace("; 0 1", "; 0:1 1:2")
        m = parse_scc2020(doc, FieldConfig(3))
        assert m.columns[0] == {0: 1, 1: 2}

    def test_bare_entry_rejected_over_f3(self):
        with pytest.raises(SccParseError, match="explicit coefficient"):
            parse_scc2020(JOIN_DOC, FieldConfig(3))

    def test_empty_presentation(self):
        m = parse_scc2020("scc2020\n2\n0 0\n")
        assert m.num_rows == 0 and m.num_cols == 0

    def test_index_out_of_range(self):
        doc = JOIN_DOC.replace("; 0 1", "; 0 2")
        with pytest.raises(SccParseError, match="out of range"):
            parse_scc2020(doc)

    def test_bad_magic(self):
        with pytest.raises(SccParseError, match="scc2020"):
            parse_scc2020("scc2021\n2\n0 0\n")

    def test_grading_violation(self):
        doc = JOIN_DOC.replace("2 2 ;", "0 0 ;")
        with pytest.raises(SccParseError, match="grading violated"):
            parse_scc2020(doc)

    def test_duplicate_index(self):
        doc = JOIN_DOC.replace("; 0 1", "; 0 0")
        with pytest.raises(SccParseError, match="duplicate"):
            parse_scc2020(doc)

    def test_trailing_content(self):
        with pytest.raises(SccParseError, match="trailing"):
            parse_scc2020(JOIN_DOC + "1 1 ;\n")

    def test_error_carries_line_number(self):
        doc = JOIN_DOC.replace("; 0 1", "; 0 7")
        with pytest.raises(SccParseError, match="line 5"):
            parse_scc2020(doc)

    def test_comments_and_whitespace_ignored(self):
        noisy = JOIN_DOC.replace("2 2 ;", "  2 2  ;  ").replace(
            "scc2020\n", "scc2020\n# noise\n\n# more noise\n"
        )
        assert parse_scc2020(noisy).equal(join_pair_matrix())


class TestRoundTrip:
    @pytest.mark.parametrize(
        "m",
        [
            join_pair_matrix(),
            antidiagonal_batch_matrix(),
            chain_digraph_matrix(),
        ],
        ids=["join", "antidiagonal", "chain"],
    )
    def test_fixture_round_trip(self, m):
        text = write_scc2020(m)
        assert parse_scc2020(text).equal(m)
        assert strip_comments(text) == text

    def test_empty_round_trip(self):
        m = parse_scc2020("scc2020\n1\n0 0\n")
        assert parse_scc2020(write_scc2020(m)).equal(m)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10 ** 6))
    def test_random_round_trip_bytes(self, seed):
        m = gen_random_er(6, 5, 0.4, seed=seed)
        text = write_scc2020(m)
        again = parse_scc2020(text)
        assert again.equal(m)
        assert write_scc2020(again) == text

    def test_round_trip_over_f5(self):
        m, _ = gen_intervals(5, seed=9, field=FieldConfig(5), mixed=True)
        text = write_scc2020(m)
        assert parse_scc2020(text, FieldConfig(5)).equal(m)


FUZZ_TOKENS = ["", "0", "1", "2", "-1", "7", ";", ":", "0:0", "1:0", "0:2",
               "3:1", "1:2", "0:1", "2:-1", "1:", ":1", "1:2:3", "x", "#",
               "scc2020", "3.5", "1e3", "+1", "99999999999999999999"]


@st.composite
def mutated_documents(draw):
    """A valid scc2020 text with a few lines or tokens deleted, duplicated
    or replaced."""
    q = draw(st.sampled_from([2, 3]))
    dense = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=3,
                                   max_size=3), min_size=3, max_size=3))
    # every relation dominates every generator, so each entry is admissible
    m = GradedMatrix.from_dense(dense, [(0, 2), (1, 1), (2, 0)],
                                [(2, 2)] * 3, field=FieldConfig(q))
    lines = write_scc2020(m).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines.append(draw(st.sampled_from(FUZZ_TOKENS)))
            continue
        at = draw(st.integers(0, len(lines) - 1))
        # token edits keep most documents close enough to valid that the
        # entry checks, not only the header checks, are reached
        op = draw(st.sampled_from(
            ["delete_line", "duplicate_line", "replace_line",
             "delete_token", "duplicate_token"] + ["replace_token"] * 5))
        if op == "delete_line":
            del lines[at]
        elif op == "duplicate_line":
            lines.insert(at, lines[at])
        elif op == "replace_line":
            lines[at] = " ".join(draw(st.lists(
                st.sampled_from(FUZZ_TOKENS), max_size=4)))
        else:
            toks = lines[at].split()
            t = draw(st.integers(0, len(toks)))
            if op == "delete_token" and t < len(toks):
                del toks[t]
            elif op == "duplicate_token" and t < len(toks):
                toks.insert(t, toks[t])
            else:
                toks[t:t + 1] = [draw(st.sampled_from(FUZZ_TOKENS))]
            lines[at] = " ".join(toks)
    return "\n".join(lines) + "\n", q


class TestParseFuzz:
    """Mutated documents either parse to a valid presentation or raise one
    of the two errors the CLI maps to exit code 2."""

    @settings(deadline=None, max_examples=1000)
    @given(mutated_documents())
    def test_parse_or_clean_error(self, doc_and_q):
        doc, q = doc_and_q
        try:
            m = parse_scc2020(doc, FieldConfig(q))
        except (SccParseError, ValueError):
            return
        m.validate()
