"""Trial list, score file, and embedding store I/O."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _sources import RecordingSource
from svkit.trials import (
    EmbeddingStore,
    ScoreSet,
    StoreFormatError,
    Trial,
    TrialList,
    TrialParseError,
    parse_scores,
    parse_trials,
    read_embeddings,
    serialize_scores,
    serialize_trials,
    write_embeddings,
)


class TestParseTrials:
    def test_labeled_two_lines(self):
        tl = parse_trials("1 a.wav b.wav\n0 a.wav c.wav", labeled=True)
        assert len(tl) == 2
        assert tl.labeled
        assert [t.label for t in tl] == [True, False]
        assert tl.trials[0] == Trial("a.wav", "b.wav", True)

    def test_unlabeled_single_line(self):
        tl = parse_trials("a.wav b.wav", labeled=False)
        assert len(tl) == 1
        assert not tl.labeled
        assert tl.trials[0].label is None

    def test_out_of_range_label_reports_line(self):
        with pytest.raises(TrialParseError, match="line 1"):
            parse_trials("2 a.wav b.wav", labeled=True)

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(TrialParseError, match="line 2"):
            parse_trials("1 a b\n1 a\n", labeled=True)

    def test_blank_lines_skipped(self):
        tl = parse_trials("\n1 a b\n\n0 c d\n\n", labeled=True)
        assert len(tl) == 2

    def test_duplicate_pairs_allowed(self):
        tl = parse_trials("1 a b\n1 a b", labeled=True)
        assert len(tl) == 2

    def test_ids_with_slashes_are_opaque(self):
        tl = parse_trials("1 id1/x/00001.wav id2/y/00002.wav", labeled=True)
        assert tl.trials[0].enroll_id == "id1/x/00001.wav"

    def test_roundtrip_preserves_order_and_labels(self):
        text = "1 a b\n0 c d\n1 e f\n"
        tl = parse_trials(text, labeled=True)
        assert serialize_trials(tl) == text
        tl2 = parse_trials("x y\nu v\n", labeled=False)
        assert serialize_trials(tl2) == "x y\nu v\n"


class TestTrialInvariants:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Trial("", "b")

    def test_whitespace_id_rejected(self):
        with pytest.raises(ValueError):
            Trial("a b", "c")
        with pytest.raises(ValueError):
            Trial("a", "c\nd")

    def test_mixed_labeling_rejected(self):
        with pytest.raises(ValueError, match="all-or-none"):
            TrialList((Trial("a", "b", True), Trial("c", "d")))


class TestScoreSet:
    def test_length_mismatch_rejected(self):
        tl = parse_trials("a b\nc d", labeled=False)
        with pytest.raises(ValueError):
            ScoreSet(tl, np.array([0.5]))

    def test_nonfinite_rejected(self):
        tl = parse_trials("a b", labeled=False)
        with pytest.raises(ValueError, match="finite"):
            ScoreSet(tl, np.array([np.inf]))

    def test_single_trial_serialization(self):
        tl = parse_trials("a.wav b.wav", labeled=False)
        text = serialize_scores(ScoreSet(tl, np.array([0.5])))
        assert text == "a.wav b.wav 0.500000000\n"

    def test_empty_scoreset_serializes_empty(self):
        tl = TrialList(())
        assert serialize_scores(ScoreSet(tl, np.array([]))) == ""

    def test_roundtrip_of_random_scores(self):
        rng = np.random.default_rng(7)
        n = 100
        tl = TrialList(tuple(Trial(f"e{k}", f"t{k}") for k in range(n)))
        scores = rng.uniform(-1.0, 1.0, size=n)
        back = parse_scores(serialize_scores(ScoreSet(tl, scores)), trials=tl)
        assert np.max(np.abs(back.scores - scores)) <= 1e-8

    def test_roundtrip_of_large_magnitude_scores(self):
        tl = TrialList(tuple(Trial(f"e{k}", f"t{k}") for k in range(4)))
        scores = np.array([5.0, -12.25, 0.0, 123.456789])
        back = parse_scores(serialize_scores(ScoreSet(tl, scores)), trials=tl)
        # 9 significant digits keep these well under 1e-6 absolute
        assert np.max(np.abs(back.scores - scores)) <= 1e-6

    def test_parse_scores_rejects_mismatched_pair(self):
        tl = parse_trials("a b", labeled=False)
        with pytest.raises(ValueError, match="score line 1"):
            parse_scores("x y 0.5\n", trials=tl)

    def test_parse_scores_standalone_rebuilds_trials(self):
        ss = parse_scores("a b 0.25\nc d -0.125\n")
        assert [t.enroll_id for t in ss.trials] == ["a", "c"]
        assert ss.scores.tolist() == [0.25, -0.125]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100.0, max_value=100.0), max_size=20))
    def test_score_roundtrip_property(self, values):
        tl = TrialList(tuple(Trial(f"e{k}", f"t{k}") for k in range(len(values))))
        scores = np.array(values, dtype=np.float64)
        back = parse_scores(serialize_scores(ScoreSet(tl, scores)), trials=tl)
        if len(values):
            # at least 9 significant digits: relative error below 1e-8
            tol = np.maximum(np.abs(scores), 1.0) * 1e-8
            assert np.all(np.abs(back.scores - scores) <= tol)


class TestEmbeddingStore:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingStore(["a", "a"], np.zeros((2, 4), dtype=np.float32))

    def test_normalized_flag_checked(self):
        v = np.ones((1, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="norm"):
            EmbeddingStore(["a"], v, normalized=True)
        EmbeddingStore(["a"], v / 2.0, normalized=True)

    def test_nonfinite_rejected(self):
        v = np.full((1, 4), np.nan, dtype=np.float32)
        with pytest.raises(ValueError, match="finite"):
            EmbeddingStore(["a"], v)

    def test_get_and_rows(self):
        v = np.arange(8, dtype=np.float32).reshape(2, 4)
        store = EmbeddingStore(["a", "b"], v)
        assert store.get("b").tolist() == [4, 5, 6, 7]
        assert store.rows(["b", "a"]).tolist() == [[4, 5, 6, 7], [0, 1, 2, 3]]
        with pytest.raises(KeyError):
            store.get("c")
        with pytest.raises(ValueError, match="'c' not in embedding store"):
            store.rows(["a", "c"])


class TestStoreRoundtrip:
    def _roundtrip(self, store):
        buf = io.BytesIO()
        write_embeddings(store, buf)
        buf.seek(0)
        return buf.getvalue(), read_embeddings(buf)

    def test_empty_store_roundtrip(self):
        store = EmbeddingStore([], np.zeros((0, 512), dtype=np.float32))
        _, back = self._roundtrip(store)
        assert back.dim == 512
        assert len(back) == 0

    def test_random_vectors_bit_identical(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((3, 8)).astype(np.float32)
        store = EmbeddingStore(["u1", "u2", "u3"], vecs)
        raw, back = self._roundtrip(store)
        assert back.ids == store.ids
        assert back.vectors.tobytes() == store.vectors.tobytes()
        # writing the read-back store reproduces the file byte for byte
        buf2 = io.BytesIO()
        write_embeddings(back, buf2)
        assert buf2.getvalue() == raw

    def test_bad_magic(self):
        with pytest.raises(StoreFormatError, match="offset 0"):
            read_embeddings(io.BytesIO(b"EMB2" + b"\x00" * 12))

    def test_truncated_record_names_offset(self):
        store = EmbeddingStore(["u1"], np.ones((1, 4), dtype=np.float32))
        buf = io.BytesIO()
        write_embeddings(store, buf)
        clipped = buf.getvalue()[:-3]
        with pytest.raises(StoreFormatError, match="truncated"):
            read_embeddings(io.BytesIO(clipped))

    def test_huge_header_count_is_truncation_not_allocation(self):
        # 16 bytes claiming 2**40 records of dim 256: nothing may be sized
        # by the count before the records are read
        header = b"EMB1" + struct.pack("<IQ", 256, 2**40)
        assert len(header) == 16
        with pytest.raises(StoreFormatError, match="truncated"):
            read_embeddings(io.BytesIO(header))

    def test_header_dim_sizes_no_read(self):
        # 27 bytes: one record whose dim (u32 max) asks for 16 GiB of vector
        header = b"EMB1" + struct.pack("<IQ", 2**32 - 1, 1)
        data = header + struct.pack("<H", 1) + b"a" + b"\0" * 8
        assert len(data) == 27
        source = RecordingSource(data)
        with pytest.raises(StoreFormatError, match="truncated vector"):
            read_embeddings(source)
        assert source.largest_read <= source.size

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.builds(
                lambda dim, count, tail: b"EMB1" + struct.pack("<IQ", dim, count) + tail,
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**64 - 1),
                st.binary(max_size=64),
            ),
        )
    )
    def test_fuzzed_bytes_raise_only_value_errors(self, data):
        source = RecordingSource(data)
        try:
            read_embeddings(source)
        except ValueError:
            pass
        assert source.largest_read <= source.size

    def test_duplicate_id_on_read(self):
        vecs = np.ones((2, 2), dtype=np.float32) / 2
        buf = io.BytesIO()
        buf.write(b"EMB1")
        import struct

        buf.write(struct.pack("<IQ", 2, 2))
        for _ in range(2):
            buf.write(struct.pack("<H", 1) + b"a" + vecs[0].tobytes())
        buf.seek(0)
        with pytest.raises(StoreFormatError, match="duplicate"):
            read_embeddings(buf)

    def test_unicode_ids_roundtrip(self):
        store = EmbeddingStore(["idé/001"], np.ones((1, 2), dtype=np.float32))
        _, back = self._roundtrip(store)
        assert back.ids == ("idé/001",)
