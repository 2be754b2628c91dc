"""Trial list, score file, and embedding store I/O."""

import io
import os
import struct
import tracemalloc
import warnings
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _emb1_oracle import FormatFault, decode_emb1
from _sources import RecordingSource
from _text_oracle import (
    Mismatch,
    Rejected,
    first_seen,
    format_score,
    reference_scores,
    reference_trials,
    trial_ids,
    trial_text,
)
from svkit import trials as trials_module
from svkit.augment import NoiseBank
from svkit.features import read_wav
from svkit.fusion import stack_scores
from svkit.metrics import roc_points
from svkit.scoring import score_trials
from svkit.store import (
    NORM_TOL,
    ROW_ALIGN,
    EmbeddingStore,
    StoreFormatError,
    read_embeddings,
    write_embeddings,
)
from svkit.trials import (
    SCORE_CHUNK,
    ScoreSet,
    TrialList,
    TrialParseError,
    parse_scores,
    parse_trials,
    read_embeddings_file,
    read_path_list,
    read_text,
    require_file,
    score_text_chunks,
    serialize_scores,
    write_embeddings_file,
)


class TestInputFiles:
    def test_require_file_rejects_missing_directory_device_and_long_name(self, tmp_path):
        for path in (tmp_path / "absent", tmp_path, os.devnull, tmp_path / ("x" * 5000)):
            with pytest.raises(ValueError) as exc:
                require_file(path, "trials")
            assert str(exc.value) == f"trials file not found: {path}"

    @pytest.mark.parametrize("what, read", [
        ("trials", lambda p: read_text(p, "trials")),
        ("wav list", lambda p: read_path_list(p, "wav list")),
        ("wav", read_wav),
        ("embeddings", read_embeddings_file),
        ("cohort", lambda p: read_embeddings_file(p, "cohort")),
        ("manifest", NoiseBank.from_manifest),
    ])
    def test_every_reader_checks_its_own_file(self, tmp_path, what, read):
        for path in (tmp_path, Path(os.devnull)):
            with pytest.raises(ValueError) as exc:
                read(path)
            assert str(exc.value) == f"{what} file not found: {path}"

    def test_read_text_names_file_and_offset_of_bad_byte(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("1 é b\n".encode("utf-8") + b"0 a \xc3")
        with pytest.raises(ValueError) as exc:
            read_text(path, "trials")
        assert str(exc.value) == f"trials file {path}: byte 11 is not UTF-8"
        path.write_bytes(b"1 a b\r\n")
        assert read_text(path, "trials") == "1 a b\r\n"

    def test_path_list_resolves_against_list_directory(self, tmp_path):
        listing = tmp_path / "list.txt"
        listing.write_text("a x.wav\n\n  \nb\t sub/with space.wav \nc /abs/y.wav\n")
        assert read_path_list(listing, "wav list") == [
            (1, "a", tmp_path / "x.wav"),
            (4, "b", tmp_path / "sub" / "with space.wav"),
            (5, "c", Path("/abs/y.wav")),
        ]

    def test_path_list_one_token_line_names_file_and_line(self, tmp_path):
        listing = tmp_path / "list.txt"
        listing.write_text("a x.wav\nlonely \n")
        with pytest.raises(ValueError) as exc:
            read_path_list(listing, "wav list")
        assert str(exc.value) == f"{listing}:2: expected '<key> <path>'"


class TestParseTrials:
    def test_labeled_two_lines(self):
        tl = parse_trials("1 a.wav b.wav\n0 a.wav c.wav", labeled=True)
        assert len(tl) == 2
        assert tl.labeled
        assert tl.labels() == b"\x01\x00"
        assert [tl.ids[tl.enroll[0]], tl.ids[tl.test[0]]] == ["a.wav", "b.wav"]

    def test_unlabeled_single_line(self):
        tl = parse_trials("a.wav b.wav", labeled=False)
        assert len(tl) == 1
        assert not tl.labeled
        with pytest.raises(ValueError, match="unlabeled"):
            tl.labels()

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
        assert tl.ids[tl.enroll[0]] == "id1/x/00001.wav"

    def test_roundtrip_preserves_order_and_labels(self):
        text = "1 a b\n0 c d\n1 e f\n"
        tl = parse_trials(text, labeled=True)
        assert trial_text(tl) == text
        tl2 = parse_trials("x y\nu v\n", labeled=False)
        assert trial_text(tl2) == "x y\nu v\n"


class TestTrialInvariants:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            TrialList([""], ["b"])
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            TrialList(["a"], [""])

    def test_whitespace_id_rejected(self):
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            TrialList(["a b"], ["c"])
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            TrialList(["a"], ["c\nd"])

    def test_mixed_labeling_rejected(self):
        with pytest.raises(ValueError, match="all-or-none"):
            TrialList(["a", "c"], ["b", "d"], [True, None])


# every str.isspace character: str.split() splits at each of them
ISSPACE_CHARS = [chr(c) for c in range(0x110000) if chr(c).isspace()]
LIST_IDS = st.one_of(
    st.sampled_from(["a", "b", "c"]),  # repeats, so ids are interned
    st.text(st.characters(codec="utf-8").filter(lambda c: not c.isspace()), min_size=1),
)


class TestTrialListConstructor:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(LIST_IDS, LIST_IDS, st.booleans()), max_size=12),
           st.booleans(), st.data())
    def test_builds_what_parsing_its_text_builds(self, rows, labeled, data):
        enroll, test = [e for e, _, _ in rows], [t for _, t, _ in rows]
        labels = [y for _, _, y in rows] if labeled else None
        tl = TrialList(enroll, test, labels)
        assert parse_trials(trial_text(tl), labeled) == tl
        assert list(trial_ids(tl)) == [enroll, test]
        assert list(tl.ids) == first_seen(list(zip(enroll, test)))
        if labeled and rows:
            assert tl.labels() == bytes(labels)
        assert tl.labeled == (labeled and bool(rows))

        # a broken id on either side, at any trial
        if rows:
            k = data.draw(st.integers(0, len(rows) - 1))
            side = data.draw(st.sampled_from([enroll, test]))
            good = side[k]
            at = data.draw(st.integers(0, len(good)))
            spaces = [" ", "\n", "\x1c", "\u2028", data.draw(st.sampled_from(ISSPACE_CHARS))]
            for bad in ["", *(good[:at] + c + good[at:] for c in spaces)]:
                side[k] = bad
                with pytest.raises(ValueError, match="empty or contains whitespace"):
                    TrialList(enroll, test, labels)
            side[k] = good
            # a None among the labels
            with pytest.raises(ValueError, match="all-or-none"):
                TrialList(enroll, test, [True] * k + [None] + [False] * (len(rows) - k - 1))
        # mismatched lengths
        longer = data.draw(st.sampled_from(["enroll", "test", "labels"]))
        args = {"enroll": enroll, "test": test, "labels": [True] * len(rows)}
        args[longer] = args[longer] + [True if longer == "labels" else "a"]
        with pytest.raises(ValueError, match="equal lengths"):
            TrialList(**args)


class TestIndexArrays:
    def test_parsed_list_is_index_arrays(self):
        tl = parse_trials("1 a b\n0 a c\n\n1 c b\n", labeled=True)
        assert tl.ids == ("a", "b", "c")
        assert tl.enroll.format == tl.test.format == "q"
        assert tl.enroll.tolist() == [0, 0, 2]
        assert tl.test.tolist() == [1, 2, 1]
        assert tl.labels() == bytes([1, 0, 1])

    def test_trial_objects_build_the_same_arrays(self):
        # a list built from id sequences equals the parse of the same trials
        text = "1 a b\n0 a c\n1 c b\n1 a b\n"
        built = TrialList(["a", "a", "c", "a"], ["b", "c", "b", "b"], [True, False, True, True])
        assert built == parse_trials(text, labeled=True)
        assert built.ids == ("a", "b", "c")
        assert built.enroll.tolist() == [0, 0, 2, 0]
        assert built.test.tolist() == [1, 2, 1, 1]
        assert built.labels() == bytes([1, 0, 1, 1])

    def test_equality_covers_pairs_and_labels(self):
        tl = parse_trials("1 a b\n0 a c\n", labeled=True)
        assert tl != parse_trials("1 a b\n0 a d\n", labeled=True)
        assert tl != parse_trials("1 a b\n1 a c\n", labeled=True)
        assert tl != parse_trials("a b\na c\n", labeled=False)
        assert tl != parse_trials("1 a b\n", labeled=True)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=30), max_size=5))
    def test_codes_are_first_seen_order_across_batches(self, batches):
        # one table fed batch after batch, as the chunked parsers feed it
        codes = trials_module._Codes()
        want: dict[str, int] = {}
        for ids in batches:
            got = codes.of(ids)
            for u in ids:
                want.setdefault(u, len(want))
            assert got.typecode == "q" and got.tolist() == [want[u] for u in ids]
            assert list(codes.items()) == list(want.items())

    def test_arrays_are_read_only(self):
        tl = parse_trials("1 a b\n0 a c\n", labeled=True)
        for array in (tl.ids, tl.enroll, tl.test, tl.labels()):
            with pytest.raises(TypeError):
                array[0] = array[1]

    def test_empty_list_is_unlabeled(self):
        # as before: a list with no trials carries no labels either way
        assert not parse_trials("\n\n", labeled=True).labeled
        assert not TrialList([], []).labeled
        assert len(TrialList([], [])) == 0

    def test_whole_list_paths_build_no_trial(self, monkeypatch):
        text = "1 a b\n0 a c\n1 c b\n0 b c\n"
        store = EmbeddingStore(["a", "b", "c"], np.eye(3))

        def no_trial(self, *args):
            raise AssertionError("a list was built id by id")

        monkeypatch.setattr(TrialList, "__init__", no_trial)
        tl = parse_trials(text, labeled=True)
        raw = score_trials(tl, store)
        scores = parse_scores(serialize_scores(raw), tl)
        roc_points(scores)
        other = ScoreSet(parse_trials(text, labeled=True), scores.scores)
        assert stack_scores([raw, scores, other]).shape == (4, 3)


class TestScoreSet:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_names_line(self, token):
        with pytest.raises(TrialParseError) as info:
            parse_scores(f"a b 0.5\nc d {token}\n", TrialList(["a", "c"], ["b", "d"]))
        assert info.value.line_no == 2
        assert str(info.value) == f"line 2: non-finite score {token!r}"

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
        tl = TrialList([], [])
        assert serialize_scores(ScoreSet(tl, np.array([]))) == ""

    def test_roundtrip_of_random_scores(self):
        rng = np.random.default_rng(7)
        n = 100
        tl = TrialList([f"e{k}" for k in range(n)], [f"t{k}" for k in range(n)])
        scores = rng.uniform(-1.0, 1.0, size=n)
        back = parse_scores(serialize_scores(ScoreSet(tl, scores)), trials=tl)
        assert np.max(np.abs(back.scores - scores)) <= 1e-8

    def test_roundtrip_of_large_magnitude_scores(self):
        tl = TrialList([f"e{k}" for k in range(4)], [f"t{k}" for k in range(4)])
        scores = np.array([5.0, -12.25, 0.0, 123.456789])
        back = parse_scores(serialize_scores(ScoreSet(tl, scores)), trials=tl)
        # 9 significant digits keep these well under 1e-6 absolute
        assert np.max(np.abs(back.scores - scores)) <= 1e-6

    def test_parse_scores_rejects_mismatched_pair(self):
        tl = parse_trials("a b", labeled=False)
        with pytest.raises(ValueError, match="score line 1"):
            parse_scores("x y 0.5\n", trials=tl)

    def test_pair_mismatch_names_file_line_after_blank_lines(self):
        tl = parse_trials("a b\n", labeled=False)
        want = r"^score line 3 is for \(x, y\), trial list has \(a, b\)$"
        with pytest.raises(ValueError, match=want):
            parse_scores("\n\nx y 0.5\n", trials=tl)

    def test_pair_mismatch_in_the_last_chunk_of_a_long_list(self):
        n = 55_000  # about a dozen chunks of score text
        tl = TrialList([f"e{k % 997}" for k in range(n)], [f"t{k % 991}" for k in range(n)])
        lines = [f"e{k % 997} t{k % 991} 0.5" for k in range(n)]
        assert parse_scores("\n".join(lines), tl).scores == array("d", [0.5]) * n
        lines[-2] = "e1 t2 0.5"
        want = (f"score line {n - 1} is for (e1, t2), "
                f"trial list has (e{(n - 2) % 997}, t{(n - 2) % 991})")
        with pytest.raises(ValueError) as info:
            parse_scores("\n".join(lines), tl)
        assert str(info.value) == want

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100.0, max_value=100.0), max_size=20))
    def test_score_roundtrip_property(self, values):
        n = len(values)
        tl = TrialList([f"e{k}" for k in range(n)], [f"t{k}" for k in range(n)])
        scores = np.array(values, dtype=np.float64)
        back = parse_scores(serialize_scores(ScoreSet(tl, scores)), trials=tl)
        if len(values):
            # at least 9 significant digits: relative error below 1e-8
            tol = np.maximum(np.abs(scores), 1.0) * 1e-8
            assert np.all(np.abs(back.scores - scores) <= tol)


SNAN_BITS = 0x7F800001  # a float32 signalling NaN: casting it flags `invalid`


class TestEmbeddingStore:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingStore(["a", "a"], np.zeros((2, 4), dtype=np.float32))

    def test_unit_norm_enforced(self):
        v = np.ones((1, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="norm"):
            EmbeddingStore(["a"], v)
        store = EmbeddingStore(["a"], v / 2.0)
        with pytest.raises(ValueError, match="read-only"):
            store.vectors[0, 0] = 0.0

    def test_first_bad_vector_named(self):
        v = np.eye(4)
        v[1] *= 1.5
        v[3] *= 3.0  # off by more, but after 'b'
        message = r"^embedding 'b' is not length-normalized \(norm 1\.5\)$"
        with pytest.raises(ValueError, match=message):
            EmbeddingStore(list("abcd"), v)

    def test_nonfinite_rejected(self):
        v = np.full((1, 4), np.nan, dtype=np.float32)
        with pytest.raises(ValueError, match="finite"):
            EmbeddingStore(["a"], v)

    @pytest.mark.parametrize("load", [
        lambda: EmbeddingStore(["a"], [[1e300, 0.0]]),  # overflows float32
        lambda: EmbeddingStore(["a"], np.array([[SNAN_BITS, 0]], np.uint32).view(np.float32)),
        lambda: read_embeddings(io.BytesIO(
            b"EMB1" + struct.pack("<IQ", 2, 1) + struct.pack("<H", 1) + b"a"
            + struct.pack("<2I", SNAN_BITS, 0))),
    ], ids=["overflow", "snan", "snan-emb1"])
    def test_cast_flags_warn_nothing(self, load):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^embedding vectors must be finite$"):
                load()

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17])
    def test_one_zero_padded_array_of_whole_row_blocks(self, n):
        vectors = unit_f64(n, n, 5).astype("<f4")
        built = EmbeddingStore([f"u{k}" for k in range(n)], vectors)
        buf = io.BytesIO()
        write_embeddings(built, buf)
        for store in (built, read_embeddings(io.BytesIO(buf.getvalue()))):
            assert store.padded.shape == (-(-n // ROW_ALIGN) * ROW_ALIGN, 5)
            assert store.vectors.base is store.padded
            assert store.vectors.tobytes() == vectors.astype(np.float64).tobytes()
            assert not store.padded[n:].any()
            assert store.vectors.flags.c_contiguous
            assert not store.padded.flags.writeable and not store.vectors.flags.writeable

    def test_row_index(self):
        v = np.array([[0.5, -0.5, 0.5, -0.5], [0.0, 0.0, 0.0, 1.0]], dtype=np.float32)
        store = EmbeddingStore(["a", "b"], v)
        assert store.row_index(["b", "a"]).tolist() == [1, 0]
        assert store.vectors[store.row_index(["b"])[0]].tolist() == [0, 0, 0, 1]
        assert store.vectors[store.row_index(["b", "a"])].tolist() == [
            [0, 0, 0, 1], [0.5, -0.5, 0.5, -0.5]]
        for missing in (["c"], ["a", "c"]):
            with pytest.raises(ValueError, match="'c' not in embedding store"):
                store.row_index(missing)


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
        vecs = rng.standard_normal((3, 8))
        vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
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
        store = EmbeddingStore(["u1"], np.full((1, 4), 0.5, dtype=np.float32))
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

    def test_non_utf8_id_names_offset(self):
        # 23 bytes: a 16-byte header, then the record whose id is b"\xff"
        data = b"EMB1" + struct.pack("<IQ", 1, 1) + struct.pack("<H", 1) + b"\xff"
        data += struct.pack("<f", 1.0)
        assert len(data) == 23
        with pytest.raises(StoreFormatError) as info:
            read_embeddings(io.BytesIO(data))
        assert info.value.offset == 16
        assert str(info.value) == "offset 16: id is not UTF-8"

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
        store = EmbeddingStore(["idé/001"], np.array([[0.6, 0.8]], dtype=np.float32))
        _, back = self._roundtrip(store)
        assert back.ids == ("idé/001",)


def emb1_records(dim: int, count: int, records) -> tuple[bytes, list[int]]:
    """EMB1 bytes from (id bytes, vector bytes) records, and the byte offset
    at which each record starts."""
    data, starts = b"EMB1" + struct.pack("<IQ", dim, count), []
    for id_bytes, vector in records:
        starts.append(len(data))
        data += struct.pack("<H", len(id_bytes)) + id_bytes + vector
    return data, starts


# ids of one byte length give records of one stride, ids of mixed lengths
# records of varying stride: both layouts must decode alike
LAYOUTS = {"one-stride": [b"a", b"b", b"c"], "mixed": [b"a", "\u00e9b".encode(), b"c"]}


class TestStoreLayouts:
    @pytest.mark.parametrize("dim", [1, 3, 64])
    def test_one_stride_and_mixed_ids_give_equal_stores(self, dim):
        vectors = unit_f64(5, 40, dim).astype("<f4")
        one = [f"u{k:03d}" for k in range(40)]
        mixed = [f"u{k}" for k in range(40)]
        stores = []
        for ids in (one, mixed):
            data, _ = emb1_records(dim, 40, [(u.encode(), v.tobytes()) for u, v in
                                             zip(ids, vectors)])
            stores.append(read_embeddings(io.BytesIO(data)))
        assert stores[0].vectors.tobytes() == stores[1].vectors.tobytes()
        assert stores[0].vectors.tobytes() == vectors.astype(np.float64).tobytes()
        assert [len(u) for u in stores[1].ids] != [len(u) for u in stores[0].ids]
        for store in stores:
            assert store.vectors.flags.c_contiguous and not store.vectors.flags.writeable

    def test_load_holds_only_the_float64_array(self, tmp_path):
        # records stream into the store's float64 array: neither the file
        # bytes, nor a float32 copy of the vectors, nor an n x dim finite
        # mask is held beside it
        vectors = unit_f64(6, 1000, 1024).astype("<f4")
        path = tmp_path / "emb.bin"
        write_embeddings_file(EmbeddingStore([f"u{k:04d}" for k in range(1000)], vectors), path)
        tracemalloc.start()
        try:
            store = read_embeddings_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.vectors.tobytes() == vectors.astype(np.float64).tobytes()
        assert peak < store.vectors.nbytes + 2**20

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("case", ["count-below-records", "garbage"])
    def test_bytes_after_the_last_record_rejected(self, layout, case):
        # a header count below the records, or garbage after the last one
        count = 2 if case == "count-below-records" else 3
        data, starts = emb1_records(2, count, [(u, struct.pack("<2f", 0.6, 0.8))
                                               for u in LAYOUTS[layout]])
        end = starts[2] if count == 2 else len(data)
        if case == "garbage":
            data += b"\x00junk"
        with pytest.raises(StoreFormatError) as info:
            read_embeddings(io.BytesIO(data))
        message = f"{len(data) - end} bytes after the last of {count} records"
        assert (info.value.offset, str(info.value)) == (end, f"offset {end}: {message}")

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("case", ["truncated-vector", "duplicate-id", "bad-utf8",
                                      "count-beyond-data"])
    def test_format_errors_name_the_same_offset(self, layout, case):
        ids = list(LAYOUTS[layout])
        vector = struct.pack("<2f", 0.6, 0.8)
        count, cut = 3, 0
        if case == "duplicate-id":
            ids[2] = ids[0]
        elif case == "bad-utf8":
            ids[2] = b"\xff" * len(ids[2])
        elif case == "count-beyond-data":
            count = 4
        elif case == "truncated-vector":
            cut = 3
        data, starts = emb1_records(2, count, [(u, vector) for u in ids])
        data = data[: len(data) - cut]
        with pytest.raises(StoreFormatError) as info:
            read_embeddings(io.BytesIO(data))
        end = starts[2] + 2 + len(ids[2]) + 8
        want = {
            "truncated-vector": (end - 8, "truncated vector (5 of 8 bytes)"),
            "duplicate-id": (starts[2], f"duplicate id {ids[0].decode()!r}"),
            "bad-utf8": (starts[2], "id is not UTF-8"),
            "count-beyond-data": (end, "truncated id length (0 of 2 bytes)"),
        }[case]
        assert (info.value.offset, str(info.value)) == (want[0], f"offset {want[0]}: {want[1]}")


# a well-formed file, or one with a single structural fault: record
# boundaries only move, so no fault makes a vector of garbage bytes
FAULTS = ["none", "cut", "count", "tail", "duplicate-id", "bad-utf8"]


class TestStreamedReaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 64),
        st.lists(st.text(max_size=5), unique=True, max_size=50),
        st.integers(0, 2**32 - 1),
        st.sampled_from(FAULTS),
        st.data(),
    )
    def test_reader_equals_struct_decoder(self, dim, ids, seed, fault, data):
        id_bytes = [u.encode() for u in ids]
        if fault in ("duplicate-id", "bad-utf8") and len(ids) >= 2:
            j = data.draw(st.integers(1, len(ids) - 1), label="record")
            id_bytes[j] = id_bytes[0] if fault == "duplicate-id" else b"\xff" * (len(ids[j]) or 1)
        vectors = unit_f64(seed, len(ids), dim).astype("<f4")
        count = len(ids)
        if fault == "count":
            count = data.draw(st.integers(0, len(ids) + 3).filter(lambda c: c != len(ids)))
        raw, _ = emb1_records(dim, count, zip(id_bytes, map(np.ndarray.tobytes, vectors)))
        if fault == "cut":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
        elif fault == "tail":
            raw += data.draw(st.binary(min_size=1, max_size=40), label="tail")
        source = RecordingSource(raw)
        try:
            want_ids, want_rows = decode_emb1(raw)
        except FormatFault as want:
            with pytest.raises(StoreFormatError) as got:
                read_embeddings(source)
            assert (got.value.offset, str(got.value)) == (
                want.offset, f"offset {want.offset}: {want.message}")
        else:
            store = read_embeddings(source)
            assert store.ids == tuple(want_ids)
            assert store.vectors.shape == (len(want_ids), dim)
            assert store.vectors.tolist() == want_rows
            assert store.vectors.flags.c_contiguous and not store.vectors.flags.writeable
        assert source.largest_read <= source.size


def emb1_bytes(vectors: np.ndarray) -> bytes:
    """EMB1 bytes built by hand, ids u0, u1, ...: the writer takes only a
    store, and a store cannot hold a vector that is not unit-norm."""
    parts = [b"EMB1", struct.pack("<IQ", vectors.shape[1], len(vectors))]
    for k, row in enumerate(vectors.astype("<f4")):
        utt_id = f"u{k}".encode()
        parts += [struct.pack("<H", len(utt_id)), utt_id, row.tobytes()]
    return b"".join(parts)


def unit_f64(seed: int, n: int, dim: int) -> np.ndarray:
    rows = np.random.default_rng(seed).standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestStoreUnitNorm:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 512))
    def test_float32_rounded_unit_vectors_load(self, seed, n, dim):
        vectors = unit_f64(seed, n, dim)
        back = read_embeddings(io.BytesIO(emb1_bytes(vectors)))
        assert back.vectors.tobytes() == vectors.astype(np.float32).astype(np.float64).tobytes()

    # the margin covers the float32 rounding of the scaled vector, whose
    # norm it moves by under 6e-8 relative
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 512),
        st.data(),
        st.one_of(st.floats(1e-3, 1 - 1.1 * NORM_TOL), st.floats(1 + 1.1 * NORM_TOL, 1e3)),
    )
    def test_scaled_vector_rejected_by_id(self, seed, n, dim, data, f):
        vectors = unit_f64(seed, n, dim)
        bad = data.draw(st.integers(0, n - 1), label="position")
        vectors[bad] *= f
        with pytest.raises(ValueError) as info:
            read_embeddings(io.BytesIO(emb1_bytes(vectors)))
        assert str(info.value).startswith(f"embedding 'u{bad}' is not length-normalized (norm ")


# Differential fuzzing of the text parsers against tests/_text_oracle.py.

WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85 "
TEXTY = st.one_of(
    st.text(max_size=120),
    st.text(alphabet=st.sampled_from(WHITESPACE + "01ab.-+einfx_"), max_size=120),
)
IDS = st.sampled_from(["a", "b", "c", "id1/x.wav", "é", "0", "1"])
SEP = st.sampled_from([" ", "\t", "  ", " \t "])
SCORE_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(format_score),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1_0", "0x1p3", "+.5", "-0", "x"]),
)


@st.composite
def trial_texts(draw, labeled):
    """Well-formed lists with blank lines, tabs and duplicate pairs, one line
    sometimes broken (a field short or extra, or a bad label)."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(IDS), draw(IDS)]
        if labeled:
            fields.insert(0, draw(st.sampled_from(["0", "1"])))
        lines += [draw(SEP).join(fields)] * draw(st.integers(1, 2))
        lines += [draw(st.sampled_from(["", " ", "\t"]))] * draw(st.integers(0, 1))
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = draw(st.sampled_from(["2 a b", "a", "1 a b c", "yes a b", "a b"]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def score_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(IDS), draw(IDS), draw(SCORE_TOKENS)]
        lines += [draw(SEP).join(fields)] * draw(st.integers(1, 2))
        lines += [""] * draw(st.integers(0, 1))
    return "\n".join(lines)


def check_trials(text, labeled):
    try:
        pairs, labels = reference_trials(text, labeled)
    except Rejected as rejected:
        with pytest.raises(TrialParseError) as info:
            parse_trials(text, labeled)
        assert info.value.line_no == rejected.line_no
        assert str(info.value) == str(rejected)
        return
    tl = parse_trials(text, labeled)
    assert list(zip(*trial_ids(tl))) == pairs
    assert list(tl.ids) == first_seen(pairs)
    assert tl.enroll.format == tl.test.format == "q"
    assert tl.labeled == bool(labels)
    if labels:
        assert tl.labels() == bytes(labels)


def check_scores(text, trials):
    expected = list(zip(*trial_ids(trials)))
    try:
        pairs, scores, _ = reference_scores(text, expected)
    except Rejected as rejected:
        with pytest.raises(TrialParseError) as info:
            parse_scores(text, trials)
        assert info.value.line_no == rejected.line_no
        assert str(info.value) == str(rejected)
        return
    except Mismatch as mismatch:
        with pytest.raises(ValueError) as info:
            parse_scores(text, trials)
        assert type(info.value) is ValueError
        assert str(info.value) == str(mismatch)
        return
    got = parse_scores(text, trials)
    assert got.scores.tolist() == scores
    assert got.trials is trials


def written_for(text):
    """The trial list the oracle reads score text as written for; when it
    rejects the text, any list, since a line error comes before the list."""
    try:
        pairs = reference_scores(text)[0]
    except Rejected:
        pairs = [("a", "b")]
    return TrialList([e for e, _ in pairs], [t for _, t in pairs])


def near_trial_list(data, pairs):
    """The trial list `pairs` describes, or one near it: a pair dropped,
    renamed or added at the end."""
    pairs = list(pairs)
    edit = data.draw(st.sampled_from(["same", "drop", "rename", "add"]))
    if edit == "add":
        pairs.append((data.draw(IDS), data.draw(IDS)))
    elif edit == "drop" and pairs:
        del pairs[data.draw(st.integers(0, len(pairs) - 1))]
    elif edit == "rename" and pairs:
        k = data.draw(st.integers(0, len(pairs) - 1))
        pairs[k] = (pairs[k][0], pairs[k][1] + "x")
    return TrialList([e for e, _ in pairs], [t for _, t in pairs])


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(TEXTY, st.booleans())
    def test_trials_arbitrary_text(self, text, labeled):
        check_trials(text, labeled)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.booleans())
    def test_trials_well_formed_lists(self, data, labeled):
        check_trials(data.draw(trial_texts(labeled)), labeled)

    @settings(max_examples=300, deadline=None)
    @given(TEXTY)
    def test_scores_arbitrary_text(self, text):
        check_scores(text, written_for(text))

    @settings(max_examples=300, deadline=None)
    @given(score_texts(), st.data())
    def test_scores_against_trial_lists(self, text, data):
        check_scores(text, written_for(text))
        # the list the file was written for, or one near it
        try:
            pairs, _, _ = reference_scores(text)
        except Rejected:
            pairs = [(data.draw(IDS), data.draw(IDS))]
        check_scores(text, near_trial_list(data, pairs))


# Every line break of str.splitlines() but "\n", and other text that makes
# a line blank or odd: with any of them the parsers must still give what
# the per-line oracle gives.
ODD_TEXT = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
            "\x00", "\t", "\x1f", "\u3000", "\n", "\n\n", "\n \t\n", " \n"]
FIELDS = st.one_of(IDS, st.sampled_from(["0", "1", "2", "ü/ñ.wav", "日本語", "-0.5"]), SCORE_TOKENS)
GOOD_SCORES = st.floats(allow_nan=False, allow_infinity=False).map(format_score)


@st.composite
def mixed_texts(draw):
    """Lines of one shape (labeled trial, unlabeled trial or score) with up
    to three defects: a line of random fields (ids, labels and scores
    mixed), a field moved to the next line (so the field count of the two
    lines still adds up), a line whose fields are parted by odd text, or odd
    text put in anywhere. A final newline or none."""
    shape = draw(st.sampled_from(["labeled", "unlabeled", "scores"]))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        fields = [draw(IDS), draw(IDS)]
        if shape == "labeled":
            fields.insert(0, draw(st.sampled_from(["0", "1"])))
        elif shape == "scores":
            fields.append(draw(GOOD_SCORES))
        rows.append(fields)
    seps = [draw(SEP) for _ in rows]
    odd = 0
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.sampled_from(["fields", "move", "odd-sep", "odd"]))
        k = draw(st.integers(0, max(0, len(rows) - 1)))
        if defect == "fields" and rows:
            rows[k] = draw(st.lists(FIELDS, max_size=4))
        elif defect == "move" and k + 1 < len(rows) and rows[k]:
            rows[k + 1].insert(0, rows[k].pop())
        elif defect == "odd-sep" and rows:
            seps[k] = draw(st.sampled_from(ODD_TEXT))
        else:
            odd += 1
    text = "\n".join(sep.join(fields) for sep, fields in zip(seps, rows))
    text += draw(st.sampled_from(["", "\n"]))
    for _ in range(odd):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ODD_TEXT)) + text[at:]
    return text


class TestTokenizer:
    """parse_trials and parse_scores against the per-line oracle, with
    chunks small enough that most texts cross several chunk boundaries."""

    @settings(max_examples=400, deadline=None)
    @given(mixed_texts(), st.integers(1, 48), st.data())
    def test_parsers_equal_line_oracle(self, text, chunk_chars, data):
        with mock.patch.object(trials_module, "_CHUNK_CHARS", chunk_chars):
            for labeled in (True, False, None):
                check_trials(text, labeled)
            check_scores(text, written_for(text))
            try:
                pairs = reference_scores(text)[0]
            except Rejected:
                try:
                    pairs = reference_trials(text, None)[0]
                except Rejected:
                    pairs = [(data.draw(IDS), data.draw(IDS))]
            check_scores(text, near_trial_list(data, pairs))

    def test_well_formed_text_never_reaches_the_loop(self, monkeypatch):
        def loop(*args):
            raise AssertionError("the per-line loop ran")

        monkeypatch.setattr(trials_module, "_split_rows", loop)
        # about 300 KiB, so several 64 KiB chunks, no final newline
        pairs = [(f"s{k % 701:04d}_ü", f"s{k % 557:04d}_u") for k in range(12000)]
        labeled = "\n".join(f"{k % 2} {e}\t{t}" for k, (e, t) in enumerate(pairs))
        scores = "\n".join(f"{e} {t}  {format_score(k / 7.0 - 800)}" for k, (e, t) in enumerate(pairs))
        assert len(scores) > 4 * trials_module._CHUNK_CHARS
        check_trials(labeled, True)
        check_trials(labeled, None)
        check_trials(labeled.replace("0 s", "s").replace("1 s", "s"), False)
        check_scores(scores, written_for(scores))
        check_scores(scores, parse_trials(labeled, True))

    @pytest.mark.parametrize("defect", ["crlf", "blank"])
    @pytest.mark.parametrize("later_error", [False, True], ids=["clean", "later-error"])
    def test_only_the_odd_chunk_reaches_the_loop(self, monkeypatch, defect, later_error):
        split_rows = trials_module._split_rows
        starts = []  # the first line of each chunk split line by line

        def counted(chunk, width, line_no):
            starts.append(line_no)
            return split_rows(chunk, width, line_no)

        monkeypatch.setattr(trials_module, "_split_rows", counted)
        # about 300 KiB, so several 64 KiB chunks; the odd line is in a middle
        # one, and a bad line, if any, in a later one
        pairs = [(f"s{k % 701:04d}_ü", f"s{k % 557:04d}_u") for k in range(12000)]
        labeled = [f"{k % 2} {e}\t{t}" for k, (e, t) in enumerate(pairs)]
        scores = [f"{e} {t}  {format_score(k / 7.0 - 800)}" for k, (e, t) in enumerate(pairs)]
        for lines, bad in ((labeled, "2 a b"), (scores, "a b x")):
            if later_error:
                lines[9000] = bad
            if defect == "crlf":
                lines[6000] += "\r"
            else:
                lines.insert(6000, "")
        labeled, scores = "\n".join(labeled), "\n".join(scores)
        assert 2 * trials_module._CHUNK_CHARS < len("\n".join(scores.splitlines()[:6000]))
        for check in (lambda: check_trials(labeled, True),
                      lambda: check_trials(labeled, None),
                      lambda: check_scores(scores, written_for(scores))):
            starts.clear()
            check()
            assert len(starts) == 1 and 1 < starts[0] <= 6001

    def test_error_in_a_later_chunk_names_its_line(self):
        tl = TrialList([f"e{k}" for k in range(20000)], [f"t{k}" for k in range(20000)])
        lines = [f"e{k} t{k} 0.{k}" for k in range(20000)]
        lines[15000] = "e t 1e999"
        with pytest.raises(TrialParseError) as info:
            parse_scores("\n".join(lines), tl)
        assert str(info.value) == "line 15001: non-finite score '1e999'"


POWERS = [float(f"1e{k}") for k in range(-12, 4)]
EDGE_SCORES = [0.0, -0.0, 1e15, -1e15, 1e300, -1.7976931348623157e308, 5e-324, 123456789.5]
for _p in POWERS:
    EDGE_SCORES += [_p, -_p, np.nextafter(_p, 0.0), np.nextafter(_p, np.inf)]
    EDGE_SCORES += [-np.nextafter(_p, 0.0), -np.nextafter(_p, np.inf)]
EDGE_SCORES += [10**k * (1 + s * 2**-52) for k in range(-12, 13) for s in (1, -1)]
EDGE_SCORES += [2.225073858507201e-308, -1e-310, 1e-320, -5e-324]  # subnormals


def expected_score_text(tl, scores):
    return "".join(f"{e} {t} {format_score(s)}\n"
                   for e, t, s in zip(*trial_ids(tl), scores))


class TestScoreText:
    def test_edge_scores_byte_identical(self):
        n = len(EDGE_SCORES)
        tl = TrialList([f"e{k % 5}" for k in range(n)], [f"t{k}" for k in range(n)])
        scores = np.array(EDGE_SCORES, dtype=np.float64)
        text = serialize_scores(ScoreSet(tl, scores))
        assert text == expected_score_text(tl, EDGE_SCORES)
        assert "e0 t0 0.000000000\ne1 t1 0.000000000\n" in text

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(EDGE_SCORES),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=30,
        )
    )
    def test_serialize_equals_format_score(self, values):
        n = len(values)
        tl = TrialList([f"e{k % 3}" for k in range(n)], [f"t{k}" for k in range(n)])
        text = serialize_scores(ScoreSet(tl, np.array(values, dtype=np.float64)))
        assert text == expected_score_text(tl, values)

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_np_log10_off_by_one_ulp_writes_same_bytes(self, monkeypatch, direction):
        # a vectorized log10 may differ from math.log10 in its last bit, which
        # moves the floor next to every power of ten
        exact = np.log10
        monkeypatch.setattr(np, "log10", lambda x: np.nextafter(exact(x), direction))
        n = len(EDGE_SCORES)
        tl = TrialList([f"e{k}" for k in range(n)], [f"t{k}" for k in range(n)])
        text = serialize_scores(ScoreSet(tl, np.array(EDGE_SCORES, dtype=np.float64)))
        assert text == expected_score_text(tl, EDGE_SCORES)

    @pytest.mark.parametrize("n", [0, 1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1,
                                   2 * SCORE_CHUNK + 1])
    def test_chunks_equal_format_score_at_chunk_edges(self, n):
        # mixed precisions and both zeros, cycled so every chunk holds all of them
        values = [EDGE_SCORES[k % len(EDGE_SCORES)] for k in range(n)]
        tl = TrialList._from_codes([f"u{k}" for k in range(7)],
                                   np.arange(2 * n) % 7, None)
        score_set = ScoreSet(tl, np.array(values, dtype=np.float64))
        chunks = list(score_text_chunks(score_set))
        assert [c.count("\n") for c in chunks] == [
            min(SCORE_CHUNK, n - s) for s in range(0, n, SCORE_CHUNK)]
        assert "".join(chunks) == expected_score_text(tl, values)
        assert serialize_scores(score_set) == "".join(chunks)

    def test_ids_with_percent_signs_are_written_verbatim(self):
        tl = TrialList(["%s", "%%"], ["a%d", "%.3f%"])
        text = serialize_scores(ScoreSet(tl, np.array([0.5, -2.0])))
        assert text == "%s a%d 0.500000000\n%% %.3f% -2.00000000\n"
