"""End-to-end command-line behavior: subcommands, exit codes, streams."""

import contextlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import svkit
from svkit import cli as cli_module
from svkit import selftest
from svkit.cli import main
from svkit.config import stage_seed
from svkit.features import Waveform, read_mel, read_wav, write_wav
from svkit.model import embed_waveform
from svkit.scoring import MAX_N_SEGMENTS, score_trials, segment_id, segment_plan
from svkit.schedule import CosineRestartConfig, lr_at
from svkit.trials import (
    SCORE_CHUNK,
    EmbeddingStore,
    ScoreSet,
    TrialList,
    parse_scores,
    parse_trials,
    read_embeddings_file,
    score_text_chunks,
    serialize_scores,
    serialize_trials,
    write_embeddings_file,
)

RATE = 16000


def tone_wav(path, freq, duration=1.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * RATE)) / RATE
    samples = 0.3 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(t.size)
    write_wav(Waveform(samples, RATE), path)
    return path


@pytest.fixture
def wav_dir(tmp_path):
    for i in range(4):
        tone_wav(tmp_path / f"u{i}.wav", 300 + 140 * i, seed=i)
    return tmp_path


def write_trials(path, trial_list):
    path.write_text(serialize_trials(trial_list), encoding="utf-8")
    return path


CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(svkit.__file__).parents[1])}


def run_child(code, cwd=None):
    """stdout of `python -c code` in a new interpreter that imports this
    svkit, run in `cwd`; a non-zero exit fails the test."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=CHILD_ENV, cwd=cwd).stdout


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["transcode"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_version_exit_zero(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "svkit" in out
        assert "EMB1" in out
        assert "MEL1" in out

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency
        code = (
            "import sys, svkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = run_child(code)
        assert out.strip() == "[]"

    def test_score_loads_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma, which costs every command 10-30 ms
        rng = np.random.default_rng(7)
        write_embeddings_file(EmbeddingStore(["a", "b", "c"], unit_rows(rng, 3, 4)),
                              tmp_path / "emb.bin")
        write_trials(tmp_path / "t.txt", TrialList(["a", "a"], ["b", "c"], [True, False]))
        code = (
            "import sys; from svkit.cli import main; "
            "code = main(['score', '--trials', 't.txt', '--embeddings', 'emb.bin', "
            "'--output', 's.txt']); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        out = run_child(code, cwd=tmp_path)
        assert out.split() == ["0", "False"]
        assert (tmp_path / "s.txt").read_text(encoding="utf-8").count("\n") == 2

    # importing hashlib maps OpenSSL (about 3.5 MB of RSS); only the
    # commands that seed a stage (augment, embed) need it, for stage_seed
    # and for numpy.random, which imports it through secrets
    @pytest.mark.parametrize("argv, loads", [
        (["--version"], False),
        (["features", "--wav", "u.wav", "--output", "u.mel"], False),
        (["score", "--trials", "t.txt", "--embeddings", "emb.bin"], False),
        (["score", "--trials", "t.txt", "--embeddings", "emb.bin", "--asnorm",
          "--cohort", "cohort.bin", "--topk", "2"], False),
        (["evaluate", "--trials", "t.txt", "--scores", "s.txt"], False),
        (["fuse", "--trials", "t.txt", "--scores", "s.txt", "s.txt", "--fit-labels"], False),
        (["embed", "--wav-list", "wavs.txt", "--output", "out.bin"], True),
    ], ids=["version", "features", "score", "score-asnorm", "evaluate", "fuse-fit", "embed"])
    def test_only_seeded_commands_load_hashlib(self, tmp_path, argv, loads):
        rng = np.random.default_rng(8)
        write_embeddings_file(EmbeddingStore(["a", "b", "c"], unit_rows(rng, 3, 4)),
                              tmp_path / "emb.bin")
        write_embeddings_file(EmbeddingStore([f"k{i}" for i in range(4)], unit_rows(rng, 4, 4)),
                              tmp_path / "cohort.bin")
        write_trials(tmp_path / "t.txt", TrialList(["a", "a"], ["b", "c"], [True, False]))
        (tmp_path / "s.txt").write_text("a b 0.5\na c -0.5\n", encoding="utf-8")
        tone_wav(tmp_path / "u.wav", 440)
        (tmp_path / "wavs.txt").write_text("u u.wav\n", encoding="utf-8")
        code = (
            "import sys; from svkit.cli import main; "
            f"code = main({argv!r}); "
            "print(code, 'hashlib' in sys.modules, '_hashlib' in sys.modules)"
        )
        out = run_child(code, cwd=tmp_path)
        assert out.splitlines()[-1].split() == ["0", str(loads), str(loads)]

    def test_threads_flag_is_usage_error(self, capsys):
        # the flag is gone: nothing ever read it
        assert main(["--threads", "1", "selftest"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["evaluate", "--trials", "x"]) == 1


class TestShapes:
    def test_table_variant(self, capsys):
        assert main(["shapes", "ResNet34-st1112", "--frames", "600"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "stage1 80 600",
            "stage2 40 600",
            "stage3 20 600",
            "stage4 10 300",
        ]

    def test_unknown_variant_is_data_error(self, capsys):
        assert main(["shapes", "ResNet18"]) == 2
        assert "unknown variant" in capsys.readouterr().err


class TestFeatures:
    def test_writes_mel_matrix(self, tmp_path, capsys):
        wav = tone_wav(tmp_path / "a.wav", 500)
        out = tmp_path / "a.mel"
        assert main(["features", "--wav", str(wav), "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("frames ")
        with open(out, "rb") as fh:
            feats = read_mel(fh)
        assert feats.bins.shape[0] == 80
        # 1.0 s at 25 ms window / 10 ms hop
        assert feats.bins.shape[1] == 1 + (RATE - 400) // 160

    def test_missing_wav_is_data_error(self, tmp_path, capsys):
        code = main(
            ["features", "--wav", str(tmp_path / "nope.wav"), "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "nope.wav" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"", b"not a wav file at all\n"], ids=["empty", "text"])
    def test_non_riff_wav_is_data_error(self, tmp_path, capsys, content):
        wav = tmp_path / "fake.wav"
        wav.write_bytes(content)
        code = main(["features", "--wav", str(wav), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "fake.wav" in err

    @pytest.mark.parametrize(
        "keep, reason",
        [
            (30, "not a readable RIFF wav (truncated header)"),
            (44 + 2 * 1600, "truncated wav data (1600 of 16000 frames)"),
        ],
        ids=["header", "data"],
    )
    @pytest.mark.parametrize("command", ["features", "embed"])
    def test_truncated_wav_is_data_error(self, tmp_path, capsys, command, keep, reason):
        wav = tone_wav(tmp_path / "cut.wav", 440)  # 1 s: 16000 frames after a 44-byte header
        wav.write_bytes(wav.read_bytes()[:keep])
        out = tmp_path / "out"
        if command == "features":
            argv = ["features", "--wav", str(wav), "--output", str(out)]
        else:
            wav_list = tmp_path / "utts.txt"
            wav_list.write_text(f"u0 {wav}\n", encoding="utf-8")
            argv = ["embed", "--wav-list", str(wav_list), "--output", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines() == [f"error: {wav}: {reason}"]
        assert not out.exists()


class TestAugment:
    def make_manifest(self, tmp_path):
        rng = np.random.default_rng(99)
        lines = []
        for i, cat in enumerate(["noise", "music"]):
            p = tmp_path / f"{cat}.wav"
            write_wav(Waveform(0.1 * rng.standard_normal(RATE // 2), RATE), p)
            lines.append(f"{cat} {p.name}")
        for i in range(7):
            p = tmp_path / f"sp{i}.wav"
            write_wav(Waveform(0.1 * rng.standard_normal(RATE // 2), RATE), p)
            lines.append(f"speech {p.name}")
        rir = np.zeros(800)
        rir[0] = 1.0
        rir[400] = 0.35
        p = tmp_path / "rir.wav"
        write_wav(Waveform(rir, RATE), p)
        lines.append(f"rir {p.name}")
        manifest = tmp_path / "bank.txt"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        wav = tone_wav(tmp_path / "in.wav", 440)
        out1, out2 = tmp_path / "o1.wav", tmp_path / "o2.wav"
        for out in (out1, out2):
            code = main(
                [
                    "augment",
                    "--wav", str(wav),
                    "--manifest", str(manifest),
                    "--output", str(out),
                    "--seed", "5",
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        wav = tone_wav(tmp_path / "in.wav", 440)
        code = main(["augment", "--wav", str(wav), "--output", str(tmp_path / "o.wav")])
        assert code == 1


class TestEmbedScoreEvaluate:
    def setup_pipeline(self, tmp_path, wav_dir):
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text(
            "".join(f"u{i} {wav_dir / f'u{i}.wav'}\n" for i in range(4)), encoding="utf-8"
        )
        emb = tmp_path / "emb.bin"
        assert main(["embed", "--wav-list", str(wav_list), "--output", str(emb)]) == 0
        trials = write_trials(
            tmp_path / "trials.txt",
            TrialList(["u0", "u0", "u1", "u2"], ["u1", "u2", "u3", "u3"],
                      [True, False, False, True]),
        )
        return wav_list, emb, trials

    def test_full_raw_flow(self, tmp_path, wav_dir, capsys):
        _, emb, trials = self.setup_pipeline(tmp_path, wav_dir)
        scores = tmp_path / "scores.txt"
        code = main(
            [
                "score",
                "--trials", str(trials),
                "--embeddings", str(emb),
                "--labeled",
                "--output", str(scores),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["evaluate", "--trials", str(trials), "--scores", str(scores)]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("EER(%) ")
        assert out_lines[1].startswith("minDCF ")

    def test_embed_reproducible_byte_for_byte(self, tmp_path, wav_dir):
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text(
            "".join(f"u{i} {wav_dir / f'u{i}.wav'}\n" for i in range(4)), encoding="utf-8"
        )
        out1, out2 = tmp_path / "e1.bin", tmp_path / "e2.bin"
        for out in (out1, out2):
            assert main(["embed", "--wav-list", str(wav_list), "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_score_to_stdout_parses(self, tmp_path, wav_dir, capsys):
        _, emb, trials = self.setup_pipeline(tmp_path, wav_dir)
        capsys.readouterr()
        code = main(
            ["score", "--trials", str(trials), "--embeddings", str(emb), "--labeled"]
        )
        assert code == 0
        text = capsys.readouterr().out
        parsed = parse_scores(text)
        assert len(parsed) == 4

    def test_asnorm_needs_cohort(self, tmp_path, wav_dir, capsys):
        _, emb, trials = self.setup_pipeline(tmp_path, wav_dir)
        code = main(
            ["score", "--trials", str(trials), "--embeddings", str(emb), "--asnorm", "--labeled"]
        )
        assert code == 1

    def test_asnorm_flow(self, tmp_path, wav_dir, capsys):
        _, emb, trials = self.setup_pipeline(tmp_path, wav_dir)
        capsys.readouterr()
        code = main(
            [
                "score",
                "--trials", str(trials),
                "--embeddings", str(emb),
                "--labeled",
                "--asnorm",
                "--cohort", str(emb),
                "--topk", "3",
            ]
        )
        assert code == 0
        assert len(parse_scores(capsys.readouterr().out)) == 4

    def test_msa_flow(self, tmp_path, wav_dir, capsys):
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text(
            "".join(f"u{i} {wav_dir / f'u{i}.wav'}\n" for i in range(4)), encoding="utf-8"
        )
        emb = tmp_path / "seg.bin"
        assert main(["embed", "--wav-list", str(wav_list), "--output", str(emb), "--msa"]) == 0
        store = read_embeddings_file(emb)
        assert len(store) == 20
        assert "u0#0" in store and "u3#4" in store
        trials = write_trials(tmp_path / "t.txt", TrialList(["u0", "u2"], ["u1", "u3"]))
        capsys.readouterr()
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb), "--msa"])
        assert code == 0
        assert len(parse_scores(capsys.readouterr().out)) == 2

    def test_msa_segment_count_comes_from_store(self, tmp_path, wav_dir, capsys):
        # 7 segments of 0.5 s over 1 s utterances, so every segment differs
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text(
            "".join(f"u{i} {wav_dir / f'u{i}.wav'}\n" for i in range(4)), encoding="utf-8"
        )
        config = tmp_path / "msa.cfg"
        config.write_text("n_segments = 7\nsegment_duration = 0.5\n", encoding="utf-8")
        emb = tmp_path / "seg.bin"
        assert main(["embed", "--msa", "--wav-list", str(wav_list), "--config", str(config),
                     "--output", str(emb)]) == 0
        store = read_embeddings_file(emb)
        assert len(store) == 28
        trials = write_trials(tmp_path / "t.txt", TrialList(["u0", "u2"], ["u1", "u3"]))
        outputs = []
        for flags in ([], ["--config", str(config)]):
            capsys.readouterr()
            assert main(["score", "--msa", "--trials", str(trials), "--embeddings", str(emb),
                         *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        segments = [store.vectors[store.row_index([segment_id(u, k) for k in range(7)])]
                    for u in ("u0", "u1")]
        assert parse_scores(outputs[0]).scores[0] == pytest.approx(
            np.mean(segments[0] @ segments[1].T), abs=1e-9)

    def test_asnorm_msa_flow(self, tmp_path, wav_dir, capsys):
        wav_list, plain, trials = self.setup_pipeline(tmp_path, wav_dir)
        # 7 segments of 0.5 s over 1 s clips, so every segment differs
        config = tmp_path / "msa.cfg"
        config.write_text("n_segments = 7\nsegment_duration = 0.5\n", encoding="utf-8")
        segments = tmp_path / "seg.bin"
        assert main(["embed", "--msa", "--wav-list", str(wav_list), "--config", str(config),
                     "--output", str(segments)]) == 0
        # five copies of each plain vector as its segments
        store = read_embeddings_file(plain)
        tiled = tmp_path / "tiled.bin"
        tiled_ids = [segment_id(u, k) for u in store.ids for k in range(5)]
        write_embeddings_file(EmbeddingStore(tiled_ids, np.repeat(store.vectors, 5, axis=0)), tiled)
        capsys.readouterr()

        def score(emb, *flags):
            out = tmp_path / "scores.txt"
            assert main(["score", "--labeled", "--trials", str(trials), "--embeddings", str(emb),
                         "--cohort", str(plain), "--topk", "3", "--output", str(out),
                         *flags]) == 0
            assert capsys.readouterr() == ("", "")
            return out.read_text(encoding="utf-8")

        got = score(segments, "--asnorm", "--msa")
        want = score_trials(parse_trials(trials.read_text(encoding="utf-8"), True),
                            read_embeddings_file(segments), mode="msa",
                            cohort=read_embeddings_file(plain), top_k=3)
        assert got == serialize_scores(want)
        assert got != score(segments, "--msa")
        assert score(tiled, "--asnorm", "--msa") == score(plain, "--asnorm")

    def test_labeled_and_unlabeled_lists_score_alike(self, tmp_path, wav_dir, capsys):
        _, emb, labeled = self.setup_pipeline(tmp_path, wav_dir)
        unlabeled = tmp_path / "unlabeled.txt"
        unlabeled.write_text("".join(line.split(" ", 1)[1] for line in
                                     labeled.read_text(encoding="utf-8").splitlines(True)),
                             encoding="utf-8")
        capsys.readouterr()
        outputs = []
        for trials, flags in ((labeled, []), (unlabeled, []), (labeled, ["--labeled"])):
            assert main(["score", "--trials", str(trials), "--embeddings", str(emb), *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].splitlines()) == 4
        # --labeled still forces the labeled form
        argv = ["score", "--labeled", "--trials", str(unlabeled), "--embeddings", str(emb)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {unlabeled}:1: expected 3 fields, got 2\n"

    def test_truncated_cohort_names_file(self, tmp_path, wav_dir, capsys):
        _, emb, trials = self.setup_pipeline(tmp_path, wav_dir)
        # header, then one record at offset 16 whose 12-byte vector starts at offset 19
        cohort = tmp_path / "trunc.emb"
        cohort.write_bytes(b"EMB1" + struct.pack("<IQ", 3, 1) + struct.pack("<H", 1) + b"a"
                           + bytes(11))
        capsys.readouterr()
        code = main(["score", "--labeled", "--trials", str(trials), "--embeddings", str(emb),
                     "--asnorm", "--cohort", str(cohort)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {cohort}: offset 19: truncated vector (11 of 12 bytes)\n"

    def test_unnormalized_store_names_vector(self, tmp_path, capsys):
        emb = tmp_path / "e.emb"
        emb.write_bytes(b"EMB1" + struct.pack("<IQ", 2, 2)
                        + struct.pack("<H", 1) + b"a" + struct.pack("<2f", 1.0, 0.0)
                        + struct.pack("<H", 1) + b"b" + struct.pack("<2f", 0.5, 0.0))
        trials = write_trials(tmp_path / "t.txt", TrialList(["a"], ["b"]))
        assert main(["score", "--trials", str(trials), "--embeddings", str(emb)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {emb}: embedding 'b' is not length-normalized (norm 0.5)\n"

    @pytest.mark.parametrize("slot", ["--embeddings", "--cohort"])
    def test_signalling_nan_vector_is_one_line_error(self, tmp_path, capsys, slot):
        # float32 0x7f800001 is a signalling NaN: decoding it flags `invalid`
        bad = tmp_path / "snan.emb"
        bad.write_bytes(b"EMB1" + struct.pack("<IQ", 2, 1) + struct.pack("<H", 1) + b"a"
                        + struct.pack("<2I", 0x7F800001, 0))
        good = tmp_path / "e.emb"
        write_embeddings_file(EmbeddingStore(["a", "b"], np.eye(2)), good)
        trials = write_trials(tmp_path / "t.txt", TrialList(["a"], ["b"]))
        argv = ["score", "--trials", str(trials), "--embeddings", str(bad)]
        if slot == "--cohort":
            argv = ["score", "--trials", str(trials), "--embeddings", str(good),
                    "--asnorm", "--cohort", str(bad)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: embedding vectors must be finite\n"

    def test_msa_segment_count_over_cap_is_data_error(self, tmp_path, capsys):
        n = MAX_N_SEGMENTS + 1
        ids = [segment_id(u, k) for u in ("u0", "u1") for k in range(n)]
        emb = tmp_path / "seg.bin"
        write_embeddings_file(EmbeddingStore(ids, np.tile(np.eye(4)[0], (len(ids), 1))), emb)
        trials = write_trials(tmp_path / "t.txt", TrialList(["u0"], ["u1"]))
        code = main(["score", "--msa", "--trials", str(trials), "--embeddings", str(emb)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"utterance 'u0' has more than {MAX_N_SEGMENTS} segments" in captured.err

    @pytest.mark.parametrize(
        "flags", [[], ["--asnorm", "--topk", "3"], ["--msa"], ["--asnorm", "--msa", "--topk", "3"]],
        ids=["raw", "asnorm", "msa", "asnorm-msa"],
    )
    def test_missing_trial_id_is_data_error(self, tmp_path, wav_dir, capsys, flags):
        wav_list, emb, _ = self.setup_pipeline(tmp_path, wav_dir)
        if "--msa" in flags:
            assert main(["embed", "--wav-list", str(wav_list), "--output", str(emb), "--msa"]) == 0
        if "--asnorm" in flags:
            flags = flags + ["--cohort", str(emb)]
        trials = write_trials(tmp_path / "t.txt", TrialList(["u0", "u2"], ["u1", "ghost"]))
        capsys.readouterr()
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "'ghost" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flags", [[], ["--asnorm", "--topk", "3"], ["--msa"], ["--asnorm", "--msa", "--topk", "3"]],
        ids=["raw", "asnorm", "msa", "asnorm-msa"],
    )
    def test_blank_trial_file_gives_empty_scores(self, tmp_path, wav_dir, capsys, flags):
        wav_list, emb, _ = self.setup_pipeline(tmp_path, wav_dir)
        if "--msa" in flags:
            assert main(["embed", "--wav-list", str(wav_list), "--output", str(emb), "--msa"]) == 0
        if "--asnorm" in flags:
            flags = flags + ["--cohort", str(emb)]
        trials = tmp_path / "blank.txt"
        trials.write_text("\n  \n", encoding="utf-8")
        out = tmp_path / "scores.txt"
        capsys.readouterr()
        code = main(
            ["score", "--trials", str(trials), "--embeddings", str(emb), "--output", str(out)]
            + flags
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out == "" and captured.err == ""
        assert out.read_text(encoding="utf-8") == ""

    def test_degenerate_cohort_names_utterance(self, tmp_path, capsys):
        # every cohort vector is spkB's, so spkA's top-3 scores are identical
        emb, cohort = tmp_path / "emb.bin", tmp_path / "cohort.bin"
        vectors = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
        write_embeddings_file(EmbeddingStore(["spkA", "spkB"], vectors), emb)
        write_embeddings_file(
            EmbeddingStore([f"c{i}" for i in range(5)], np.tile(vectors[1], (5, 1))), cohort
        )
        trials = write_trials(tmp_path / "t.txt", TrialList(["spkA"], ["spkB"]))
        code = main(
            ["score", "--trials", str(trials), "--embeddings", str(emb),
             "--asnorm", "--cohort", str(cohort), "--topk", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "degenerate cohort for embedding 'spkA'" in captured.err

    def test_store_header_count_is_data_error(self, tmp_path, capsys):
        emb = tmp_path / "huge.bin"
        emb.write_bytes(b"EMB1" + struct.pack("<IQ", 256, 2**40))
        trials = write_trials(tmp_path / "t.txt", TrialList(["u0"], ["u1"]))
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "truncated" in err

    def test_non_utf8_store_id_is_data_error(self, tmp_path, capsys):
        # 23 bytes: header, then one record at offset 16 whose id is b"\xff"
        emb = tmp_path / "bad_id.bin"
        emb.write_bytes(
            b"EMB1" + struct.pack("<IQ", 1, 1) + struct.pack("<H", 1) + b"\xff"
            + struct.pack("<f", 1.0)
        )
        trials = write_trials(tmp_path / "t.txt", TrialList(["u0"], ["u1"]))
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "offset 16" in captured.err

    def test_missing_trials_names_path(self, tmp_path, wav_dir, capsys):
        _, emb, _ = self.setup_pipeline(tmp_path, wav_dir)
        missing = tmp_path / "absent_trials.txt"
        code = main(["score", "--trials", str(missing), "--embeddings", str(emb)])
        assert code == 2
        assert "absent_trials.txt" in capsys.readouterr().err


class TestEmbed:
    @pytest.mark.parametrize("flags", [[], ["--msa"]], ids=["plain", "msa"])
    def test_store_equals_per_segment_loop(self, tmp_path, capsys, monkeypatch, flags):
        # "short" is under one 6 s segment, so its MSA plan is padded;
        # "exact" is one segment long, and "over" is two samples longer
        wavs = {
            "short": tone_wav(tmp_path / "short.wav", 330, duration=2.5, seed=1),
            "long": tone_wav(tmp_path / "long.wav", 610, duration=7.5, seed=2),
            "exact": tone_wav(tmp_path / "exact.wav", 470, duration=6.0, seed=3),
            "over": tone_wav(tmp_path / "over.wav", 520, duration=96002.5 / RATE, seed=4),
        }
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text("".join(f"{u} {p}\n" for u, p in wavs.items()), encoding="utf-8")
        out = tmp_path / "emb.bin"
        calls = []

        def counted(w, **kwargs):
            calls.append(len(w))
            return embed_waveform(w, **kwargs)

        monkeypatch.setattr("svkit.cli.embed_waveform", counted)
        assert main(["embed", "--wav-list", str(wav_list), "--output", str(out), *flags]) == 0
        # the oracle embeds every planned segment separately
        seed = stage_seed(0, "embed")
        ids, vectors, distinct = [], [], 0
        for utt_id, path in wavs.items():
            wav = read_wav(path)
            if flags:
                plan = segment_plan(len(wav), RATE)
                assert plan.padded == (utt_id == "short")
                for k, offset in enumerate(plan.offsets):
                    samples = (np.resize(wav.samples, plan.length) if plan.padded
                               else wav.samples[offset : offset + plan.length])
                    ids.append(segment_id(utt_id, k))
                    vectors.append(embed_waveform(Waveform(samples, RATE), seed=seed))
                distinct += len(set(plan.offsets))
            else:
                ids.append(utt_id)
                vectors.append(embed_waveform(wav, seed=seed))
                distinct += 1
        expected = tmp_path / "expected.bin"
        write_embeddings_file(EmbeddingStore(ids, vectors), expected)
        assert out.read_bytes() == expected.read_bytes()
        # each distinct offset is embedded once: 1 + 5 + 1 + 3 segments
        assert [len(read_wav(p)) for p in wavs.values()] == [40000, 120000, 96000, 96002]
        assert len(calls) == distinct == (10 if flags else 4)

    def test_id_too_long_for_emb1_leaves_no_output(self, tmp_path, capsys):
        good = tone_wav(tmp_path / "good.wav", 440)
        long_id = "x" * 70000
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text(f"a {good}\n{long_id} {good}\n", encoding="utf-8")
        out = tmp_path / "emb.bin"
        code = main(["embed", "--wav-list", str(wav_list), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: utterance id longer than 65535 bytes: {long_id[:40]!r}...\n"
        assert not out.exists()

    def test_duplicate_utterance_id_names_line_before_reading(self, tmp_path, capsys,
                                                              monkeypatch):
        good = tone_wav(tmp_path / "good.wav", 440)
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text(f"a {good}\nb {good}\n\na {good}\n", encoding="utf-8")
        reads = []
        monkeypatch.setattr("svkit.cli.read_wav", lambda *a, **k: reads.append(a))
        out = tmp_path / "emb.bin"
        code = main(["embed", "--wav-list", str(wav_list), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {wav_list}:4: duplicate utterance id 'a'"]
        assert reads == []
        assert not out.exists()

    def test_failing_utterance_is_named(self, tmp_path, capsys):
        good = tone_wav(tmp_path / "good.wav", 440)
        write_wav(Waveform(np.zeros(100), RATE), tmp_path / "tiny.wav")
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text(f"ok {good}\nclip7 tiny.wav\n", encoding="utf-8")
        out = tmp_path / "emb.bin"
        code = main(["embed", "--wav-list", str(wav_list), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: utterance 'clip7' ({tmp_path / 'tiny.wav'}): "
            "waveform too short: 100 samples < 400 window"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "waveform too short: 0 samples < 400 window"),
            (["--msa"], "utterance length must be positive, got 0 samples"),
        ],
        ids=["plain", "msa"],
    )
    def test_empty_utterance_is_named(self, tmp_path, capsys, flags, message):
        write_wav(Waveform(np.zeros(0), RATE), tmp_path / "empty.wav")
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text("blank empty.wav\n", encoding="utf-8")
        out = tmp_path / "emb.bin"
        code = main(["embed", "--wav-list", str(wav_list), "--output", str(out), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: utterance 'blank' ({tmp_path / 'empty.wav'}): {message}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, flags, message",
        [
            ("hop = inf", [], "hop must be finite"),
            ("hop = 0.00001", [], "hop of 1e-05 s is under one sample at 16000 Hz"),
            ("segment_duration = inf", ["--msa"], "segment_duration must be finite"),
            ("window = 0.00001", [], "window of 1e-05 s is under one sample at 16000 Hz"),
            ("segment_duration = 1e300", ["--msa"],
             "segment_duration of 1e+300 s must be 1..2097152 samples at 16000 Hz"),
            ("n_segments = 100000000000000000000", ["--msa"], "n_segments must be in 1..32, got"),
        ],
    )
    def test_bad_front_end_config_is_data_error(self, tmp_path, capsys, line, flags, message):
        tone_wav(tmp_path / "u.wav", 440)
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text("u u.wav\n", encoding="utf-8")
        config = tmp_path / "pipeline.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        code = main(
            ["embed", "--wav-list", str(wav_list), "--config", str(config),
             "--output", str(tmp_path / "emb.bin"), *flags]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err

    @pytest.mark.parametrize(
        "line, argv, message",
        [
            ("top_k = x", ["score", "--trials", "t", "--embeddings", "e"],
             "top_k must be an integer, got 'x'"),
            ("doubling = maybe", ["schedule-dump", "--steps", "3"],
             "doubling must be a boolean, got 'maybe'"),
        ],
    )
    def test_config_type_error_names_file(self, tmp_path, capsys, line, argv, message):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        assert main([*argv, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}: {message}\n"


class TestEvaluateFixture:
    def test_perfect_separation_prints_zero(self, tmp_path, capsys):
        trials = write_trials(
            tmp_path / "t.txt",
            TrialList(["a", "a", "a", "a"], ["b", "c", "d", "e"], [True, True, False, False]),
        )
        scores = tmp_path / "s.txt"
        scores.write_text(
            "a b 0.900000000\na c 0.800000000\na d 0.200000000\na e 0.100000000\n"
        )
        assert main(["evaluate", "--trials", str(trials), "--scores", str(scores)]) == 0
        out = capsys.readouterr().out
        assert "EER(%) 0.000000" in out
        assert "minDCF 0.000000" in out

    def test_score_trial_mismatch_is_data_error(self, tmp_path, capsys):
        trials = write_trials(
            tmp_path / "t.txt",
            TrialList(["a", "a"], ["b", "c"], [True, False]),
        )
        scores = tmp_path / "s.txt"
        scores.write_text("a b 0.900000000\nx y 0.100000000\n")
        assert main(["evaluate", "--trials", str(trials), "--scores", str(scores)]) == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_score_names_line(self, tmp_path, capsys, token):
        trials = write_trials(
            tmp_path / "t.txt",
            TrialList(["a", "a"], ["b", "c"], [True, False]),
        )
        scores = tmp_path / "s.txt"
        scores.write_text(f"a b 0.900000000\na c {token}\n")
        code = main(["evaluate", "--trials", str(trials), "--scores", str(scores)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {scores}:2: non-finite score '{token}'\n"

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_trial_list_says_so(self, tmp_path, capsys, text):
        trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
        trials.write_text(text)
        scores.write_text("")
        code = main(["evaluate", "--trials", str(trials), "--scores", str(scores)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {trials}: no trials\n"

    @pytest.mark.parametrize("flag, value", [
        ("--c-miss", "nan"), ("--c-miss", "inf"), ("--c-fa", "inf"), ("--c-fa", "0"),
    ])
    def test_non_finite_or_non_positive_cost_is_data_error(self, tmp_path, capsys, flag, value):
        trials = write_trials(
            tmp_path / "t.txt",
            TrialList(["a", "a"], ["b", "c"], [True, False]),
        )
        scores = tmp_path / "s.txt"
        scores.write_text("a b 0.900000000\na c 0.100000000\n")
        code = main(["evaluate", "--trials", str(trials), "--scores", str(scores), flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        name = flag[2:].replace("-", "_")
        assert captured.err == f"error: costs must be finite and positive, got {name} {float(value)}\n"


class TestFuse:
    def write_score_file(self, path, trials, values):
        lines = [
            f"{e} {t} {v:.9f}" for e, t, v in zip(*trials.pair_ids(), values)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_fit_and_apply_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        trial_list = TrialList([f"e{i}" for i in range(40)], [f"t{i}" for i in range(40)],
                               [bool(i % 2) for i in range(40)])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        labels = trial_list.labels().astype(float)
        s1 = self.write_score_file(
            tmp_path / "s1.txt", trial_list, labels + 0.5 * rng.standard_normal(40)
        )
        s2 = self.write_score_file(
            tmp_path / "s2.txt", trial_list, labels + 0.8 * rng.standard_normal(40)
        )
        model = tmp_path / "model.txt"
        fused_out = tmp_path / "fused.txt"
        code = main(
            [
                "fuse",
                "--trials", str(trials),
                "--scores", str(s1), str(s2),
                "--fit-labels",
                "--model", str(model),
                "--output", str(fused_out),
            ]
        )
        assert code == 0
        fields = model.read_text().split()
        assert len(fields) == 3

        unlabeled = write_trials(
            tmp_path / "t2.txt", TrialList(*trial_list.pair_ids())
        )
        capsys.readouterr()
        code = main(
            [
                "fuse",
                "--trials", str(unlabeled),
                "--scores", str(s1), str(s2),
                "--model", str(model),
            ]
        )
        assert code == 0
        applied = parse_scores(capsys.readouterr().out)
        fitted = parse_scores(fused_out.read_text())
        assert np.allclose(applied.scores, fitted.scores, atol=1e-12)

    def test_fit_on_empty_trial_list_says_so(self, tmp_path, capsys):
        trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
        trials.write_text("")
        scores.write_text("")
        model = tmp_path / "model.txt"
        code = main(["fuse", "--trials", str(trials), "--scores", str(scores), "--fit-labels",
                     "--model", str(model)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {trials}: no trials\n"
        assert not model.exists()

    def test_model_system_count_mismatch_is_data_error(self, tmp_path, capsys):
        trial_list = TrialList(["a", "a"], ["b", "c"])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.5, -0.5])
        model = tmp_path / "model.txt"
        model.write_text("0.1 1.0 2.0\n", encoding="utf-8")
        code = main(["fuse", "--trials", str(trials), "--scores", str(s1), "--model", str(model)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: model has 2 systems but matrix has 1 columns"
        ]

    def test_bad_second_score_file_is_named(self, tmp_path, capsys):
        trial_list = TrialList(["a", "a"], ["b", "c"])
        trials = write_trials(tmp_path / "p.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.5, -0.5])
        s2 = tmp_path / "s2.txt"
        s2.write_text("a b 0.25\na c nan\n", encoding="utf-8")
        model = tmp_path / "m.txt"
        model.write_text("0.1 1.0 2.0\n", encoding="utf-8")
        argv = ["fuse", "--trials", str(trials), "--scores", str(s1), str(s2), "--model", str(model)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {s2}:2: non-finite score 'nan'\n"
        # a well-formed file for other trials names the file and its line
        s2.write_text("a b 0.25\n\na d 0.5\n", encoding="utf-8")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {s2}: score line 3 is for (a, d), trial list has (a, c)\n"
        )

    def test_model_applies_to_labeled_and_unlabeled_list_alike(self, tmp_path, capsys):
        trial_list = TrialList([f"e{i % 3}" for i in range(6)], [f"t{i}" for i in range(6)],
                               [bool(i % 2) for i in range(6)])
        labeled = write_trials(tmp_path / "labeled.txt", trial_list)
        unlabeled = write_trials(
            tmp_path / "unlabeled.txt", TrialList(*trial_list.pair_ids())
        )
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, np.linspace(-1, 1, 6))
        s2 = self.write_score_file(tmp_path / "s2.txt", trial_list, np.cos(np.arange(6)))
        model = tmp_path / "m.txt"
        model.write_text("0.1 1.0 2.0\n", encoding="utf-8")
        fused = []
        for trials in (labeled, unlabeled):
            out = tmp_path / f"fused-{trials.stem}.txt"
            argv = ["fuse", "--trials", str(trials), "--scores", str(s1), str(s2),
                    "--model", str(model), "--output", str(out)]
            assert main(argv) == 0
            fused.append(out.read_bytes())
        assert fused[0] == fused[1]
        assert len(fused[0].splitlines()) == 6
        # a list mixing the forms fails at the first line that disagrees
        labeled.write_text("1 e0 t0\n\ne1 t1\n", encoding="utf-8")
        argv = ["fuse", "--trials", str(labeled), "--scores", str(s1), "--model", str(model)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {labeled}:3: expected 3 fields, got 2\n"

    def test_bad_model_value_names_file(self, tmp_path, capsys):
        trial_list = TrialList(["a", "a"], ["b", "c"])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.5, -0.5])
        model = tmp_path / "m.txt"
        model.write_text("0.1 x\n", encoding="utf-8")
        code = main(["fuse", "--trials", str(trials), "--scores", str(s1), "--model", str(model)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {model}: bad fusion model value: could not convert string to float: 'x'\n"
        )
        # the model is one line: a second non-blank line is named, blank lines are not
        for text, line_no in (("0.1 1.0\n0.5\n", 2), ("\n0.1 1.0\n\n \n0.5", 5)):
            model.write_text(text, encoding="utf-8")
            code = main(["fuse", "--trials", str(trials), "--scores", str(s1), "--model", str(model)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == (
                f"error: {model}:{line_no}: fusion model is one line, bias then weights\n"
            )
        model.write_text("\n0.1 1.0\n\n", encoding="utf-8")
        assert main(["fuse", "--trials", str(trials), "--scores", str(s1), "--model", str(model)]) == 0
        assert capsys.readouterr().out == "a b 0.600000000\na c -0.400000000\n"

    def test_needs_fit_or_model(self, tmp_path, capsys):
        trial_list = TrialList(["a", "a"], ["b", "c"], [True, False])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.5, -0.5])
        assert main(["fuse", "--trials", str(trials), "--scores", str(s1)]) == 1

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        model_bytes=st.one_of(
            st.binary(max_size=40),
            st.lists(
                st.sampled_from(["0.5", "-2", "1e999", "nan", "inf", "x", "1_0", "\xa0", "\n"]),
                max_size=5,
            ).map(lambda tokens: " ".join(tokens).encode("utf-8")),
        )
    )
    def test_fuzzed_model_file_keeps_cli_contract(self, tmp_path, capsys, model_bytes):
        trial_list = TrialList(["a", "a"], ["b", "c"])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.5, -0.5])
        model = tmp_path / "model.txt"
        model.write_bytes(model_bytes)
        capsys.readouterr()
        code = main(["fuse", "--trials", str(trials), "--scores", str(s1), "--model", str(model)])
        captured = capsys.readouterr()
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) <= 1
        if code == 0:
            assert captured.err == ""
            assert len(captured.out.splitlines()) == len(trial_list)
        else:
            assert captured.out == ""


def unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestStreamedOutput:
    """score and fuse write their text chunk by chunk, and a failed command
    leaves no --output file."""

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(8)
        utts = [f"u{i}" for i in range(20)]
        write_embeddings_file(EmbeddingStore(utts, unit_rows(rng, 20, 8)), tmp_path / "emb.bin")
        write_embeddings_file(EmbeddingStore([f"c{i}" for i in range(30)], unit_rows(rng, 30, 8)),
                              tmp_path / "cohort.bin")
        pairs = rng.integers(20, size=(3 * SCORE_CHUNK, 2))
        write_trials(tmp_path / "t.txt", TrialList([utts[a] for a in pairs[:, 0]],
                                                   [utts[b] for b in pairs[:, 1]],
                                                   [bool(a % 2) for a in pairs[:, 0]]))
        return tmp_path

    def argv(self, tmp_path, command, out):
        if command == "score":
            return ["score", "--trials", str(tmp_path / "t.txt"),
                    "--embeddings", str(tmp_path / "emb.bin"), "--output", str(out)]
        scores = tmp_path / "s.txt"
        assert main(self.argv(tmp_path, "score", scores)) == 0
        return ["fuse", "--fit-labels", "--trials", str(tmp_path / "t.txt"),
                "--scores", str(scores), str(scores), "--output", str(out)]

    @pytest.mark.parametrize("command", ["score", "fuse"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failure_mid_stream_removes_output(self, inputs, capsys, monkeypatch, command,
                                               existing):
        out = inputs / "out.txt"
        argv = self.argv(inputs, command, out)
        assert main(argv) == 0
        want = out.read_text(encoding="utf-8")
        assert want.count("\n") == 3 * SCORE_CHUNK
        if not existing:
            out.unlink()
        real = cli_module.score_text_chunks

        def failing(score_set):
            chunks = real(score_set)
            yield next(chunks)
            raise RuntimeError("disk gone")

        monkeypatch.setattr(cli_module, "score_text_chunks", failing)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: not written: RuntimeError: disk gone\n"
        assert not out.exists()
        monkeypatch.setattr(cli_module, "score_text_chunks", real)
        assert main(argv) == 0
        assert out.read_text(encoding="utf-8") == want

    def test_failure_mid_stream_through_symlink_keeps_link(self, inputs, capsys, monkeypatch):
        # a symlink is written through and never removed: its target is left
        # holding the chunks written before the failure
        target, out = inputs / "target.txt", inputs / "link.txt"
        target.write_text("old\n", encoding="utf-8")
        out.symlink_to(target)
        real = cli_module.score_text_chunks

        def failing(score_set):
            chunks = real(score_set)
            yield next(chunks)
            raise RuntimeError("disk gone")

        monkeypatch.setattr(cli_module, "score_text_chunks", failing)
        assert main(self.argv(inputs, "score", out)) == 2
        assert capsys.readouterr().err == f"error: {out}: not written: RuntimeError: disk gone\n"
        assert out.is_symlink()
        assert target.read_text(encoding="utf-8").count("\n") == SCORE_CHUNK

    @pytest.mark.parametrize("case", ["missing-id", "bad-cohort"])
    def test_error_before_first_chunk_creates_no_file(self, inputs, capsys, case):
        out = inputs / "out.txt"
        argv = self.argv(inputs, "score", out)
        if case == "missing-id":
            write_trials(inputs / "t.txt", TrialList(["u0", "u2"], ["u1", "ghost"]))
        else:  # a cohort of another dimension
            write_embeddings_file(EmbeddingStore(["c0", "c1"], np.eye(2)), inputs / "cohort.bin")
            argv += ["--asnorm", "--cohort", str(inputs / "cohort.bin"), "--topk", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert not out.exists()

    def test_writing_200k_scores_holds_one_chunk(self, tmp_path):
        rng = np.random.default_rng(9)
        trials = TrialList._from_codes([f"utt{i:05d}" for i in range(2000)],
                                       rng.integers(2000, size=400_000), None)
        score_set = ScoreSet(trials, rng.standard_normal(200_000))
        out = tmp_path / "scores.txt"
        tracemalloc.start()
        try:
            cli_module._emit(score_text_chunks(score_set), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert out.read_text(encoding="utf-8") == serialize_scores(score_set)


class TestTextInputs:
    """Input files: one regular-file check, UTF-8 text, "<key> <path>" lists."""

    @pytest.fixture
    def files(self, tmp_path):
        write_trials(tmp_path / "labeled.txt", TrialList(["a", "a"], ["b", "c"], [True, False]))
        write_trials(tmp_path / "pairs.txt", TrialList(["a", "a"], ["b", "c"]))
        (tmp_path / "scores.txt").write_text("a b 0.5\na c 0.1\n", encoding="utf-8")
        (tmp_path / "model.txt").write_text("0.0 1.0\n", encoding="utf-8")
        (tmp_path / "bad.txt").write_bytes(b"a \xff\n")
        tone_wav(tmp_path / "in.wav", 440)
        return {p.stem: str(p) for p in tmp_path.iterdir()} | {"out": str(tmp_path / "o")}

    @pytest.mark.parametrize(
        "what, argv",
        [
            ("trials", ["evaluate", "--trials", "bad", "--scores", "scores"]),
            ("scores", ["evaluate", "--trials", "labeled", "--scores", "bad"]),
            ("trials", ["score", "--trials", "bad", "--embeddings", "scores"]),
            ("scores", ["fuse", "--trials", "pairs", "--scores", "scores", "bad",
                        "--model", "model"]),
            ("model", ["fuse", "--trials", "pairs", "--scores", "scores", "--model", "bad"]),
            ("wav list", ["embed", "--wav-list", "bad", "--output", "out"]),
            ("manifest", ["augment", "--wav", "in", "--manifest", "bad", "--output", "out"]),
            ("config", ["features", "--wav", "in", "--config", "bad", "--output", "out"]),
            ("config", ["schedule-dump", "--config", "bad", "--steps", "3"]),
        ],
        ids=["evaluate-trials", "evaluate-scores", "score-trials", "fuse-scores", "fuse-model",
             "embed-wav-list", "augment-manifest", "pipeline-config", "schedule-config"],
    )
    def test_non_utf8_byte_names_file_and_offset(self, files, capsys, what, argv):
        code = main([files.get(a, a) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {what} file {files['bad']}: byte 2 is not UTF-8"
        ]

    def test_over_long_path_is_not_found(self, tmp_path, capsys):
        long_name = str(tmp_path / ("x" * 5000))
        code = main(["evaluate", "--trials", long_name, "--scores", long_name])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: trials file not found: {long_name}"]

    def test_missing_manifest_wav_is_not_found(self, tmp_path, capsys):
        manifest = tmp_path / "bank.txt"
        manifest.write_text("noise gone.wav\n", encoding="utf-8")
        wav = tone_wav(tmp_path / "in.wav", 440)
        code = main(["augment", "--wav", str(wav), "--manifest", str(manifest),
                     "--output", str(tmp_path / "o.wav")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [f"error: wav file not found: {tmp_path / 'gone.wav'}"]

    KEYS = [b"u0", b"u1", b"noise", b"music", b"speech", b"rir", b"a#0", b"\xff", b"\xc3\xa9", b""]
    SEPARATORS = [b" ", b"\t", b"  ", b"\x0c", b""]
    PATHS = [b"in.wav", b"in.wav ", b"gone.wav", b".", b"/", b"\x00", b"\xff.wav", b""]
    LINE = st.tuples(*map(st.sampled_from, (KEYS, SEPARATORS, PATHS))).map(b"".join)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["embed", "augment"]),
        seed=st.integers(0, 7),
        list_bytes=st.one_of(
            st.binary(max_size=40),
            st.lists(LINE, max_size=4).map(b"\n".join),
            st.lists(LINE, max_size=4).map(b"\r\n".join),
        ),
    )
    def test_fuzzed_path_list_keeps_cli_contract(self, tmp_path, capsys, command, seed,
                                                 list_bytes):
        wav = tmp_path / "in.wav"
        if not wav.exists():
            tone_wav(wav, 440, duration=0.1)
        listing = tmp_path / "list.txt"
        listing.write_bytes(list_bytes)
        out = tmp_path / "out.bin"
        argv = {
            "embed": ["embed", "--wav-list", str(listing), "--output", str(out)],
            "augment": ["augment", "--wav", str(wav), "--manifest", str(listing),
                        "--output", str(out), "--seed", str(seed)],
        }[command]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        event(f"{command} exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) <= 1
        if code == 0:
            assert captured.err == ""
            assert len(captured.out.splitlines()) == 1
        else:
            assert captured.out == ""


class TestScheduleDump:
    def test_rows_match_library(self, tmp_path, capsys):
        cfg_file = tmp_path / "sched.cfg"
        cfg_file.write_text("cycle0_steps = 10\n")
        assert main(["schedule-dump", "--config", str(cfg_file), "--steps", "25"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 25
        cfg = CosineRestartConfig(cycle0_steps=10)
        for row in rows:
            step_s, lr_s, cycle_s = row.split()
            lr, cycle = lr_at(cfg, int(step_s))
            assert int(cycle_s) == cycle
            assert float(lr_s) == pytest.approx(lr, rel=1e-9)

    def test_200k_steps_hold_no_row_list(self, tmp_path):
        cfg_file = tmp_path / "sched.cfg"
        cfg_file.write_text("cycle0_steps = 10\n")
        argv = ["schedule-dump", "--config", str(cfg_file), "--steps", "200000"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20  # a list of the rows takes about 24 MiB

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_non_positive_steps_is_data_error(self, tmp_path, capsys, steps):
        cfg_file = tmp_path / "sched.cfg"
        cfg_file.write_text("cycle0_steps = 10\n")
        assert main(["schedule-dump", "--config", str(cfg_file), "--steps", steps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "n_steps must be >= 1" in captured.err


class TestSelftest:
    def test_all_properties_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_failing_and_raising_checks_fail_the_run(self, monkeypatch, capsys):
        def raises():
            raise RuntimeError("boom")

        checks = (("holds", lambda: True), ("fails", lambda: False), ("raises", raises))
        monkeypatch.setattr(selftest, "CHECKS", checks)
        assert main(["selftest"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "PASS holds\nFAIL fails\nFAIL raises\n"
        assert captured.err == "2 of 3 properties failed\n"
