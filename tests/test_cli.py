"""End-to-end command-line behavior: subcommands, exit codes, streams."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svkit
from svkit.cli import main
from svkit.features import Waveform, read_mel, read_wav, write_wav
from svkit.schedule import CosineRestartConfig, lr_at
from svkit.trials import (
    Trial,
    TrialList,
    parse_scores,
    read_embeddings_file,
    serialize_trials,
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


def write_trials(path, trials):
    path.write_text(serialize_trials(TrialList(trials=tuple(trials))), encoding="utf-8")
    return path


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
        env = {**os.environ, "PYTHONPATH": str(Path(svkit.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "[]"

    def test_bad_threads_rejected(self, capsys):
        assert main(["--threads", "0", "selftest"]) == 1

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
            [
                Trial("u0", "u1", label=True),
                Trial("u0", "u2", label=False),
                Trial("u1", "u3", label=False),
                Trial("u2", "u3", label=True),
            ],
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
        trials = write_trials(tmp_path / "t.txt", [Trial("u0", "u1"), Trial("u2", "u3")])
        capsys.readouterr()
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb), "--msa"])
        assert code == 0
        assert len(parse_scores(capsys.readouterr().out)) == 2

    @pytest.mark.parametrize(
        "flags", [[], ["--asnorm", "--topk", "3"], ["--msa"]], ids=["raw", "asnorm", "msa"]
    )
    def test_missing_trial_id_is_data_error(self, tmp_path, wav_dir, capsys, flags):
        wav_list, emb, _ = self.setup_pipeline(tmp_path, wav_dir)
        if "--msa" in flags:
            assert main(["embed", "--wav-list", str(wav_list), "--output", str(emb), "--msa"]) == 0
        if "--asnorm" in flags:
            flags = flags + ["--cohort", str(emb)]
        trials = write_trials(tmp_path / "t.txt", [Trial("u0", "u1"), Trial("u2", "ghost")])
        capsys.readouterr()
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "'ghost" in captured.err
        assert "Traceback" not in captured.err

    def test_store_header_count_is_data_error(self, tmp_path, capsys):
        emb = tmp_path / "huge.bin"
        emb.write_bytes(b"EMB1" + struct.pack("<IQ", 256, 2**40))
        trials = write_trials(tmp_path / "t.txt", [Trial("u0", "u1")])
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "truncated" in err

    def test_missing_trials_names_path(self, tmp_path, wav_dir, capsys):
        _, emb, _ = self.setup_pipeline(tmp_path, wav_dir)
        missing = tmp_path / "absent_trials.txt"
        code = main(["score", "--trials", str(missing), "--embeddings", str(emb)])
        assert code == 2
        assert "absent_trials.txt" in capsys.readouterr().err


class TestEvaluateFixture:
    def test_perfect_separation_prints_zero(self, tmp_path, capsys):
        trials = write_trials(
            tmp_path / "t.txt",
            [
                Trial("a", "b", label=True),
                Trial("a", "c", label=True),
                Trial("a", "d", label=False),
                Trial("a", "e", label=False),
            ],
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
            [Trial("a", "b", label=True), Trial("a", "c", label=False)],
        )
        scores = tmp_path / "s.txt"
        scores.write_text("a b 0.900000000\nx y 0.100000000\n")
        assert main(["evaluate", "--trials", str(trials), "--scores", str(scores)]) == 2


class TestFuse:
    def write_score_file(self, path, trials, values):
        lines = [
            f"{t.enroll_id} {t.test_id} {v:.9f}" for t, v in zip(trials, values)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_fit_and_apply_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        trial_objs = [
            Trial(f"e{i}", f"t{i}", label=bool(i % 2)) for i in range(40)
        ]
        trials = write_trials(tmp_path / "t.txt", trial_objs)
        labels = np.array([t.label for t in trial_objs], dtype=float)
        s1 = self.write_score_file(
            tmp_path / "s1.txt", trial_objs, labels + 0.5 * rng.standard_normal(40)
        )
        s2 = self.write_score_file(
            tmp_path / "s2.txt", trial_objs, labels + 0.8 * rng.standard_normal(40)
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
            tmp_path / "t2.txt", [Trial(t.enroll_id, t.test_id) for t in trial_objs]
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

    def test_needs_fit_or_model(self, tmp_path, capsys):
        trial_objs = [Trial("a", "b", label=True), Trial("a", "c", label=False)]
        trials = write_trials(tmp_path / "t.txt", trial_objs)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_objs, [0.5, -0.5])
        assert main(["fuse", "--trials", str(trials), "--scores", str(s1)]) == 1


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
