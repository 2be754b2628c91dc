"""End-to-end command-line behavior: subcommands, exit codes, streams."""

import contextlib
import os
import struct
import subprocess
import re
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from _bench_oracles import oracles
from _mel1_oracle import decode_mel1
from _text_oracle import reference_scores, reference_trials, trial_ids, trial_text
import svkit
from svkit import cli as cli_module
from svkit import selftest
from svkit.cli import main
from svkit.augment import NoiseBank, apply_policy
from svkit.config import (
    MAX_N_SEGMENTS,
    CosineRestartConfig,
    PipelineConfig,
    load_pipeline_config,
    stage_seed,
)
from svkit.features import Waveform, apply_cmn, compute_logmel, read_wav, write_wav
from svkit.metrics import SMALL_LIST
from svkit.model.embedder import embed_waveform
from svkit.scoring import score_trials, segment_id, segment_plan
from svkit.schedule import lr_at
from svkit.store import EmbeddingStore
from svkit.trials import (
    SCORE_CHUNK,
    ScoreSet,
    TrialList,
    parse_scores,
    parse_trials,
    read_embeddings_file,
    score_text_chunks,
    serialize_scores,
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
    path.write_text(trial_text(trial_list), encoding="utf-8")
    return path


def write_config(path, **keys):
    """A pipeline config file with one "key = value" line per keyword."""
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()),
                    encoding="utf-8")
    return path


CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(svkit.__file__).parents[1])}
README = Path(__file__).resolve().parents[1] / "README.md"


def run_child(code, cwd=None):
    """stdout of `python -c code` in a new interpreter that imports this
    svkit, run in `cwd`; a non-zero exit fails the test."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=CHILD_ENV, cwd=cwd).stdout


def run_svkit(argv, cwd, stdout=subprocess.PIPE, env=CHILD_ENV):
    """(exit code, stdout bytes, stderr text) of `python -m svkit argv` in
    a new interpreter that imports this svkit, run in `cwd` with its stdout
    sent to `stdout` (None is returned for it unless that is a pipe read
    here); the exit code is returned, not checked."""
    done = subprocess.run([sys.executable, "-m", "svkit", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, cwd=cwd)
    return done.returncode, done.stdout, done.stderr.decode()


def run_to_closed_pipe(argv, cwd, buffered=True):
    """(exit code, stderr) of `python -m svkit argv` whose stdout is a pipe
    with no reader left, its stdout buffered or not."""
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        code, _, err = run_svkit(argv, cwd, stdout=write_end, env=env)
    finally:
        os.close(write_end)
    return code, err


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
            "import sys, svkit.cli, svkit.selftest; "
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

    def test_parsers_load_no_numpy_on_a_long_list(self):
        # metrics sweeps a list this long with numpy; the parsers never load it
        code = (
            "import sys; from svkit.trials import parse_scores, parse_trials; "
            f"n = {SMALL_LIST + 1}; "
            "trials = parse_trials(''.join(f'{k % 2} a u{k}\\n' for k in range(n)), True); "
            "scores = parse_scores(''.join(f'a u{k} {k % 7}\\n' for k in range(n)), trials); "
            "print(len(scores), 'numpy' in sys.modules)"
        )
        assert run_child(code).split() == [str(SMALL_LIST + 1), "False"]

    # each command imports the svkit modules it runs when it is called:
    # (argv, the svkit modules it loads, whether it loads numpy, and whether
    # it loads hashlib). Importing hashlib maps OpenSSL (about 3.5 MB of
    # RSS); only the commands that seed a stage (augment, embed) or draw
    # check data (selftest) need it, for stage_seed and for numpy.random,
    # which imports it through secrets.
    COMMAND_LOADS = pytest.mark.parametrize("argv, layers, numpy, seeded", [
        pytest.param(["--version"], ["cli"], False, False, id="version"),
        pytest.param(["features", "--wav", "u.wav", "--output", "u.mel"],
                     ["cli", "config", "features", "trials"], True, False, id="features"),
        # no front end: scoring imports features only to cut MSA segments
        pytest.param(["score", "--trials", "t.txt", "--embeddings", "emb.bin"],
                     ["cli", "config", "scoring", "store", "trials"], True, False, id="score"),
        pytest.param(["score", "--trials", "t.txt", "--embeddings", "emb.bin", "--asnorm",
                      "--config", "cohort.cfg"], ["cli", "config", "scoring", "store", "trials"],
                     True, False, id="score-asnorm"),
        # numpy sweeps a list of SMALL_LIST trials or more, and only such a list
        pytest.param(["evaluate", "--trials", "t.txt", "--scores", "s.txt"],
                     ["cli", "metrics", "trials"], False, False, id="evaluate"),
        pytest.param(["evaluate", "--trials", "t-1.txt", "--scores", "s-1.txt"],
                     ["cli", "metrics", "trials"], False, False, id="evaluate-below-crossover"),
        pytest.param(["evaluate", "--trials", "t-0.txt", "--scores", "s-0.txt"],
                     ["cli", "metrics", "trials"], True, False, id="evaluate-crossover"),
        pytest.param(["fuse", "--trials", "t.txt", "--scores", "s.txt", "s.txt", "--fit-labels"],
                     ["cli", "fusion", "trials"], True, False, id="fuse-fit"),
        pytest.param(["embed", "--wav-list", "wavs.txt", "--output", "out.bin"],
                     ["cli", "config", "features", "model", "scoring", "store", "trials"],
                     True, True, id="embed"),
        pytest.param(["augment", "--wav", "u.wav", "--output", "a.wav", "--config", "aug.cfg"],
                     ["augment", "cli", "config", "features", "trials"], True, True, id="augment"),
        # the config schema holds no numpy layer
        pytest.param(["schedule-dump", "--config", "s.cfg", "--steps", "5"],
                     ["cli", "config", "schedule", "trials"], False, False, id="schedule-dump"),
        # shapes plans in integers; the model package imports none of its modules
        pytest.param(["shapes", "ResNet34-st1112"], ["cli", "model"], False, False, id="shapes"),
        # the checks of a numpy/BLAS build: config only through features,
        # which takes FeatureConfig from it; no augment, fusion, metrics or
        # schedule
        pytest.param(["selftest"], ["cli", "config", "features", "model", "scoring", "selftest",
                                    "store", "trials"], True, True, id="selftest"),
    ])

    @staticmethod
    def loaded_by(tmp_path, argv, expression):
        """`expression` over sys.modules, printed after `main(argv)` exits 0
        in a new interpreter, run on small inputs in `tmp_path`."""
        rng = np.random.default_rng(8)
        write_embeddings_file(EmbeddingStore(["a", "b", "c"], unit_rows(rng, 3, 4)),
                              tmp_path / "emb.bin")
        write_embeddings_file(EmbeddingStore([f"k{i}" for i in range(4)], unit_rows(rng, 4, 4)),
                              tmp_path / "cohort.bin")
        write_config(tmp_path / "cohort.cfg", cohort="cohort.bin", top_k=2)
        write_trials(tmp_path / "t.txt", TrialList(["a", "a"], ["b", "c"], [True, False]))
        (tmp_path / "s.txt").write_text("a b 0.5\na c -0.5\n", encoding="utf-8")
        for short in (0, 1):  # t-<short>.txt has SMALL_LIST - short trials
            if f"t-{short}.txt" in argv:
                n = SMALL_LIST - short
                (tmp_path / f"t-{short}.txt").write_text(
                    "".join(f"{k % 2} a u{k}\n" for k in range(n)), encoding="utf-8")
                (tmp_path / f"s-{short}.txt").write_text(
                    "".join(f"a u{k} {k % 7}\n" for k in range(n)), encoding="utf-8")
        tone_wav(tmp_path / "u.wav", 440)
        (tmp_path / "wavs.txt").write_text("u u.wav\n", encoding="utf-8")
        if "aug.cfg" in argv:
            write_config(tmp_path / "aug.cfg",
                         noise_manifest=TestAugment().make_manifest(tmp_path))
        write_config(tmp_path / "s.cfg", cycle0_steps=10)
        code = (
            "import sys; from svkit.cli import main; "
            f"code = main({argv!r}); "
            f"print(code, {expression})"
        )
        code, loaded = run_child(code, cwd=tmp_path).splitlines()[-1].split(" ", 1)
        assert code == "0"
        return loaded

    @COMMAND_LOADS
    def test_only_seeded_commands_load_hashlib(self, tmp_path, argv, layers, numpy, seeded):
        loaded = self.loaded_by(tmp_path, argv, "'hashlib' in sys.modules, '_hashlib' in sys.modules")
        assert loaded.split() == [str(seeded), str(seeded)]

    @COMMAND_LOADS
    def test_each_command_loads_only_its_modules(self, tmp_path, argv, layers, numpy, seeded):
        loaded = self.loaded_by(
            tmp_path, argv,
            "'numpy' in sys.modules, "
            "sorted({m.split('.')[1] for m in sys.modules if m.startswith('svkit.')})")
        assert loaded == f"{numpy} {layers}"

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ["schedule-dump", "--config", "s.cfg", "--steps", "5"],
        ["schedule-dump", "--config", "s.cfg", "--steps", "100000"],
        ["score", "--trials", "t.txt", "--embeddings", "emb.bin"],
    ], ids=["schedule-5", "schedule-100k", "score"])
    def test_closed_stdout_is_one_line_error(self, tmp_path, argv, buffered):
        (tmp_path / "s.cfg").write_text("cycle0_steps = 10\n", encoding="utf-8")
        write_embeddings_file(EmbeddingStore(["a", "b", "c"],
                                             unit_rows(np.random.default_rng(9), 3, 4)),
                              tmp_path / "emb.bin")
        write_trials(tmp_path / "t.txt", TrialList(["a", "a"], ["b", "c"]))
        assert run_to_closed_pipe(argv, tmp_path, buffered) == (2, "error: <stdout>: broken pipe\n")

    @pytest.mark.parametrize("argv", [["--version"], ["--help"]], ids=["version", "help"])
    def test_failed_flush_at_exit_is_one_line_error(self, tmp_path, argv):
        # argparse prints these into stdout's buffer, which only the exit
        # flushes: a reader that is gone fails the run there (unbuffered,
        # argparse drops a failed write)
        assert run_to_closed_pipe(argv, tmp_path) == (2, "error: <stdout>: broken pipe\n")

    def test_version_with_stdout_closed_exits_zero(self, tmp_path):
        # with fd 1 closed sys.stdout is None, and argparse prints to stderr
        done = subprocess.run([sys.executable, "-m", "svkit", "--version"],
                              stderr=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=tmp_path,
                              preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (0, "svkit 0.1.0 formats EMB1 MEL1\n")

    @pytest.mark.parametrize("argv, want, written", [
        (["shapes", "ResNet34-st1112"], (2, "error: <stdout>: closed\n"), False),
        (["score", "--trials", "t.txt", "--embeddings", "emb.bin"],
         (2, "error: <stdout>: closed\n"), False),
        (["score", "--trials", "t.txt", "--embeddings", "emb.bin", "--output", "out"], (0, ""),
         True),
        # features prints a status line after its --output file is complete
        (["features", "--wav", "u.wav", "--output", "out"], (2, "error: <stdout>: closed\n"),
         True),
    ], ids=["print", "emit", "output-file", "output-then-status"])
    def test_stdout_closed_fails_only_a_command_that_writes_it(self, tmp_path, argv, want,
                                                               written):
        # with fd 1 closed sys.stdout is None: a command treats it as closed
        write_embeddings_file(EmbeddingStore(["a", "b", "c"],
                                             unit_rows(np.random.default_rng(9), 3, 4)),
                              tmp_path / "emb.bin")
        write_trials(tmp_path / "t.txt", TrialList(["a", "a"], ["b", "c"]))
        tone_wav(tmp_path / "u.wav", 440, duration=0.5)
        done = subprocess.run([sys.executable, "-m", "svkit", *argv],
                              stderr=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=tmp_path,
                              preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == want
        assert (tmp_path / "out").exists() == written

    @pytest.mark.parametrize("argv, want", [
        (["evaluate", "--trials", "absent.txt", "--scores", "s.txt"], (2, "")),
        (["evaluate", "--trials", "t.txt"], (1, "")),
        ([], (1, "")),
        (["shapes", "ResNet34-st1112"], (0, "stage1 80 600\nstage2 40 600\nstage3 20 600\n"
                                            "stage4 10 300\n")),
    ], ids=["data-error", "usage-error", "no-command", "success"])
    @pytest.mark.parametrize("stderr", ["closed", "read-only"])
    def test_stderr_unwritable_keeps_exit_code_and_stdout(self, tmp_path, argv, want, stderr):
        # with fd 2 closed sys.stderr is None, and a read-only fd 2 fails every
        # write: either way a diagnostic goes nowhere, not to stdout
        def unwritable():
            os.close(2)
            if stderr == "read-only":
                os.open(os.devnull, os.O_RDONLY)  # the lowest free fd, 2

        done = subprocess.run([sys.executable, "-m", "svkit", *argv],
                              stdout=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=tmp_path,
                              preexec_fn=unwritable)
        assert (done.returncode, done.stdout) == want

    @pytest.mark.parametrize("argv, want", [
        (["score", "--trials", "t.txt", "--embeddings", "emb.bin", "--asnorm"], 1),
        (["evaluate", "--trials", "t.txt"], 1),
        (["score", "--trials", "absent.txt", "--embeddings", "emb.bin"], 2),
        (["score", "--trials", "t.txt", "--embeddings", "t.txt"], 2),
    ], ids=["no-cohort", "missing-flag", "missing-file", "bad-store"])
    def test_failing_process_gives_one_error_line(self, tmp_path, argv, want):
        write_embeddings_file(EmbeddingStore(["a", "b", "c"],
                                             unit_rows(np.random.default_rng(9), 3, 4)),
                              tmp_path / "emb.bin")
        write_trials(tmp_path / "t.txt", TrialList(["a", "a"], ["b", "c"]))
        code, out, err = run_svkit(argv, tmp_path)
        assert (code, out) == (want, b"")
        assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
        assert "Traceback" not in err

    def test_main_module_runs_the_script_entry(self):
        # `python -m svkit` and the installed `svkit` script end the process
        # through the same function
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        module, name = re.search(r'^svkit = "([\w.]+):(\w+)"$',
                                 pyproject.read_text(encoding="utf-8"), re.M).groups()
        code = (
            f"import runpy, {module}; "
            f"{module}.{name} = lambda: print('entry'); "
            "runpy.run_module('svkit', run_name='__main__')"
        )
        assert run_child(code) == "entry\n"

    def test_threads_flag_is_usage_error(self, capsys):
        # the flag is gone: nothing ever read it
        assert main(["--threads", "1", "selftest"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["evaluate", "--trials", "x"]) == 1

    # a pipeline value has one setter, the config: a flag chooses a mode or
    # names a file, and no flag shadows a config key
    OPTIONS = {
        "": ["--version"],
        "features": ["--config", "--output", "--wav"],
        "augment": ["--config", "--output", "--wav"],
        "embed": ["--config", "--msa", "--output", "--wav-list"],
        "score": ["--asnorm", "--config", "--embeddings", "--labeled", "--msa", "--output",
                  "--trials"],
        "evaluate": ["--c-fa", "--c-miss", "--p-target", "--scores", "--trials"],
        "fuse": ["--fit-labels", "--l2", "--model", "--output", "--scores", "--trials"],
        "schedule-dump": ["--config", "--steps"],
        "shapes": ["--frames", "--mel-bins"],
        "selftest": [],
    }

    def test_options_are_pinned(self):
        def options(parser):
            return sorted(s for a in parser._actions for s in a.option_strings
                          if s not in ("-h", "--help"))

        parser = cli_module.build_parser()
        (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
        got = {"": options(parser)} | {name: options(p) for name, p in commands.items()}
        assert got == self.OPTIONS

    @pytest.mark.parametrize("argv, flag", [
        (["features", "--wav", "w", "--output", "o"], ["--no-cmn"]),
        (["augment", "--wav", "w", "--output", "o"], ["--manifest", "m"]),
        (["augment", "--wav", "w", "--output", "o"], ["--seed", "1"]),
        (["embed", "--wav-list", "l", "--output", "o"], ["--seed", "1"]),
        (["score", "--trials", "t", "--embeddings", "e", "--asnorm"], ["--cohort", "c"]),
        (["score", "--trials", "t", "--embeddings", "e", "--asnorm"], ["--topk", "3"]),
    ], ids=["no-cmn", "manifest", "augment-seed", "embed-seed", "cohort", "topk"])
    def test_flags_that_shadowed_config_keys_are_unrecognized(self, capsys, argv, flag):
        assert main(argv + flag) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == f"error: unrecognized arguments: {' '.join(flag)}"


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
        rows, cols, _ = decode_mel1(out.read_bytes())
        assert rows == 80
        # 1.0 s at 25 ms window / 10 ms hop
        assert cols == 1 + (RATE - 400) // 160

    @pytest.mark.parametrize("cmn", [None, False], ids=["default", "off"])
    def test_cmn_key_switches_mean_normalization(self, tmp_path, capsys, cmn):
        wav = tone_wav(tmp_path / "a.wav", 500)
        out = tmp_path / "a.mel"
        config = write_config(tmp_path / "p.cfg", **({} if cmn is None else {"cmn": cmn}))
        assert main(["features", "--wav", str(wav), "--config", str(config),
                     "--output", str(out)]) == 0
        feats = compute_logmel(read_wav(wav), PipelineConfig().features)
        if cmn is None:
            feats = apply_cmn(feats)
        want = feats.bins.astype(np.float32)
        rows, cols, values = decode_mel1(out.read_bytes())
        assert (rows, cols) == want.shape
        assert values == want.ravel().tolist()

    @pytest.mark.parametrize("command", ["features", "augment"])
    def test_failed_write_leaves_no_output(self, tmp_path, capsys, monkeypatch, command):
        wav, out = tone_wav(tmp_path / "in.wav", 440), tmp_path / "out"
        argv = [command, "--wav", str(wav), "--output", str(out)]
        written = []

        def first_bytes_then_fail(sink, data):
            sink.write(data)
            sink.flush()
            written.append(out.stat().st_size)
            raise OSError("disk full")

        if command == "features":
            monkeypatch.setattr("svkit.features.write_mel",
                                lambda feats, sink: first_bytes_then_fail(sink, b"MEL1"))
        else:
            manifest = TestAugment().make_manifest(tmp_path)
            argv += ["--config", str(write_config(tmp_path / "p.cfg", noise_manifest=manifest))]
            monkeypatch.setattr(wave.Wave_write, "writeframesraw",
                                lambda self, data: first_bytes_then_fail(self._file, data[:64]))
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: disk full\n")
        assert written and written[0] > 0
        assert not out.exists()

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
        config = write_config(tmp_path / "p.cfg", noise_manifest=manifest, seed=5)
        out1, out2 = tmp_path / "o1.wav", tmp_path / "o2.wav"
        for out in (out1, out2):
            code = main(
                [
                    "augment",
                    "--wav", str(wav),
                    "--config", str(config),
                    "--output", str(out),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_silent_wav_fails_alike_for_every_seed(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        wav, out = tmp_path / "silent.wav", tmp_path / "o.wav"
        write_wav(Waveform(np.zeros(RATE), RATE), wav)
        for seed in range(1, 7):
            config = write_config(tmp_path / "p.cfg", noise_manifest=manifest, seed=seed)
            code = main(["augment", "--wav", str(wav), "--config", str(config),
                         "--output", str(out)])
            assert code == 2
            assert capsys.readouterr().err == f"error: {wav} with bank {manifest}: silent signal\n"
            assert not out.exists()

    def test_config_seed_sets_the_augment_stream(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        wav = tone_wav(tmp_path / "in.wav", 440)
        outputs = []
        for seed in (3, 4):
            config = write_config(tmp_path / "p.cfg", noise_manifest=manifest, seed=seed,
                                  p_noise=1)
            out, want = tmp_path / f"o{seed}.wav", tmp_path / f"want{seed}.wav"
            assert main(["augment", "--wav", str(wav), "--config", str(config),
                         "--output", str(out)]) == 0
            rng = np.random.default_rng(stage_seed(seed, "augment"))
            write_wav(apply_policy(read_wav(wav), load_pipeline_config(config).augment,
                                   NoiseBank.from_manifest(manifest), rng), want)
            assert out.read_bytes() == want.read_bytes()
            outputs.append(out.read_bytes())
        assert outputs[0] != outputs[1]

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
        parsed = parse_scores(text, parse_trials(trials.read_text(encoding="utf-8"), True))
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
                "--config", str(write_config(tmp_path / "p.cfg", cohort=emb, top_k=3)),
            ]
        )
        assert code == 0
        trial_list = parse_trials(trials.read_text(encoding="utf-8"), True)
        assert len(parse_scores(capsys.readouterr().out, trial_list)) == 4

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
        trial_list = TrialList(["u0", "u2"], ["u1", "u3"])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        capsys.readouterr()
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb), "--msa"])
        assert code == 0
        assert len(parse_scores(capsys.readouterr().out, trial_list)) == 2

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
        trial_list = TrialList(["u0", "u2"], ["u1", "u3"])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        outputs = []
        for flags in ([], ["--config", str(config)]):
            capsys.readouterr()
            assert main(["score", "--msa", "--trials", str(trials), "--embeddings", str(emb),
                         *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        segments = [store.vectors[store.row_index([segment_id(u, k) for k in range(7)])]
                    for u in ("u0", "u1")]
        assert parse_scores(outputs[0], trial_list).scores[0] == pytest.approx(
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
        cohort = write_config(tmp_path / "cohort.cfg", cohort=plain, top_k=3)
        capsys.readouterr()

        def score(emb, *flags):
            out = tmp_path / "scores.txt"
            if "--asnorm" in flags:
                flags += ("--config", str(cohort))
            assert main(["score", "--labeled", "--trials", str(trials), "--embeddings", str(emb),
                         "--output", str(out), *flags]) == 0
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
        config = write_config(tmp_path / "p.cfg", cohort=cohort)
        code = main(["score", "--labeled", "--trials", str(trials), "--embeddings", str(emb),
                     "--asnorm", "--config", str(config)])
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
            argv = ["score", "--trials", str(trials), "--embeddings", str(good), "--asnorm",
                    "--config", str(write_config(tmp_path / "p.cfg", cohort=bad))]
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
        "flags", [[], ["--asnorm"], ["--msa"], ["--asnorm", "--msa"]],
        ids=["raw", "asnorm", "msa", "asnorm-msa"],
    )
    def test_missing_trial_id_is_data_error(self, tmp_path, wav_dir, capsys, flags):
        wav_list, emb, _ = self.setup_pipeline(tmp_path, wav_dir)
        if "--msa" in flags:
            assert main(["embed", "--wav-list", str(wav_list), "--output", str(emb), "--msa"]) == 0
        if "--asnorm" in flags:
            flags = flags + ["--config", str(write_config(tmp_path / "p.cfg", cohort=emb, top_k=3))]
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
        "flags", [[], ["--asnorm"], ["--msa"], ["--asnorm", "--msa"]],
        ids=["raw", "asnorm", "msa", "asnorm-msa"],
    )
    def test_blank_trial_file_gives_empty_scores(self, tmp_path, wav_dir, capsys, flags):
        wav_list, emb, _ = self.setup_pipeline(tmp_path, wav_dir)
        if "--msa" in flags:
            assert main(["embed", "--wav-list", str(wav_list), "--output", str(emb), "--msa"]) == 0
        if "--asnorm" in flags:
            flags = flags + ["--config", str(write_config(tmp_path / "p.cfg", cohort=emb, top_k=3))]
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

    def test_cohort_config_keys_are_silent_without_asnorm(self, tmp_path, capsys):
        # commands share one config, so its cohort and top_k stay unread here
        emb = tmp_path / "emb.bin"
        write_embeddings_file(EmbeddingStore(["a", "b"], np.eye(2)), emb)
        trials = write_trials(tmp_path / "t.txt", TrialList(["a"], ["b"]))
        (tmp_path / "junk.bin").write_bytes(b"not a store")
        config = tmp_path / "p.cfg"
        config.write_text("cohort = junk.bin\ntop_k = 3\n", encoding="utf-8")
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb),
                     "--config", str(config)])
        assert code == 0
        assert capsys.readouterr() == ("a b 0.000000000\n", "")

    @pytest.mark.parametrize("flags", [[], ["--asnorm"], ["--msa"]],
                             ids=["raw", "asnorm", "msa"])
    def test_missing_trial_id_names_store(self, tmp_path, capsys, flags):
        emb = tmp_path / "emb.bin"
        write_embeddings_file(EmbeddingStore(["a", "b"], np.eye(2)), emb)
        if "--asnorm" in flags:
            flags = flags + ["--config", str(write_config(tmp_path / "p.cfg", cohort=emb, top_k=2))]
        trials = write_trials(tmp_path / "t.txt", TrialList(["a"], ["ghost"]))
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {emb}: utterance id '")
        assert len(captured.err.splitlines()) == 1

    def test_degenerate_cohort_names_utterance(self, tmp_path, capsys):
        # every cohort vector is spkB's, so spkA's top-3 scores are identical
        emb, cohort = tmp_path / "emb.bin", tmp_path / "cohort.bin"
        vectors = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
        write_embeddings_file(EmbeddingStore(["spkA", "spkB"], vectors), emb)
        write_embeddings_file(
            EmbeddingStore([f"c{i}" for i in range(5)], np.tile(vectors[1], (5, 1))), cohort
        )
        trials = write_trials(tmp_path / "t.txt", TrialList(["spkA"], ["spkB"]))
        config = write_config(tmp_path / "p.cfg", cohort=cohort, top_k=3)
        code = main(
            ["score", "--trials", str(trials), "--embeddings", str(emb),
             "--asnorm", "--config", str(config)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {cohort}: degenerate cohort for embedding 'spkA': "
                                "top-3 scores have std 0 (all nearly identical)\n")

    def test_cohort_of_another_dim_names_the_cohort(self, tmp_path, capsys):
        emb, cohort = tmp_path / "emb.bin", tmp_path / "cohort.bin"
        write_embeddings_file(EmbeddingStore(["a", "b"], np.eye(2)), emb)
        write_embeddings_file(EmbeddingStore(["c0", "c1", "c2"], np.eye(3)), cohort)
        trials = write_trials(tmp_path / "t.txt", TrialList(["a"], ["b"]))
        config = write_config(tmp_path / "p.cfg", cohort=cohort, top_k=2)
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb), "--asnorm",
                     "--config", str(config)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: {cohort}: embedding stack shape (2, 1, 2) does not match cohort dim 3\n")

    def test_config_files_are_checked_by_their_reader(self, tmp_path, wav_dir, capsys):
        # the config names a cohort and a noise bank that do not exist: the
        # commands that never read them succeed, and each reader names its file
        wav_list, emb, trials = self.setup_pipeline(tmp_path, wav_dir)
        config = write_config(tmp_path / "p.cfg", cohort="absent.bin",
                              noise_manifest="absent.txt", top_k=3)
        wav, out = wav_dir / "u0.wav", tmp_path / "out"
        for argv in (["features", "--wav", str(wav), "--output", str(out)],
                     ["embed", "--wav-list", str(wav_list), "--output", str(emb)],
                     ["score", "--trials", str(trials), "--embeddings", str(emb)]):
            assert main([*argv, "--config", str(config)]) == 0
        capsys.readouterr()
        out.unlink()
        for argv, message in (
            (["score", "--asnorm", "--trials", str(trials), "--embeddings", str(emb)],
             f"cohort file not found: {tmp_path / 'absent.bin'}"),
            (["augment", "--wav", str(wav), "--output", str(out)],
             f"manifest file not found: {tmp_path / 'absent.txt'}"),
        ):
            assert main([*argv, "--config", str(config)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert not out.exists()

    @pytest.mark.parametrize("keys, k", [({"top_k": 4}, 4), ({}, 100)], ids=["config", "default"])
    def test_cohort_smaller_than_k_names_the_cohort(self, tmp_path, capsys, keys, k):
        emb, cohort = tmp_path / "emb.bin", tmp_path / "cohort.bin"
        write_embeddings_file(EmbeddingStore(["a", "b"], np.eye(2)), emb)
        write_embeddings_file(
            EmbeddingStore(["c0", "c1", "c2"], [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]), cohort)
        trials = write_trials(tmp_path / "t.txt", TrialList(["a"], ["b"]))
        out = tmp_path / "out.txt"
        config = write_config(tmp_path / "p.cfg", cohort=cohort, **keys)
        code = main(["score", "--trials", str(trials), "--embeddings", str(emb), "--asnorm",
                     "--config", str(config), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: {cohort}: cohort has 3 vectors, need at least k={k}\n")
        assert not out.exists()

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

        monkeypatch.setattr("svkit.model.embedder.embed_waveform", counted)
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

    def test_config_seed_sets_the_embed_stream(self, tmp_path, capsys):
        wav = tone_wav(tmp_path / "u.wav", 440)
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text(f"u {wav}\n", encoding="utf-8")
        outputs = []
        for seed in (3, 4):
            config = write_config(tmp_path / "p.cfg", seed=seed)
            out, want = tmp_path / f"e{seed}.bin", tmp_path / f"want{seed}.bin"
            assert main(["embed", "--wav-list", str(wav_list), "--config", str(config),
                         "--output", str(out)]) == 0
            vector = embed_waveform(read_wav(wav), seed=stage_seed(seed, "embed"))
            write_embeddings_file(EmbeddingStore(["u"], [vector]), want)
            assert out.read_bytes() == want.read_bytes()
            outputs.append(out.read_bytes())
        assert outputs[0] != outputs[1]

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
        monkeypatch.setattr("svkit.features.read_wav", lambda *a, **k: reads.append(a))
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
            ("top_k = 1", ["score", "--asnorm", "--trials", "t", "--embeddings", "e"],
             "top_k must be >= 2, got 1"),
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


def without_labels(trial_list):
    return TrialList(*trial_ids(trial_list))


class TestFuse:
    def write_score_file(self, path, trials, values):
        lines = [f"{e} {t} {v:.9f}" for e, t, v in zip(*trial_ids(trials), values)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_fit_and_apply_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        trial_list = TrialList([f"e{i}" for i in range(40)], [f"t{i}" for i in range(40)],
                               [bool(i % 2) for i in range(40)])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        labels = np.array(list(trial_list.labels()), dtype=float)
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

        unlabeled = write_trials(tmp_path / "t2.txt", without_labels(trial_list))
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
        applied = parse_scores(capsys.readouterr().out, without_labels(trial_list))
        fitted = parse_scores(fused_out.read_text(), trial_list)
        assert np.allclose(applied.scores, fitted.scores, atol=1e-12)

    def test_failed_fit_leaves_no_model(self, tmp_path, capsys):
        trial_list = TrialList(["a", "a", "b", "b"], ["c", "d", "c", "d"],
                               [True, False, False, True])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.9, 0.3, 0.4, 0.2])
        s2 = self.write_score_file(tmp_path / "s2.txt", trial_list, [0.1, 0.5, 0.2, 0.7])
        model, out = tmp_path / "model.txt", tmp_path / "nodir" / "fused.txt"
        code = main(["fuse", "--trials", str(trials), "--scores", str(s1), str(s2),
                     "--fit-labels", "--model", str(model), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert not model.exists()

    @pytest.mark.parametrize("score", [1e155, 1e308])
    def test_fit_past_float64_names_trials(self, tmp_path, capsys, score):
        # the fit's products of scores overflow: an error, not a zero fit
        trial_list = TrialList(["a", "a"], ["b", "c"], [True, False])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        (tmp_path / "s.txt").write_text(f"a b {score!r}\na c {-score!r}\n", encoding="utf-8")
        model, out = tmp_path / "model.txt", tmp_path / "fused.txt"
        code = main(["fuse", "--trials", str(trials), "--scores", str(tmp_path / "s.txt"),
                     "--fit-labels", "--model", str(model), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {trials}: scores overflow float64 in the fit\n")
        assert not model.exists() and not out.exists()

    @pytest.mark.parametrize("command", [["evaluate"], ["fuse", "--fit-labels"]])
    def test_single_class_list_names_trials(self, tmp_path, capsys, command):
        trial_list = TrialList(["a", "a"], ["b", "c"], [True, True])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.5, -0.5])
        code = main([*command, "--trials", str(trials), "--scores", str(s1)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {trials}: need both target and nontarget trials\n"

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
            f"error: {model}: model has 2 systems but --scores gives 1"
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
        unlabeled = write_trials(tmp_path / "unlabeled.txt", without_labels(trial_list))
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

    @pytest.mark.parametrize("flags, message", [
        (["--model", "m.txt", "--l2", "0.5"],
         "--l2 needs --fit-labels: it is the fit's weight penalty"),
        (["--fit-labels", "--l2", "-5"], "--l2 must be finite and >= 0, got -5"),
        (["--fit-labels", "--l2", "nan"], "--l2 must be finite and >= 0, got nan"),
        (["--fit-labels", "--l2", "inf"], "--l2 must be finite and >= 0, got inf"),
    ], ids=["apply", "negative", "nan", "inf"])
    def test_l2_only_fits_with_a_finite_non_negative_penalty(self, tmp_path, capsys, monkeypatch,
                                                            flags, message):
        monkeypatch.chdir(tmp_path)  # for the model file m.txt
        trial_list = TrialList(["a", "a", "b", "b"], ["c", "d", "c", "d"],
                               [True, False, False, True])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.9, 0.3, 0.4, 0.2])
        (tmp_path / "m.txt").write_text("0.1 1.0\n", encoding="utf-8")
        out = tmp_path / "fused.txt"
        code = main(["fuse", "--trials", str(trials), "--scores", str(s1), "--output", str(out),
                     *flags])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_l2_sets_the_fit_penalty(self, tmp_path, capsys):
        trial_list = TrialList(["a", "a", "b", "b"], ["c", "d", "c", "d"],
                               [True, False, False, True])
        trials = write_trials(tmp_path / "t.txt", trial_list)
        s1 = self.write_score_file(tmp_path / "s1.txt", trial_list, [0.9, 0.3, 0.4, 0.2])
        models = []
        for flags in ([], ["--l2", "1e-4"], ["--l2", "0.5"]):
            model = tmp_path / "m.txt"
            assert main(["fuse", "--trials", str(trials), "--scores", str(s1), "--fit-labels",
                         "--model", str(model), *flags]) == 0
            models.append(model.read_text(encoding="utf-8"))
        assert models[0] == models[1] != models[2]

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
        assert code in (0, 2)
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) <= 1
        if code == 0:
            assert captured.err == ""
            assert len(captured.out.splitlines()) == len(trial_list)
        else:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert any(str(path) in captured.err for path in (trials, s1, model))


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
        real = score_text_chunks

        def failing(score_set):
            chunks = real(score_set)
            yield next(chunks)
            raise RuntimeError("disk gone")

        monkeypatch.setattr("svkit.trials.score_text_chunks", failing)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: not written: RuntimeError: disk gone\n"
        assert not out.exists()
        monkeypatch.setattr("svkit.trials.score_text_chunks", real)
        assert main(argv) == 0
        assert out.read_text(encoding="utf-8") == want

    def test_failure_mid_stream_through_symlink_keeps_link(self, inputs, capsys, monkeypatch):
        # a symlink is written through and never removed: its target is left
        # holding the chunks written before the failure
        target, out = inputs / "target.txt", inputs / "link.txt"
        target.write_text("old\n", encoding="utf-8")
        out.symlink_to(target)
        real = score_text_chunks

        def failing(score_set):
            chunks = real(score_set)
            yield next(chunks)
            raise RuntimeError("disk gone")

        monkeypatch.setattr("svkit.trials.score_text_chunks", failing)
        assert main(self.argv(inputs, "score", out)) == 2
        assert capsys.readouterr().err == f"error: {out}: not written: RuntimeError: disk gone\n"
        assert out.is_symlink()
        assert target.read_text(encoding="utf-8").count("\n") == SCORE_CHUNK

    @pytest.mark.parametrize("command", ["score", "fuse"])
    def test_stdout_pipe_gives_the_output_file_bytes(self, inputs, command):
        # three chunks written to a pipe by a process that skips teardown
        out = inputs / "out.txt"
        argv = self.argv(inputs, command, out)
        assert run_svkit(argv, inputs) == (0, b"", "")
        code, piped, err = run_svkit(argv[:argv.index("--output")], inputs)
        assert (code, err) == (0, "")
        assert piped == out.read_bytes()
        assert piped.count(b"\n") == 3 * SCORE_CHUNK

    @pytest.mark.parametrize("case", ["missing-id", "bad-cohort"])
    def test_error_before_first_chunk_creates_no_file(self, inputs, capsys, case):
        out = inputs / "out.txt"
        argv = self.argv(inputs, "score", out)
        if case == "missing-id":
            write_trials(inputs / "t.txt", TrialList(["u0", "u2"], ["u1", "ghost"]))
        else:  # a cohort of another dimension
            write_embeddings_file(EmbeddingStore(["c0", "c1"], np.eye(2)), inputs / "cohort.bin")
            config = write_config(inputs / "p.cfg", cohort="cohort.bin", top_k=2)
            argv += ["--asnorm", "--config", str(config)]
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
        write_config(tmp_path / "bank.cfg", noise_manifest="bad.txt")
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
            ("manifest", ["augment", "--wav", "in", "--config", "bank", "--output", "out"]),
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
        config = write_config(tmp_path / "p.cfg", noise_manifest=manifest)
        code = main(["augment", "--wav", str(wav), "--config", str(config),
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
            "augment": ["augment", "--wav", str(wav), "--output", str(out), "--config",
                        str(write_config(tmp_path / "p.cfg", noise_manifest=listing, seed=seed))],
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


def emb1_records(data: bytes) -> list[tuple[int, int]]:
    """(start, end) of each whole EMB1 record in `data`, walked by its
    header's dim and each record's id length; an empty list if the header
    is cut short."""
    if len(data) < 16:
        return []
    (dim,) = struct.unpack_from("<I", data, 4)
    records, pos = [], 16
    while pos + 2 <= len(data):
        end = pos + 2 + struct.unpack_from("<H", data, pos)[0] + 4 * dim
        if end > len(data):
            break
        records.append((pos, end))
        pos = end
    return records


def wav_chunks(data: bytes) -> list[tuple[int, int]]:
    """(start, end) of each whole chunk inside a RIFF wav's "WAVE" form,
    walked by each chunk's size, padded to an even byte count."""
    chunks, pos = [], 12
    while pos + 8 <= len(data):
        size = struct.unpack_from("<I", data, pos + 4)[0]
        end = pos + 8 + size + size % 2
        if end > len(data):
            break
        chunks.append((pos, end))
        pos = end
    return chunks


def mutate(data: bytes, edits) -> bytes:
    """`data` after each edit: ("cut", at) keeps the bytes before `at`,
    ("flip", at, bits) xors one byte, ("repeat", k) doubles line k,
    ("drop", k) deletes it, ("key", k) doubles its first byte, ("value", k,
    text) sets what follows its first "=" to " text" if it has one,
    ("crlf",) ends every line with "\\r\\n", ("field", at, fmt, value)
    packs `value` at offset `at` if the data holds it, ("record", k)
    doubles EMB1 record k and adds one to the header's count, and
    ("chunk", k) doubles wav chunk k and adds its length to the RIFF size,
    and ("token", k, text) puts `text` in place of whitespace-separated
    token k, keeping the whitespace around it."""
    for kind, *where in edits:
        if kind == "cut":
            data = data[: where[0] % (len(data) + 1)]
        elif kind == "flip" and data:
            at = where[0] % len(data)
            data = data[:at] + bytes([data[at] ^ where[1]]) + data[at + 1 :]
        elif kind in ("repeat", "drop", "key", "value") and data:
            lines = data.splitlines(True)
            k = where[0] % len(lines)
            key, eq, _ = lines[k].partition(b"=")
            if kind == "value" and eq:
                lines[k] = key + eq + b" " + where[1] + b"\n"
            elif kind != "value":
                lines[k] = {"repeat": lines[k] * 2, "drop": b"", "key": key[:1] + lines[k]}[kind]
            data = b"".join(lines)
        elif kind == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif kind == "field" and len(data) >= where[0] + struct.calcsize(where[1]):
            at, fmt, value = where
            data = data[:at] + struct.pack(fmt, value) + data[at + struct.calcsize(fmt) :]
        elif kind == "record" and (records := emb1_records(data)):
            start, end = records[where[0] % len(records)]
            count = (struct.unpack_from("<Q", data, 8)[0] + 1) % 2**64
            data = data[:8] + struct.pack("<Q", count) + data[16:end] + data[start:]
        elif kind == "chunk" and (chunks := wav_chunks(data)):
            start, end = chunks[where[0] % len(chunks)]
            size = (struct.unpack_from("<I", data, 4)[0] + end - start) % 2**32
            data = data[:4] + struct.pack("<I", size) + data[8:end] + data[start:]
        elif kind == "token" and (tokens := list(re.finditer(rb"\S+", data))):
            token = tokens[where[0] % len(tokens)]
            data = data[: token.start()] + where[1] + data[token.end() :]
    return data


CUT = st.tuples(st.just("cut"), st.integers(0, 200))
FLIP = st.tuples(st.just("flip"), st.integers(0, 200), st.integers(1, 255))
# the text fuzzer's target file and its edits. One kind keeps that file
# valid: a label (token 3j of the six-trial file) set to 0 or 1, or a
# score (token 3j + 2 of a score file) set to another finite value. Half
# the edit lists hold only that kind, so many runs exit 0 and meet an oracle.
KEEPS_VALID = {
    "trials": st.tuples(st.just("token"), st.integers(0, 5).map(lambda j: 3 * j),
                        st.sampled_from([b"0", b"1"])),
    "scores": st.tuples(st.just("token"), st.integers(0, 5).map(lambda j: 3 * j + 2),
                        st.sampled_from([b"0.25", b"-3", b"1e-3"])),
}
TEXT_EDITS = st.sampled_from(sorted(KEEPS_VALID)).flatmap(lambda target: st.tuples(
    st.just(target),
    st.lists(st.one_of(
        CUT,
        FLIP,
        st.tuples(st.just("repeat"), st.integers(0, 10)),
        st.tuples(st.just("crlf")),
        KEEPS_VALID[target],
    ), min_size=1, max_size=3) | st.lists(KEEPS_VALID[target], min_size=1, max_size=3),
))
# a config line dropped, repeated or given a misspelt key, or its value set
# to 0, a negative, an overflowing float or non-ASCII (Arabic-Indic, fullwidth) digits
CONFIG_VALUES = [b"0", b"-1", b"-2.5", b"1e309", "\u0661\u0666".encode(), "\uff11\uff10".encode()]
CONFIG_EDITS = st.lists(st.one_of(
    CUT,
    FLIP,
    st.tuples(st.sampled_from(["repeat", "drop", "key"]), st.integers(0, 10)),
    st.tuples(st.just("value"), st.integers(0, 10), st.sampled_from(CONFIG_VALUES)),
), min_size=1, max_size=3)
# a fusion model's bias or a weight made non-finite, overflowing, or too
# large for the fused scores to stay finite; dropped, or doubled (one field
# too few or too many)
MODEL_TOKENS = [b"nan", b"inf", b"-inf", b"1e309", b"1.7e308", b"", b"0.5 0.5"]
MODEL_EDITS = st.lists(st.one_of(
    CUT,
    FLIP,
    st.tuples(st.just("token"), st.integers(0, 10), st.sampled_from(MODEL_TOKENS)),
), min_size=1, max_size=3)
# EMB1's u32 dim and u64 count, each set to 0 or to its maximum
EMB1_FIELDS = [("field", 4, "<I", 0), ("field", 4, "<I", 2**32 - 1),
               ("field", 8, "<Q", 0), ("field", 8, "<Q", 2**64 - 1)]
EMB1_EDITS = st.lists(st.one_of(
    CUT,
    FLIP,
    st.sampled_from(EMB1_FIELDS),
    st.tuples(st.just("record"), st.integers(0, 10)),
), min_size=1, max_size=3)
# the header write_wav writes: the RIFF, fmt and data chunk sizes, the
# channel count, the rate, and the sample width (block align and bits)
WAV_FIELDS = [("field", at, fmt, value)
              for at, fmt in ((4, "<I"), (16, "<I"), (40, "<I"), (22, "<H"), (24, "<I"),
                              (32, "<H"), (34, "<H"))
              for value in (0, 2 ** (8 * struct.calcsize(fmt)) - 1)]
WAV_EDITS = st.lists(st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**14)),  # any offset of a 0.25 s clip
    st.tuples(st.just("flip"), st.integers(0, 2**14), st.integers(1, 255)),
    st.sampled_from(WAV_FIELDS),
    st.tuples(st.just("chunk"), st.integers(0, 3)),
), min_size=1, max_size=3)


class TestMutatedText:
    """evaluate, fuse and score over trial and score files cut, flipped,
    given a repeated line, CRLF line ends or a label or score set to
    another valid value, score over an EMB1 store or cohort cut, flipped,
    given a header field at 0 or its maximum or a repeated record, and
    fuse over a fitted model cut, flipped, given a bad value or one field
    too few or too many, keep the CLI contract: exit 0 or 2, at most one stderr line naming an input file, no output
    file after a failure. A run that exits 0 matches perfbench's oracles
    on the text the plain reference parsers read: an evaluate prints the
    counting EER and minDCF, a score writes the identity store's dot of
    each pair, and a fuse writes the fusion its model file gives."""

    LIST = TrialList(["a", "a", "b", "c", "d", "b"], ["b", "c", "c", "d", "a", "d"],
                     [True, False, True, False, True, False])

    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["evaluate", "fuse", "score"]),
        target_edits=TEXT_EDITS,
    )
    # evaluate exits 0 on either file with CRLF line ends: the oracle runs on every run
    @example(command="evaluate", target_edits=("trials", [("crlf",)]))
    @example(command="evaluate", target_edits=("scores", [("crlf",)]))
    def test_mutated_text_keeps_cli_contract(self, tmp_path, capsys, command, target_edits):
        target, edits = target_edits
        trials, s1, s2, emb, model = (tmp_path / name for name in
                                      ("t.txt", "s1.txt", "s2.txt", "e.bin", "m.txt"))
        write_trials(trials, self.LIST)
        scores = ScoreSet(self.LIST, np.linspace(-0.5, 0.5, len(self.LIST)))
        s1.write_text(serialize_scores(scores), encoding="utf-8")
        s2.write_text(serialize_scores(ScoreSet(self.LIST, scores.scores[::-1])),
                      encoding="utf-8")
        if not emb.exists():
            write_embeddings_file(EmbeddingStore(["a", "b", "c", "d"], np.eye(4)), emb)
        victim = s1 if target == "scores" and command != "score" else trials
        victim.write_bytes(mutate(victim.read_bytes(), edits))
        out = tmp_path / "out.txt"
        out.unlink(missing_ok=True)
        model.unlink(missing_ok=True)
        inputs, argv = {
            "evaluate": ([trials, s1], ["evaluate", "--trials", str(trials), "--scores", str(s1)]),
            "fuse": ([trials, s1, s2], ["fuse", "--trials", str(trials), "--scores", str(s1),
                                        str(s2), "--fit-labels", "--model", str(model),
                                        "--output", str(out)]),
            "score": ([trials, emb], ["score", "--trials", str(trials), "--embeddings", str(emb),
                                      "--output", str(out)]),
        }[command]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        event(f"{command} exit {code}")
        assert code in (0, 2)
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) <= 1
        if code == 0:
            assert captured.err == ""
            assert out.exists() or command == "evaluate"
            if command == "evaluate":
                pairs, labels = reference_trials(trials.read_bytes().decode("utf-8"), True)
                _, values, _ = reference_scores(s1.read_bytes().decode("utf-8"), pairs)
                want = oracles.counting_eer_mindcf(np.array(values), np.array(labels))
                lines = captured.out.splitlines()
                assert [line.split()[0] for line in lines] == ["EER(%)", "minDCF"]
                # half a unit of the sixth printed decimal, plus the float
                # slack perfbench/oracles.py's evaluation check allows
                for line, value in zip(lines, want):
                    assert abs(float(line.split()[1]) - value) <= 5e-7 + 1e-9
            elif command == "score":
                pairs, _ = reference_trials(trials.read_bytes().decode("utf-8"), None)
                got, values, tol = oracles.read_scores(out)
                assert got == pairs
                want = np.array([float(e == t) for e, t in pairs])  # the store is np.eye(4)
                assert np.all(np.abs(values - want) <= tol)
            else:
                # perfbench's oracle reads every line as a row: give it the
                # inputs' non-blank lines
                plain = [tmp_path / f"plain-{path.name}" for path in inputs]
                for path, copy in zip(inputs, plain):
                    lines = path.read_bytes().decode("utf-8").splitlines()
                    copy.write_text("".join(f"{line}\n" for line in lines if line.split()),
                                    encoding="utf-8")
                assert oracles.fusion([model, out], plain[0], plain[1:], model) == []
        else:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert any(str(path) in captured.err for path in inputs)
            assert not out.exists() and not model.exists()

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(target=st.sampled_from(["embeddings", "cohort"]), edits=EMB1_EDITS)
    @example(target="cohort", edits=[("field", 8, "<Q", 0), ("cut", 16)])  # an empty cohort
    def test_mutated_emb1_keeps_cli_contract(self, tmp_path, capsys, target, edits):
        trials, emb, cohort, out = (tmp_path / name
                                    for name in ("t.txt", "e.bin", "c.bin", "out.txt"))
        write_trials(trials, self.LIST)
        rng = np.random.default_rng(0)  # generic unit vectors: no tied cohort scores
        write_embeddings_file(EmbeddingStore(["a", "b", "c", "d"], unit_rows(rng, 4, 4)), emb)
        write_embeddings_file(
            EmbeddingStore([f"c{i}" for i in range(6)], unit_rows(rng, 6, 4)), cohort)
        victim = emb if target == "embeddings" else cohort
        victim.write_bytes(mutate(victim.read_bytes(), edits))
        out.unlink(missing_ok=True)
        argv = ["score", "--trials", str(trials), "--embeddings", str(emb), "--output", str(out)]
        if target == "cohort":
            argv += ["--asnorm",
                     "--config", str(write_config(tmp_path / "p.cfg", cohort=cohort, top_k=3))]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        event(f"{target} exit {code}")
        assert code in (0, 2)
        assert "Traceback" not in captured.err
        assert captured.out == ""
        if code == 0:
            assert captured.err == ""
            assert out.exists()
        else:
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ")
            assert str(victim) in captured.err
            assert not out.exists()


    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(edits=MODEL_EDITS)
    @example(edits=[("token", 1, b"1.7e308"), ("token", 0, b"1.7e308")])  # overflow
    @example(edits=[("token", 2, b"")])  # one system too few
    @example(edits=[("token", 0, b"0.5 0.5")])  # one too many
    def test_mutated_model_keeps_cli_contract(self, tmp_path, capsys, edits):
        trials, s1, s2, model, out = (tmp_path / name for name in
                                      ("t.txt", "s1.txt", "s2.txt", "m.txt", "out.txt"))
        if not model.exists():
            write_trials(trials, self.LIST)
            scores = np.linspace(-0.5, 0.5, len(self.LIST))
            s1.write_text(serialize_scores(ScoreSet(self.LIST, scores)), encoding="utf-8")
            s2.write_text(serialize_scores(ScoreSet(self.LIST, scores ** 2)), encoding="utf-8")
            assert main(["fuse", "--trials", str(trials), "--scores", str(s1), str(s2),
                         "--fit-labels", "--model", str(model)]) == 0
            (tmp_path / "fitted.txt").write_bytes(model.read_bytes())
        model.write_bytes(mutate((tmp_path / "fitted.txt").read_bytes(), edits))
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(["fuse", "--trials", str(trials), "--scores", str(s1), str(s2),
                     "--model", str(model), "--output", str(out)])
        captured = capsys.readouterr()
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        assert captured.out == ""
        if code == 0:
            assert captured.err == ""
            assert len(out.read_text(encoding="utf-8").splitlines()) == len(self.LIST)
        else:
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ") and str(model) in captured.err
            assert not out.exists()


class TestMutatedWav:
    """features, augment (its input or a bank clip) and embed (plain or
    --msa) over a wav cut, flipped, given a size, channel, rate or width
    field at 0 or its maximum, or a repeated chunk, keep the CLI contract:
    exit 0 or 2, at most one stderr line naming the wav, no --output file
    after a failure."""

    @staticmethod
    def run(tmp_path, capsys, target, edits):
        """(exit code, stdout, stderr, the mutated wav) of the command
        `target` names, with its wav mutated by `edits`, then restored."""
        wav, out = tmp_path / "in.wav", tmp_path / "out"
        tone_wav(wav, 440, duration=0.25)
        if not (tmp_path / "bank.txt").exists():
            TestAugment().make_manifest(tmp_path)
        wav_list = tmp_path / "utts.txt"
        wav_list.write_text("u0 in.wav\nu1 noise.wav\n", encoding="utf-8")
        victim = tmp_path / "noise.wav" if target == "bank" else wav
        good = victim.read_bytes()
        victim.write_bytes(mutate(good, edits))
        out.unlink(missing_ok=True)
        config = write_config(tmp_path / "p.cfg", noise_manifest="bank.txt", seed=1)
        augment = ["augment", "--wav", str(wav), "--config", str(config)]
        argv = {
            "features": ["features", "--wav", str(wav)],
            "augment": augment,
            "bank": augment,
            "embed": ["embed", "--wav-list", str(wav_list)],
            "embed-msa": ["embed", "--wav-list", str(wav_list), "--msa"],
        }[target]
        capsys.readouterr()
        try:
            code = main([*argv, "--output", str(out)])
        finally:
            victim.write_bytes(good)
        captured = capsys.readouterr()
        assert out.exists() == (code == 0)
        return code, captured.out, captured.err, victim

    @pytest.mark.parametrize("target", ["features", "augment", "bank", "embed"])
    def test_chunk_past_the_riff_end_is_data_error(self, tmp_path, capsys, target):
        code, out, err, victim = self.run(tmp_path, capsys, target,
                                          [("field", 16, "<I", 2**32 - 1)])
        assert (code, out) == (2, "")
        assert err == (f"error: {victim}: not a readable RIFF wav "
                       "(a chunk runs past the end of the RIFF chunk)\n")

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(target=st.sampled_from(["features", "augment", "bank", "embed", "embed-msa"]),
           edits=WAV_EDITS)
    @example(target="embed-msa", edits=[("field", 16, "<I", 2**32 - 1)])  # fmt past the end
    @example(target="features", edits=[("field", 40, "<I", 0)])  # no frames
    @example(target="bank", edits=[("field", 40, "<I", 0)])  # an empty noise clip
    @example(target="augment", edits=[("field", 40, "<I", 0)])  # an empty input
    def test_mutated_wav_keeps_cli_contract(self, tmp_path, capsys, target, edits):
        code, out, err, victim = self.run(tmp_path, capsys, target, edits)
        event(f"{target} exit {code}")
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        else:
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ")
            assert str(victim) in err


class TestMutatedConfig:
    """features, augment, embed (plain or --msa) and score --asnorm over a
    pipeline config, and schedule-dump over a schedule config, with a key
    dropped, repeated or misspelt, or a value cut, flipped, set to 0, a
    negative, 1e309 or non-ASCII digits, keep the CLI contract: exit 0, 1
    or 2, no traceback, at most one "error:" line, no --output file after a
    failure."""

    PIPELINE = (b"sample_rate = 16000\nn_mels = 40\ncmn = true\nnoise_manifest = bank.txt\n"
                b"cohort = c.bin\ntop_k = 3\nn_segments = 3\nsegment_duration = 0.1\n"
                b"seed = 5\np_noise = 0.5\n")
    SCHEDULE = b"cycle0_steps = 10\nlr_max0 = 0.1\nlr_min = 0.001\ndecay = 0.5\ndoubling = false\n"

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(target=st.sampled_from(["features", "augment", "embed", "embed-msa", "score",
                                   "schedule-dump"]),
           edits=CONFIG_EDITS)
    @example(target="score", edits=[("value", 5, b"7")])  # a cohort under top_k
    @example(target="augment", edits=[("drop", 3)])  # no noise_manifest
    def test_mutated_config_keeps_cli_contract(self, tmp_path, capsys, target, edits):
        wav, out, config = tmp_path / "in.wav", tmp_path / "out", tmp_path / "p.cfg"
        trials, emb = tmp_path / "t.txt", tmp_path / "e.bin"
        if not wav.exists():
            tone_wav(wav, 440, duration=0.25)
            TestAugment().make_manifest(tmp_path)
            (tmp_path / "utts.txt").write_text("u0 in.wav\nu1 noise.wav\n", encoding="utf-8")
            write_trials(trials, TrialList(["a", "b"], ["c", "d"]))
            rng = np.random.default_rng(0)  # generic unit vectors: no tied cohort scores
            write_embeddings_file(EmbeddingStore(list("abcd"), unit_rows(rng, 4, 4)), emb)
            write_embeddings_file(
                EmbeddingStore([f"c{i}" for i in range(6)], unit_rows(rng, 6, 4)),
                tmp_path / "c.bin")
        schedule = target == "schedule-dump"
        config.write_bytes(mutate(self.SCHEDULE if schedule else self.PIPELINE, edits))
        out.unlink(missing_ok=True)
        argv = {
            "features": ["features", "--wav", str(wav)],
            "augment": ["augment", "--wav", str(wav)],
            "embed": ["embed", "--wav-list", str(tmp_path / "utts.txt")],
            "embed-msa": ["embed", "--wav-list", str(tmp_path / "utts.txt"), "--msa"],
            "score": ["score", "--asnorm", "--trials", str(trials), "--embeddings", str(emb)],
            "schedule-dump": ["schedule-dump", "--steps", "20"],
        }[target] + ["--config", str(config)] + ([] if schedule else ["--output", str(out)])
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        event(f"{target} exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if code == 0:
            assert captured.err == ""
            assert out.exists() or schedule
        else:
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ")
            assert not out.exists()


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
        assert capsys.readouterr() == ("PASS reduction-identities\nPASS fft-block-rows\n", "")

    def test_help_is_the_readme_row(self):
        (commands,) = [a for a in cli_module.build_parser()._actions if a.dest == "command"]
        (help_text,) = [a.help for a in commands._choices_actions if a.dest == "selftest"]
        (row,) = re.findall(r"^\| `selftest` \| (.*) \|$", README.read_text(encoding="utf-8"),
                            re.M)
        assert help_text == row

    def test_failing_and_raising_checks_fail_the_run(self, monkeypatch, capsys):
        def raises():
            raise RuntimeError("boom")

        checks = (("holds", lambda: True), ("fails", lambda: False), ("raises", raises))
        monkeypatch.setattr(selftest, "CHECKS", checks)
        assert main(["selftest"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "PASS holds\nFAIL fails\nFAIL raises\n"
        assert captured.err == "raises: RuntimeError: boom\n2 of 3 properties failed\n"
