"""Command-line pipeline: features, augmentation, embedding, scoring,
metrics, fusion, schedule dumps, shape planning, and a self-test suite.

Exit codes: 0 success, 1 usage error, 2 data or format error. Machine
output goes to stdout only; diagnostics go to stderr. All randomized
stages draw from per-stage seeds fanned out from one config seed, so a
fixed config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from contextlib import ExitStack, redirect_stdout
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NoReturn

from . import EMB_MAGIC, MEL_MAGIC, __version__

# Each command imports the svkit modules it runs when it is called, so a
# command loads only its own layers and `--version` loads no numpy. Every
# config class lives in `config`, which imports only `trials`, so reading
# a config loads no layer that the command does not run.
if TYPE_CHECKING:
    import numpy as np

    from .config import PipelineConfig
    from .trials import TrialList


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(args) -> PipelineConfig:
    from .config import PipelineConfig, load_pipeline_config

    if getattr(args, "config", None):
        return load_pipeline_config(args.config)
    return PipelineConfig()


def _emit(chunks: Iterable[str], output) -> None:
    """Write text chunks, as they come, to the output file or else stdout.

    A failure part-way through removes the output file, so a failed command
    leaves none; an exception that is not a data or I/O error is reported
    as a data error naming the file."""
    from .trials import output_file

    if not output:
        sys.stdout.writelines(chunks)
        return
    try:
        with output_file(output, "w") as sink:
            sink.writelines(chunks)
    except (ValueError, OSError):
        raise
    except Exception as exc:
        raise ValueError(f"{Path(output)}: not written: {type(exc).__name__}: {exc}") from exc


def cmd_features(args) -> int:
    from .features import apply_cmn, compute_logmel, read_wav, write_mel
    from .trials import output_file

    cfg = _load_config(args)
    wav = read_wav(args.wav, expected_rate=cfg.sample_rate)
    try:  # a wav shorter than one window, say
        feats = compute_logmel(wav, cfg.features)
    except ValueError as exc:
        raise ValueError(f"{args.wav}: {exc}") from None
    if cfg.cmn:
        feats = apply_cmn(feats)
    with output_file(args.output, "wb") as sink:
        write_mel(feats, sink)
    print(f"frames {feats.n_frames} mels {feats.bins.shape[0]}")
    return 0


def cmd_augment(args) -> int:
    import numpy as np

    from .augment import NoiseBank, apply_policy
    from .config import stage_seed
    from .features import read_wav, write_wav

    cfg = _load_config(args)
    if cfg.noise_manifest is None:
        raise UsageError("augment needs a noise_manifest config entry")
    bank = NoiseBank.from_manifest(cfg.noise_manifest, cfg.sample_rate)
    wav = read_wav(args.wav, expected_rate=cfg.sample_rate)
    rng = np.random.default_rng(stage_seed(cfg.seed, "augment"))
    try:  # an empty or silent wav, or a bank that cannot serve the policy
        out = apply_policy(wav, cfg.augment, bank, rng)
    except ValueError as exc:
        raise ValueError(f"{args.wav} with bank {cfg.noise_manifest}: {exc}") from None
    write_wav(out, args.output)
    print(f"samples {len(out)} rate {out.sample_rate}")
    return 0


def cmd_embed(args) -> int:
    from .config import stage_seed
    from .features import read_wav
    from .model.embedder import embed_waveform
    from .scoring import extract_segments, segment_id, segment_plan
    from .store import EmbeddingStore
    from .trials import read_path_list, write_embeddings_file

    cfg = _load_config(args)
    entries = read_path_list(args.wav_list, "wav list")
    if not entries:
        raise ValueError(f"wav list is empty: {args.wav_list}")
    first_line: dict[str, int] = {}
    for line_no, utt_id, _ in entries:
        if first_line.setdefault(utt_id, line_no) != line_no:
            raise ValueError(f"{args.wav_list}:{line_no}: duplicate utterance id {utt_id!r}")
    seed = stage_seed(cfg.seed, "embed")
    ids: list[str] = []
    vectors: list[np.ndarray] = []
    for _, utt_id, wav_path in entries:
        wav = read_wav(wav_path, expected_rate=cfg.sample_rate)
        try:
            segments = [([utt_id], wav)]
            if args.msa:
                plan = segment_plan(len(wav), wav.sample_rate, cfg.n_segments, cfg.segment_duration)
                segments = [([segment_id(utt_id, k) for k in ks], seg)
                            for ks, seg in extract_segments(wav, plan)]
            for seg_ids, seg in segments:
                vector = embed_waveform(seg, seed=seed, cfg=cfg.features)
                ids += seg_ids
                vectors += [vector] * len(seg_ids)
        except ValueError as exc:
            raise ValueError(f"utterance {utt_id!r} ({wav_path}): {exc}") from None
    store = EmbeddingStore(ids, vectors)
    write_embeddings_file(store, args.output)
    print(f"embedded {len(entries)} utterances dim {store.dim}")
    return 0


def cmd_score(args) -> int:
    from .scoring import CohortError, score_trials
    from .trials import parse_file, parse_trials, read_embeddings_file, score_text_chunks

    cfg = _load_config(args)
    # without --labeled the first non-blank line decides the trial form
    trials = parse_file(args.trials, "trials", parse_trials, True if args.labeled else None)
    store = read_embeddings_file(args.embeddings)
    mode = "msa" if args.msa else "asnorm" if args.asnorm else "raw"
    cohort = None
    if args.asnorm:
        if cfg.cohort is None:
            raise UsageError("asnorm scoring needs a cohort config entry")
        cohort = read_embeddings_file(cfg.cohort, "cohort")
    try:  # a cohort fault names the cohort, any other (a missing id, say) the store
        result = score_trials(trials, store, mode=mode, cohort=cohort, top_k=cfg.top_k)
    except CohortError as exc:
        raise ValueError(f"{cfg.cohort}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{args.embeddings}: {exc}") from None
    _emit(score_text_chunks(result), args.output)
    return 0


def _labeled_trials(path) -> TrialList:
    """The labeled trial list of a file, which must hold a target and a
    nontarget trial: an empty list is unlabeled, so it is named as what it is."""
    from .trials import parse_file, parse_trials

    trials = parse_file(path, "trials", parse_trials, True)
    if not len(trials):
        raise ValueError(f"{path}: no trials")
    if 0 not in trials.labels() or 1 not in trials.labels():
        raise ValueError(f"{path}: need both target and nontarget trials")
    return trials


def cmd_evaluate(args) -> int:
    from .metrics import DcfConfig, evaluate_scores
    from .trials import parse_file, parse_scores

    trials = _labeled_trials(args.trials)
    scores = parse_file(args.scores, "scores", parse_scores, trials)
    cfg = DcfConfig(p_target=args.p_target, c_miss=args.c_miss, c_fa=args.c_fa)
    eer_pct, dcf = evaluate_scores(scores, cfg)
    print(f"EER(%) {eer_pct:.6f}")
    print(f"minDCF {dcf:.6f}")
    return 0


def cmd_fuse(args) -> int:
    from .fusion import fit_fusion, fuse, parse_fusion_model, serialize_fusion_model, stack_scores
    from .trials import output_file, parse_file, parse_scores, parse_trials, score_text_chunks

    if not args.fit_labels and not args.model:
        raise UsageError("fuse needs --fit-labels (to fit) or --model (to apply)")
    if args.l2 is not None and not args.fit_labels:
        raise UsageError("--l2 needs --fit-labels: it is the fit's weight penalty")
    if args.l2 is not None and not (math.isfinite(args.l2) and args.l2 >= 0):
        raise UsageError(f"--l2 must be finite and >= 0, got {args.l2:g}")
    # applying a model takes a labeled or an unlabeled list: its first non-blank line decides
    trials = (_labeled_trials(args.trials) if args.fit_labels
              else parse_file(args.trials, "trials", parse_trials, None))
    matrix = stack_scores([parse_file(p, "scores", parse_scores, trials) for p in args.scores])
    if not args.fit_labels:
        model = parse_file(args.model, "model", parse_fusion_model)
        if model.n_systems != matrix.shape[1]:
            raise ValueError(f"{args.model}: model has {model.n_systems} systems "
                             f"but --scores gives {matrix.shape[1]}")
    try:  # floats past float64: the data fit, or the model's weights on the scores
        if args.fit_labels:
            model = fit_fusion(matrix, trials.labels(),
                               **({} if args.l2 is None else {"l2": args.l2}))
        fused = fuse(model, matrix, trials)
    except ValueError as exc:
        raise ValueError(f"{args.trials if args.fit_labels else args.model}: {exc}") from None
    with ExitStack() as written:  # a failure below removes the model file too
        if args.fit_labels and args.model:
            written.enter_context(output_file(args.model, "w")).write(serialize_fusion_model(model))
        _emit(score_text_chunks(fused), args.output)
    return 0


def cmd_schedule_dump(args) -> int:
    from .config import load_schedule_config
    from .schedule import dump_schedule

    cfg = load_schedule_config(args.config)
    for step, lr, cycle in dump_schedule(cfg, args.steps):
        print(f"{step} {lr:.10e} {cycle}")
    return 0


def cmd_shapes(args) -> int:
    from .model.shapes import plan_shapes

    shapes = plan_shapes(args.variant, mel_bins=args.mel_bins, frames=args.frames)
    for i, (f, t) in enumerate(shapes, start=1):
        print(f"stage{i} {f} {t}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import CHECKS

    failed = 0
    for name, check in CHECKS:
        try:
            ok = bool(check())
        except Exception as exc:  # a crash fails its check, and is named
            ok = False
            _diagnose(f"{name}: {type(exc).__name__}: {exc}")
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed += not ok
    if failed:
        _diagnose(f"{failed} of {len(CHECKS)} properties failed")
        return 2
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="svkit", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version",
        action="version",
        version=f"svkit {__version__} formats {EMB_MAGIC.decode()} {MEL_MAGIC.decode()}",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("features", help="log-Mel features for one wav")
    p.add_argument("--wav", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("augment", help="apply the augmentation policy to one wav")
    p.add_argument("--wav", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("embed", help="embed a list of wavs into an embeddings file")
    p.add_argument("--wav-list", required=True, help="lines of 'utt_id wav_path'")
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--msa", action="store_true", help="embed per-segment for matrix scoring")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("score", help="score trials against an embeddings file")
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--asnorm", action="store_true")
    p.add_argument("--msa", action="store_true")
    p.add_argument("--labeled", action="store_true", help="trials file carries labels")
    p.add_argument("--output")
    p.add_argument("--config")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="EER and minDCF of a labeled score file")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--p-target", type=float, default=0.05)
    p.add_argument("--c-miss", type=float, default=1.0)
    p.add_argument("--c-fa", type=float, default=1.0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fuse", help="fit or apply logistic-regression fusion")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", nargs="+", required=True, metavar="SCORES")
    p.add_argument("--fit-labels", action="store_true", help="fit weights on labeled trials")
    p.add_argument("--model", help="model file to write (with --fit-labels) or read")
    p.add_argument("--l2", type=float, help="weight penalty of the fit (default 1e-4)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("schedule-dump", help="emit 'step lr cycle' lines")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_schedule_dump)

    p = sub.add_parser("shapes", help="stage output shapes for a backbone variant")
    p.add_argument("variant")
    p.add_argument("--mel-bins", type=int, default=80)
    p.add_argument("--frames", type=int, default=600)
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("selftest", help="run the checks that the numpy or BLAS build can change")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one command; its exit code. The in-process API: it leaves the
    interpreter running, and every output file it wrote closed."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _diagnose(f"error: {exc}")
        _diagnose(parser.format_usage().rstrip("\n"))
        return 1
    except SystemExit as exc:
        # argparse handles --version/--help by exiting directly
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        _diagnose(parser.format_usage().rstrip("\n"))
        return 1
    try:
        with redirect_stdout(sys.stdout or _ClosedStdout()):
            code = args.func(args)
            sys.stdout.flush()  # so a closed reader is seen here, not at exit
        return code
    except UsageError as exc:
        _diagnose(f"error: {exc}")
        return 1
    except (ValueError, OSError) as exc:
        return _data_error(exc)


class _ClosedStdout(io.TextIOBase):
    """stdout, while a command runs, of a process started with fd 1 closed:
    a closed stream, which fails the command that writes to it."""

    def write(self, text):
        raise OSError("<stdout>: closed")


def _data_error(exc: Exception) -> int:
    """Report a data or I/O error on stderr; its exit code, 2."""
    reason = "<stdout>: broken pipe" if isinstance(exc, BrokenPipeError) else exc
    _diagnose(f"error: {reason}")
    return 2


def _diagnose(line: str) -> None:
    """Print one line on stderr, or nothing if the process has no stderr or
    it cannot be written: never on stdout, and never failing the command."""
    if sys.stderr:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def run() -> NoReturn:
    """The `svkit` command and `python -m svkit`: end the process with
    main's exit code, skipping interpreter teardown.

    Teardown frees modules and numpy (about 30 ms) and flushes the standard
    streams; every output file is closed before main returns, so only the
    flush is done here. It can fail only on text main left buffered: that
    of --version or --help, which fails the run, or the partial output of a
    command that has already reported its own error. A stream whose file
    descriptor was closed when the process started is None."""
    code = main()
    try:
        if sys.stdout:
            sys.stdout.flush()
    except OSError as exc:
        if not code:
            code = _data_error(exc)
    try:
        if sys.stderr:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to say so
    os._exit(code)
