"""Command-line pipeline: features, augmentation, embedding, scoring,
metrics, fusion, schedule dumps, shape planning, and a self-test suite.

Exit codes: 0 success, 1 usage error, 2 data or format error. Machine
output goes to stdout only; diagnostics go to stderr. All randomized
stages draw from per-stage seeds fanned out from one config seed, so a
fixed config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Iterable

import numpy as np

from . import EMB_FORMAT_VERSION, MEL_FORMAT_VERSION, __version__
from .augment import NoiseBank, apply_policy
from .config import PipelineConfig, load_pipeline_config, load_schedule_config, stage_seed
from .features import read_wav, write_mel, write_wav, apply_cmn, compute_logmel
from .fusion import (
    fit_fusion,
    fuse,
    parse_fusion_model,
    serialize_fusion_model,
    stack_scores,
)
from .metrics import DcfConfig, evaluate_scores
from .model import embed_waveform, plan_shapes
from .scoring import CohortError, extract_segments, score_trials, segment_id, segment_plan
from .schedule import dump_schedule
from .selftest import run_selftest
from .trials import (
    EmbeddingStore,
    TrialList,
    output_file,
    parse_file,
    parse_scores,
    parse_trials,
    read_embeddings_file,
    read_path_list,
    score_text_chunks,
    write_embeddings_file,
)


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return load_pipeline_config(args.config)
    return PipelineConfig()


def _emit(chunks: Iterable[str], output) -> None:
    """Write text chunks, as they come, to the output file or else stdout.

    A failure part-way through removes the output file, so a failed command
    leaves none; an exception that is not a data or I/O error is reported
    as a data error naming the file."""
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
    trials = parse_file(path, "trials", parse_trials, True)
    if not len(trials):
        raise ValueError(f"{path}: no trials")
    if trials.labels().all() or not trials.labels().any():
        raise ValueError(f"{path}: need both target and nontarget trials")
    return trials


def cmd_evaluate(args) -> int:
    trials = _labeled_trials(args.trials)
    scores = parse_file(args.scores, "scores", parse_scores, trials)
    cfg = DcfConfig(p_target=args.p_target, c_miss=args.c_miss, c_fa=args.c_fa)
    eer_pct, dcf = evaluate_scores(scores, cfg)
    print(f"EER(%) {eer_pct:.6f}")
    print(f"minDCF {dcf:.6f}")
    return 0


def cmd_fuse(args) -> int:
    if not args.fit_labels and not args.model:
        raise UsageError("fuse needs --fit-labels (to fit) or --model (to apply)")
    if args.l2 is not None and not args.fit_labels:
        raise UsageError("--l2 needs --fit-labels: it is the fit's weight penalty")
    if args.l2 is not None and not (np.isfinite(args.l2) and args.l2 >= 0):
        raise UsageError(f"--l2 must be finite and >= 0, got {args.l2:g}")
    # applying a model takes a labeled or an unlabeled list: its first non-blank line decides
    trials = (_labeled_trials(args.trials) if args.fit_labels
              else parse_file(args.trials, "trials", parse_trials, None))
    matrix = stack_scores([parse_file(p, "scores", parse_scores, trials) for p in args.scores])
    with ExitStack() as written:  # a failure below removes the model file too
        if args.fit_labels:
            model = fit_fusion(matrix, trials.labels(), **({} if args.l2 is None else {"l2": args.l2}))
            if args.model:
                written.enter_context(output_file(args.model, "w")).write(
                    serialize_fusion_model(model))
        else:
            model = parse_file(args.model, "model", parse_fusion_model)
            if model.n_systems != matrix.shape[1]:
                raise ValueError(f"{args.model}: model has {model.n_systems} systems "
                                 f"but --scores gives {matrix.shape[1]}")
        _emit(score_text_chunks(fuse(model, matrix, trials)), args.output)
    return 0


def cmd_schedule_dump(args) -> int:
    cfg = load_schedule_config(args.config)
    for step, lr, cycle in dump_schedule(cfg, args.steps):
        print(f"{step} {lr:.10e} {cycle}")
    return 0


def cmd_shapes(args) -> int:
    shapes = plan_shapes(args.variant, mel_bins=args.mel_bins, frames=args.frames)
    for i, (f, t) in enumerate(shapes, start=1):
        print(f"stage{i} {f} {t}")
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest()
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    failed = sum(not ok for _, ok in results)
    if failed:
        print(f"{failed} of {len(results)} properties failed", file=sys.stderr)
        return 2
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="svkit", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version",
        action="version",
        version=f"svkit {__version__} formats {EMB_FORMAT_VERSION} {MEL_FORMAT_VERSION}",
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

    p = sub.add_parser("selftest", help="run the built-in oracle property suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse handles --version/--help by exiting directly
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed reader is seen here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: fd 1 to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        print("error: <stdout>: broken pipe", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
