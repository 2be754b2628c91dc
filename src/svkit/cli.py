"""Command-line pipeline: features, augmentation, embedding, scoring,
metrics, fusion, schedule dumps, shape planning, and a self-test suite.

Exit codes: 0 success, 1 usage error, 2 data or format error. Machine
output goes to stdout only; diagnostics go to stderr. All randomized
stages draw from per-stage seeds fanned out from one config seed, so a
fixed config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import EMB_FORMAT_VERSION, MEL_FORMAT_VERSION, __version__
from .augment import NoiseBank, apply_policy
from .config import (
    ConfigError,
    PipelineConfig,
    load_pipeline_config,
    load_schedule_config,
    resolve_config_path,
    stage_seed,
)
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
from .scoring import extract_segments, score_trials, segment_id, segment_plan
from .schedule import dump_schedule
from .selftest import run_selftest
from .trials import (
    EmbeddingStore,
    TrialParseError,
    StoreFormatError,
    parse_scores,
    parse_trials,
    read_embeddings_file,
    serialize_scores,
    write_embeddings_file,
)


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class DataError(Exception):
    """Bad input file or value; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _require_file(path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} file not found: {path}")
    return path


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return load_pipeline_config(args.config)
    return PipelineConfig()


def _read_trials(path, labeled: bool):
    text = _require_file(path, "trials").read_text(encoding="utf-8")
    return parse_trials(text, labeled=labeled)


def _read_wav_list(path) -> list[tuple[str, Path]]:
    """Utterance list: lines of "utt_id wav_path", paths relative to the list."""
    list_path = _require_file(path, "wav list")
    base = list_path.parent
    entries = []
    for line_no, raw in enumerate(list_path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split(None, 1)
        if len(tokens) != 2:
            raise DataError(f"{list_path}:{line_no}: expected 'utt_id wav_path'")
        utt_id, wav = tokens
        wav_path = Path(wav)
        if not wav_path.is_absolute():
            wav_path = base / wav_path
        entries.append((utt_id, wav_path))
    if not entries:
        raise DataError(f"wav list is empty: {list_path}")
    return entries


def _emit(text: str, output) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_features(args) -> int:
    cfg = _load_config(args)
    wav = read_wav(_require_file(args.wav, "wav"), expected_rate=cfg.sample_rate)
    feats = compute_logmel(wav, cfg.feature_config())
    if cfg.cmn and not args.no_cmn:
        feats = apply_cmn(feats)
    with open(args.output, "wb") as fh:
        write_mel(feats, fh)
    print(f"frames {feats.n_frames} mels {feats.bins.shape[0]}")
    return 0


def cmd_augment(args) -> int:
    cfg = _load_config(args)
    manifest = args.manifest or cfg.noise_manifest
    if manifest is None:
        raise UsageError("augment needs --manifest or a noise_manifest config entry")
    if args.manifest is None and args.config:
        manifest = resolve_config_path(args.config, manifest)
    bank = NoiseBank.from_manifest(_require_file(manifest, "manifest"), cfg.sample_rate)
    wav = read_wav(_require_file(args.wav, "wav"), expected_rate=cfg.sample_rate)
    seed = args.seed if args.seed is not None else stage_seed(cfg.seed, "augment")
    rng = np.random.default_rng(seed)
    out = apply_policy(wav, cfg.augment, bank, rng)
    write_wav(out, args.output)
    print(f"samples {len(out)} rate {out.sample_rate}")
    return 0


def cmd_embed(args) -> int:
    cfg = _load_config(args)
    entries = _read_wav_list(args.wav_list)
    seed = args.seed if args.seed is not None else stage_seed(cfg.seed, "embed")
    feature_cfg = cfg.feature_config()
    ids: list[str] = []
    vectors: list[np.ndarray] = []
    for utt_id, wav_path in entries:
        wav = read_wav(_require_file(wav_path, "wav"), expected_rate=cfg.sample_rate)
        if args.msa:
            plan = segment_plan(wav.duration, cfg.n_segments, cfg.segment_duration)
            for k, seg in enumerate(extract_segments(wav, plan)):
                ids.append(segment_id(utt_id, k))
                vectors.append(embed_waveform(seg, seed=seed, cfg=feature_cfg))
        else:
            ids.append(utt_id)
            vectors.append(embed_waveform(wav, seed=seed, cfg=feature_cfg))
    store = EmbeddingStore(ids, vectors, normalized=True)
    write_embeddings_file(store, args.output)
    print(f"embedded {len(entries)} utterances dim {store.dim}")
    return 0


def cmd_score(args) -> int:
    cfg = _load_config(args)
    if args.asnorm and args.msa:
        raise UsageError("choose one of --asnorm and --msa")
    trials = _read_trials(args.trials, labeled=args.labeled)
    store = read_embeddings_file(_require_file(args.embeddings, "embeddings"), normalized=True)
    mode = "asnorm" if args.asnorm else "msa" if args.msa else "raw"
    cohort = None
    if mode == "asnorm":
        cohort_path = args.cohort or cfg.cohort_path
        if cohort_path is None:
            raise UsageError("asnorm scoring needs --cohort or a cohort config entry")
        if args.cohort is None and args.config:
            cohort_path = resolve_config_path(args.config, cohort_path)
        cohort = read_embeddings_file(_require_file(cohort_path, "cohort"), normalized=True)
    result = score_trials(
        trials,
        store,
        mode=mode,
        cohort=cohort,
        top_k=args.topk if args.topk is not None else cfg.top_k,
        n_segments=cfg.n_segments,
    )
    _emit(serialize_scores(result), args.output)
    return 0


def cmd_evaluate(args) -> int:
    trials = _read_trials(args.trials, labeled=True)
    score_text = _require_file(args.scores, "scores").read_text(encoding="utf-8")
    scores = parse_scores(score_text, trials)
    cfg = DcfConfig(p_target=args.p_target, c_miss=args.c_miss, c_fa=args.c_fa)
    eer_pct, dcf = evaluate_scores(scores, cfg)
    print(f"EER(%) {eer_pct:.6f}")
    print(f"minDCF {dcf:.6f}")
    return 0


def cmd_fuse(args) -> int:
    if not args.fit_labels and not args.model:
        raise UsageError("fuse needs --fit-labels (to fit) or --model (to apply)")
    labeled = bool(args.fit_labels)
    trials = _read_trials(args.trials, labeled=labeled)
    score_sets = []
    for path in args.scores:
        text = _require_file(path, "scores").read_text(encoding="utf-8")
        score_sets.append(parse_scores(text, trials))
    matrix = stack_scores(score_sets)
    if args.fit_labels:
        model = fit_fusion(matrix, trials.labels(), l2=args.l2)
        if args.model:
            Path(args.model).write_text(serialize_fusion_model(model), encoding="utf-8")
    elif args.model:
        text = _require_file(args.model, "model").read_text(encoding="utf-8")
        model = parse_fusion_model(text)
        if model.n_systems != matrix.shape[1]:
            raise DataError(
                f"model has {model.n_systems} systems but {matrix.shape[1]} score files given"
            )
    fused = fuse(model, matrix, trials)
    _emit(serialize_scores(fused), args.output)
    return 0


def cmd_schedule_dump(args) -> int:
    cfg = load_schedule_config(_require_file(args.config, "config"))
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
    failed = 0
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failed += 1
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
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="worker budget; results never depend on it",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("features", help="log-Mel features for one wav")
    p.add_argument("--wav", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--no-cmn", action="store_true", help="skip mean normalization")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("augment", help="apply the augmentation policy to one wav")
    p.add_argument("--wav", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest", help="noise bank manifest (category path lines)")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("embed", help="embed a list of wavs into an embeddings file")
    p.add_argument("--wav-list", required=True, help="lines of 'utt_id wav_path'")
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--msa", action="store_true", help="embed per-segment for matrix scoring")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("score", help="score trials against an embeddings file")
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--asnorm", action="store_true")
    p.add_argument("--cohort")
    p.add_argument("--topk", type=int)
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
    p.add_argument("--l2", type=float, default=1e-4)
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
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ConfigError, TrialParseError, StoreFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
