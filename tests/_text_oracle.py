"""Plain line-by-line references for trial and score text.

The differential fuzzers in test_trials.py hold svkit.trials' parsers to
the reference parsers, error messages included, and its score writer to
`format_score`, one value at a time. They keep one tuple per trial and
know nothing of index arrays or chunks. `trial_text` writes the trial
files the tests read.
"""

import math


class Rejected(Exception):
    """The reference parser rejects the text at 1-based line `line_no`;
    str() is the whole message, "line <line_no>: <reason>"."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class Mismatch(Exception):
    """Well-formed score text that does not fit the trial list."""


def reference_trials(
    text: str, labeled: bool | None
) -> tuple[list[tuple[str, str]], list[bool]]:
    """(pairs, labels) in file order; labels is empty for unlabeled text.
    With labeled=None the first non-blank line's field count decides: three
    fields are labeled, any other count unlabeled."""
    pairs, labels = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if labeled is None:
            labeled = len(tokens) == 3
        want = 3 if labeled else 2
        if len(tokens) != want:
            raise Rejected(line_no, f"expected {want} fields, got {len(tokens)}")
        if labeled:
            if tokens[0] not in ("0", "1"):
                raise Rejected(line_no, f"label must be 0 or 1, got {tokens[0]!r}")
            labels.append(tokens[0] == "1")
            tokens = tokens[1:]
        pairs.append((tokens[0], tokens[1]))
    return pairs, labels


def reference_scores(
    text: str, expected: list[tuple[str, str]] | None = None
) -> tuple[list[tuple[str, str]], list[float], list[int]]:
    """(pairs, scores, line numbers) in file order; a score must parse as a
    finite float. With `expected`, the pairs must equal it in order, or
    Mismatch says where they part."""
    pairs, scores, line_nos = [], [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise Rejected(line_no, f"expected 3 fields, got {len(tokens)}")
        try:
            value = float(tokens[2])
        except ValueError:
            raise Rejected(line_no, f"bad score {tokens[2]!r}") from None
        if not math.isfinite(value):
            raise Rejected(line_no, f"non-finite score {tokens[2]!r}")
        pairs.append((tokens[0], tokens[1]))
        scores.append(value)
        line_nos.append(line_no)
    if expected is not None:
        if len(pairs) != len(expected):
            raise Mismatch(f"score file has {len(pairs)} lines for {len(expected)} trials")
        for got, want, line_no in zip(pairs, expected, line_nos):
            if got != want:
                raise Mismatch(
                    f"score line {line_no} is for ({got[0]}, {got[1]}), trial list has "
                    f"({want[0]}, {want[1]})"
                )
    return pairs, scores, line_nos


def first_seen(pairs: list[tuple[str, str]]) -> list[str]:
    """Unique ids over both sides of every pair, in first-seen order."""
    seen = []
    for pair in pairs:
        for utt in pair:
            if utt not in seen:
                seen.append(utt)
    return seen


def format_score(value: float) -> str:
    """Format a score with at least 9 significant digits, positionally."""
    v = float(value)
    if v == 0.0:
        return "0.000000000"
    decimals = max(0, 9 - (math.floor(math.log10(abs(v))) + 1))
    return f"{v:.{decimals}f}"


def trial_text(trial_list) -> str:
    """A TrialList as parse_trials reads it back, one trial per line."""
    ids = trial_list.ids
    enroll, test = ids[trial_list.enroll].tolist(), ids[trial_list.test].tolist()
    if trial_list.labeled:
        labels = trial_list.labels().astype(int).tolist()
        return "".join(f"{y} {e} {t}\n" for y, e, t in zip(labels, enroll, test))
    return "".join(f"{e} {t}\n" for e, t in zip(enroll, test))
