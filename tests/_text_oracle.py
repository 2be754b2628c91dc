"""Plain line-by-line reference parsers for trial and score text.

The differential fuzzers in test_trials.py hold svkit.trials' parsers to
these. They keep one tuple per trial and know nothing of index arrays.
"""

import math


class Rejected(Exception):
    """The reference parser rejects the text at 1-based line `line_no`."""

    def __init__(self, line_no: int):
        super().__init__(line_no)
        self.line_no = line_no


def reference_trials(text: str, labeled: bool) -> tuple[list[tuple[str, str]], list[bool]]:
    """(pairs, labels) in file order; labels is empty for unlabeled text."""
    pairs, labels = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if labeled:
            if len(tokens) != 3 or tokens[0] not in ("0", "1"):
                raise Rejected(line_no)
            labels.append(tokens[0] == "1")
            tokens = tokens[1:]
        elif len(tokens) != 2:
            raise Rejected(line_no)
        pairs.append((tokens[0], tokens[1]))
    return pairs, labels


def reference_scores(text: str) -> tuple[list[tuple[str, str]], list[float], list[int]]:
    """(pairs, scores, line numbers) in file order; a score must parse as a
    finite float."""
    pairs, scores, line_nos = [], [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise Rejected(line_no)
        try:
            value = float(tokens[2])
        except ValueError:
            raise Rejected(line_no) from None
        if not math.isfinite(value):
            raise Rejected(line_no)
        pairs.append((tokens[0], tokens[1]))
        scores.append(value)
        line_nos.append(line_no)
    return pairs, scores, line_nos


def first_seen(pairs: list[tuple[str, str]]) -> list[str]:
    """Unique ids over both sides of every pair, in first-seen order."""
    seen = []
    for pair in pairs:
        for utt in pair:
            if utt not in seen:
                seen.append(utt)
    return seen
