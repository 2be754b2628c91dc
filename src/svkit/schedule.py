"""Learning-rate schedules: cosine annealing with warm restarts.

Two operating modes share one formula. The main training stage doubles the
cycle length at every restart and decays the cycle maximum by a fixed
factor; the large-margin fine-tuning stage restarts on a fixed period with
a lower maximum and no decay. Cycle location uses exact integer arithmetic
so boundaries are reproducible at any step count. The parameters are
`config.CosineRestartConfig`, which a schedule config file sets.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .config import CosineRestartConfig


def cycle_start(cfg: CosineRestartConfig, cycle: int) -> int:
    """First step of the given cycle index (exact integers)."""
    if cycle < 0:
        raise ValueError(f"cycle must be non-negative, got {cycle}")
    if cfg.doubling:
        # sum of cycle0 * 2^i for i < cycle
        return cfg.cycle0_steps * ((1 << cycle) - 1)
    return cycle * cfg.cycle0_steps


def lr_at(cfg: CosineRestartConfig, step: int) -> tuple[float, int]:
    """Learning rate and cycle index at a training step.

    Within cycle c of length L starting at step s0, with frac =
    (step - s0) / L, the rate is
        lr_min + 0.5 * (max_c - lr_min) * (1 + cos(pi * frac))
    where max_c = lr_max0 * decay^c, clamped to at least lr_min.
    """
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step}")
    if cfg.doubling:
        # cycle c covers [cycle0 * (2^c - 1), cycle0 * (2^(c+1) - 1))
        cycle = (step // cfg.cycle0_steps + 1).bit_length() - 1
        length = cfg.cycle0_steps << cycle
    else:
        cycle = step // cfg.cycle0_steps
        length = cfg.cycle0_steps
    position = step - cycle_start(cfg, cycle)
    lr_max_c = max(cfg.lr_max0 * cfg.decay**cycle, cfg.lr_min)
    frac = position / length
    lr = cfg.lr_min + 0.5 * (lr_max_c - cfg.lr_min) * (1.0 + math.cos(math.pi * frac))
    return lr, cycle


def dump_schedule(cfg: CosineRestartConfig, n_steps: int) -> Iterator[tuple[int, float, int]]:
    """(step, lr, cycle) rows for the first n_steps steps, each made as it is
    read; a bad n_steps raises at the call."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return ((step, *lr_at(cfg, step)) for step in range(n_steps))
