"""Score-level fusion by L2-regularized logistic regression.

Fits one weight per input system plus an unregularized bias on a labeled
development set, minimizing mean log-loss with damped Newton steps. The
solver starts from zero and contains no randomness, so identical inputs
always give bitwise-identical models. Fused output is the plain weighted
sum, so trial ranking depends only on the weights up to positive scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trials import ScoreSet, TrialList, TrialParseError

GRAD_TOL = 1e-8
MAX_ITER = 200
MAX_HALVINGS = 60


@dataclass(frozen=True)
class FusionModel:
    """Per-system weights, bias, and the fit's convergence record."""

    weights: np.ndarray
    bias: float
    converged: bool
    iterations: int

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) < 1:
            raise ValueError(f"weights must be a non-empty vector, got shape {weights.shape}")
        if not (np.all(np.isfinite(weights)) and np.isfinite(self.bias)):
            raise ValueError("fusion parameters must be finite")
        object.__setattr__(self, "weights", weights)

    @property
    def n_systems(self) -> int:
        return len(self.weights)


def _check_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"score matrix must be 2-D (trials x systems), got {matrix.shape}")
    if matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError(f"score matrix must be non-empty, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("score matrix must be finite")
    return matrix


def mean_log_loss(fused: np.ndarray, labels: np.ndarray) -> float:
    """Mean logistic loss of fused scores against boolean labels."""
    fused = np.asarray(fused, dtype=np.float64)
    losses = np.where(labels, -fused, fused)  # minus each trial's margin
    return float(np.mean(np.logaddexp(0.0, losses, out=losses)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), written over z."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):  # exp(-z) = inf below z = -709 gives exactly 0
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def fit_fusion(matrix: np.ndarray, labels: np.ndarray, l2: float = 1e-4) -> FusionModel:
    """Fit fusion weights by penalized logistic regression.

    Minimizes mean log-loss + l2 * ||w||^2 / 2 (bias unregularized) with
    damped Newton iterations from a zero start; converged means the
    gradient infinity-norm reached 1e-8 within the iteration budget, and
    iterations counts the Newton steps taken.
    """
    matrix = _check_matrix(matrix)
    labels = np.asarray(labels, dtype=bool)
    n, m = matrix.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if bool(np.all(labels)) or not bool(np.any(labels)):
        raise ValueError("labels are single-class; fusion needs both")
    if not np.isfinite(l2) or l2 < 0:
        raise ValueError(f"l2 must be a non-negative real, got {l2}")

    # theta is (weights, bias): the bias is a separate term, not a column of ones
    theta = np.zeros(m + 1)
    reg = np.append(np.full(m, l2), 0.0)

    def fused(params: np.ndarray) -> np.ndarray:
        z = matrix @ params[:m]
        z += params[m]
        return z

    def objective(params: np.ndarray) -> float:
        return mean_log_loss(fused(params), labels) + 0.5 * l2 * float(
            params[:m] @ params[:m]
        )

    current = objective(theta)
    hessian = np.empty((m + 1, m + 1))
    for iterations in range(MAX_ITER + 1):
        p = _sigmoid(fused(theta))
        residual = p - labels  # p - y, with y the 0/1 labels
        grad = np.append(matrix.T @ residual, residual.sum()) / n + reg * theta
        converged = float(np.max(np.abs(grad))) <= GRAD_TOL
        if converged or iterations == MAX_ITER:
            break
        curvature = np.subtract(1.0, p, out=residual)
        curvature *= p
        curvature /= n
        # blocks S'CS, S'C1 and 1'C1 of the Hessian, from one weighted copy of S
        hessian[:m, :m] = matrix.T @ (matrix * curvature[:, None])
        hessian[:m, m] = hessian[m, :m] = matrix.T @ curvature
        hessian[m, m] = curvature.sum()
        hessian[np.diag_indices(m)] += l2
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            candidate = theta - scale * step
            value = objective(candidate)
            if value < current:
                theta = candidate
                current = value
                break
            scale *= 0.5
        else:
            # no descent direction left at this precision
            break
    return FusionModel(
        weights=theta[:m],
        bias=float(theta[m]),
        converged=converged,
        iterations=iterations,
    )


def fuse_matrix(model: FusionModel, matrix: np.ndarray) -> np.ndarray:
    """Fused score per trial: w . s + bias."""
    matrix = _check_matrix(matrix)
    if matrix.shape[1] != model.n_systems:
        raise ValueError(
            f"model has {model.n_systems} systems but matrix has {matrix.shape[1]} columns"
        )
    return matrix @ model.weights + model.bias


def fuse(model: FusionModel, matrix: np.ndarray, trials: TrialList) -> ScoreSet:
    """Fused ScoreSet aligned with the given trial list."""
    return ScoreSet(trials=trials, scores=fuse_matrix(model, matrix))


def stack_scores(score_sets: list[ScoreSet]) -> np.ndarray:
    """Trials x systems matrix from per-system score sets over one trial list.

    Lists compare by their index arrays (a list is equal to itself at once),
    so no per-trial object is built."""
    if not score_sets:
        raise ValueError("need at least one score set")
    first = score_sets[0].trials
    if any(s.trials != first for s in score_sets[1:]):
        raise ValueError("score sets cover different trial lists")
    return np.stack([s.scores for s in score_sets], axis=1)


def serialize_fusion_model(model: FusionModel) -> str:
    """One-line text form: bias then the system weights, round-trip exact."""
    parts = [repr(model.bias)] + [repr(float(w)) for w in model.weights]
    return " ".join(parts) + "\n"


def parse_fusion_model(text: str) -> FusionModel:
    """Read the one-line text form back into a model. Blank lines are
    skipped; a second non-blank line is an error naming that line."""
    nonblank = [n for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if len(nonblank) > 1:
        raise TrialParseError(nonblank[1], "fusion model is one line, bias then weights")
    fields = text.split()
    if len(fields) < 2:
        raise ValueError("fusion model text needs a bias and at least one weight")
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise ValueError(f"bad fusion model value: {exc}") from None
    return FusionModel(
        weights=np.array(values[1:]),
        bias=values[0],
        converged=True,
        iterations=0,
    )
