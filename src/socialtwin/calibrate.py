"""Learn and apply per-category clipped affine maps from aggregated
probabilities to observed metric units.

The map is y_hat_k = clip(alpha_k * pbar_k + beta_k, y_min_k, y_max_k). The
map shares no parameters across categories, so the default objective fits
each category independently; a macro-average mode (all categories searched
jointly on the mean RMSE) is kept for fidelity experiments, and a
single-slope fit (one shared alpha, beta) backs the corresponding ablation.

Fitting uses a density-based sampler: past trials are split into the best
gamma fraction and the rest, new candidates are drawn from a Gaussian kernel
density over the good trials and ranked by the good-to-rest density ratio.
A closed-form least-squares fit of the unclipped map is always evaluated as
trial 0, so the search can never end worse than the initializer.

Independent searches (one per category under the default objective) run in
lock step as one batch: each trial evaluates every search's point in one
loss call, and each density step ranks, splits and scores all searches with
array operations. Each search keeps its own random generator and draws from
it in the order it would alone, and every reduction runs over one search's
row, so a batched fit is bit-identical to running its searches one by one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .cognition import BehaviorVector
from .errors import ConfigError, DataError
from .ingest import ObservationRecord

DEFAULT_ALPHA_RANGE = (-400.0, 400.0)
DEFAULT_BETA_RANGE = (-200.0, 200.0)
DEFAULT_CLIP_BOUNDS = (-100.0, 200.0)

TPE_GAMMA = 0.25
TPE_STARTUP_TRIALS = 10
TPE_CANDIDATES = 24


@dataclass(frozen=True)
class CategoryCalibration:
    alpha: float
    beta: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not self.y_min < self.y_max:
            raise ConfigError(f"clip bounds must satisfy y_min < y_max, got [{self.y_min}, {self.y_max}]")

    def apply(self, p: float) -> float:
        return min(self.y_max, max(self.y_min, self.alpha * p + self.beta))


@dataclass(frozen=True)
class CalibrationParams:
    """Per-category affine coefficients and clip bounds."""

    per_category: dict[str, CategoryCalibration]

    def categories(self) -> tuple[str, ...]:
        return tuple(self.per_category.keys())

    def to_dict(self) -> dict:
        def enc(x: float):
            return {math.inf: "inf", -math.inf: "-inf"}.get(x, x)

        return {
            key: {
                "alpha": c.alpha,
                "beta": c.beta,
                "y_min": enc(c.y_min),
                "y_max": enc(c.y_max),
            }
            for key, c in self.per_category.items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationParams":
        def dec(x):
            return float(x) if not isinstance(x, str) else {"inf": math.inf, "-inf": -math.inf}[x]

        return cls(
            {
                key: CategoryCalibration(
                    alpha=float(c["alpha"]),
                    beta=float(c["beta"]),
                    y_min=dec(c["y_min"]),
                    y_max=dec(c["y_max"]),
                )
                for key, c in data.items()
            }
        )


@dataclass(frozen=True)
class FitConfig:
    """Sampler configuration for calibration fitting."""

    trials: int = 200
    alpha_range: tuple[float, float] = DEFAULT_ALPHA_RANGE
    beta_range: tuple[float, float] = DEFAULT_BETA_RANGE
    seed: int = 0
    objective: str = "per-category-independent"  # or "macro-average"
    sampler: str = "tpe-style"  # or "random", "least-squares-init"
    clip_bounds: tuple[float, float] = DEFAULT_CLIP_BOUNDS

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        for name, (low, high) in (("alpha", self.alpha_range), ("beta", self.beta_range)):
            if not low < high:
                raise ConfigError(f"{name} search range must be nonempty, got [{low}, {high}]")
        if self.objective not in ("per-category-independent", "macro-average"):
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.sampler not in ("tpe-style", "random", "least-squares-init"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")


@dataclass
class CategoryFitRecord:
    best_loss: float
    initializer_loss: float
    trials_run: int
    degenerate: bool = False
    range_widened: bool = False


@dataclass
class FitReport:
    """Machine-readable record of one calibration fit."""

    sampler: str
    objective: str
    seed: int
    trials: int
    alpha_range: tuple[float, float]
    beta_range: tuple[float, float]
    per_category: dict[str, CategoryFitRecord] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "sampler": self.sampler,
            "objective": self.objective,
            "seed": self.seed,
            "trials": self.trials,
            "alpha_range": list(self.alpha_range),
            "beta_range": list(self.beta_range),
            "per_category": {
                key: {
                    "best_loss": rec.best_loss,
                    "initializer_loss": rec.initializer_loss,
                    "trials_run": rec.trials_run,
                    "degenerate": rec.degenerate,
                    "range_widened": rec.range_widened,
                }
                for key, rec in self.per_category.items()
            },
        }

    def to_text(self) -> str:
        lines = [
            f"calibration fit: sampler={self.sampler} objective={self.objective} "
            f"trials={self.trials} seed={self.seed}",
            f"search ranges: alpha={list(self.alpha_range)} beta={list(self.beta_range)}",
        ]
        for key, rec in self.per_category.items():
            notes = []
            if rec.degenerate:
                notes.append("degenerate (constant probabilities)")
            if rec.range_widened:
                notes.append("range widened to include initializer")
            suffix = f"  [{'; '.join(notes)}]" if notes else ""
            lines.append(
                f"  {key}: best RMSE {rec.best_loss:.6g} "
                f"(initializer {rec.initializer_loss:.6g}, {rec.trials_run} trials){suffix}"
            )
        return "\n".join(lines)


def apply_calibration(pbar: BehaviorVector, params: CalibrationParams) -> dict[str, float]:
    """y_hat_k = clip(alpha_k * pbar_k + beta_k, y_min_k, y_max_k)."""
    missing = [k for k in pbar.categories if k not in params.per_category]
    if missing:
        raise DataError(f"calibration params missing categories {missing}")
    return {key: params.per_category[key].apply(pbar[key]) for key in pbar.categories}


PairsByCategory = Mapping[str, Sequence[tuple[float, float]]]


def pair_by_date(
    aggregates: Mapping, observations
) -> list[tuple[BehaviorVector, ObservationRecord]]:
    """Align simulated aggregates with observations on common dates."""
    by_date = observations.by_date()
    pairs = []
    for date in sorted(aggregates.keys()):
        if date in by_date:
            pairs.append((aggregates[date], by_date[date]))
    return pairs


def _pairs_from_training(
    train: Sequence[tuple[BehaviorVector, ObservationRecord]]
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Category keys and their (categories, dates) probability and observation
    matrices; row k holds category k's series in date order."""
    if len(train) < 2:
        raise DataError(f"calibration needs >= 2 training dates, got {len(train)}")
    keys = list(train[0][0].categories)
    p = np.array([[vec[key] for vec, _ in train] for key in keys], dtype=float)
    y = np.array([[obs.values[key] for _, obs in train] for key in keys], dtype=float)
    return keys, p, y


def _ols_line(p: np.ndarray, y: np.ndarray) -> tuple[float, float, bool]:
    """Ordinary least squares slope/intercept; degenerate flat inputs get
    slope 0 and the mean target."""
    var = float(np.var(p))
    if var < 1e-12:
        return 0.0, float(np.mean(y)), True
    slope = float(np.cov(p, y, bias=True)[0, 1] / var)
    intercept = float(np.mean(y) - slope * np.mean(p))
    return slope, intercept, False


# ---------------------------------------------------------------------------
# Density-guided search
# ---------------------------------------------------------------------------


def _silverman_bandwidth(samples: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Silverman's rule per row of samples (..., n), floored at 1e-3 * width."""
    spread = np.std(samples, axis=-1)
    bw = np.where(spread > 0, 1.06 * spread * samples.shape[-1] ** (-0.2), 0.0)
    return np.maximum(bw, 1e-3 * width)


def _kde_logpdf(x: np.ndarray, samples: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """Log-density at x (..., m) of the Gaussian KDE over samples (..., n), one
    bandwidth per leading index; returns (..., m)."""
    # math.log per row: np.log may round the normaliser differently
    norm = np.array(
        [math.log(bw * math.sqrt(2 * math.pi)) for bw in bandwidth.ravel().tolist()]
    ).reshape(bandwidth.shape)
    z = (x[..., :, None] - samples[..., None, :]) / bandwidth[..., None, None]
    log_kernels = -0.5 * z**2 - norm[..., None, None]
    max_log = np.max(log_kernels, axis=-1, keepdims=True)
    return max_log[..., 0] + np.log(np.mean(np.exp(log_kernels - max_log), axis=-1))


def _suggest_tpe(
    rngs: Sequence[np.random.Generator],
    history_x: np.ndarray,  # (K, n_trials, D)
    history_loss: np.ndarray,  # (K, n_trials)
    lows: np.ndarray,  # (K, D)
    highs: np.ndarray,  # (K, D)
) -> np.ndarray:
    """One suggestion per search: sample candidates from the good-trial
    density in every dimension and keep, per search, the candidate with the
    highest good/rest log-ratio. Returns (K, D).

    Search k draws from ``rngs[k]`` alone, dimension by dimension (centre
    indices, then noise), as a search run by itself does.
    """
    n_searches, n_trials = history_loss.shape
    n_dims = lows.shape[1]
    order = np.argsort(history_loss, axis=1, kind="stable")
    n_good = max(1, math.ceil(TPE_GAMMA * n_trials))  # < n_trials after the startup trials

    def split(idx: np.ndarray) -> np.ndarray:
        # (K, D, m) and contiguous, so every reduction below runs along the
        # last axis and rounds as the same reduction over one 1-D row does
        picked = np.take_along_axis(history_x, idx[:, :, None], axis=1)
        return np.ascontiguousarray(picked.transpose(0, 2, 1))

    good, rest = split(order[:, :n_good]), split(order[:, n_good:])
    width = highs - lows
    bw_good = _silverman_bandwidth(good, width)
    bw_rest = _silverman_bandwidth(rest, width)
    centre_idx = np.empty((n_searches, n_dims, TPE_CANDIDATES), dtype=np.intp)
    noise = np.empty((n_searches, n_dims, TPE_CANDIDATES))
    for k, rng in enumerate(rngs):
        for d in range(n_dims):
            centre_idx[k, d] = rng.integers(0, n_good, TPE_CANDIDATES)
            noise[k, d] = rng.normal(0.0, bw_good[k, d], TPE_CANDIDATES)
    centres = np.take_along_axis(good, centre_idx, axis=2)
    candidates = np.clip(centres + noise, lows[..., None], highs[..., None])
    log_good = _kde_logpdf(candidates, good, bw_good)
    log_rest = _kde_logpdf(candidates, rest, bw_rest)
    # dimension by dimension, good then rest: a sum over the axis would round differently
    score = np.zeros((n_searches, TPE_CANDIDATES))
    for d in range(n_dims):
        score += log_good[:, d]
        score -= log_rest[:, d]
    best = np.argmax(score, axis=1)
    return candidates[np.arange(n_searches), :, best]


def _run_search(
    loss_fn: Callable[[np.ndarray], np.ndarray],
    bounds: np.ndarray,
    init: np.ndarray,
    trials: int,
    sampler: str,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Minimize K independent searches over their boxes in lock step.

    ``bounds`` is (K, D, 2), ``init`` (K, D) and ``loss_fn`` maps a (K, D)
    batch of points to (K,) losses. Every trial evaluates one point per
    search in a single ``loss_fn`` call, and each TPE step ranks, splits and
    scores all searches at once. ``init`` is always trial 0. Search k draws
    only from ``rngs[k]``, in the order it would alone, so the result for
    each search is bit-identical to running it by itself with K = 1.

    Returns the best point of each search, (K, D).
    """
    init = np.asarray(init, dtype=float)
    if sampler == "least-squares-init":
        return init
    n_searches, n_dims = init.shape
    lows, highs = bounds[..., 0], bounds[..., 1]
    history_x = np.empty((n_searches, trials, n_dims))
    history_loss = np.empty((n_searches, trials))
    history_x[:, 0] = init
    history_loss[:, 0] = loss_fn(init)
    for t in range(1, trials):
        if sampler == "random" or t <= TPE_STARTUP_TRIALS:
            x = np.array([rng.uniform(lo, hi) for rng, lo, hi in zip(rngs, lows, highs)])
        else:
            x = _suggest_tpe(rngs, history_x[:, :t], history_loss[:, :t], lows, highs)
        history_x[:, t] = x
        history_loss[:, t] = loss_fn(x)
    best = np.argmin(history_loss, axis=1)
    return history_x[np.arange(n_searches), best]


def _clipped_rmse(
    alpha: np.ndarray, beta: np.ndarray, p: np.ndarray, y: np.ndarray, clip: tuple[float, float]
) -> np.ndarray:
    """RMSE of clip(alpha * p + beta) against y along the last (date) axis;
    alpha and beta broadcast against p."""
    pred = np.clip(alpha * p + beta, clip[0], clip[1])
    return np.sqrt(np.mean((pred - y) ** 2, axis=-1))


def _widen(target: float, rng_: tuple[float, float]) -> tuple[tuple[float, float], bool]:
    low, high = rng_
    if low <= target <= high:
        return (low, high), False
    pad = 0.1 * (high - low)
    return (min(low, target - pad), max(high, target + pad)), True


def _fit_result(
    keys: list[str],
    best: np.ndarray,  # (categories, 2): alpha, beta per category
    init: np.ndarray,  # (categories, 2)
    p: np.ndarray,
    y: np.ndarray,
    config: FitConfig,
    objective: str,
    degenerate: Sequence[bool],
    widened: Sequence[bool],
) -> tuple[CalibrationParams, FitReport]:
    clip = config.clip_bounds
    best_loss = _clipped_rmse(best[:, :1], best[:, 1:], p, y, clip)
    init_loss = _clipped_rmse(init[:, :1], init[:, 1:], p, y, clip)
    report = FitReport(
        sampler=config.sampler,
        objective=objective,
        seed=config.seed,
        trials=config.trials,
        alpha_range=config.alpha_range,
        beta_range=config.beta_range,
    )
    per_category = {}
    for i, key in enumerate(keys):
        per_category[key] = CategoryCalibration(
            alpha=float(best[i, 0]), beta=float(best[i, 1]), y_min=clip[0], y_max=clip[1]
        )
        report.per_category[key] = CategoryFitRecord(
            best_loss=float(best_loss[i]),
            initializer_loss=float(init_loss[i]),
            trials_run=config.trials if config.sampler != "least-squares-init" else 1,
            degenerate=degenerate[i],
            range_widened=widened[i],
        )
    return CalibrationParams(per_category), report


def fit_calibration(
    train: Sequence[tuple[BehaviorVector, ObservationRecord]],
    config: FitConfig,
) -> tuple[CalibrationParams, FitReport]:
    """Fit (alpha_k, beta_k) per category by minimizing clipped-prediction RMSE.

    Under the default per-category-independent objective each category is
    its own search (the map is separable), and the searches run in lock
    step as one batch; the macro-average objective is one joint search over
    all categories on the mean of per-category RMSEs. The least-squares line
    is trial 0 either way, so the best trial never loses to the initializer.
    Search ranges that exclude the initializer are widened to cover it and
    flagged in the report.
    """
    keys, p, y = _pairs_from_training(train)
    clip = config.clip_bounds
    lines = [_ols_line(p_k, y_k) for p_k, y_k in zip(p, y)]
    init = np.array([[alpha, beta] for alpha, beta, _ in lines])
    ranges = [
        (_widen(alpha, config.alpha_range), _widen(beta, config.beta_range))
        for alpha, beta, _ in lines
    ]
    bounds = np.array([[a_range, b_range] for (a_range, _), (b_range, _) in ranges])
    widened = [a_widened or b_widened for (_, a_widened), (_, b_widened) in ranges]

    if config.objective == "per-category-independent":
        best = _run_search(
            lambda x: _clipped_rmse(x[:, :1], x[:, 1:], p, y, clip),
            bounds,
            init,
            config.trials,
            config.sampler,
            [np.random.default_rng([config.seed, k]) for k in range(len(keys))],
        )
    else:
        # one search whose point is (alpha_0, beta_0, alpha_1, beta_1, ...)
        best = _run_search(
            lambda x: np.mean(
                _clipped_rmse(x[:, 0::2, None], x[:, 1::2, None], p, y, clip), axis=1
            ),
            bounds.reshape(1, -1, 2),
            init.reshape(1, -1),
            config.trials,
            config.sampler,
            [np.random.default_rng(config.seed)],
        ).reshape(-1, 2)
        widened = [any(widened)] * len(keys)
    return _fit_result(
        keys, best, init, p, y, config, config.objective,
        degenerate=[degenerate for _, _, degenerate in lines],
        widened=widened,
    )


def fit_single_slope(
    train: Sequence[tuple[BehaviorVector, ObservationRecord]],
    config: FitConfig,
) -> tuple[CalibrationParams, FitReport]:
    """Fit one shared (alpha, beta) across all categories (ablation arm).

    The shared pair minimizes the macro-average RMSE; the initializer is the
    least-squares line through the pooled (probability, observation) pairs.
    """
    keys, p, y = _pairs_from_training(train)
    clip = config.clip_bounds
    alpha0, beta0, degenerate = _ols_line(p.ravel(), y.ravel())
    a_range, aw = _widen(alpha0, config.alpha_range)
    b_range, bw = _widen(beta0, config.beta_range)
    init = np.array([[alpha0, beta0]])
    best = _run_search(
        lambda x: np.mean(_clipped_rmse(x[:, :1, None], x[:, 1:, None], p, y, clip), axis=1),
        np.array([[a_range, b_range]]),
        init,
        config.trials,
        config.sampler,
        [np.random.default_rng(config.seed)],
    )
    n = len(keys)
    return _fit_result(
        keys, np.repeat(best, n, axis=0), np.repeat(init, n, axis=0), p, y, config,
        "shared-single-slope", degenerate=[degenerate] * n, widened=[aw or bw] * n,
    )


# ---------------------------------------------------------------------------
# Artifact IO
# ---------------------------------------------------------------------------

ARTIFACT_SCHEMA_VERSION = 1


def save_calibration(
    params: CalibrationParams,
    path: str | Path,
    report: FitReport | None = None,
    config_hash: str | None = None,
) -> None:
    payload = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "config_hash": config_hash,
        "categories": params.to_dict(),
        "fit": report.to_dict() if report is not None else None,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_calibration(
    path: str | Path, expected_config_hash: str | None = None
) -> tuple[CalibrationParams, dict]:
    p = Path(path)
    if not p.exists():
        raise DataError(f"calibration artifact not found: {p}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{p}: calibration artifact is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{p}: calibration artifact must be a JSON object")
    if payload.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
        raise DataError(
            f"{p}: unsupported calibration artifact version {payload.get('schema_version')}"
        )
    if expected_config_hash is not None:
        found = payload.get("config_hash")
        if found is None:
            raise ConfigError(
                f"{p}: calibration artifact records no config hash, current config is "
                f"{expected_config_hash[:12]}...; refusing to mix artifacts"
            )
        if found != expected_config_hash:
            raise ConfigError(
                f"{p}: calibration artifact was fitted under config {str(found)[:12]}..., "
                f"current config is {expected_config_hash[:12]}...; refusing to mix artifacts"
            )
    try:
        params = CalibrationParams.from_dict(payload["categories"])
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
        raise DataError(f"{p}: calibration artifact is malformed: {exc!r}") from None
    return params, payload
