"""Learn and apply per-category clipped affine maps from aggregated
probabilities to observed metric units.

The map is y_hat_k = clip(alpha_k * pbar_k + beta_k, y_min_k, y_max_k). The
map shares no parameters across categories, so each category is fitted by
its own search; a single-slope fit (one shared alpha, beta) and the
closed-form unclipped fit back the corresponding ablations.

Fitting has one method, a density-guided search: after a few uniform trials,
past trials are split into the best gamma fraction and the rest, new
candidates are drawn from a Gaussian kernel density over the good trials and
ranked by the good-to-rest density ratio. A closed-form least-squares fit of
the unclipped map is always evaluated as trial 0, so the search can never
end worse than the initializer. Unclipped, that line is the optimum itself,
so ``fit_unclipped`` returns it without a search.

The per-category searches run in lock step as one batch: each trial
evaluates every search's point in one loss call, and each density step
ranks, splits and scores all searches with array operations, written for
few numpy calls per trial. A batched fit is bit-identical to running its
searches one by one with the plain numpy forms (``rng.uniform``,
``np.std``, ``np.mean``, ``np.clip``) that the tests keep as the reference,
because of two invariants:

* same draws per search: each search has its own generator and takes the
  same values from it in the same order. ``rng.uniform(lo, hi)`` is
  ``lo + (hi - lo) * rng.random()``, so the uniform trials are drawn up
  front; a density step draws centre indices, then noise, per dimension.
* every reduction runs along a contiguous last axis, one row per search and
  dimension (or candidate), so numpy's pairwise summation groups a row's
  terms as it does for that row alone. Element-wise steps may run in place
  or over whole arrays: each element is rounded on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ingest import Series

TPE_GAMMA = 0.25
TPE_STARTUP_TRIALS = 10
TPE_CANDIDATES = 24

Pair = tuple[dict[str, float], dict[str, float]]  # (aggregate, observation) of one date


@dataclass(frozen=True)
class CategoryCalibration:
    alpha: float
    beta: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ConfigError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        if not self.y_min < self.y_max:
            raise ConfigError(f"clip bounds must satisfy y_min < y_max, got [{self.y_min}, {self.y_max}]")

    def apply(self, p: float) -> float:
        return min(self.y_max, max(self.y_min, self.alpha * p + self.beta))


@dataclass(frozen=True)
class CalibrationParams:
    """Per-category affine coefficients and clip bounds."""

    per_category: dict[str, CategoryCalibration]

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
    """Search settings for calibration fitting."""

    trials: int = 200
    alpha_range: tuple[float, float] = (-400.0, 400.0)
    beta_range: tuple[float, float] = (-200.0, 200.0)
    seed: int = 0
    clip_bounds: tuple[float, float] = (-100.0, 200.0)

    def __post_init__(self):
        low, high = self.clip_bounds
        if not low < high:
            raise ConfigError(f"clip_bounds must be ordered low < high, got [{low}, {high}]")
        for name, (low, high) in (("alpha", self.alpha_range), ("beta", self.beta_range)):
            if not low < high:
                raise ConfigError(f"{name} search range must be nonempty, got [{low}, {high}]")
            # uniform draws over an infinite width are NaN, and so would be the fit
            if not math.isfinite(high - low):
                raise ConfigError(f"{name} search range must have a finite width, got [{low}, {high}]")


@dataclass
class CategoryFitRecord:
    best_loss: float
    initializer_loss: float
    degenerate: bool = False
    range_widened: bool = False


@dataclass
class FitReport:
    """Machine-readable record of one calibration fit."""

    seed: int
    trials: int
    alpha_range: tuple[float, float]
    beta_range: tuple[float, float]
    per_category: dict[str, CategoryFitRecord] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "alpha_range": list(self.alpha_range),
            "beta_range": list(self.beta_range),
            "per_category": {
                key: {
                    "best_loss": rec.best_loss,
                    "initializer_loss": rec.initializer_loss,
                    "degenerate": rec.degenerate,
                    "range_widened": rec.range_widened,
                }
                for key, rec in self.per_category.items()
            },
        }

    def to_text(self) -> str:
        lines = [
            f"calibration fit: trials={self.trials} seed={self.seed}",
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
                f"(initializer {rec.initializer_loss:.6g}, {self.trials} trials){suffix}"
            )
        return "\n".join(lines)


def apply_calibration(pbar: Mapping[str, float], params: CalibrationParams) -> dict[str, float]:
    """y_hat_k = clip(alpha_k * pbar_k + beta_k, y_min_k, y_max_k)."""
    missing = [k for k in pbar if k not in params.per_category]
    if missing:
        raise DataError(f"calibration params missing categories {missing}")
    return {key: params.per_category[key].apply(p) for key, p in pbar.items()}


def pair_by_date(aggregates: Series, observations: Series) -> list[Pair]:
    """Align simulated aggregates with observations on common dates."""
    return [(aggregates[d], observations[d]) for d in sorted(aggregates) if d in observations]


def _pairs_from_training(train: Sequence[Pair]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Category keys and their (categories, dates) probability and observation
    matrices; row k holds category k's series in date order."""
    if len(train) < 2:
        raise DataError(f"calibration needs >= 2 training dates, got {len(train)}")
    keys = list(train[0][0])
    p = np.array([[vec[key] for vec, _ in train] for key in keys], dtype=float)
    y = np.array([[obs[key] for _, obs in train] for key in keys], dtype=float)
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


def _mean_last(a: np.ndarray) -> np.ndarray:
    """``np.mean(a, axis=-1)``, bit for bit (the same sum, then / n), without
    its per-call overhead."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def _silverman_bandwidth(samples: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Silverman's rule per row of samples (..., n), floored at ``floor``.

    The spread is ``np.std``'s arithmetic written out: the mean, then the
    mean squared deviation. A zero spread gives a zero bandwidth before the
    floor, as the rule says.
    """
    n = samples.shape[-1]
    dev = samples - _mean_last(samples)[..., None]
    dev *= dev
    spread = np.sqrt(_mean_last(dev))
    return np.maximum(1.06 * spread * n ** (-0.2), floor)


def _kde_logpdf(x: np.ndarray, samples: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """Log-density at x (..., m) of the Gaussian KDE over samples (..., n), one
    bandwidth per leading index; returns (..., m)."""
    # math.log per row: np.log may round the normaliser differently
    norm = np.array(
        [math.log(bw * math.sqrt(2 * math.pi)) for bw in bandwidth.ravel().tolist()]
    ).reshape(bandwidth.shape)
    # -0.5 * z**2 - norm and its shift by the row maximum, in place in one
    # contiguous (..., m, n) array
    log_kernels = x[..., :, None] - samples[..., None, :]
    log_kernels /= bandwidth[..., None, None]
    log_kernels *= log_kernels
    log_kernels *= -0.5
    log_kernels -= norm[..., None, None]
    max_log = np.maximum.reduce(log_kernels, axis=-1)
    log_kernels -= max_log[..., None]
    np.exp(log_kernels, out=log_kernels)
    return max_log + np.log(_mean_last(log_kernels))


def _suggest_tpe(
    rngs: Sequence[np.random.Generator],
    history_x: np.ndarray,  # (K, D, n_trials)
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
    n_searches, n_dims, n_trials = history_x.shape
    order = np.argsort(history_loss, axis=1, kind="stable")
    n_good = max(1, math.ceil(TPE_GAMMA * n_trials))  # < n_trials after the startup trials
    k_idx = np.arange(n_searches)[:, None, None]
    d_idx = np.arange(n_dims)[:, None]
    # the history in loss order, gathered once as a contiguous (K, D, t)
    # array: the good trials are its first n_good columns, the rest the others
    ranked = history_x[k_idx, d_idx, order[:, None, :]]
    good, rest = ranked[..., :n_good], ranked[..., n_good:]
    floor = 1e-3 * (highs - lows)
    bw_good = _silverman_bandwidth(good, floor)
    bw_rest = _silverman_bandwidth(rest, floor)
    centre_idx = np.empty((n_searches, n_dims, TPE_CANDIDATES), dtype=np.intp)
    noise = np.empty((n_searches, n_dims, TPE_CANDIDATES))
    for k, (rng, bws) in enumerate(zip(rngs, bw_good.tolist())):
        for d, bw in enumerate(bws):
            centre_idx[k, d] = rng.integers(0, n_good, TPE_CANDIDATES)
            noise[k, d] = rng.normal(0.0, bw, TPE_CANDIDATES)
    candidates = ranked[k_idx, d_idx, centre_idx]
    candidates += noise
    # np.clip, signed zeros included: on a tie these keep their second argument
    np.maximum(lows[..., None], candidates, out=candidates)
    np.minimum(highs[..., None], candidates, out=candidates)
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
    n_searches, n_dims = init.shape
    lows, highs = bounds[..., 0], bounds[..., 1]
    # The uniform trials come first in every stream, so they are drawn up
    # front: rng.uniform(lows, highs) is lows + (highs - lows) * rng.random().
    n_uniform = min(trials - 1, TPE_STARTUP_TRIALS)
    draws = np.array([rng.random((n_uniform, n_dims)) for rng in rngs])
    uniform = lows[:, None] + (highs - lows)[:, None] * draws  # (K, n_uniform, D)
    history_x = np.empty((n_searches, n_dims, trials))
    history_loss = np.empty((n_searches, trials))
    history_x[..., 0] = init
    history_loss[:, 0] = loss_fn(init)
    for t in range(1, trials):
        if t <= n_uniform:
            x = uniform[:, t - 1]
        else:
            x = _suggest_tpe(rngs, history_x[..., :t], history_loss[:, :t], lows, highs)
        history_x[..., t] = x
        history_loss[:, t] = loss_fn(x)
    best = np.argmin(history_loss, axis=1)
    return history_x[np.arange(n_searches), :, best]


def _clipped_rmse(
    alpha: np.ndarray, beta: np.ndarray, p: np.ndarray, y: np.ndarray, clip: tuple[float, float]
) -> np.ndarray:
    """RMSE of clip(alpha * p + beta) against y along the last (date) axis;
    alpha and beta have one shape and broadcast against p."""
    pred = alpha * p
    pred += beta
    np.maximum(clip[0], pred, out=pred)
    np.minimum(clip[1], pred, out=pred)
    pred -= y
    pred *= pred
    return np.sqrt(_mean_last(pred))


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
    degenerate: Sequence[bool],
    widened: Sequence[bool],
) -> tuple[CalibrationParams, FitReport]:
    clip = config.clip_bounds
    best_loss = _clipped_rmse(best[:, :1], best[:, 1:], p, y, clip)
    init_loss = _clipped_rmse(init[:, :1], init[:, 1:], p, y, clip)
    report = FitReport(
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
            degenerate=degenerate[i],
            range_widened=widened[i],
        )
    return CalibrationParams(per_category), report


def fit_calibration(
    train: Sequence[Pair],
    config: FitConfig,
) -> tuple[CalibrationParams, FitReport]:
    """Fit (alpha_k, beta_k) per category by minimizing clipped-prediction RMSE.

    The map is separable, so each category is its own search, and the
    searches run in lock step as one batch. The least-squares line is trial
    0, so the best trial never loses to the initializer. Search ranges that
    exclude the initializer are widened to cover it and flagged in the
    report.
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

    best = _run_search(
        lambda x: _clipped_rmse(x[:, :1], x[:, 1:], p, y, clip),
        bounds,
        init,
        config.trials,
        [np.random.default_rng([config.seed, k]) for k in range(len(keys))],
    )
    return _fit_result(
        keys, best, init, p, y, config,
        degenerate=[degenerate for _, _, degenerate in lines],
        widened=widened,
    )


def fit_unclipped(
    train: Sequence[Pair],
) -> CalibrationParams:
    """The unclipped map of each category: its least-squares line, with
    infinite clip bounds (ablation arm).

    Unclipped, the fit minimizes plain RMSE, which the least-squares line
    minimizes over any box that holds it; ``fit_calibration`` widens its box
    to hold the line, tries the line first and keeps the first of tied
    trials, so its search would return this line too.
    """
    keys, p, y = _pairs_from_training(train)
    return CalibrationParams(
        {
            key: CategoryCalibration(alpha, beta, -math.inf, math.inf)
            for key, (alpha, beta, _) in zip(keys, map(_ols_line, p, y))
        }
    )


def fit_single_slope(
    train: Sequence[Pair],
    config: FitConfig,
) -> tuple[CalibrationParams, FitReport]:
    """Fit one shared (alpha, beta) across all categories (ablation arm).

    The shared pair minimizes the mean of the per-category RMSEs; the
    initializer is the least-squares line through the pooled (probability,
    observation) pairs.
    """
    keys, p, y = _pairs_from_training(train)
    clip = config.clip_bounds
    alpha0, beta0, degenerate = _ols_line(p.ravel(), y.ravel())
    a_range, aw = _widen(alpha0, config.alpha_range)
    b_range, bw = _widen(beta0, config.beta_range)
    init = np.array([[alpha0, beta0]])
    best = _run_search(
        lambda x: _mean_last(_clipped_rmse(x[:, :1, None], x[:, 1:, None], p, y, clip)),
        np.array([[a_range, b_range]]),
        init,
        config.trials,
        [np.random.default_rng(config.seed)],
    )
    n = len(keys)
    return _fit_result(
        keys, np.repeat(best, n, axis=0), np.repeat(init, n, axis=0), p, y, config,
        degenerate=[degenerate] * n, widened=[aw or bw] * n,
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
) -> tuple[CalibrationParams, str]:
    """The artifact's map, and the SHA-256 hex digest of the bytes parsed."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"calibration artifact not found: {p}")
    data = p.read_bytes()
    try:
        payload = json.loads(data.decode("utf-8"))
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
    return params, hashlib.sha256(data).hexdigest()
