import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialtwin.calibrate import (
    TPE_CANDIDATES,
    TPE_GAMMA,
    TPE_STARTUP_TRIALS,
    CalibrationParams,
    CategoryCalibration,
    CategoryFitRecord,
    FitConfig,
    FitReport,
    _kde_logpdf,
    _ols_line,
    _silverman_bandwidth,
    _widen,
    apply_calibration,
    fit_calibration,
    fit_single_slope,
    fit_unclipped,
    load_calibration,
    pair_by_date,
    save_calibration,
)
from socialtwin.errors import ConfigError, DataError
from synthetic import make_synthetic_dataset


def make_params(alpha, beta, y_min=-100.0, y_max=200.0, keys=("k",)):
    return CalibrationParams(
        {k: CategoryCalibration(alpha, beta, y_min, y_max) for k in keys}
    )


def make_training(p_values, y_values, key="k"):
    """Paired (vector, observation) rows for a single category."""
    return [({key: p}, {key: y}) for p, y in zip(p_values, y_values)]


# ------------------------------------------------------------------ applying


def test_apply_identity_map():
    params = make_params(1.0, 0.0, y_min=-math.inf, y_max=math.inf)
    assert apply_calibration({"k": 0.93}, params)["k"] == 0.93


def test_apply_affine_then_clip():
    params = make_params(-200.0, 100.0)
    assert apply_calibration({"k": 0.9}, params)["k"] == -80.0
    # outside [-100, 100]-style bounds: clipped at the floor
    params = make_params(-200.0, 100.0, y_min=-100.0, y_max=100.0)
    assert apply_calibration({"k": 1.0}, params)["k"] == -100.0


def test_apply_missing_category_params():
    params = make_params(1.0, 0.0, keys=("other",))
    with pytest.raises(DataError, match="missing categories"):
        apply_calibration({"k": 0.5}, params)


def test_clip_bounds_must_be_ordered():
    with pytest.raises(ConfigError):
        CategoryCalibration(1.0, 0.0, y_min=5.0, y_max=5.0)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 0.0), (math.inf, 0.0), (1.0, -math.inf)])
def test_coefficients_must_be_finite_but_clip_bounds_may_not_be(alpha, beta):
    with pytest.raises(ConfigError, match="must be finite"):
        CategoryCalibration(alpha, beta, -100.0, 200.0)
    assert CategoryCalibration(1.0, 0.0, -math.inf, math.inf).apply(0.5) == 0.5


@given(
    st.floats(min_value=-300, max_value=300),
    st.floats(min_value=-150, max_value=150),
    st.floats(min_value=0, max_value=1),
)
def test_clipping_idempotent(alpha, beta, p):
    cal = CategoryCalibration(alpha, beta, -100.0, 200.0)
    once = cal.apply(p)
    twice = min(cal.y_max, max(cal.y_min, once))
    assert once == twice
    assert cal.y_min <= once <= cal.y_max


# -------------------------------------------------------------- least squares


def least_squares_fit(pairs, clip_bounds=FitConfig().clip_bounds):
    """Reference: closed-form per-category OLS of the unclipped map, the
    search's trial 0. Clip bounds are set to the defaults, not fitted."""
    per_category = {}
    for key, cat_pairs in pairs.items():
        arr = np.asarray(list(cat_pairs), dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] != 2:
            raise DataError(f"category {key!r}: need >= 2 (probability, observation) pairs")
        alpha, beta, _ = _ols_line(arr[:, 0], arr[:, 1])
        per_category[key] = CategoryCalibration(
            alpha=alpha, beta=beta, y_min=clip_bounds[0], y_max=clip_bounds[1]
        )
    return CalibrationParams(per_category)


def test_least_squares_recovers_exact_line():
    p = np.linspace(0.05, 0.95, 30)
    y = -150.0 * p + 50.0
    params = least_squares_fit({"k": list(zip(p, y))})
    cal = params.per_category["k"]
    assert cal.alpha == pytest.approx(-150.0, abs=1e-9)
    assert cal.beta == pytest.approx(50.0, abs=1e-9)


def test_least_squares_flat_target():
    p = np.linspace(0.1, 0.9, 10)
    params = least_squares_fit({"k": list(zip(p, np.full(10, 7.5)))})
    cal = params.per_category["k"]
    assert cal.alpha == pytest.approx(0.0, abs=1e-9)
    assert cal.beta == pytest.approx(7.5, abs=1e-9)


def test_least_squares_two_points_identity_line():
    params = least_squares_fit({"k": [(0.0, 0.0), (1.0, 1.0)]})
    cal = params.per_category["k"]
    assert cal.alpha == pytest.approx(1.0, abs=1e-12)
    assert cal.beta == pytest.approx(0.0, abs=1e-12)


def test_least_squares_degenerate_constant_probability():
    params = least_squares_fit({"k": [(0.4, 3.0), (0.4, 5.0)]})
    cal = params.per_category["k"]
    assert cal.alpha == 0.0
    assert cal.beta == pytest.approx(4.0)


def test_least_squares_needs_two_pairs():
    with pytest.raises(DataError, match=">= 2"):
        least_squares_fit({"k": [(0.5, 1.0)]})


# -------------------------------------------------------------------- fitting


def test_fit_recovers_known_line_zero_noise():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.05, 0.95, 120)
    y = -150.0 * p + 50.0
    params, report = fit_calibration(
        make_training(p, y), FitConfig(trials=50, seed=1)
    )
    cal = params.per_category["k"]
    assert cal.alpha == pytest.approx(-150.0, rel=0.01)
    assert cal.beta == pytest.approx(50.0, abs=0.01 * 400.0)
    assert report.per_category["k"].best_loss <= 1e-9


def test_fit_with_noise_stays_near_noise_floor():
    rng = np.random.default_rng(7)
    sigma = 2.0
    p = rng.uniform(0.05, 0.95, 200)
    y = -150.0 * p + 50.0 + rng.normal(0, sigma, 200)
    params, report = fit_calibration(make_training(p, y), FitConfig(trials=60, seed=2))
    assert report.per_category["k"].best_loss <= 1.2 * sigma


def test_fit_single_trial_least_squares_init_passthrough():
    """One trial is trial 0, the least-squares initializer."""
    p = np.linspace(0.1, 0.9, 40)
    y = 30.0 * p - 12.0
    train = make_training(p, y)
    fitted, _ = fit_calibration(train, FitConfig(trials=1, seed=0))
    direct = least_squares_fit({"k": list(zip(p, y))})
    assert fitted.per_category["k"].alpha == direct.per_category["k"].alpha
    assert fitted.per_category["k"].beta == direct.per_category["k"].beta


def test_fit_initializer_dominance_all_samplers(synth_dataset):
    """The fit never ends worse than its initializer, whichever way its
    trials are sampled: the initializer alone (1 trial), uniform draws only
    (11) or density-guided steps after them (25)."""
    pairs = pair_by_date(synth_dataset.aggregates, synth_dataset.observations)[:80]
    for trials in (1, 1 + TPE_STARTUP_TRIALS, 25):
        _, report = fit_calibration(pairs, FitConfig(trials=trials, seed=9))
        for key, rec in report.per_category.items():
            assert rec.best_loss <= rec.initializer_loss + 1e-12, (trials, key)


def test_fit_separability_category_params_independent(synth_dataset):
    pairs = pair_by_date(synth_dataset.aggregates, synth_dataset.observations)[:60]
    full, _ = fit_calibration(pairs, FitConfig(trials=30, seed=4))
    # refit with the other categories' observations scrambled: target category
    # params must not move, since each category is its own search
    key = "go_work"
    scrambled = []
    for vec, obs in pairs:
        scrambled.append((vec, {k: (y if k == key else -y - 3.0) for k, y in obs.items()}))
    refit, _ = fit_calibration(scrambled, FitConfig(trials=30, seed=4))
    assert refit.per_category[key].alpha == full.per_category[key].alpha
    assert refit.per_category[key].beta == full.per_category[key].beta


def test_fit_range_excluding_initializer_widens_with_flag():
    p = np.linspace(0.05, 0.95, 50)
    y = -150.0 * p + 50.0  # true alpha outside the tiny range below
    params, report = fit_calibration(
        make_training(p, y),
        FitConfig(trials=20, alpha_range=(-10.0, 10.0), beta_range=(-10.0, 60.0), seed=3),
    )
    assert report.per_category["k"].range_widened
    assert params.per_category["k"].alpha == pytest.approx(-150.0, rel=0.01)


def test_fit_single_slope_shares_parameters(synth_dataset):
    pairs = pair_by_date(synth_dataset.aggregates, synth_dataset.observations)[:50]
    params, _ = fit_single_slope(pairs, FitConfig(trials=25, seed=6))
    alphas = {c.alpha for c in params.per_category.values()}
    betas = {c.beta for c in params.per_category.values()}
    assert len(alphas) == 1 and len(betas) == 1


def test_fit_requires_two_dates():
    with pytest.raises(DataError, match=">= 2"):
        fit_calibration(make_training([0.5], [1.0]), FitConfig(trials=5))
    with pytest.raises(DataError, match=">= 2"):
        fit_unclipped(make_training([0.5], [1.0]))


def test_fit_deterministic_given_seed(synth_dataset):
    pairs = pair_by_date(synth_dataset.aggregates, synth_dataset.observations)[:40]
    a, _ = fit_calibration(pairs, FitConfig(trials=30, seed=11))
    b, _ = fit_calibration(pairs, FitConfig(trials=30, seed=11))
    assert a == b


def test_monotone_composition_through_calibration(synth_dataset):
    """With a monotone aggregate and no active clip, calibrated predictions
    are monotone with direction sign(alpha) * sign(d p / d s)."""
    pairs = pair_by_date(synth_dataset.aggregates, synth_dataset.observations)
    params, _ = fit_calibration(pairs, FitConfig(trials=20, seed=8))
    dates = sorted(synth_dataset.aggregates)[:90]
    key = "stay_home"  # aggregate increases with stringency; alpha > 0
    cal = params.per_category[key]
    assert cal.alpha > 0
    by_prob = sorted(synth_dataset.aggregates[d][key] for d in dates)
    predictions = [cal.apply(p) for p in by_prob]
    assert predictions == sorted(predictions)


# ------------------------------------------------- reference: one search each
# The density-guided search as it ran one search at a time: a Python loop over
# categories, a per-dimension loop in every suggestion and a vstack of the
# history per trial. The batched search in socialtwin.calibrate must give the
# same parameters and report, bit for bit.


def _ref_pairs_from_training(train):
    categories = train[0][0]
    out = {}
    for key in categories:
        p = np.array([vec[key] for vec, _ in train], dtype=float)
        y = np.array([obs[key] for _, obs in train], dtype=float)
        out[key] = (p, y)
    return out


def _ref_silverman_bandwidth(samples, width):
    n = len(samples)
    spread = float(np.std(samples))
    bw = 1.06 * spread * n ** (-0.2) if spread > 0 else 0.0
    return max(bw, 1e-3 * width)


def _ref_kde_logpdf(x, samples, bandwidth):
    z = (x[:, None] - samples[None, :]) / bandwidth
    log_kernels = -0.5 * z**2 - math.log(bandwidth * math.sqrt(2 * math.pi))
    max_log = np.max(log_kernels, axis=1, keepdims=True)
    return max_log[:, 0] + np.log(np.mean(np.exp(log_kernels - max_log), axis=1))


def _ref_suggest_tpe(rng, history_x, history_loss, bounds):
    n = len(history_loss)
    order = np.argsort(history_loss, kind="stable")
    n_good = max(1, math.ceil(TPE_GAMMA * n))
    good_idx, rest_idx = order[:n_good], order[n_good:]
    n_dims = history_x.shape[1]
    candidates = np.empty((TPE_CANDIDATES, n_dims))
    score = np.zeros(TPE_CANDIDATES)
    for d in range(n_dims):
        low, high = bounds[d]
        width = high - low
        good = history_x[good_idx, d]
        bw_good = _ref_silverman_bandwidth(good, width)
        centers = good[rng.integers(0, len(good), TPE_CANDIDATES)]
        cand = np.clip(centers + rng.normal(0.0, bw_good, TPE_CANDIDATES), low, high)
        candidates[:, d] = cand
        score += _ref_kde_logpdf(cand, good, bw_good)
        if len(rest_idx) > 0:
            rest = history_x[rest_idx, d]
            score -= _ref_kde_logpdf(cand, rest, _ref_silverman_bandwidth(rest, width))
    return candidates[int(np.argmax(score))]


def _ref_run_search(loss_fn, bounds, init, trials, rng):
    history_x = [np.asarray(init, dtype=float)]
    history_loss = [loss_fn(history_x[0])]
    init_loss = history_loss[0]
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])
    for t in range(1, trials):
        if t <= TPE_STARTUP_TRIALS:
            x = rng.uniform(lows, highs)
        else:
            x = _ref_suggest_tpe(rng, np.vstack(history_x), np.array(history_loss), bounds)
        history_x.append(x)
        history_loss.append(loss_fn(x))
    best = int(np.argmin(history_loss))
    return history_x[best], history_loss[best], init_loss


def _ref_clipped_rmse(alpha, beta, p, y, clip):
    pred = np.clip(alpha * p + beta, clip[0], clip[1])
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _ref_report(config):
    return FitReport(
        seed=config.seed,
        trials=config.trials,
        alpha_range=config.alpha_range,
        beta_range=config.beta_range,
    )


def ref_fit_calibration(train, config):
    pairs = _ref_pairs_from_training(train)
    report = _ref_report(config)
    clip = config.clip_bounds
    per_category = {}
    for k_index, (key, (p, y)) in enumerate(pairs.items()):
        init_alpha, init_beta, _ = _ols_line(p, y)
        a_range, a_widened = _widen(init_alpha, config.alpha_range)
        b_range, b_widened = _widen(init_beta, config.beta_range)
        best, best_loss, init_loss = _ref_run_search(
            lambda x, p=p, y=y: _ref_clipped_rmse(x[0], x[1], p, y, clip),
            [a_range, b_range],
            np.array([init_alpha, init_beta]),
            config.trials,
            np.random.default_rng([config.seed, k_index]),
        )
        per_category[key] = CategoryCalibration(float(best[0]), float(best[1]), clip[0], clip[1])
        report.per_category[key] = CategoryFitRecord(
            best_loss=best_loss,
            initializer_loss=init_loss,
            degenerate=float(np.var(p)) < 1e-12,
            range_widened=a_widened or b_widened,
        )
    return CalibrationParams(per_category), report


def ref_fit_single_slope(train, config):
    pairs = _ref_pairs_from_training(train)
    clip = config.clip_bounds
    pooled_p = np.concatenate([p for p, _ in pairs.values()])
    pooled_y = np.concatenate([y for _, y in pairs.values()])
    alpha0, beta0, degenerate = _ols_line(pooled_p, pooled_y)
    a_range, aw = _widen(alpha0, config.alpha_range)
    b_range, bw = _widen(beta0, config.beta_range)

    def shared_loss(x):
        return float(np.mean([_ref_clipped_rmse(x[0], x[1], p, y, clip) for p, y in pairs.values()]))

    best, _, _ = _ref_run_search(
        shared_loss, [a_range, b_range], np.array([alpha0, beta0]),
        config.trials, np.random.default_rng(config.seed),
    )
    report = _ref_report(config)
    for key, (p, y) in pairs.items():
        report.per_category[key] = CategoryFitRecord(
            best_loss=_ref_clipped_rmse(best[0], best[1], p, y, clip),
            initializer_loss=_ref_clipped_rmse(alpha0, beta0, p, y, clip),
            degenerate=degenerate,
            range_widened=aw or bw,
        )
    params = {key: CategoryCalibration(float(best[0]), float(best[1]), clip[0], clip[1]) for key in pairs}
    return CalibrationParams(params), report


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 31, 128, 129, 149, 300])
def test_density_helpers_match_per_row_reference(n):
    """The bandwidth and KDE helpers against one numpy call per row, on
    rows that are slices of a wider array as the good and rest sets are;
    rows past 128 samples span two blocks of numpy's pairwise summation."""
    rng = np.random.default_rng(n)
    ranked = rng.normal(0.0, 50.0, (3, 2, n + 5))
    samples = ranked[..., 5:]
    x = rng.uniform(-100.0, 100.0, (3, 2, TPE_CANDIDATES))
    width = rng.uniform(1.0, 800.0, (3, 2))
    bandwidth = _silverman_bandwidth(samples, 1e-3 * width)
    log_density = _kde_logpdf(x, samples, bandwidth)
    for k in range(3):
        for d in range(2):
            want_bw = _ref_silverman_bandwidth(samples[k, d], width[k, d])
            assert bandwidth[k, d] == want_bw
            want = _ref_kde_logpdf(x[k, d], samples[k, d], want_bw)
            assert log_density[k, d].tobytes() == want.tobytes()


def random_training(n_categories, n_dates, data_seed, constant_category):
    """Noisy lines through random (probability, observation) pairs; with
    ``constant_category`` the first category's probability never moves."""
    rng = np.random.default_rng(data_seed)
    p = rng.uniform(0.05, 0.95, (n_categories, n_dates))
    if constant_category:
        p[0] = p[0, 0]
    slopes = rng.uniform(-300.0, 300.0, (n_categories, 1))
    y = slopes * p + rng.uniform(-80.0, 80.0, (n_categories, 1)) + rng.normal(0, 5.0, p.shape)
    keys = [f"k{i}" for i in range(n_categories)]
    return [
        (
            {k: float(p[i, j]) for i, k in enumerate(keys)},
            {k: float(y[i, j]) for i, k in enumerate(keys)},
        )
        for j in range(n_dates)
    ]


@settings(max_examples=60, deadline=None)
@given(
    n_categories=st.integers(1, 6),
    n_dates=st.integers(2, 40),
    data_seed=st.integers(0, 2**32 - 1),
    constant_category=st.booleans(),
    objective=st.sampled_from(["per-category-independent", "single-slope"]),
    trials=st.sampled_from([1, 2, 11, 12, 40]),
    narrow_range=st.booleans(),
    unclipped=st.booleans(),
    seed=st.integers(0, 10_000),
)
# FitConfig's default trial count: late rest sets hold more than 128 samples,
# numpy's pairwise-summation block, and so do the 150-date losses
@example(
    n_categories=3, n_dates=24, data_seed=5, constant_category=True, objective="per-category-independent",
    trials=200, narrow_range=False, unclipped=False, seed=7,
)
@example(
    n_categories=2, n_dates=150, data_seed=6, constant_category=False, objective="per-category-independent",
    trials=200, narrow_range=True, unclipped=False, seed=8,
)
@example(
    n_categories=3, n_dates=24, data_seed=7, constant_category=True, objective="single-slope",
    trials=200, narrow_range=False, unclipped=False, seed=9,
)
def test_batched_search_matches_per_search_reference(
    n_categories, n_dates, data_seed, constant_category, objective, trials,
    narrow_range, unclipped, seed,
):
    train = random_training(n_categories, n_dates, data_seed, constant_category)
    config = FitConfig(
        trials=trials,
        seed=seed,
        alpha_range=(-10.0, 10.0) if narrow_range else (-400.0, 400.0),
        beta_range=(-10.0, 10.0) if narrow_range else (-200.0, 200.0),
        clip_bounds=(-math.inf, math.inf) if unclipped else (-100.0, 200.0),
    )
    if objective == "single-slope":
        got, want = fit_single_slope(train, config), ref_fit_single_slope(train, config)
    else:
        got, want = fit_calibration(train, config), ref_fit_calibration(train, config)
    assert got == want
    # bit for bit, signed zeros included
    assert json.dumps(got[0].to_dict()) == json.dumps(want[0].to_dict())
    assert json.dumps(got[1].to_dict()) == json.dumps(want[1].to_dict())


@settings(max_examples=40, deadline=None)
@given(
    n_categories=st.integers(1, 4),
    n_dates=st.integers(2, 30),
    data_seed=st.integers(0, 2**32 - 1),
    constant_category=st.booleans(),
    trials=st.sampled_from([2, 12, 40]),
    narrow_range=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_unclipped_search_returns_the_least_squares_line(
    n_categories, n_dates, data_seed, constant_category, trials, narrow_range, seed,
):
    """Unclipped, the least-squares line (trial 0) minimizes the RMSE over any
    box that holds it, so a search ties it at best and keeps it: the
    closed-form ``fit_unclipped`` of the ablation's no-clipping arm is the
    searched fit, bit for bit."""
    train = random_training(n_categories, n_dates, data_seed, constant_category)
    config = FitConfig(
        trials=trials,
        seed=seed,
        alpha_range=(-10.0, 10.0) if narrow_range else (-400.0, 400.0),
        beta_range=(-10.0, 10.0) if narrow_range else (-200.0, 200.0),
        clip_bounds=(-math.inf, math.inf),
    )
    searched, _ = fit_calibration(train, config)
    assert json.dumps(searched.to_dict()) == json.dumps(fit_unclipped(train).to_dict())


# ------------------------------------------------------------------ artifacts


def test_artifact_roundtrip_with_hash_check(tmp_path):
    params = make_params(-120.0, 30.0, keys=("k1", "k2"))
    path = tmp_path / "calibration.json"
    save_calibration(params, path, config_hash="abc123" * 10 + "abcd")
    loaded, digest = load_calibration(path, expected_config_hash="abc123" * 10 + "abcd")
    assert loaded == params
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    with pytest.raises(ConfigError, match="refusing to mix"):
        load_calibration(path, expected_config_hash="f" * 64)


def test_artifact_serializes_infinite_bounds(tmp_path):
    params = make_params(2.0, 0.5, y_min=-math.inf, y_max=math.inf)
    path = tmp_path / "calibration.json"
    save_calibration(params, path)
    loaded, _ = load_calibration(path)
    cal = loaded.per_category["k"]
    assert cal.y_min == -math.inf and cal.y_max == math.inf
