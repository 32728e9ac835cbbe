"""Tests for the generative simulator, drift estimates, and experiments."""

import csv
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from cges import genmodel
from cges.errors import ConfigurationError
from cges.genmodel import (
    Beta,
    Dirichlet,
    DriftMethod,
    IdealGenConfig,
    PointMass,
    PointSimplex,
    RealisticGenConfig,
    Uniform,
    concentration_experiment,
    draw_trials,
    drift,
    parse_scalar_law,
    parse_simplex_law,
    write_concentration_csv,
)

# closed-form drifts for the point-mass configurations used below
IDEAL_DRIFT_07_K2 = (0.7 - 0.3) * math.log(0.7 / 0.3)  # 0.33891914415488136
REALISTIC_DRIFT_MINORITY = (0.4 - 0.6) * math.log(0.3 / 0.7)  # +0.16945957207744068

# long enough that every K in EXPERIMENT_CONFIGS splits 40 trials into several blocks
LONG_M = 700


# both regimes, every confidence law and K from 2 to 5
EXPERIMENT_CONFIGS = {
    "ideal-point-k2": IdealGenConfig(k=2, confidence_law=PointMass(0.7), m_max=30, seed=1),
    "ideal-uniform-k3": IdealGenConfig(k=3, confidence_law=Uniform(0.2, 0.9), m_max=30, seed=2),
    "ideal-beta-k5": IdealGenConfig(k=5, confidence_law=Beta(2.0, 3.0), m_max=30, seed=3),
    "realistic-point-k2": RealisticGenConfig(
        k=2, answer_law=PointSimplex((0.4, 0.6)), confidence_noise=PointMass(0.3),
        m_max=30, seed=4,
    ),
    "realistic-dirichlet-k3": RealisticGenConfig(
        k=3, answer_law=Dirichlet((1.0, 1.0, 1.0)), confidence_noise=Beta(2.0, 3.0),
        m_max=30, seed=5,
    ),
    "realistic-beta-k4": RealisticGenConfig(
        k=4, answer_law=PointSimplex((0.4, 0.3, 0.2, 0.1)),
        confidence_noise=Beta(2.0, 3.0), m_max=30, seed=6,
    ),
    "realistic-uniform-k5": RealisticGenConfig(
        k=5, answer_law=Dirichlet((2.0, 1.0, 1.0, 1.0, 1.0)),
        confidence_noise=Uniform(0.1, 0.6), m_max=30, seed=7,
    ),
}


def _log_terms(responses, confidences, k):
    """Reference fixed-K kernel: per-round log-likelihood of every candidate, shape (..., m, K).

    Entry [..., t, j] is log C at the answer drawn at round t + 1 and
    log((1 - C) / (K - 1)) at every other candidate.  Leading axes, such as a
    block's trial axis, pass through.
    """
    log_hit = np.log(confidences)[..., None]
    log_miss = (np.log1p(-confidences) - math.log(k - 1))[..., None]
    return np.where(responses[..., None] == np.arange(k), log_hit, log_miss)


def _ideal(**fields):
    """A small ideal-regime config; ``fields`` override its defaults."""
    return IdealGenConfig(**{"k": 2, "confidence_law": PointMass(0.7), **fields})


def _realistic(**fields):
    """A small realistic-regime config; ``fields`` override its defaults."""
    defaults = {"k": 2, "answer_law": PointSimplex((0.4, 0.6)), "confidence_noise": PointMass(0.3)}
    return RealisticGenConfig(**{**defaults, **fields})


def _posterior_path(responses, confidences, k):
    """The posterior row after each round of one question."""
    return genmodel._normalise(np.cumsum(_log_terms(responses, confidences, k), axis=0))


def _llr_paths(truth, responses, confidences, k):
    """Per competitor j, the cumulative log-likelihood ratio of truth over j after each round."""
    terms = _log_terms(responses, confidences, k)
    return {j: np.cumsum(terms[:, truth] - terms[:, j]) for j in range(k) if j != truth}


def _reference_row(config, m, trials):
    """Success frequency and mean truth mass of a row, one posterior path per trial.

    Draws the experiment's blocks from the same generator, then scores each
    trial through its own full posterior path and sums masses in trial order.
    """
    rng = np.random.default_rng([config.seed, m])
    block = genmodel.trials_per_block(m, config.k)
    hits, mass_sum = 0, 0.0
    for start in range(0, trials, block):
        draws = genmodel.draw_trials(config, m, min(block, trials - start), rng)
        for truth, responses, confidences in zip(draws[0].tolist(), draws[1], draws[2]):
            final = _posterior_path(responses, confidences, config.k)[-1]
            hits += int(np.argmax(final) == truth)
            mass_sum += float(final[truth])
    return hits / trials, mass_sum / trials


class TestLaws:
    def test_point_mass_bounds(self):
        with pytest.raises(ConfigurationError):
            PointMass(0.0)
        with pytest.raises(ConfigurationError):
            PointMass(1.0)

    def test_uniform_bounds(self):
        with pytest.raises(ConfigurationError):
            Uniform(0.9, 0.5)

    def test_beta_bounds(self):
        with pytest.raises(ConfigurationError):
            Beta(0.0, 1.0)

    def test_point_simplex_must_normalize(self):
        with pytest.raises(ConfigurationError):
            PointSimplex((0.5, 0.6))

    def test_dirichlet_positive(self):
        with pytest.raises(ConfigurationError):
            Dirichlet((1.0, 0.0))

    def test_parse_scalar_law(self):
        assert parse_scalar_law("point:0.7") == PointMass(0.7)
        assert parse_scalar_law("uniform:0.55,0.95") == Uniform(0.55, 0.95)
        assert parse_scalar_law("beta:2,5") == Beta(2.0, 5.0)
        with pytest.raises(ConfigurationError):
            parse_scalar_law("gauss:0,1")

    def test_parse_simplex_law(self):
        assert parse_simplex_law("point:0.4,0.6") == PointSimplex((0.4, 0.6))
        assert parse_simplex_law("dirichlet:1,1,1") == Dirichlet((1.0, 1.0, 1.0))
        with pytest.raises(ConfigurationError):
            parse_simplex_law("point:1.0")

    def test_answer_law_dimension_checked(self):
        with pytest.raises(ConfigurationError):
            RealisticGenConfig(
                k=3, answer_law=PointSimplex((0.4, 0.6)), confidence_noise=PointMass(0.5)
            )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: IdealGenConfig(k=2, confidence_law=0.7),
            lambda: IdealGenConfig(k=2, confidence_law=PointSimplex((0.4, 0.6))),
            lambda: RealisticGenConfig(
                k=2, answer_law=PointMass(0.4), confidence_noise=PointMass(0.3)
            ),
            lambda: RealisticGenConfig(
                k=2, answer_law=(0.4, 0.6), confidence_noise=PointMass(0.3)
            ),
        ],
        ids=["ideal-float", "ideal-simplex", "realistic-scalar-answers", "realistic-tuple-answers"],
    )
    def test_config_refuses_a_value_that_is_not_a_law(self, make):
        with pytest.raises(ConfigurationError, match="must be one of"):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: _ideal(k=3.0), "k must be an int, got 3.0"),
            (lambda: _realistic(k=3.0), "k must be an int, got 3.0"),
            (lambda: _ideal(k=True), "k must be an int, got True"),
            (lambda: _ideal(m_max=2.5), "m_max must be an int, got 2.5"),
            (lambda: _realistic(m_max=2.5), "m_max must be an int, got 2.5"),
            (lambda: _ideal(seed=1.0), "seed must be an int, got 1.0"),
            (lambda: _ideal(seed=-1), "seed must be >= 0, got -1"),
            (lambda: _realistic(seed=-1), "seed must be >= 0, got -1"),
            (
                lambda: concentration_experiment(_ideal(), [1], trials=True),
                "trials must be an int, got True",
            ),
            (
                lambda: concentration_experiment(_ideal(), [1], trials=2.5),
                "trials must be an int, got 2.5",
            ),
            (
                lambda: concentration_experiment(_ideal(), [1, 2.5], trials=4),
                "m must be an int, got 2.5",
            ),
            (
                lambda: concentration_experiment(_ideal(), [True], trials=4),
                "m must be an int, got True",
            ),
        ],
        ids=[
            "ideal-k-float", "realistic-k-float", "k-bool", "ideal-m_max-float",
            "realistic-m_max-float", "seed-float", "ideal-seed-negative",
            "realistic-seed-negative", "trials-bool", "trials-float", "m-float", "m-bool",
        ],
    )
    def test_integer_fields_are_checked(self, make, message):
        # k=3.0 and trials=2.5 used to raise a bare TypeError mid-draw; m_max=2.5
        # and trials=True ran; seed=-1 raised numpy's ValueError
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            make()

    def test_numpy_integers_are_accepted(self):
        config = _ideal(k=np.int64(2), m_max=np.int32(5), seed=np.int64(3))
        rows = concentration_experiment(config, [np.int64(5)], trials=np.int64(4))
        assert rows == concentration_experiment(_ideal(m_max=5, seed=3), [5], trials=4)


class TestSampleIdeal:
    def test_seed_determinism(self):
        config = IdealGenConfig(k=3, confidence_law=Uniform(0.3, 0.9), seed=5)
        a = draw_trials(config, 50, 4, np.random.default_rng(123))
        b = draw_trials(config, 50, 4, np.random.default_rng(123))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_emission_calibration_at_point_mass(self):
        # responses equal the true answer with frequency close to c
        config = IdealGenConfig(k=4, confidence_law=PointMass(0.7))
        truths, responses, _ = draw_trials(config, 100, 60, np.random.default_rng(0))
        freq = float(np.mean(responses == truths[:, None]))
        # 6000 Bernoulli(0.7) draws: 5 sigma is ~0.030
        assert abs(freq - 0.7) < 0.03

    def test_uninformative_point_mass_keeps_posterior_flat(self):
        config = IdealGenConfig(k=4, confidence_law=PointMass(0.25))
        truths, responses, confidences = draw_trials(config, 30, 1, np.random.default_rng(1))
        assert np.allclose(_posterior_path(responses[0], confidences[0], 4), 0.25, atol=1e-9)
        for path in _llr_paths(int(truths[0]), responses[0], confidences[0], 4).values():
            assert np.allclose(path, 0.0, atol=1e-9)

    def test_cumulative_llr_mean_matches_drift(self):
        config = IdealGenConfig(k=2, confidence_law=PointMass(0.7))
        m, trials = 100, 400
        truths, responses, confidences = draw_trials(config, m, trials, np.random.default_rng(2))
        finals = []
        for truth, trial_responses, trial_confidences in zip(truths, responses, confidences):
            (llr,) = _llr_paths(int(truth), trial_responses, trial_confidences, 2).values()
            finals.append(llr[-1])
        expected = m * IDEAL_DRIFT_07_K2  # ~33.89
        std_err = np.std(finals, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(finals) - expected) < 4 * std_err

    def test_m_bounds_enforced(self):
        config = IdealGenConfig(k=2, confidence_law=PointMass(0.7), m_max=10)
        with pytest.raises(ConfigurationError):
            concentration_experiment(config, [11], trials=1)
        with pytest.raises(ConfigurationError):
            concentration_experiment(config, [0], trials=1)


class TestSampleRealistic:
    def test_truth_is_index_zero(self):
        config = RealisticGenConfig(
            k=2, answer_law=PointSimplex((0.4, 0.6)), confidence_noise=PointMass(0.3)
        )
        truths, responses, _ = draw_trials(config, 20, 4, np.random.default_rng(3))
        assert truths.tolist() == [0, 0, 0, 0]
        assert responses.shape == (4, 20)

    def test_answer_frequencies_follow_p(self):
        config = RealisticGenConfig(
            k=3,
            answer_law=PointSimplex((0.2, 0.5, 0.3)),
            confidence_noise=Uniform(0.4, 0.6),
        )
        _, responses, _ = draw_trials(config, 100, 40, np.random.default_rng(4))
        freqs = np.bincount(responses.ravel(), minlength=3) / responses.size
        assert np.allclose(freqs, [0.2, 0.5, 0.3], atol=0.03)

    def test_callable_confidence_noise(self):
        # confidence noise is a scalar law; a per-round callable is refused at
        # config time rather than when the first block is drawn
        def noise(probs, rng):
            return float(np.clip(probs[0] + rng.normal(0, 0.01), 0.05, 0.95))

        with pytest.raises(ConfigurationError, match="confidence noise must be one of"):
            RealisticGenConfig(k=2, answer_law=PointSimplex((0.6, 0.4)), confidence_noise=noise)


class TestPathIdentity:
    def test_posterior_ratio_equals_exp_llr(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            config = IdealGenConfig(k=k, confidence_law=Uniform(0.2, 0.9), seed=0)
            truths, responses, confidences = draw_trials(config, 40, 1, rng)
            truth = int(truths[0])
            posterior = _posterior_path(responses[0], confidences[0], k)
            for j, path in _llr_paths(truth, responses[0], confidences[0], k).items():
                ratio = posterior[:, truth] / posterior[:, j]
                assert np.allclose(ratio, np.exp(path), rtol=1e-9)


class TestRoundTerms:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 7, 40, 500])
    def test_round_sum_equals_the_reference_cumsum(self, k, m):
        config = IdealGenConfig(k=k, confidence_law=Uniform(0.05, 0.95), m_max=m, seed=k)
        rng = np.random.default_rng([k, m])
        for n in (1, genmodel.trials_per_block(m, k)):
            _, responses, confidences = draw_trials(config, m, n, rng)
            final = genmodel._round_terms(responses.T, confidences.T, k).sum(axis=0)
            reference = np.cumsum(_log_terms(responses, confidences, k), axis=1)[:, -1]
            assert final.shape == (n, k)
            assert final.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("regime", ["ideal", "realistic"])
    def test_drift_increments_equal_the_log_ratio_form(self, k, regime):
        if regime == "ideal":
            config = IdealGenConfig(k=k, confidence_law=Uniform(0.0, 1.0))
        else:
            config = RealisticGenConfig(
                k=k, answer_law=Dirichlet((1.0,) * k), confidence_noise=Uniform(0.0, 1.0)
            )
        n_mc = 5000
        truths, responses, confidences = draw_trials(config, 1, n_mc, np.random.default_rng(k))
        responses, confidences = (responses[:, 0] - truths) % k, confidences[:, 0]
        terms = genmodel._round_terms(responses[None], confidences[None], k)[0]
        estimate = genmodel._drift_monte_carlo(config, n_mc, np.random.default_rng(k))
        log_ratio = np.log(confidences) - (np.log1p(-confidences) - math.log(k - 1))
        for j in range(1, k):
            expected = np.where(
                responses == 0, log_ratio, np.where(responses == j, -log_ratio, 0.0)
            )
            assert (terms[:, 0] - terms[:, j]).tobytes() == expected.tobytes()
            assert estimate.mu[j] == float(expected.mean())
            assert estimate.std_err[j] == float(expected.std(ddof=1) / math.sqrt(n_mc))


class TestDrift:
    def test_ideal_closed_form(self):
        config = IdealGenConfig(k=2, confidence_law=PointMass(0.7))
        estimate = drift(config)
        assert estimate.method is DriftMethod.CLOSED_FORM
        assert estimate.mu[1] == pytest.approx(IDEAL_DRIFT_07_K2, abs=1e-15)

    def test_realistic_closed_form_signs(self):
        minority = RealisticGenConfig(
            k=2, answer_law=PointSimplex((0.4, 0.6)), confidence_noise=PointMass(0.3)
        )
        converse = RealisticGenConfig(
            k=2, answer_law=PointSimplex((0.4, 0.6)), confidence_noise=PointMass(0.7)
        )
        assert drift(minority).mu[1] == pytest.approx(REALISTIC_DRIFT_MINORITY, abs=1e-15)
        assert drift(converse).mu[1] == pytest.approx(-REALISTIC_DRIFT_MINORITY, abs=1e-15)

    def test_uninformative_confidence_has_zero_drift(self):
        config = IdealGenConfig(k=4, confidence_law=PointMass(0.25))
        assert drift(config).mu[1] == pytest.approx(0.0, abs=1e-15)

    def test_monte_carlo_agrees_with_closed_form(self):
        config = IdealGenConfig(k=2, confidence_law=PointMass(0.7), seed=9)
        mc = genmodel._drift_monte_carlo(config, 40_000, np.random.default_rng(config.seed))
        assert mc.method is DriftMethod.MONTE_CARLO
        assert abs(mc.mu[1] - IDEAL_DRIFT_07_K2) < 3 * mc.std_err[1]

    def test_monte_carlo_realistic_agrees_with_closed_form(self):
        config = RealisticGenConfig(
            k=2,
            answer_law=PointSimplex((0.4, 0.6)),
            confidence_noise=PointMass(0.3),
            seed=10,
        )
        mc = genmodel._drift_monte_carlo(config, 40_000, np.random.default_rng(config.seed))
        assert abs(mc.mu[1] - REALISTIC_DRIFT_MINORITY) < 3 * mc.std_err[1]

    def test_closed_form_requires_point_laws(self):
        config = IdealGenConfig(k=2, confidence_law=Uniform(0.5, 0.9))
        assert drift(config).method is DriftMethod.MONTE_CARLO

    def test_monte_carlo_uses_the_module_draw_count(self):
        config = RealisticGenConfig(
            k=3, answer_law=Dirichlet((1.0, 1.0, 1.0)), confidence_noise=Beta(2.0, 3.0), seed=11
        )
        expected = genmodel._drift_monte_carlo(
            config, genmodel.DRIFT_N_MC, np.random.default_rng(config.seed)
        )
        assert drift(config) == expected


class TestConcentrationExperiment:
    def test_success_grows_with_m_for_informative_law(self):
        config = IdealGenConfig(k=3, confidence_law=Uniform(0.5, 0.9), seed=1)
        rows = concentration_experiment(config, [1, 8, 40], trials=150)
        assert [row.m for row in rows] == [1, 8, 40]
        assert rows[-1].success_freq >= rows[0].success_freq
        assert rows[-1].success_freq > 0.95
        assert all(row.trials == 150 for row in rows)

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
    def test_single_round_row_matches_direct_average(self, name):
        config = EXPERIMENT_CONFIGS[name]
        rows = concentration_experiment(config, [1], trials=64)
        assert (rows[0].success_freq, rows[0].mean_mass_truth) == _reference_row(config, 1, 64)

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
    def test_rows_equal_per_trial_posterior_paths(self, name):
        config = dataclasses.replace(EXPERIMENT_CONFIGS[name], m_max=LONG_M)
        schedule = [1, 2, 13, 30, LONG_M]
        block = genmodel.trials_per_block(LONG_M, config.k)
        assert block < 40 and 40 % block, "40 trials must end the long row in a partial block"
        # one trial, one block exactly, one more or less, and several blocks
        for trials in (1, block - 1, block, block + 1, 40):
            rows = concentration_experiment(config, schedule, trials=trials)
            for row, m in zip(rows, schedule):
                assert (row.m, row.trials) == (m, trials)
                expected = _reference_row(config, m, trials)
                assert (row.success_freq, row.mean_mass_truth) == expected

    def test_block_size_follows_m_and_k(self):
        assert genmodel.trials_per_block(1, 2) == genmodel.BLOCK_ELEMENTS // 2
        assert genmodel.trials_per_block(500, 4) == 16
        assert genmodel.trials_per_block(genmodel.BLOCK_ELEMENTS, 3) == 1

    def test_peak_memory_is_bounded_and_independent_of_trials(self, monkeypatch):
        # the drift estimate's draws do not grow with trials; keep them small here
        monkeypatch.setattr(genmodel, "DRIFT_N_MC", 1000)
        config = IdealGenConfig(k=4, confidence_law=Uniform(0.55, 0.95), m_max=500, seed=12)
        concentration_experiment(config, [500], trials=16)  # first-call caches
        peaks = {}
        for trials in (500, 4000):
            tracemalloc.start()
            try:
                concentration_experiment(config, [500], trials=trials)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] < 1_000_000
        # Python's small objects move the peak by some hundred bytes; keeping even
        # one float64 per trial would add 3500 * 8 = 28 KB
        assert abs(peaks[4000] - peaks[500]) < 8_000, peaks

    def test_empty_schedule_fails_closed(self):
        config = IdealGenConfig(k=2, confidence_law=PointMass(0.7))
        with pytest.raises(ConfigurationError, match="m_schedule"):
            concentration_experiment(config, [], trials=4)

    def test_rows_are_order_independent(self):
        config = IdealGenConfig(k=2, confidence_law=Uniform(0.4, 0.8), seed=3)
        forward = concentration_experiment(config, [1, 5], trials=32)
        backward = concentration_experiment(config, [5, 1], trials=32)
        assert forward[0] == backward[1]
        assert forward[1] == backward[0]

    def test_csv_emission(self, tmp_path):
        config = RealisticGenConfig(
            k=3,
            answer_law=PointSimplex((0.5, 0.3, 0.2)),
            confidence_noise=PointMass(0.6),
            seed=4,
        )
        rows = concentration_experiment(config, [2, 4], trials=10)
        out = tmp_path / "conc.csv"
        write_concentration_csv(rows, out)
        with out.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 2
        assert set(parsed[0]) == {
            "m", "trials", "success_freq", "mean_mass_truth", "drift_1", "drift_2", "seed",
        }
        assert parsed[0]["m"] == "2"

    def test_trials_bound(self):
        config = IdealGenConfig(k=2, confidence_law=PointMass(0.7))
        with pytest.raises(ConfigurationError):
            concentration_experiment(config, [1], trials=0)
