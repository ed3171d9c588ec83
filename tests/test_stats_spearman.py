"""Unit tests for ranking and Spearman correlation, validated vs scipy."""

import numpy as np
import pytest
import scipy.stats

from repro.errors import InsufficientDataError
from repro.stats.ranking import fractional_ranks
from repro.stats.spearman import p_value_for_rho, spearman

from spearman_oracle import fractional_ranks_array, spearman_matrix


class TestFractionalRanks:
    def test_no_ties(self):
        assert fractional_ranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_average(self):
        assert fractional_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert fractional_ranks([5, 5, 5]) == [2.0, 2.0, 2.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_rankdata(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 5, size=50).tolist()
        ours = fractional_ranks(data)
        theirs = scipy.stats.rankdata(data, method="average")
        assert ours == pytest.approx(theirs.tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_array_version_matches_scalar(self, seed):
        rng = np.random.default_rng(seed + 10)
        matrix = rng.integers(-1, 2, size=(40, 6))
        ranked = fractional_ranks_array(matrix)
        for col in range(6):
            assert ranked[:, col].tolist() == pytest.approx(
                fractional_ranks(matrix[:, col].tolist())
            )

    def test_array_rejects_1d(self):
        with pytest.raises(ValueError):
            fractional_ranks_array(np.array([1, 2, 3]))


class TestSpearmanPair:
    def test_perfect_positive(self):
        result = spearman([1, 2, 3, 4], [10, 20, 30, 40])
        assert result.rho == pytest.approx(1.0)
        assert result.p_value == pytest.approx(0.0, abs=1e-12)

    def test_perfect_negative(self):
        assert spearman([1, 2, 3], [3, 2, 1]).rho == pytest.approx(-1.0)

    def test_constant_input_gives_nan(self):
        import math

        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]).rho)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            spearman([1, 2], [2, 1])

    @pytest.mark.parametrize("seed", range(8))
    def test_rho_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-1, 2, size=60).tolist()
        y = (rng.integers(-1, 2, size=60) + np.array(x)).tolist()
        ours = spearman(x, y)
        theirs = scipy.stats.spearmanr(x, y)
        assert ours.rho == pytest.approx(theirs.statistic, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_p_value_matches_scipy(self, seed):
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=40)
        y = 0.4 * x + rng.normal(size=40)
        ours = spearman(x.tolist(), y.tolist())
        theirs = scipy.stats.spearmanr(x, y)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_strong_threshold(self):
        result = spearman([1, 2, 3, 4, 5], [1, 2, 3, 5, 4])
        assert result.strong(0.8)
        assert not result.strong(0.95)


class TestPValueHelper:
    def test_extreme_rho(self):
        assert p_value_for_rho(1.0, 100) == 0.0

    def test_too_few_points_is_nan(self):
        import math

        assert math.isnan(p_value_for_rho(0.5, 2))

    @pytest.mark.parametrize("rho,n", [(0.3, 30), (0.7, 10), (-0.5, 50)])
    def test_matches_scipy_t_sf(self, rho, n):
        import math

        df = n - 2
        t = rho * math.sqrt(df / (1 - rho * rho))
        expected = 2 * scipy.stats.t.sf(abs(t), df)
        assert p_value_for_rho(rho, n) == pytest.approx(expected, rel=1e-8)


class TestSpearmanMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairwise(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(-1, 2, size=(80, 5))
        rho = spearman_matrix(matrix)
        for i in range(5):
            for j in range(i + 1, 5):
                expected = spearman(
                    matrix[:, i].tolist(), matrix[:, j].tolist()
                ).rho
                assert rho[i, j] == pytest.approx(expected, abs=1e-10)

    def test_diagonal_is_one(self):
        rng = np.random.default_rng(3)
        rho = spearman_matrix(rng.integers(0, 3, size=(50, 4)))
        assert np.allclose(np.diag(rho), 1.0)

    def test_constant_column_yields_nan(self):
        matrix = np.array([[0, 1], [0, 2], [0, 3]])
        rho = spearman_matrix(matrix)
        assert np.isnan(rho[0, 1])

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        rho = spearman_matrix(rng.integers(-1, 2, size=(60, 6)))
        assert np.allclose(rho, rho.T, equal_nan=True)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            spearman_matrix(np.zeros((2, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            spearman_matrix(np.zeros(5))


class TestKSTest:
    """Validation of the from-scratch KS test (repro.stats.kstest)."""

    def test_identical_samples_have_zero_statistic(self):
        from repro.stats.kstest import ks_two_sample

        data = [1, 2, 2, 3, 5, 8]
        result = ks_two_sample(data, data)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)
        assert result.similar()

    def test_disjoint_samples_have_statistic_one(self):
        from repro.stats.kstest import ks_two_sample

        result = ks_two_sample([1, 2, 3], [10, 11, 12])
        assert result.statistic == 1.0
        assert not result.similar()

    @pytest.mark.parametrize("seed", range(6))
    def test_statistic_matches_scipy(self, seed):
        from repro.stats.kstest import ks_two_sample

        rng = np.random.default_rng(seed)
        a = rng.integers(1, 20, size=80).tolist()
        b = (rng.integers(1, 20, size=60) + seed % 3).tolist()
        ours = ks_two_sample(a, b)
        theirs = scipy.stats.ks_2samp(a, b, method="asymp")
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_p_value_close_to_scipy(self, seed):
        from repro.stats.kstest import ks_two_sample

        rng = np.random.default_rng(seed + 50)
        a = rng.normal(size=120).tolist()
        b = rng.normal(loc=0.2, size=90).tolist()
        ours = ks_two_sample(a, b)
        theirs = scipy.stats.ks_2samp(a, b, method="asymp")
        # Different finite-sample corrections: agree loosely.
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=0.08)

    def test_empty_sample_rejected(self):
        from repro.errors import InsufficientDataError
        from repro.stats.kstest import ks_two_sample

        with pytest.raises(InsufficientDataError):
            ks_two_sample([], [1, 2])

    def test_fig2_similarity_on_experiment(self, experiment):
        """The stable/dynamic report-count distributions should be far
        more similar to each other than to a shifted control."""
        from repro.analysis.dynamics import stable_dynamic_split
        from repro.stats.kstest import ks_two_sample

        split = stable_dynamic_split(experiment.frame)
        result = split.report_count_ks()
        control = ks_two_sample(
            split.stable_report_cdf._sorted,
            [n + 3 for n in split.dynamic_report_cdf._sorted],
        )
        assert result.statistic < control.statistic
