import numpy as np
import pytest

from uplrec.errors import EstimationError, SingularityError
from uplrec.propensity import (
    FLOOR,
    PropensityTable,
    estimate_click_propensity,
    posterior_exposure,
)


class TestClickPropensity:
    def test_most_clicked_item_gets_one(self):
        theta = estimate_click_propensity([3, 12, 12, 1])
        assert theta[1] == 1.0 and theta[2] == 1.0

    def test_quarter_of_max_sqrt(self):
        theta = estimate_click_propensity([1, 4])
        assert theta[0] == pytest.approx(0.5, abs=1e-15)  # sqrt(1/4)

    def test_zero_count_gets_floor(self):
        theta = estimate_click_propensity([0, 10])
        assert theta[0] == 0.01

    def test_all_zero_counts_error(self):
        with pytest.raises(EstimationError):
            estimate_click_propensity([0, 0, 0])

    @pytest.mark.parametrize("counts", [[3, np.nan], [np.inf, 1], [2, -np.inf], [-1, -2],
                                        [4, -1]])
    def test_non_finite_or_negative_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="finite and non-negative") as info:
            estimate_click_propensity(counts)
        assert not isinstance(info.value, EstimationError)

    def test_scale_invariance(self):
        counts = np.array([2, 5, 9, 0, 13])
        a = estimate_click_propensity(counts)
        b = estimate_click_propensity(counts * 17)
        assert np.allclose(a, b, atol=1e-15)

    def test_power_must_be_positive(self):
        # more clicks, higher propensity: a power of 0 would make every
        # theta 1, a negative one would rank the items backwards
        theta = estimate_click_propensity([1, 2, 4, 8])
        assert np.all(np.diff(theta) > 0)

    # theta is a probability that the IPS weights divide by; each case checks
    # the estimate against the failure an out-of-range power or floor causes
    @pytest.mark.parametrize("holds", [
        lambda theta: np.all(np.isfinite(theta)),
        lambda theta: theta[2] > FLOOR,  # (2/16)^inf = 0 would floor it
        lambda theta: theta[0] > 0,
        lambda theta: np.all(theta <= 1),
        lambda theta: theta[0] == FLOOR,
    ], ids=["power_nan", "power_inf", "floor_zero", "floor_above_one", "floor_nan"])
    def test_settings_out_of_range_named(self, holds):
        theta = estimate_click_propensity([0, 1, 2, 16])
        assert holds(theta)


class TestPosteriorExposure:
    def test_always_exposed_item(self):
        assert posterior_exposure(1.0, 0.3) == 1.0

    def test_zero_relevance_keeps_prior(self):
        assert posterior_exposure(0.4, 0.0) == pytest.approx(0.4, abs=1e-15)

    def test_half_half(self):
        # enumerate the four (o, r) outcomes at theta=gamma=0.5:
        # P(o=1, c=0) = 0.25, P(c=0) = 0.75
        assert posterior_exposure(0.5, 0.5) == pytest.approx(1 / 3, abs=1e-15)

    def test_matches_outcome_enumeration(self):
        # independent oracle: enumerate (o, r) outcomes of the click model
        def enumerated(theta, gamma):
            num = den = 0.0
            for o in (0, 1):
                for r in (0, 1):
                    p = (theta if o else 1 - theta) * (gamma if r else 1 - gamma)
                    if o * r == 0:  # c = 0
                        den += p
                        if o == 1:
                            num += p
            return num / den

        for theta in np.linspace(0.05, 0.95, 13):
            for gamma in np.linspace(0.05, 0.95, 13):
                assert posterior_exposure(theta, gamma) == pytest.approx(
                    enumerated(theta, gamma), abs=1e-12)

    def test_monotone_nonincreasing_in_gamma(self):
        for theta in (0.2, 0.5, 0.9):
            vals = [posterior_exposure(theta, g) for g in np.linspace(0, 0.99, 40)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_upper_bound(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0.01, 0.99, 500)
        gamma = rng.uniform(0.0, 0.99, 500)
        post = posterior_exposure(theta, gamma)
        assert np.all(post <= theta / (1 - theta * gamma) + 1e-15)
        assert np.all((post >= 0) & (post <= 1))

    def test_singularity(self):
        with pytest.raises(SingularityError):
            posterior_exposure(1.0, 1.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            posterior_exposure(0.0, 0.5)
        with pytest.raises(ValueError):
            posterior_exposure(0.5, 1.5)


class TestPropensityTable:
    def test_from_counts_and_save(self, tmp_path):
        table = PropensityTable.from_click_counts([5, 0, 20, 3])
        assert table.theta_click[2] == 1.0
        assert table.theta_click[1] == 0.01  # zero clicks: the floor
        table.save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["theta_click.tsv"]
        text = (tmp_path / "theta_click.tsv").read_text()
        assert text == "0\t0.5\n1\t0.01\n2\t1\n3\t0.3872983346207417\n"
        assert [float(l.split("\t")[1]) for l in text.splitlines()] == list(table.theta_click)
