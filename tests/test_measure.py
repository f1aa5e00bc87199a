import numpy as np
import pytest

from birlab import measure
from birlab.errors import DegenerateCloud, InvalidParam
from birlab.maps import make_henon
from birlab.measure import (
    WeightedCloud,
    approx_T_plus_wedge_omega,
    approx_mu,
    effective_sample_size,
    invariance_defect,
)
from birlab.observables import observable_catalog
from birlab.projective import sample_fs_rows


@pytest.fixture(scope="module")
def henon():
    return make_henon(0.3, [-1.2, 0.0, 1.0])


def test_depth_zero_uniform_weights(henon):
    cloud = approx_T_plus_wedge_omega(henon, 0, 1000, 3)
    assert np.allclose(cloud.weights, 1.0 / 1000, atol=1e-15)
    assert cloud.raw_mean == 1.0
    assert abs(effective_sample_size(cloud) - 1000) < 1e-9
    mu0 = approx_mu(henon, 0, 1000, 3)
    assert np.allclose(mu0.weights, 1.0 / 1000, atol=1e-15)


def test_weights_normalized_and_nonnegative(henon):
    for cloud in (
        approx_T_plus_wedge_omega(henon, 3, 20000, 5),
        approx_mu(henon, 2, 20000, 5),
    ):
        assert abs(cloud.weights.sum() - 1.0) < 1e-12
        assert np.all(cloud.weights >= 0)
        assert cloud.points.shape == (20000, 3)


def test_determinism_byte_identical(henon):
    a = approx_mu(henon, 2, 5000, 11)
    b = approx_mu(henon, 2, 5000, 11)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)
    c = approx_mu(henon, 2, 5000, 12)
    assert not np.array_equal(a.weights, c.weights)


def test_t_plus_mass_within_three_sigma(henon):
    cloud = approx_T_plus_wedge_omega(henon, 2, 10**5, 7)
    assert abs(cloud.raw_mean - 1.0) <= 3 * cloud.raw_stderr
    # frozen fixed-seed regression values
    assert abs(cloud.raw_mean - 0.9837929072611183) < 1e-12
    assert abs(cloud.raw_stderr - 0.021280643220903107) < 1e-12


def test_mu_mass_within_three_sigma(henon):
    cloud = approx_mu(henon, 2, 10**5, 7)
    assert abs(cloud.raw_mean - 1.0) <= 3 * cloud.raw_stderr
    assert abs(cloud.raw_mean - 1.0759746442010314) < 1e-12


def test_validation_errors(henon):
    with pytest.raises(InvalidParam):
        approx_mu(henon, -1, 1000, 1)
    with pytest.raises(InvalidParam):
        approx_mu(henon, 1, 0, 1)


def test_negative_seeds_raise_a_typed_error(henon):
    # sample_fs_rows owns every FS draw, so each caller rejects the seed through it
    with pytest.raises(InvalidParam, match="seed"):
        sample_fs_rows(3, -1)
    with pytest.raises(InvalidParam, match="seed"):
        approx_mu(henon, 1, 1000, -1)
    with pytest.raises(InvalidParam, match="seed"):
        approx_T_plus_wedge_omega(henon, 1, 1000, -3)


def _broken_chain(broken):
    """``pullback_chain`` with its forms zeroed ("zero_form"), zeroed on all
    rows but one ("one_row"), or every row flagged dead ("all_dead")."""
    chain = measure.pullback_chain

    def patched(pair, Z0, m, direction="fwd"):
        H, alive = chain(pair, Z0, m, direction)
        if broken == "all_dead":
            return H, np.zeros_like(alive)
        H0 = np.zeros_like(H)
        if broken == "one_row":
            H0[0] = H[0]
        return H0, alive

    return patched


@pytest.mark.parametrize("broken", ["zero_form", "one_row", "all_dead"])
def test_cloud_without_positive_weight_under_the_clip_is_degenerate(henon, monkeypatch, broken):
    # without the check, these clouds came back with FS-uniform weights
    monkeypatch.setattr(measure, "pullback_chain", _broken_chain(broken))
    with pytest.raises(DegenerateCloud):
        approx_T_plus_wedge_omega(henon, 2, 10000, 3)
    with pytest.raises(DegenerateCloud):
        approx_mu(henon, 2, 10000, 3)


def test_effective_sample_size_extremes():
    pts = np.eye(3, dtype=complex)
    uniform = WeightedCloud(
        points=pts, weights=np.full(3, 1 / 3), depth_m=0, seed=0,
        clip_quantile=1.0, dropped_count=0, raw_mean=1.0, raw_stderr=0.0,
    )
    assert abs(effective_sample_size(uniform) - 3.0) < 1e-12
    point_mass = WeightedCloud(
        points=pts, weights=np.array([1.0, 0.0, 0.0]), depth_m=0, seed=0,
        clip_quantile=1.0, dropped_count=0, raw_mean=1.0, raw_stderr=0.0,
    )
    assert abs(effective_sample_size(point_mass) - 1.0) < 1e-12


def test_ess_fixture_value(henon):
    mu = approx_mu(henon, 1, 10**5, 7)
    assert abs(effective_sample_size(mu) - 3141.511290911081) < 1e-6


def test_invariance_defect_constant_is_zero(henon):
    const = observable_catalog("constant", {"value": 2.5})
    mu = approx_mu(henon, 1, 20000, 5)
    assert invariance_defect(mu, henon, const) == 0.0


def test_invariance_defect_positive_at_depth_zero(henon):
    coord = observable_catalog("fs-coordinate", {"index": 1})
    cloud = approx_mu(henon, 0, 20000, 5)
    assert invariance_defect(cloud, henon, coord) > 0.01


def test_invariance_defect_all_images_dead_is_degenerate(henon):
    # every point of this cloud is I(f) = [1:0:0], so no image survives the step
    ind = np.tile(henon.ind_fwd[0], (4, 1))
    cloud = WeightedCloud(
        points=ind, weights=np.full(4, 0.25), depth_m=0, seed=0,
        clip_quantile=1.0, dropped_count=0, raw_mean=1.0, raw_stderr=0.0,
    )
    with pytest.raises(DegenerateCloud):
        invariance_defect(cloud, henon, observable_catalog("constant"))


def test_invariance_defect_decreases_with_depth(henon):
    # frozen fixed-seed regression: deeper clouds are closer to invariant
    bump = observable_catalog("affine-bump", {"chart": 0, "cx": 0.0, "cy": 0.0, "radius": 2.0})
    coord = observable_catalog("fs-coordinate", {"index": 1})
    shallow = approx_mu(henon, 1, 10**5, 7)
    deep = approx_mu(henon, 6, 10**5, 7)
    d1b = invariance_defect(shallow, henon, bump)
    d6b = invariance_defect(deep, henon, bump)
    d1c = invariance_defect(shallow, henon, coord)
    d6c = invariance_defect(deep, henon, coord)
    assert d6b < d1b
    assert d6c < d1c
    assert abs(d1b - 0.08099529799383359) < 1e-12
    assert abs(d6b - 0.056673458630359025) < 1e-12


def test_clip_quantile_reported(henon):
    cloud = approx_mu(henon, 2, 5000, 9)
    assert cloud.clip_quantile == measure.CLIP_QUANTILE == 0.999
    assert cloud.depth_m == 2 and cloud.seed == 9
