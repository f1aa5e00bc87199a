from dataclasses import replace

import numpy as np
import pytest

from birlab.genericity import bd_partial_sums, indeterminacy_orbit
from birlab.maps import make_cremona_composed, make_henon, random_unitary
from birlab.projective import ProjPoint, fs_distance, fs_distance_rows, normalize


@pytest.fixture(scope="module")
def henon():
    return make_henon(0.3, [-1.2, 0.0, 1.0])


@pytest.fixture(scope="module")
def composed():
    return make_cremona_composed(random_unitary(7))


def test_henon_forward_orbit_constant_at_infinity(henon):
    orbit = indeterminacy_orbit(henon, 10, "fwd")
    assert orbit.flagged_at == [None]
    inf_pt = normalize([0, 1, 0])
    for step in orbit.steps:
        assert fs_distance(ProjPoint(step[0]), inf_pt) < 1e-12


def test_cremona_involution_all_flagged_at_zero():
    j = make_cremona_composed(np.eye(3))
    orbit = indeterminacy_orbit(j, 1, "fwd")
    assert orbit.flagged_at == [0, 0, 0]


def test_composed_orbits_unflagged(composed):
    for direction in ("fwd", "bwd"):
        orbit = indeterminacy_orbit(composed, 10, direction)
        assert orbit.flagged_at == [None, None, None]


def test_henon_report_exactly_zero(henon):
    rep = bd_partial_sums(henon, 20)
    assert rep.degenerate is False
    assert rep.degenerate_index is None
    assert rep.partial_sum_fwd == 0.0
    assert rep.partial_sum_bwd == 0.0
    for n, dist, term in rep.terms_fwd + rep.terms_bwd:
        assert dist == 1.0
        assert term == 0.0


def test_cremona_involution_degenerate_at_zero():
    j = make_cremona_composed(np.eye(3))
    rep = bd_partial_sums(j, 0)
    assert rep.degenerate is True
    assert rep.degenerate_index == 0
    assert rep.partial_sum_fwd == -np.inf


def test_composed_fixture_values(composed):
    # frozen fixed-seed regression values for the composed-map series
    rep = bd_partial_sums(composed, 15)
    assert rep.degenerate is False
    assert np.isfinite(rep.partial_sum_fwd) and np.isfinite(rep.partial_sum_bwd)
    assert abs(rep.partial_sum_fwd - (-1.231118686855943)) < 1e-9
    assert abs(rep.partial_sum_bwd - (-1.3794588421984144)) < 1e-9
    assert abs(rep.tail_bound_fwd - 5.995620497922703e-05) < 1e-12
    assert abs(rep.tail_bound_bwd - 8.951358356264341e-05) < 1e-12


def test_partial_sums_non_increasing(composed):
    prev_f, prev_b = np.inf, np.inf
    for N in range(0, 12):
        rep = bd_partial_sums(composed, N)
        assert rep.partial_sum_fwd <= prev_f + 1e-15
        assert rep.partial_sum_bwd <= prev_b + 1e-15
        prev_f, prev_b = rep.partial_sum_fwd, rep.partial_sum_bwd


def test_terms_bounded_by_geometric_envelope(composed):
    rep = bd_partial_sums(composed, 15)
    for terms, base in ((rep.terms_fwd, composed.d), (rep.terms_bwd, composed.delta)):
        d_min = min(dist for _, dist, _ in terms)
        assert 0 < d_min <= 1
        for n, dist, term in terms:
            assert 0 < dist <= 1
            assert term <= 0
            assert abs(term) <= base ** (-n) * abs(np.log(d_min)) + 1e-15


def test_tail_bound_formula(composed):
    N = 15
    rep = bd_partial_sums(composed, N)
    d_min = min(dist for _, dist, _ in rep.terms_fwd)
    expect = abs(np.log(d_min)) * composed.d ** (-N) / (1 - 1 / composed.d)
    assert abs(rep.tail_bound_fwd - expect) < 1e-15


def test_orbits_dying_after_step_zero():
    # each flagged source is alive at step 0 and lands on I(f) (fwd) or
    # I(f^-1) (bwd) at the step recorded in flagged_at
    pair = make_cremona_composed(np.array([[1, 0, 2], [1, 1, -2], [1, -1, 0]]))
    fwd = indeterminacy_orbit(pair, 4, "fwd")
    bwd = indeterminacy_orbit(pair, 4, "bwd")
    assert fwd.flagged_at == [1, 2, None]
    assert bwd.flagged_at == [1, 3, None]
    ones = normalize([1, 1, 1])
    for i, j in enumerate(fwd.flagged_at[:2]):
        for step in fwd.steps[j:]:
            assert fs_distance(ProjPoint(step[i]), ones) < 1e-15
    for orbit, targets in ((fwd, pair.ind_fwd), (bwd, pair.ind_bwd)):
        for i, j in enumerate(orbit.flagged_at):
            if j is None:
                continue
            frozen = orbit.steps[j][i]
            assert fs_distance_rows(frozen, targets).min() < 1e-15
            # every later step repeats the frozen point exactly
            for step in orbit.steps[j + 1 :]:
                assert np.array_equal(step[i], frozen)
    rep = bd_partial_sums(pair, 4)
    assert rep.degenerate is True
    assert rep.degenerate_index == 1


def test_rows_dead_at_step_zero_keep_their_bits(composed):
    # sources on I(f) itself: every one is dead at step 0, and its frozen
    # point is not real, so fixing its phase again would move it by rounding
    pair = replace(composed, ind_bwd=composed.ind_fwd)
    orbit = indeterminacy_orbit(pair, 6, "fwd")
    assert orbit.flagged_at == [0, 0, 0]
    start = orbit.steps[0]
    for step in orbit.steps[1:]:
        assert np.array_equal(step.view(np.uint64), start.view(np.uint64))
