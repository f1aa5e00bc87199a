"""Every number and count handed to an entry point goes through ``errors.number``
or ``errors.count``, so a bad one raises ``InvalidParam`` and nothing else."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birlab import genericity, maps, measure, mixing, observables, potential, projective, runner
from birlab.errors import ConfigInvalid, InvalidParam, count, number

PAIR = maps.make_henon(0.3, [-1.2, 0.0, 1.0])
POINT = projective.normalize([1, 2, 3])
SERIES = potential.QuasiPotentialSeries(PAIR, 1, 0.0)
DECAY = mixing.CorrelationSeries(entries=[(n, 2.0**-n, 1e-6, 0.0) for n in range(6)])


def _henon_config(**params):
    return runner.build_pair(runner.MapConfig(family="henon", params=params))


# each entry point with one slot for a number; the config path reads a JSON
# pair [re, im] as a complex number, so its bad value goes inside a pair
NUMBER_SLOTS = {
    "maps.make_henon a": lambda v: maps.make_henon(v, [-1.2, 0.0, 1.0]),
    "maps.make_henon p_coeffs": lambda v: maps.make_henon(0.3, [-1.2, v, 1.0]),
    "maps.make_cremona_composed A": lambda v: maps.make_cremona_composed([[v, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "maps.HomogeneousPolynomial.from_dict coefficient": lambda v: maps.HomogeneousPolynomial.from_dict(
        2, {(2, 0, 0): 1.0, (0, 1, 1): v}
    ),
    "projective.normalize": lambda v: projective.normalize([1, v, 0]),
    "observables.observable_catalog float": lambda v: observables.observable_catalog("affine-bump", {"radius": v}),
    "observables.observable_catalog complex": lambda v: observables.observable_catalog("affine-bump", {"cx": v}),
    "potential.chi_A_rows A": lambda v: potential.chi_A_rows(SERIES, POINT.coords[None], v),
    "mixing.theoretical_rate alpha": lambda v: mixing.theoretical_rate(PAIR, v),
    "runner.build_pair a": lambda v: _henon_config(a=[0.3, v]),
    "runner.build_pair p_coeffs": lambda v: _henon_config(p_coeffs=[-1.2, [0.0, v], 1.0]),
}
# each entry point with one slot for a count; every lag, depth and count is
# checked before any work, so a cloud is never needed
COUNT_SLOTS = {
    "genericity.indeterminacy_orbit n": lambda v: genericity.indeterminacy_orbit(PAIR, v),
    "genericity.bd_partial_sums N": lambda v: genericity.bd_partial_sums(PAIR, v),
    "maps.iterate n": lambda v: maps.iterate(PAIR, POINT, v),
    "maps.HomogeneousPolynomial.from_dict exponent": lambda v: maps.HomogeneousPolynomial.from_dict(
        2, {(v, 0, 2): 1.0}
    ),
    "maps.random_unitary seed": maps.random_unitary,
    "measure.approx_mu m": lambda v: measure.approx_mu(PAIR, v, 2000, 1),
    "measure.approx_mu count": lambda v: measure.approx_mu(PAIR, 1, v, 1),
    "measure.approx_T_plus_wedge_omega seed": lambda v: measure.approx_T_plus_wedge_omega(PAIR, 1, 2000, v),
    "mixing.c_sequence n_max": lambda v: mixing.c_sequence(PAIR, None, v, None),
    "mixing.two_sided_grid n_max": lambda v: mixing.two_sided_grid(PAIR, None, None, v, 0, None),
    "mixing.two_sided_grid m_max": lambda v: mixing.two_sided_grid(PAIR, None, None, 0, v, None),
    "mixing.split_lags N": mixing.split_lags,
    "mixing.decay_fit seed": lambda v: mixing.decay_fit(DECAY, seed=v),
    "potential.QuasiPotentialSeries n": lambda v: potential.QuasiPotentialSeries(PAIR, v, 0.0),
    "potential.QuasiPotentialSeries.calibrate n": lambda v: potential.QuasiPotentialSeries.calibrate(PAIR, v),
    "projective.sample_fs_rows count": lambda v: projective.sample_fs_rows(v, 1),
    "projective.sample_fs_rows seed": lambda v: projective.sample_fs_rows(1, v),
    "observables.observable_catalog int": lambda v: observables.observable_catalog("fs-coordinate", {"index": v}),
    "runner.build_pair unitary_seed": lambda v: runner.build_pair(
        runner.MapConfig(family="cremona_composed", params={"unitary_seed": v})
    ),
}
SLOTS = {**{k: ("number", f) for k, f in NUMBER_SLOTS.items()}, **{k: ("count", f) for k, f in COUNT_SLOTS.items()}}

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# the values every slot of a kind must reject, then more of the same sorts;
# only invalid counts are drawn, so no call allocates a huge array
LISTED = {"number": [math.nan, math.inf, -math.inf, 10**400, True, "1", [1, 2]], "count": [-1, 2.5, True, "3"]}
BAD = {
    "number": st.one_of(
        NON_FINITE,
        st.builds(complex, st.floats(allow_nan=False, allow_infinity=False), NON_FINITE),
        st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
        st.booleans(),
        st.text(),
        st.none(),
        st.lists(st.floats(), max_size=3),
    ),
    "count": st.one_of(st.integers(max_value=-1), st.floats(), st.booleans(), st.text(), st.none()),
}


@pytest.mark.parametrize("slot", sorted(SLOTS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_bad_number_or_count_raises_invalid_param_and_nothing_else(slot, data):
    kind, call = SLOTS[slot]
    # the config path wraps the same InvalidParam as ConfigInvalid
    error = ConfigInvalid if slot.startswith("runner.") else InvalidParam
    for value in LISTED[kind] + [data.draw(BAD[kind])]:
        with pytest.raises(error) as info:
            call(value)
        if error is ConfigInvalid:
            assert isinstance(info.value.__cause__, InvalidParam)


def test_the_checks_return_the_plain_value():
    assert count(np.int64(3), "n") == 3 and type(count(np.int64(3), "n")) is int
    assert count(1, "count", 1) == 1
    assert number(2, "x", float) == 2.0 and type(number(np.float64(2), "x", float)) is float
    assert number(np.complex128(1 + 2j), "z", complex) == 1 + 2j
    with pytest.raises(InvalidParam, match="count must be >= 1, not 0"):
        count(0, "count", 1)
    with pytest.raises(InvalidParam, match="x must be a real number"):
        number(1j, "x", float)
