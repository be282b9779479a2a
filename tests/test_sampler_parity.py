"""The value iteration with its row cut against the full-row oracle, bit for bit."""

import numpy as np
import pytest
import vi_oracle

from ncsim.control import PlantSpec, design_lqg
from ncsim.engine import TWO_HOP_PLANTS
from ncsim.sampler import (ViConfig, _class_params, _ErrorGridMdp, _solve_threshold, build_table,
                           default_lambda_grid)

CLASSES = {
    "stable": TWO_HOP_PLANTS[0],
    "unstable": TWO_HOP_PLANTS[1],
    "a-0.8": PlantSpec(A=-0.8, B=1.0, Z=1.0, Qx=1.0, Qu=0.0),
    "a0": PlantSpec(A=0.0, B=1.0, Z=1.0, Qx=1.0, Qu=0.0),
    "a1": PlantSpec(A=1.0, B=1.0, Z=1.0, Qx=1.0, Qu=0.0),
    "a0.9_z2": PlantSpec(A=0.9, B=1.0, Z=2.0, Qx=1.0, Qu=0.0),
    "qu0.5": PlantSpec(A=0.75, B=1.0, Z=1.0, Qx=1.0, Qu=0.5),
    "weight3": PlantSpec(A=0.75, B=1.0, Z=1.0, Qx=1.0, Qu=0.0, weight=3.0),
}


def mdp_of(spec):
    return _ErrorGridMdp(*_class_params(spec, design_lqg(spec)), ViConfig())


@pytest.mark.parametrize("name", CLASSES)
def test_same_value_functions_and_thresholds_as_the_full_rows(name):
    spec = CLASSES[name]
    sol = design_lqg(spec)
    grid = default_lambda_grid()
    want_thresholds, want_ends = vi_oracle.solve_prices(grid, spec, sol)
    mdp, h = mdp_of(spec), None
    for lam, want, want_h in zip(grid, want_thresholds, want_ends):
        threshold, h = _solve_threshold(float(lam), mdp, h)
        assert threshold == want, lam
        assert np.array_equal(h, want_h), lam
    assert np.array_equal(build_table(grid, spec, sol).thresholds,
                          np.maximum.accumulate(want_thresholds))


def test_standard_classes_cut_rows_and_a_memoryless_class_none():
    for name, cut in (("stable", True), ("unstable", True), ("a0", False)):
        mdp = mdp_of(CLASSES[name])
        _, h = _solve_threshold(10.0, mdp)
        assert (mdp.backup(h, 10.0)[1].size < mdp.n // 2 + 1) == cut, name


@pytest.mark.parametrize("name", ["stable", "unstable", "a-0.8"])
def test_the_cut_keeps_every_state_that_may_stay_for_any_even_h(name):
    """Past the cut, staying costs at least as much as sending, also where h dips far below 0."""
    mdp = mdp_of(CLASSES[name])
    rng = np.random.default_rng(23)
    for scale in (1e-3, 1.0, 1e3):
        for lam in (0.0, 1.0, 10.0, 100.0):
            h = scale * rng.standard_normal(mdp.n)
            h = h + h[::-1]
            send, stay = mdp.backup(h, lam)
            full = mdp.stay_cost + mdp.expected_value(h, mdp.stay)
            assert np.array_equal(stay, full[:stay.size])
            assert np.all(full[stay.size:] >= send), (scale, lam)
