"""Configurations, sectors, the coordinate change g and its inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymtransport import configspace as cs
from asymtransport.configspace import ModelParams


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(q=0.0, k=1.0)
    with pytest.raises(ValueError):
        ModelParams(q=0.5, k=-1.0)
    with pytest.raises(ValueError):
        ModelParams(q=0.5, k=1.0, sigma=-0.1)
    with pytest.raises(ValueError):
        ModelParams(q=0.5, k=1.0, L=1)
    with pytest.raises(ValueError):
        ModelParams(q=0.5, k=1.0, boundary="torus")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ModelParams(q=0.5, k=bad)
        with pytest.raises(ValueError):
            ModelParams(q=0.5, k=1.0, sigma=bad)


def test_model_params_edges():
    p = ModelParams(q=0.5, k=1.0, L=4)
    assert p.n_edges == 3
    assert p.edge_sites(3) == (3, 4)
    ring = ModelParams(q=0.5, k=1.0, L=4, boundary="periodic")
    assert ring.n_edges == 4
    assert ring.edge_sites(4) == (4, 1)
    with pytest.raises(IndexError):
        p.edge_sites(4)


def test_two_k_integer_flag():
    assert ModelParams(q=0.5, k=0.5).two_k_integer
    assert ModelParams(q=0.5, k=1.0).two_k_integer
    assert not ModelParams(q=0.5, k=0.7).two_k_integer


def test_discrete_config_validation():
    assert (cs.as_discrete_config([1, 0, 2]) == np.array([1, 0, 2])).all()
    with pytest.raises(ValueError):
        cs.as_discrete_config([1, -1])


def test_continuous_config_validation():
    assert cs.as_continuous_config([0.5, 0.0])[0] == 0.5
    with pytest.raises(ValueError):
        cs.as_continuous_config([-0.1, 0.2])


def test_tail_count_convention():
    eta = np.array([2, 0, 3])
    assert cs.tail_count(eta, 1) == 5
    assert cs.tail_count(eta, 2) == 3
    assert cs.tail_count(eta, 3) == 3
    assert cs.tail_count(eta, 4) == 0


def _g_inverse(z, sigma):
    """Reference inverse of g_map: ``x_i = log((1 - 2 sigma Z_(i+1)) /
    (1 - 2 sigma Z_i)) / (2 sigma)`` with Z_i the tail sums of z."""
    z = np.asarray(z, dtype=float)
    if sigma == 0.0:
        return z.copy()
    suffix = np.concatenate([np.cumsum(z[::-1])[::-1], [0.0]])
    top = 1.0 - 2.0 * sigma * suffix[1:]
    bot = 1.0 - 2.0 * sigma * suffix[:-1]
    assert (bot > 0.0).all() and (top > 0.0).all()
    return np.log(top / bot) / (2.0 * sigma)


def test_g_map_frozen():
    z = cs.g_map(np.array([1.0, 1.0]), 0.5)
    assert z[0] == pytest.approx(0.23254415793482963, rel=1e-12)
    assert z[1] == pytest.approx(0.6321205588285577, rel=1e-12)


def test_g_map_sigma_zero_is_identity():
    x = np.array([0.3, 1.2, 0.7])
    assert np.allclose(cs.g_map(x, 0.0), x)
    assert np.allclose(_g_inverse(x, 0.0), x)


@given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=2,
                max_size=6),
       st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_g_map_round_trip(xs, sigma):
    x = np.array(xs)
    z = cs.g_map(x, sigma)
    assert np.all(z >= 0)
    back = _g_inverse(z, sigma)
    assert np.allclose(back, x, atol=1e-9)


def test_sector_enumeration_count_and_index():
    sec = cs.enumerate_sector(3, 4)
    assert len(sec) == math.comb(4 + 2, 2)
    assert sec.configs.shape == (len(sec), 3)
    assert np.issubdtype(sec.configs.dtype, np.integer)
    # every row is a distinct configuration of the sector, and each row's
    # position is its index
    assert len({tuple(c) for c in sec.configs.tolist()}) == len(sec)
    for j, c in enumerate(sec.configs):
        assert sec.rank(c[None])[0] == j
        assert sum(c) == 4
    # first listed config puts everything on the first site
    assert tuple(sec.configs[0]) == (4, 0, 0)


def test_sector_configs_are_read_only():
    sec = cs.enumerate_sector(3, 2)
    with pytest.raises(ValueError):
        sec.configs[0, 0] = 1


def test_sector_rank_is_enumeration_order():
    for L in range(1, 7):
        for N in range(0, 7):
            sec = cs.enumerate_sector(L, N)
            assert sec.rank(sec.configs).tolist() == list(range(len(sec)))
            # any subset, in any order, keeps its positions
            rows = np.arange(len(sec))[::-3]
            assert sec.rank(sec.configs[rows]).tolist() == rows.tolist()


def test_sector_cap():
    # 4.8e10 states: the size check raises before anything is enumerated
    assert math.comb(51, 40) > cs.SECTOR_CAP
    with pytest.raises(ValueError, match="exceeds cap"):
        cs.enumerate_sector(12, 40)


def test_config_line_round_trip():
    eta = np.array([1, 0, 2])
    assert (cs.config_from_line(",".join(map(str, eta))) == eta).all()
    assert (cs.config_from_line(" 1,0,2,\n") == eta).all()
    with pytest.raises(ValueError):
        cs.config_from_line("1,-1")
