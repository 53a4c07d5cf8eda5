import itertools

import numpy as np
import pytest

from torusgas.errors import ConfigError
from torusgas.lattice import (Configuration, TorusGeometry, block_density,
                              sample_product_measure, state_codes)
from torusgas.simulate import RngStream


def test_site_indexing_roundtrip():
    geom = TorusGeometry(3, 5)
    for idx in [0, 7, 63, 124]:
        assert geom.site_index(geom.site_coords(idx)) == idx
    assert geom.site_index([5, 0, 0]) == geom.site_index([0, 0, 0])
    assert geom.site_index([-1, 0, 0]) == geom.site_index([4, 0, 0])


_WRAPPING = {1: [[1], [-1], [2], [-3], [7]],
             2: [[1, 0], [-1, 0], [0, 1], [0, -1], [2, -3], [7, 0]],
             3: [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
                 [0, 0, -3], [7, 0, 1], [1, -1, 0]]}


@pytest.mark.parametrize("d, side", itertools.product((1, 2, 3), (2, 3, 4, 5, 32)))
def test_neighbor_table_is_the_literal_formula(d, side):
    # offsets that wrap more than once: 2 on the side-2 ring, [0, 0, -3] and
    # [7, 0, 1] on side 5
    geom = TorusGeometry(d, side)
    offsets = np.array(_WRAPPING[d])
    table = geom.neighbor_table(offsets)
    assert table.dtype == np.int32 and table.shape == (side ** d, len(offsets))
    coords = np.indices(geom.shape).reshape(d, -1)
    for j, z in enumerate(offsets):
        want = np.ravel_multi_index(np.mod(coords + z[:, None], side), geom.shape)
        assert np.array_equal(table[:, j], want)


def test_product_sampling_degenerate():
    geom = TorusGeometry(2, 6)
    rng = RngStream(1).generator()
    full = sample_product_measure(geom, 1.0, rng)
    assert full.particle_count == geom.n_sites
    empty = sample_product_measure(geom, 0.0, rng)
    assert empty.particle_count == 0


def test_particle_count_follows_the_occupancy():
    # the count was cached at construction and carried through copies, so
    # a later occupancy change left it stale
    geom = TorusGeometry(2, 4)
    config = Configuration(geom, np.zeros(geom.n_sites, dtype=np.uint8))
    copy = config.copy()
    config.occupancy[[1, 5, 6]] = 1
    copy.occupancy[3] = 1
    assert (config.particle_count, copy.particle_count) == (3, 1)


def test_product_sampling_density():
    geom = TorusGeometry(3, 32)
    draws = 100
    total = 0
    for r in range(draws):
        rng = RngStream(99, r).generator()
        total += sample_product_measure(geom, 0.5, rng).particle_count
    n = geom.n_sites * draws
    se = np.sqrt(0.25 / n)
    assert abs(total / n - 0.5) < 4 * se


def test_product_sampling_profile_grid_mismatch():
    geom = TorusGeometry(2, 4)
    rng = RngStream(0).generator()
    with pytest.raises(ConfigError):
        sample_product_measure(geom, np.full(9, 0.5), rng)


def test_block_density_trivials():
    geom = TorusGeometry(3, 5)
    full = Configuration(geom, np.ones(geom.n_sites, dtype=np.uint8))
    assert np.all(block_density(full, 1) == 1.0)
    assert np.all(block_density(Configuration(geom, np.zeros(geom.n_sites)), 2) == 0.0)


def test_block_density_single_particle():
    geom = TorusGeometry(3, 5)
    occ = np.zeros(geom.n_sites, dtype=np.uint8)
    occ[geom.site_index([0, 0, 0])] = 1
    field = block_density(Configuration(geom, occ), 1)
    assert field[geom.site_index([0, 0, 0])] == pytest.approx(1 / 27, abs=1e-15)
    assert field[geom.site_index([1, 1, 1])] == pytest.approx(1 / 27, abs=1e-15)
    assert field[geom.site_index([2, 0, 0])] == 0.0


def test_block_density_too_large():
    geom = TorusGeometry(2, 4)
    with pytest.raises(ConfigError):
        block_density(Configuration(geom, np.zeros(geom.n_sites)), 2)


def test_state_code_roundtrip():
    # all 512 occupancies of the 3x3 torus: the per-configuration code equals
    # the batched one, and no two occupancies share a code
    geom = TorusGeometry(2, 3)
    occ = np.array(list(itertools.product((0, 1), repeat=geom.n_sites)), dtype=np.uint8)
    codes = [Configuration(geom, row).state_code() for row in occ]
    assert codes == [int(c) for c in state_codes(occ)]
    assert sorted(codes) == list(range(512))
