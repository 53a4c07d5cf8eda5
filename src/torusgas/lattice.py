"""Discrete torus geometry and occupancy configurations.

Sites of the side-N torus in d dimensions are indexed row-major by the flat
index of their coordinate tuple; occupancy is one byte per site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class TorusGeometry:
    dimension: int
    side: int

    def __post_init__(self):
        if self.side < 2:
            raise ConfigError("torus side must be at least 2")
        if self.dimension not in (1, 2, 3):
            raise ConfigError("dimension must be 1, 2 or 3")

    @property
    def n_sites(self) -> int:
        return self.side ** self.dimension

    @property
    def shape(self) -> tuple:
        return (self.side,) * self.dimension

    def site_index(self, coords) -> int:
        """Flat index of a coordinate tuple, wrapping periodically."""
        coords = np.mod(np.asarray(coords, dtype=np.int64), self.side)
        return int(np.ravel_multi_index(coords, self.shape))

    def site_coords(self, index: int) -> np.ndarray:
        return np.array(np.unravel_index(index, self.shape), dtype=np.int64)

    def neighbor_table(self, offsets: np.ndarray) -> np.ndarray:
        """(n_sites, k) flat indices of site + offset for each offset row,
        int32 where the site indices fit."""
        dtype = np.int32 if self.n_sites <= np.iinfo(np.int32).max else np.int64
        out = np.empty((self.n_sites, len(offsets)), dtype=dtype)
        d, side = self.dimension, self.side
        for j, z in enumerate(offsets):
            column = 0
            for axis, shift in enumerate(z):
                index = (np.arange(side) + int(shift)) % side * side ** (d - 1 - axis)
                column = column + index.astype(dtype).reshape((side,) + (1,) * (d - 1 - axis))
            out[:, j] = column.reshape(-1)
        return out


@dataclass
class Configuration:
    """0/1 occupancy of the torus."""

    geometry: TorusGeometry
    occupancy: np.ndarray

    def __post_init__(self):
        occ = np.ascontiguousarray(self.occupancy, dtype=np.uint8)
        if occ.shape != (self.geometry.n_sites,):
            raise ConfigError("occupancy must be flat with one entry per site")
        if np.any(occ > 1):
            raise ConfigError("occupancy values must be 0 or 1")
        self.occupancy = occ

    @property
    def particle_count(self) -> int:
        """Occupied sites, counted from the occupancy at every read."""
        return int(self.occupancy.sum())

    def copy(self) -> "Configuration":
        return Configuration(self.geometry, self.occupancy.copy())

    def as_grid(self) -> np.ndarray:
        return self.occupancy.reshape(self.geometry.shape)

    def state_code(self) -> int:
        """Occupancy packed into a single integer, bit x = site x."""
        code = 0
        for x in np.nonzero(self.occupancy)[0]:
            code |= 1 << int(x)
        return code


def site_probabilities(geometry: TorusGeometry, profile) -> np.ndarray:
    """Flat per-site probabilities rho(x/N), checked to lie in [0, 1].

    `profile` is a constant, a flat array of per-site probabilities, or a
    `Profile`, sampled at the sites by `Profile.sample_grid`.
    """
    n = geometry.n_sites
    if np.isscalar(profile):
        probs = np.full(n, float(profile))
    else:
        if hasattr(profile, "sample_grid"):
            profile = profile.sample_grid(geometry.side)
        probs = np.asarray(profile, dtype=np.float64).reshape(-1)
        if probs.shape != (n,):
            raise ConfigError("profile grid incompatible with torus size")
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise ConfigError("profile values must lie in [0, 1]")
    return probs


def sample_product_measure(geometry: TorusGeometry, profile, rng) -> Configuration:
    """Independent site occupancies; site x occupied with probability rho(x/N).

    `profile` is any input of `site_probabilities`.
    """
    probs = site_probabilities(geometry, profile)
    occ = (rng.random(geometry.n_sites) < probs).astype(np.uint8)
    return Configuration(geometry, occ)


def state_codes(occupancy: np.ndarray) -> np.ndarray:
    """State codes of [R, n_sites] occupancies, in the bit order of `state_code`."""
    return occupancy @ (np.int64(1) << np.arange(occupancy.shape[-1], dtype=np.int64))


def block_density(config: Configuration, radius: int) -> np.ndarray:
    """Mean occupancy over the cube of the given radius around every site.

    Returns a flat array over sites; integer box sums are formed first so the
    only rounding is the final division by the cube volume.
    """
    geom = config.geometry
    if 2 * radius + 1 > geom.side:
        raise ConfigError("block does not fit in the torus")
    grid = config.as_grid().astype(np.int64)
    for axis in range(geom.dimension):
        acc = grid.copy()
        for shift in range(1, radius + 1):
            acc += np.roll(grid, shift, axis=axis)
            acc += np.roll(grid, -shift, axis=axis)
        grid = acc
    volume = (2 * radius + 1) ** geom.dimension
    return (grid / volume).reshape(-1)
