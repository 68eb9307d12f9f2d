"""Lattices, spin bookkeeping, and the flattened single-particle mode space.

A mode is one single-particle degree of freedom: a lattice site paired with a
spin projection.  Spin quantities are stored doubled (2s and 2m_s) so every
phase exponent stays integer valued.  The unit-cell volume is fixed to 1, and
is no setting: it turns continuum deltas into Kronecker deltas and integrals
into plain site sums, so every identity checked downstream is exact and finite.

A lattice is the value (kind, size); its site and mode counts are computed
from those, so a size is checked against a cap before any site or mode list
is built.  All values here are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class SpinQuantum:
    """Spin magnitude, stored as ``twos_s = 2s``."""

    twos_s: int

    def __post_init__(self) -> None:
        if not isinstance(self.twos_s, int) or isinstance(self.twos_s, bool):
            raise ValueError(f"twos_s must be an integer, got {self.twos_s!r}")
        if self.twos_s < 0:
            raise ValueError(f"twos_s must be >= 0, got {self.twos_s}")

    @property
    def multiplicity(self) -> int:
        return self.twos_s + 1

    @property
    def is_half_integral(self) -> bool:
        return self.twos_s % 2 == 1

    def projections(self) -> tuple[int, ...]:
        """Allowed 2*m_s values, descending from +2s to -2s in steps of 2."""
        return tuple(range(self.twos_s, -self.twos_s - 1, -2))

    def is_allowed_projection(self, twos_ms: int) -> bool:
        return abs(twos_ms) <= self.twos_s and (twos_ms - self.twos_s) % 2 == 0


SIZE_KEYS = {"ring": "M", "grid2d": "L"}  # the config key of each lattice kind's size


@dataclass(frozen=True)
class Lattice:
    """Finite centrosymmetric site set with exact inversion and z-rotation maps,
    determined by its kind and size.

    kind "ring":   M = size sites (M even) at angles 2*pi*k/M, stored as 1-tuples (k,).
                   The rotation group is generated by one step of 2*pi/M.
    kind "grid2d": an odd L x L (L = size) block of integer points centred on
                   the origin, open boundaries; rotations are quarter turns.

    Evenness / oddness is required so that inversion r -> -r and the half-turn
    rotation are exact bijections on the site list.
    """

    kind: str
    size: int

    def __post_init__(self) -> None:
        if self.kind not in SIZE_KEYS:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.kind == "ring":
            if self.size < 2 or self.size % 2:
                raise ValueError(f"ring needs an even number of sites >= 2, got {self.size}")
        elif self.size < 1 or self.size % 2 == 0:
            raise ValueError(f"grid2d side must be odd and >= 1, got {self.size}")

    @classmethod
    def ring(cls, m: int) -> "Lattice":
        return cls("ring", m)

    @classmethod
    def grid2d(cls, l: int) -> "Lattice":
        return cls("grid2d", l)

    @cached_property
    def sites(self) -> tuple[tuple[int, ...], ...]:
        """Site coordinates: (k,) on a ring; (x, y) in lexicographic order on a grid."""
        if self.kind == "ring":
            return tuple((k,) for k in range(self.size))
        h = (self.size - 1) // 2
        return tuple((x, y) for x in range(-h, h + 1) for y in range(-h, h + 1))

    @property
    def n_sites(self) -> int:
        return self.size if self.kind == "ring" else self.size * self.size

    @cached_property
    def _site_index(self) -> dict[tuple[int, ...], int]:
        return {coords: i for i, coords in enumerate(self.sites)}

    def site_index(self, coords: tuple[int, ...]) -> int:
        try:
            return self._site_index[coords]
        except KeyError:
            raise ValueError(f"{coords} is not a site of this lattice") from None

    @property
    def steps_per_turn(self) -> int:
        """Number of elementary z-rotation steps in one full turn."""
        return self.n_sites if self.kind == "ring" else 4

    def invert_site(self, site: int) -> int:
        """Site index of -r; involutive, fixes the origin where present."""
        if self.kind == "ring":
            return (site + self.size // 2) % self.size
        x, y = self.sites[site]
        return self.site_index((-x, -y))

    def rotate_site_z(self, site: int, steps: int) -> int:
        """Site index of the z-rotation image of ``site`` by ``steps`` elementary steps.

        ring:   one step advances the site index by one (angle 2*pi/M).
        grid2d: one quarter turn maps (x, y) -> (y, -x).
        Half a turn coincides with invert_site on either lattice.
        """
        if self.kind == "ring":
            return (site + steps) % self.size
        x, y = self.sites[site]
        for _ in range(steps % 4):
            x, y = y, -x
        return self.site_index((x, y))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Unordered nearest-neighbour site pairs (each pair listed once)."""
        pairs: set[tuple[int, int]] = set()
        if self.kind == "ring":
            m = self.n_sites
            for k in range(m):
                a, b = k, (k + 1) % m
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
        else:
            for i, (x, y) in enumerate(self.sites):
                for nb in ((x + 1, y), (x, y + 1)):
                    j = self._site_index.get(nb)
                    if j is not None:
                        pairs.add((min(i, j), max(i, j)))
        return tuple(sorted(pairs))

    def site_distance(self, i: int, j: int) -> float:
        """Inter-site distance: arc steps on a ring, Euclidean on a grid."""
        if self.kind == "ring":
            d = abs(i - j)
            return float(min(d, self.size - d))
        (x1, y1), (x2, y2) = self.sites[i], self.sites[j]
        return math.hypot(x1 - x2, y1 - y2)

    @property
    def origin_site(self) -> int | None:
        """Index of the self-inverse origin site, or None (rings have none)."""
        if self.kind == "grid2d":
            return self.site_index((0, 0))
        return None

    def describe(self) -> dict:
        return {"kind": self.kind, SIZE_KEYS[self.kind]: self.size}


@dataclass(frozen=True)
class Mode:
    """One single-particle degree of freedom: (site index, 2*m_s)."""

    site: int
    twos_ms: int

    @property
    def sort_key(self) -> tuple[int, int]:
        # site-major, projection descending: the one total order all
        # fermionic signs in this package refer to.
        return (self.site, -self.twos_ms)

    def __str__(self) -> str:
        return f"({self.site},{self.twos_ms})"


def enumerate_modes(lattice: Lattice, spin: SpinQuantum) -> tuple[Mode, ...]:
    """All modes in the fixed global order (site-major, 2m_s descending)."""
    return tuple(
        Mode(i, tm) for i in range(lattice.n_sites) for tm in spin.projections()
    )


@dataclass(frozen=True)
class ModeSpace:
    """A lattice plus a spin: the index space every operator acts on."""

    lattice: Lattice
    spin: SpinQuantum

    @cached_property
    def modes(self) -> tuple[Mode, ...]:
        return enumerate_modes(self.lattice, self.spin)

    @cached_property
    def _index(self) -> dict[Mode, int]:
        return {m: i for i, m in enumerate(self.modes)}

    @property
    def n_modes(self) -> int:
        return self.lattice.n_sites * self.spin.multiplicity

    def index(self, mode: Mode) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise ValueError(f"mode {mode} not in this space") from None

    def mode_at(self, i: int) -> Mode:
        return self.modes[i]

    def contains(self, mode: Mode) -> bool:
        return mode in self._index

    def rotate_mode(self, mode: Mode, steps: int) -> Mode:
        return Mode(self.lattice.rotate_site_z(mode.site, steps), mode.twos_ms)
