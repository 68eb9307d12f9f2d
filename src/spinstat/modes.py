"""Lattices, spin bookkeeping, and the flattened single-particle mode space.

A mode is one single-particle degree of freedom: a lattice site paired with a
spin projection.  Spin quantities are stored doubled (2s and 2m_s) so every
phase exponent stays integer valued.  The unit-cell volume is fixed to 1,
which turns continuum deltas into Kronecker deltas and integrals into plain
site sums, so every identity checked downstream is exact and finite.

All values here are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable


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


@dataclass(frozen=True)
class Lattice:
    """Finite centrosymmetric site set with exact inversion and z-rotation maps.

    kind "ring":   M sites (M even) at angles 2*pi*k/M, stored as 1-tuples (k,).
                   The rotation group is generated by one step of 2*pi/M.
    kind "grid2d": an odd L x L block of integer points centred on the origin,
                   open boundaries; rotations are quarter turns.

    Evenness / oddness is required so that inversion r -> -r and the half-turn
    rotation are exact bijections on the site list.
    """

    kind: str
    sites: tuple[tuple[int, ...], ...]
    cell_volume: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("ring", "grid2d"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.cell_volume <= 0:
            raise ValueError("cell_volume must be positive")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate sites")
        if self.kind == "ring":
            m = len(self.sites)
            if m < 2 or m % 2:
                raise ValueError(f"ring needs an even number of sites >= 2, got {m}")
            if self.sites != tuple((k,) for k in range(m)):
                raise ValueError("ring sites must be (0,), (1,), ..., (M-1,)")
        else:
            n = len(self.sites)
            l = math.isqrt(n)
            if l * l != n or l % 2 == 0:
                raise ValueError(f"grid2d needs an odd LxL site count, got {n}")
            h = (l - 1) // 2
            expected = tuple(
                (x, y) for x in range(-h, h + 1) for y in range(-h, h + 1)
            )
            if self.sites != expected:
                raise ValueError("grid2d sites must be the centred L x L block in lexicographic order")
        # inversion must close on the site list (centrosymmetry)
        for i in range(len(self.sites)):
            self.invert_site(i)

    @classmethod
    def ring(cls, m: int) -> "Lattice":
        return cls("ring", tuple((k,) for k in range(m)))

    @classmethod
    def grid2d(cls, l: int) -> "Lattice":
        if l < 1 or l % 2 == 0:
            raise ValueError(f"grid2d side must be odd and >= 1, got {l}")
        h = (l - 1) // 2
        return cls("grid2d", tuple((x, y) for x in range(-h, h + 1) for y in range(-h, h + 1)))

    @property
    def n_sites(self) -> int:
        return len(self.sites)

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
        coords = self.sites[site]
        if self.kind == "ring":
            m = self.n_sites
            return (coords[0] + m // 2) % m
        return self.site_index((-coords[0], -coords[1]))

    def rotate_site_z(self, site: int, steps: int) -> int:
        """Site index of the z-rotation image of ``site`` by ``steps`` elementary steps.

        ring:   one step advances the site index by one (angle 2*pi/M).
        grid2d: one quarter turn maps (x, y) -> (y, -x).
        Half a turn coincides with invert_site on either lattice.
        """
        if self.kind == "ring":
            m = self.n_sites
            return (self.sites[site][0] + steps) % m
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
            m = self.n_sites
            d = abs(self.sites[i][0] - self.sites[j][0])
            return float(min(d, m - d))
        (x1, y1), (x2, y2) = self.sites[i], self.sites[j]
        return math.hypot(x1 - x2, y1 - y2)

    @property
    def origin_site(self) -> int | None:
        """Index of the self-inverse origin site, or None (rings have none)."""
        if self.kind == "grid2d":
            return self.site_index((0, 0))
        return None

    def describe(self) -> dict:
        if self.kind == "ring":
            return {"kind": "ring", "M": self.n_sites}
        return {"kind": "grid2d", "L": math.isqrt(self.n_sites)}


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


def kron_delta(a: Mode, b: Mode) -> int:
    """Lattice realization of delta(r - r') * delta_{ms ms'} at unit cell volume."""
    return int(a == b)


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
        return len(self.modes)

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

    def measure_sum(self, f: Callable[[Mode], complex]) -> complex:
        """Sum of f over all modes weighted by the cell volume.

        This is the lattice realization of sum_{m_s} integral d^3r.
        """
        return self.lattice.cell_volume * sum(f(m) for m in self.modes)
