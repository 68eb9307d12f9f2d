import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinstat.modes import Lattice, Mode, ModeSpace, SpinQuantum, enumerate_modes


def test_spin_projections_descending():
    assert SpinQuantum(0).projections() == (0,)
    assert SpinQuantum(1).projections() == (1, -1)
    assert SpinQuantum(2).projections() == (2, 0, -2)
    assert SpinQuantum(3).projections() == (3, 1, -1, -3)


@given(st.integers(min_value=0, max_value=8))
def test_projection_rule(twos_s):
    spin = SpinQuantum(twos_s)
    for tm in spin.projections():
        assert abs(tm) <= twos_s
        assert (tm - twos_s) % 2 == 0
    assert len(spin.projections()) == twos_s + 1


def test_spin_validation():
    with pytest.raises(ValueError):
        SpinQuantum(-1)
    with pytest.raises(ValueError):
        SpinQuantum(1.5)


def test_mode_counts():
    assert len(enumerate_modes(Lattice.ring(2), SpinQuantum(0))) == 2
    assert len(enumerate_modes(Lattice.grid2d(3), SpinQuantum(2))) == 27


def test_mode_order_site_major_projection_descending():
    modes = enumerate_modes(Lattice.ring(2), SpinQuantum(1))
    assert modes == (Mode(0, 1), Mode(0, -1), Mode(1, 1), Mode(1, -1))
    keys = [m.sort_key for m in modes]
    assert keys == sorted(keys)


@pytest.mark.parametrize("lattice", [Lattice.ring(2), Lattice.ring(6), Lattice.grid2d(3), Lattice.grid2d(5)])
def test_inversion_is_involutive(lattice):
    for i in range(lattice.n_sites):
        assert lattice.invert_site(lattice.invert_site(i)) == i


def test_inversion_examples():
    ring4 = Lattice.ring(4)
    assert ring4.invert_site(1) == 3
    grid = Lattice.grid2d(3)
    assert grid.sites[grid.invert_site(grid.site_index((1, 0)))] == (-1, 0)
    origin = grid.site_index((0, 0))
    assert grid.invert_site(origin) == origin
    assert grid.origin_site == origin
    assert ring4.origin_site is None


def test_rotation_examples():
    ring4 = Lattice.ring(4)
    assert ring4.rotate_site_z(0, 1) == 1
    grid = Lattice.grid2d(3)
    # quarter turn in the inverse-map convention sends (1, 0) to (0, -1)
    assert grid.sites[grid.rotate_site_z(grid.site_index((1, 0)), 1)] == (0, -1)
    ring6 = Lattice.ring(6)
    assert ring6.rotate_site_z(2, 3) == 5 == ring6.invert_site(2)


@pytest.mark.parametrize("lattice", [Lattice.ring(4), Lattice.ring(8), Lattice.grid2d(3)])
def test_rotation_full_turn_is_identity(lattice):
    per_turn = lattice.steps_per_turn
    for i in range(lattice.n_sites):
        assert lattice.rotate_site_z(i, per_turn) == i
        site = i
        for _ in range(per_turn):
            site = lattice.rotate_site_z(site, 1)
        assert site == i


@pytest.mark.parametrize("lattice", [Lattice.ring(4), Lattice.grid2d(5)])
def test_half_turn_equals_inversion(lattice):
    half = lattice.steps_per_turn // 2
    for i in range(lattice.n_sites):
        assert lattice.rotate_site_z(i, half) == lattice.invert_site(i)


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice.ring(3)  # odd rings have no half-turn site map
    with pytest.raises(ValueError):
        Lattice.ring(0)
    with pytest.raises(ValueError):
        Lattice.grid2d(2)  # even grids are not centrosymmetric
    with pytest.raises(ValueError):
        Lattice("ring", 3)
    with pytest.raises(ValueError):
        Lattice("triangle", 3)


def test_edges():
    assert Lattice.ring(2).edges == ((0, 1),)
    assert Lattice.ring(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    grid = Lattice.grid2d(3)
    assert len(grid.edges) == 12  # 2 * 3 * 2 in-row plus in-column pairs
    for i, j in grid.edges:
        assert grid.site_distance(i, j) == 1.0


def test_site_distance():
    ring6 = Lattice.ring(6)
    assert ring6.site_distance(0, 5) == 1.0
    assert ring6.site_distance(1, 4) == 3.0
    grid = Lattice.grid2d(3)
    a, b = grid.site_index((1, 1)), grid.site_index((-1, -1))
    assert grid.site_distance(a, b) == pytest.approx(8**0.5)


def test_mode_space_indexing():
    space = ModeSpace(Lattice.ring(2), SpinQuantum(1))
    for i, mode in enumerate(space.modes):
        assert space.index(mode) == i
        assert space.mode_at(i) == mode
    with pytest.raises(ValueError):
        space.index(Mode(5, 1))
    assert not space.contains(Mode(0, 0))
