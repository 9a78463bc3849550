import math

import pytest

from zetasphere.errors import BoundaryPoint, DomainError, InsufficientOrdinates, InvalidSpherePoint
from zetasphere.sphere import (
    INFINITY,
    NORTH_POLE,
    SOUTH_POLE,
    SectorMap,
    SpherePoint,
    accumulation_gaps,
    chordal_distance,
    covering_a,
    covering_b,
    cr_residual,
    is_infinity,
    sector_retraction,
    stereo_lift,
    stereo_project,
)

from reference_values import GAP_1_2, ZERO_ORDINATES


def circular_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


class TestStereo:
    def test_south_pole_to_origin(self):
        assert stereo_project(SOUTH_POLE) == 0

    def test_north_pole_to_infinity(self):
        assert is_infinity(stereo_project(NORTH_POLE))

    def test_lift_specials(self):
        assert stereo_lift(0j) == SOUTH_POLE
        assert stereo_lift(INFINITY) == NORTH_POLE

    def test_round_trip_half(self):
        p = stereo_lift(0.5 + 0j)
        assert p.constraint_residual() < 1e-12
        assert abs(stereo_project(p) - 0.5) < 1e-12

    def test_round_trip_500_points(self):
        for k in range(500):
            z = complex(10 * math.cos(0.41 * k) * (k % 7 + 0.1), 10 * math.sin(0.77 * k))
            p = stereo_lift(z)
            assert p.constraint_residual() < 1e-12
            assert abs(stereo_project(p) - z) <= 1e-12 * max(1.0, abs(z))

    def test_invalid_point_rejected(self):
        with pytest.raises(InvalidSpherePoint):
            stereo_project(SpherePoint(0.5 + 0j, 1.9))

    def test_equator_at_modulus_two(self):
        p = stereo_lift(2j)
        assert p.w0 == pytest.approx(1.0, abs=1e-15)


class TestCoveringA:
    def test_base_point(self):
        cp = covering_a(0.5 + 0j)
        assert cp.x0 == 0.5 and cp.phase == 0.0

    def test_fiber_is_integer_translations(self):
        assert covering_a(0.5 + 2.25j) == covering_a(0.5 + 7.25j)

    def test_x_moves_base_only(self):
        a, b = covering_a(0.1 + 0.4j), covering_a(0.9 + 0.4j)
        assert a.phase == b.phase and a.x0 != b.x0

    def test_phase_in_unit_interval(self):
        for y in (-3.7, -0.2, 0.0, 0.9999, 12.5):
            assert 0.0 <= covering_a(complex(0, y)).phase < 1.0


class TestSectorRetraction:
    ords = list(ZERO_ORDINATES[:5])

    def test_zero_ordinates_hit_offsets(self):
        for k, t in enumerate(self.ords):
            out = sector_retraction(complex(0.5, t), self.ords)
            assert out.real == 0.5
            assert out.imag == pytest.approx(self.ords[0] + k, abs=1e-12)

    def test_midpoint_of_second_gap(self):
        y = 0.5 * (self.ords[1] + self.ords[2])
        out = sector_retraction(complex(0.3, y), self.ords)
        assert out.imag == pytest.approx(self.ords[0] + 1.5, abs=1e-12)

    def test_identity_below_first_ordinate(self):
        assert sector_retraction(complex(0.2, 5.0), self.ords) == complex(0.2, 5.0)

    def test_odd_in_y(self):
        for y in (3.0, 17.5, 40.0):
            plus = sector_retraction(complex(0.5, y), self.ords).imag
            minus = sector_retraction(complex(0.5, -y), self.ords).imag
            assert minus == -plus

    def test_continuity_across_interior_boundary(self):
        t = self.ords[2]
        left = sector_retraction(complex(0.5, t - 1e-10), self.ords).imag
        right = sector_retraction(complex(0.5, t + 1e-10), self.ords).imag
        assert abs(left - right) < 1e-9

    def test_last_gap_scale_reused_beyond_catalog(self):
        t_last, t_prev = self.ords[-1], self.ords[-2]
        y = t_last + 1.0
        out = sector_retraction(complex(0.5, y), self.ords).imag
        expected = self.ords[0] + 4 + 1.0 / (t_last - t_prev)
        assert out == pytest.approx(expected, abs=1e-12)

    def test_strictly_increasing(self):
        samples = [0.0, 2.0, 13.9, 14.2, 20.0, 22.0, 26.0, 31.0, 33.0, 40.0]
        values = [sector_retraction(complex(0, y), self.ords).imag for y in samples]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_needs_two_increasing_ordinates(self):
        with pytest.raises(InsufficientOrdinates):
            sector_retraction(1j, [14.1])
        with pytest.raises(InsufficientOrdinates):
            sector_retraction(1j, [14.1, 14.1])


class TestCoveringB:
    ords = list(ZERO_ORDINATES[:5])

    def test_all_zeros_land_on_one_cover_point(self):
        cps = [covering_b(complex(0.5, t), self.ords) for t in self.ords]
        for cp in cps[1:]:
            assert cp.x0 == cps[0].x0
            assert circular_gap(cp.phase, cps[0].phase) < 1e-9

    def test_mirror_zeros_land_on_the_mirror_phase(self):
        up = covering_b(complex(0.5, self.ords[0]), self.ords)
        dn = [covering_b(complex(0.5, -t), self.ords) for t in self.ords]
        for cp in dn[1:]:
            assert circular_gap(cp.phase, dn[0].phase) < 1e-9
        assert circular_gap(up.phase, 1.0 - dn[0].phase) < 1e-9

    def test_real_axis_phase_from_fractional_part(self):
        cp = covering_b(0.37 + 0j, self.ords)
        assert cp.phase == 0.0 and cp.x0 == 0.37

    def test_continuity_across_sector_boundary(self):
        t = self.ords[1]
        left = covering_b(complex(0.5, t - 1e-10), self.ords)
        right = covering_b(complex(0.5, t + 1e-10), self.ords)
        assert circular_gap(left.phase, right.phase) < 1e-9


class TestCRResidual:
    ords = list(ZERO_ORDINATES[:5])

    def test_identity_map_is_holomorphic(self):
        r1, r2 = cr_residual(lambda x, y: (x, y), 0.3 + 2j)
        assert r1 < 1e-9 and r2 < 1e-9

    def test_sector_map_first_gap(self):
        gap = self.ords[1] - self.ords[0]
        mid = 0.5 * (self.ords[0] + self.ords[1])
        r1, r2 = cr_residual(SectorMap(self.ords), complex(0.5, mid))
        assert r1 == pytest.approx(abs(1 - 1 / gap), abs=1e-4)
        assert r1 == pytest.approx(abs(1 - 1 / GAP_1_2), abs=1e-4)
        assert r2 < 1e-9

    def test_unit_gap_sector_is_holomorphic(self):
        unit = SectorMap([5.0, 6.0, 7.0])
        r1, r2 = cr_residual(unit, complex(0.2, 5.5))
        assert r1 < 1e-9 and r2 < 1e-9

    def test_boundary_stencil_rejected(self):
        with pytest.raises(BoundaryPoint):
            cr_residual(SectorMap(self.ords), complex(0.5, self.ords[1]))

    def test_first_component_bounded_away_from_zero_on_sectors(self):
        sm = SectorMap(self.ords)
        for k in range(4):
            mid = 0.5 * (self.ords[k] + self.ords[k + 1])
            r1, _ = cr_residual(sm, complex(0.5, mid))
            assert r1 > 0.1


class TestAccumulation:
    def test_first_ten_strictly_decreasing(self):
        gaps = accumulation_gaps(ZERO_ORDINATES)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_tends_to_zero_scale(self):
        gaps = accumulation_gaps(ZERO_ORDINATES)
        assert gaps[-1] == pytest.approx(4.0 / math.hypot(0.5, ZERO_ORDINATES[-1]), rel=1e-3)

    def test_rejects_non_increasing(self):
        with pytest.raises(DomainError):
            accumulation_gaps([5.0, 5.0, 6.0])

    def test_chordal_distance_symmetry(self):
        assert chordal_distance(1j, 3 - 2j) == chordal_distance(3 - 2j, 1j)
