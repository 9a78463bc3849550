import gc
import json
import math
from pathlib import Path

import pytest

from zetasphere import zeros
from zetasphere.errors import DomainError, NoSignChange, PhaseJumpError, PoleError, RealnessViolation
from zetasphere.specfun import _LNPI, digamma
from zetasphere.zeta import completed_log_prefactor, zeta_eval, zeta_log_logderiv
from zetasphere.zeros import (
    Rectangle,
    ZeroRecord,
    count_zeros_rectangle,
    hardy_z,
    records_to_csv,
    records_to_json,
    refine_zero,
    scan_zeros,
    theta,
)

from reference_values import (
    ETA_DENOM_ZERO_IM,
    HARDY_Z,
    THETA,
    ZERO_ORDINATES,
    ZEROS_BELOW_100,
    ZEROS_BELOW_1000,
    ZETA_HALF,
)


class TestTheta:
    """theta(t) = Im log P(1/2 + it): the Stirling series from |t| = 10 on,
    log Gamma below."""

    @pytest.mark.parametrize("t, value", THETA)
    def test_matches_mpmath_siegeltheta(self, t, value):
        assert abs(theta(t) - value) <= 2e-14 * max(1.0, abs(value))

    @pytest.mark.parametrize("t, _", THETA)
    def test_odd_in_t(self, t, _):
        assert theta(-t) == -theta(t)

    def test_step_across_the_switch(self):
        below = theta(math.nextafter(zeros.THETA_SERIES_FROM, 0.0))
        assert abs(theta(zeros.THETA_SERIES_FROM) - below) < 5e-14

    @pytest.mark.parametrize("t", [10.0, 14.134725141734693, 31.5, 230.28102574805342, 999.9, 7005.06, 1e4])
    def test_series_agrees_with_log_gamma(self, t):
        value = theta(t)
        assert abs(value - completed_log_prefactor(complex(0.5, t)).imag) <= 5e-14 * max(1.0, abs(value))

    def test_log_gamma_is_taken_only_below_the_switch(self, monkeypatch):
        class LogGammaTaken(Exception):
            pass

        def fail(s):
            raise LogGammaTaken(s)

        monkeypatch.setattr(zeros, "completed_log_prefactor", fail)
        assert hardy_z(14.0) == pytest.approx(dict(HARDY_Z)[14.0], abs=1e-11)
        with pytest.raises(LogGammaTaken):
            hardy_z(5.0)


class TestZReal:
    """Hardy's Z(t), the real function of t the scan and plotdata take."""

    def test_value_at_zero(self):
        assert hardy_z(0.0) == pytest.approx(ZETA_HALF, rel=1e-12)

    def test_even_in_t(self):
        for t in (3.3, 14.2, 27.9):
            assert hardy_z(-t) == pytest.approx(hardy_z(t), rel=1e-12)

    def test_small_at_first_zero(self):
        assert abs(hardy_z(14.134725)) < 1e-6

    def test_sign_change_around_first_zero(self):
        assert hardy_z(14.0) * hardy_z(14.3) < 0

    @pytest.mark.parametrize("t, value", HARDY_Z)
    def test_matches_mpmath_siegelz(self, t, value):
        # past t ~ 945 the completed zeta on the line is 0 in doubles; Z is not
        assert hardy_z(t) == pytest.approx(value, abs=1e-11)

    def test_a_fault_in_zeta_breaks_the_realness_audit(self, monkeypatch):
        # a real offset of 1e-8 turns e^(i theta) zeta by 1e-8 sin theta off
        # the real axis, 10^2 times the audit's bound where |Z| is small
        evaluate = zeros.zeta_eval
        monkeypatch.setattr(zeros, "zeta_eval", lambda s: evaluate(s) + 1e-8)
        with pytest.raises(RealnessViolation):
            scan_zeros(30.0, 60.0, 0.25)


class TestRefine:
    def test_bisection_halves_to_the_tolerance(self, monkeypatch):
        calls = []
        kernel = zeros.hardy_z
        monkeypatch.setattr(zeros, "hardy_z", lambda t: calls.append(t) or kernel(t))
        rec = refine_zero((14.0, 14.25))
        # the two ends and 28 halvings: 0.25 / 2**28 < 1e-9 < 0.25 / 2**27
        assert len(calls) == 30
        assert rec.bracket[1] - rec.bracket[0] < 1e-9
        assert abs(rec.ordinate - ZERO_ORDINATES[0]) < 1e-9

    def test_given_ends_give_the_same_record(self, monkeypatch):
        bracket = (14.0, 14.25)
        ends = (hardy_z(14.0), hardy_z(14.25))
        calls = []
        kernel = zeros.hardy_z
        monkeypatch.setattr(zeros, "hardy_z", lambda t: calls.append(t) or kernel(t))
        rec = refine_zero(bracket, ends=ends)
        assert len(calls) == 28
        assert rec == refine_zero(bracket)

    def test_given_ends_of_one_sign_raise(self):
        ends = (hardy_z(13.0), hardy_z(13.5))
        with pytest.raises(NoSignChange):
            refine_zero((13.0, 13.5), ends=ends)

    def test_first_zero(self):
        rec = refine_zero((14.0, 14.3))
        assert rec.ordinate == pytest.approx(ZERO_ORDINATES[0], abs=1e-6)
        assert rec.bracket[1] - rec.bracket[0] < 1e-9
        assert rec.criterion == pytest.approx(1.0, abs=1e-6)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            refine_zero((13.0, 13.5))

    def test_zero_at_the_right_end_is_the_ordinate(self, monkeypatch):
        monkeypatch.setattr(zeros, "hardy_z", lambda t: pytest.fail("Z evaluated"))
        rec = refine_zero((14.0, 14.25), ends=(-0.5, 0.0))
        assert rec.ordinate == 14.25 and rec.bracket == (14.25, 14.25)

    def test_zero_at_a_midpoint_is_the_ordinate(self, monkeypatch):
        # Z is exactly 0 at the first midpoint, 14.125
        monkeypatch.setattr(zeros, "hardy_z", lambda t: t - 14.125)
        rec = refine_zero((14.0, 14.25), ends=(-0.125, 0.125))
        assert rec.ordinate == 14.125 and rec.bracket == (14.125, 14.125)

    def test_negative_bracket_mirrors(self):
        rec = refine_zero((-14.3, -14.0))
        assert rec.ordinate == pytest.approx(-ZERO_ORDINATES[0], abs=1e-6)
        assert rec.criterion == pytest.approx(1.0, abs=1e-6)


class TestScan:
    def test_window_10_30(self):
        records = scan_zeros(10.0, 30.0, 0.25)
        assert len(records) == 3
        for rec, target in zip(records, ZERO_ORDINATES[:3]):
            assert rec.ordinate == pytest.approx(target, abs=1e-6)

    def test_bracket_ends_come_from_the_grid(self, monkeypatch):
        calls = []
        kernel = zeros.hardy_z
        monkeypatch.setattr(zeros, "hardy_z", lambda t: calls.append(t) or kernel(t))
        assert len(scan_zeros(10.0, 30.0, 0.25)) == 3
        # 81 grid points, then 28 halvings per bracket
        assert len(calls) == 81 + 3 * 28

    def test_close_sign_changes_in_neighbouring_cells_are_two_zeros(self, monkeypatch):
        # Z changes sign 4e-9 below and above the grid point 1.0, so the
        # cells either side of it each hold one zero, 8e-9 from the other
        monkeypatch.setattr(zeros, "hardy_z", lambda t: -1.0 if abs(t - 1.0) < 4e-9 else 1.0)
        records = scan_zeros(0.0, 2.0, 0.25)
        assert len(records) == 2
        assert records[0].ordinate == pytest.approx(1.0 - 4e-9, abs=zeros.BRACKET_TOLERANCE)
        assert records[1].ordinate == pytest.approx(1.0 + 4e-9, abs=zeros.BRACKET_TOLERANCE)

    def test_exact_zero_at_a_grid_point(self, monkeypatch):
        # the bracket opens to the right neighbour only and closes on the point
        monkeypatch.setattr(zeros, "hardy_z", lambda t: t - 1.0)
        records = scan_zeros(0.0, 2.0, 0.25)
        assert [(r.ordinate, r.bracket) for r in records] == [(1.0, (1.0, 1.0))]

    def test_empty_below_first_zero(self):
        assert scan_zeros(0.0, 10.0, 0.25) == []

    def test_step_halving_stability(self):
        coarse = scan_zeros(10.0, 30.0, 0.25)
        fine = scan_zeros(10.0, 30.0, 0.125)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.ordinate - b.ordinate) < 1e-9

    def test_full_range_to_1000(self):
        assert len(scan_zeros(0.0, 1000.0, 0.25)) == ZEROS_BELOW_1000

    def test_ordinates_to_450_match_the_frozen_mpmath_table(self):
        # 235 ordinates from mpmath.zetazero at 30 digits; a 1e-8 error in
        # the eta sum moves the scanned ones by up to 6e-9
        table = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "zeros_450.txt"
        lines = table.read_text(encoding="ascii").splitlines()
        expected = [float(line) for line in lines if not line.startswith("#")]
        records = scan_zeros(0.0, 450.0, 0.25)
        assert len(records) == len(expected) == 235
        for rec, ordinate in zip(records, expected):
            assert abs(rec.ordinate - ordinate) <= zeros.BRACKET_TOLERANCE

    @pytest.mark.parametrize(
        "t0, t1, step, count", [(0.0, 14.2, 0.25, 1), (0.0, 21.1, 1.0, 2), (14.0, 14.2, 0.25, 1)]
    )
    def test_a_last_cell_shorter_than_the_step_ends_at_t1(self, t0, t1, step, count):
        # 14.1347 lies in the last, short cell of each scan
        records = scan_zeros(t0, t1, step)
        assert len(records) == count
        assert records[0].ordinate == pytest.approx(ZERO_ORDINATES[0], abs=1e-6)

    def test_a_whole_step_scan_adds_no_grid_point(self, monkeypatch):
        calls = []
        monkeypatch.setattr(zeros, "hardy_z", lambda t: calls.append(t) or 1.0)
        scan_zeros(0.1, 0.7, 0.1)
        assert calls == [0.1 + i * 0.1 for i in range(7)]
        calls.clear()
        scan_zeros(0.1, 0.75, 0.1)
        assert calls == [0.1 + i * 0.1 for i in range(7)] + [0.75]

    def test_range_validation(self):
        with pytest.raises(DomainError):
            scan_zeros(-1.0, 10.0, 0.25)
        with pytest.raises(DomainError):
            scan_zeros(0.0, 2000.0, 0.25)
        with pytest.raises(DomainError):
            scan_zeros(0.0, 10.0, 0.005)


class TestRectangleCount:
    def test_full_strip_to_30(self):
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 30.0)) == 3

    def test_full_strip_to_10_empty(self):
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 10.0)) == 0

    def test_half_rectangle_excluding_line(self):
        assert count_zeros_rectangle(Rectangle(0.6, 1.4, 10.0, 30.0)) == 0

    @pytest.mark.parametrize("x_min, x_max", [(-0.5, 0.5), (0.5, 1.5)])
    def test_edge_on_the_line(self, x_min, x_max):
        # the edge on the line is a right piece either way, so the contour
        # enters and leaves Re s >= 1/2 only in the first case
        assert count_zeros_rectangle(Rectangle(x_min, x_max, 15.0, 20.0)) == 0

    def test_count_matches_scan(self):
        for t_max in (10.0, 30.0):
            scan_count = len(scan_zeros(1.0, t_max, 0.25))
            wind_count = count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, t_max))
            assert scan_count == wind_count

    def test_count_matches_scan_to_100(self):
        scan_count = len(scan_zeros(1.0, 100.0, 0.25))
        assert scan_count == ZEROS_BELOW_100
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 100.0)) == scan_count

    def test_count_matches_scan_past_452(self):
        # the window crosses t ~ 452, where sin(pi s/2) in the reflected
        # factor of the criterion points leaves double range
        rect = Rectangle(-0.5, 1.5, 440.2, 470.3)
        assert len(scan_zeros(440.2, 470.3, 0.25)) == count_zeros_rectangle(rect) == 20

    @pytest.mark.parametrize("t_max, count", [(2000.5, 1518), (5000.3, 4521)])
    def test_count_past_1000(self, t_max, count):
        # N(T) from mpmath.nzeros; the scan stops at t = 1000, the count does not
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, t_max)) == count

    def test_each_strip_piece_is_integrated_once(self, monkeypatch):
        # a left strip piece's mirror is a right piece reversed: the bottom
        # and top edges' [-0.1, 1/2] here, and the whole left edge of a
        # contour inside the strip
        calls = []
        simpson = zeros._simpson_edge
        monkeypatch.setattr(zeros, "_simpson_edge", lambda *args: calls.append(args) or simpson(*args))
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 30.0)) == 3
        assert len(calls) == 2
        calls.clear()
        assert count_zeros_rectangle(Rectangle(0.25, 0.75, 1.0, 30.0)) == 3
        assert len(calls) == 3

    def test_asymmetric_rectangle_to_100(self):
        # -0.25 and 1.75 are not mirror images; only the strip pieces of the
        # horizontal edges share their nodes
        assert count_zeros_rectangle(Rectangle(-0.25, 1.75, 1.0, 100.0)) == ZEROS_BELOW_100

    def test_left_nodes_come_from_their_mirror_images(self, monkeypatch):
        calls = _count_evaluations(monkeypatch)
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 30.0)) == 3
        assert all(s.real >= 0.5 for s in calls)
        assert len(set(calls)) == len(calls)
        # the count visits 30 contour nodes here, all on the horizontal
        # edges and 2 of them on the line
        assert len(calls) <= (30 + 2) // 2

    def test_count_to_100_takes_at_most_12_evaluations(self, monkeypatch):
        # the vertical edges are exact, so only the horizontal edges take
        # nodes: the phase tracking's on 1/2 <= Re s < 1.1 and the exact
        # pieces' ends at 1.1 and 1.5
        calls = _count_evaluations(monkeypatch)
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 100.0)) == ZEROS_BELOW_100
        assert len(calls) <= 12
        assert {s.imag for s in calls} == {1.0, 100.0}

    def test_strip_contour_to_100_takes_at_most_629_evaluations(self, monkeypatch):
        # every edge lies inside the strip; the left edge is the right one's
        # change negated, so the nodes are the right edge's and the two
        # horizontal pieces'
        calls = _count_evaluations(monkeypatch)
        assert count_zeros_rectangle(Rectangle(0.25, 0.75, 1.0, 100.0)) == ZEROS_BELOW_100
        assert len(calls) <= 629

    def test_asymmetric_contour_shares_its_strip_nodes(self, monkeypatch):
        # the left pieces' quadrature runs on the nodes of the right pieces;
        # only the ends of the exact pieces at 1.25 and 1.75 are extra
        calls = _count_evaluations(monkeypatch)
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 100.0)) == ZEROS_BELOW_100
        symmetric = len(calls)
        calls.clear()
        assert count_zeros_rectangle(Rectangle(-0.25, 1.75, 1.0, 100.0)) == ZEROS_BELOW_100
        assert len(calls) <= symmetric + 4

    def test_exact_edges_lie_where_arg_zeta_stays_below_pi(self):
        # |arg zeta(s)| <= log zeta(Re s), and the continuous log of the
        # completed zeta is its principal log only while that is below pi
        assert math.log(zeta_eval(zeros.EXACT_EDGE_SIGMA).real) < math.pi

    @pytest.mark.parametrize("x", [1.5, -0.25, zeros.EXACT_EDGE_SIGMA])
    def test_exact_edge_equals_its_quadrature(self, x, monkeypatch):
        # an edge left of the line is taken at its mirror image; a tight
        # tolerance only adds nodes, since the change is exact once the
        # branch is
        x = max(x, 1 - x)
        monkeypatch.setattr(zeros, "QUADRATURE_TOLERANCE", 1e-8)
        za, zb = complex(x, 1.0), complex(x, 100.0)
        exact = zeta_log_logderiv(zb)[0] - zeta_log_logderiv(za)[0]
        quadrature = zeros._simpson_edge(zeta_log_logderiv, za, zb)
        assert abs(exact - quadrature) <= 1e-6

    @pytest.mark.parametrize(
        "za, zb",
        [(complex(0.5, y), complex(zeros.EXACT_EDGE_SIGMA, y)) for y in (1.0, 14.0, 230.28102574805342, 500.0, 999.9)]
        + [(complex(0.5, 1.0), complex(0.5, 999.9)), (complex(1.5, 900.0), complex(1.5, 999.9))],
    )
    def test_gamma_factor_change_is_exact(self, za, zb, monkeypatch):
        # log P, P(s) = pi^(-s/2) Gamma(s/2), is continuous on Re s > 0, so
        # its change along a piece is the integral of P'/P = psi(s/2)/2 -
        # ln(pi)/2; up the line that change is theta(999.9) - theta(1)
        def gamma_factor(w):
            return completed_log_prefactor(w), 0.5 * digamma(w / 2) - 0.5 * _LNPI

        monkeypatch.setattr(zeros, "QUADRATURE_TOLERANCE", 1e-12)
        exact = completed_log_prefactor(zb) - completed_log_prefactor(za)
        assert abs(exact - zeros._simpson_edge(gamma_factor, za, zb)) <= 1e-8

    def test_gamma_factor_change_up_the_line_is_exact_at_the_default_tolerance(self):
        # theta(999.9) - theta(1) is ~2036 rad, tracked in wrapped steps
        def gamma_factor(w):
            return completed_log_prefactor(w), 0.5 * digamma(w / 2) - 0.5 * _LNPI

        za, zb = complex(0.5, 1.0), complex(0.5, 999.9)
        exact = completed_log_prefactor(zb) - completed_log_prefactor(za)
        assert abs(exact - zeros._simpson_edge(gamma_factor, za, zb)) <= 1e-9

    @pytest.mark.parametrize("y", [1.0, 14.0, 230.28102574805342, 999.9])
    def test_strip_piece_is_an_exact_log_difference(self, y):
        # the real part is log |zeta| at the end less at the start, and the
        # phase differs from the principal logs' difference by whole turns
        za, zb = complex(zeros.EXACT_EDGE_SIGMA, y), complex(0.5, y)
        (la, _), (lb, _) = zeta_log_logderiv(za), zeta_log_logderiv(zb)
        piece = zeros._simpson_edge(zeta_log_logderiv, za, zb)
        assert piece.real == lb.real - la.real
        turns = (piece.imag - (lb.imag - la.imag)) / (2 * math.pi)
        assert abs(turns - round(turns)) <= 1e-12

    def test_edge_whose_quarter_steps_pass_the_guard_is_still_split(self, monkeypatch):
        # the strip piece of the top edge of a rectangle-workload input
        # (seed 1410), at the default tolerance against a tight one
        y = 230.28102574805342
        za, zb = complex(zeros.EXACT_EDGE_SIGMA, y), complex(0.5, y)
        default = zeros._simpson_edge(zeta_log_logderiv, za, zb)
        monkeypatch.setattr(zeros, "QUADRATURE_TOLERANCE", 1e-9)
        tight = zeros._simpson_edge(zeta_log_logderiv, za, zb)
        assert abs(default - tight) <= 1e-5

    def test_end_to_end_phase_guard_splits_a_piece_its_quarter_steps_pass(self):
        # phase (pi - 0.1) x on [0, 1]: each quarter step is below pi/4 and
        # Simpson's rule is exact, so only the end-to-end step splits the
        # piece, down to quarters: 3 + 2 nodes, then 2 per segment over 2
        # halves and 4 quarters; without the guard it would stop at 5
        slope = math.pi - 0.1
        calls = []

        def linear_phase(z):
            calls.append(z)
            return complex(0.0, slope * z.real), complex(0.0, slope)

        integral = zeros._simpson_edge(linear_phase, 0j, 1 + 0j)
        assert len(calls) == 17
        assert abs(integral - 1j * slope) <= 1e-12

    def test_simpson_check_sees_whole_turns_the_phase_steps_wrap_away(self):
        # phase (8 pi + 0.1) x on [0, 1]: every quarter step is 2 pi + 0.025
        # and wraps to 0.025, the end-to-end step to 0.1, so only Simpson's
        # rule, exact for the constant derivative, sees the four turns; the
        # guard then splits down to 64 segments of 4 steps each
        slope = 8 * math.pi + 0.1
        calls = []

        def linear_phase(z):
            calls.append(z)
            return complex(0.0, slope * z.real), complex(0.0, slope)

        integral = zeros._simpson_edge(linear_phase, 0j, 1 + 0j)
        assert abs(integral - 1j * slope) <= 1e-12
        assert len(calls) == 64 * 4 + 1

    @pytest.mark.parametrize("x_max", [20.0, 30.0, 50.0, 200.0])
    def test_wide_rectangle_to_100(self, x_max):
        # the nearest zero is 1.17 from these contours; an end-to-end phase
        # step over a long segment once aliased a winding near 2 pi and
        # raised PhaseJumpError
        assert count_zeros_rectangle(Rectangle(-0.5, x_max, 1.0, 100.0)) == ZEROS_BELOW_100

    def test_zero_at_a_mirror_node_names_the_contour_point(self, monkeypatch):
        def zero_right_edge(s):
            if s.real == 1.5:
                raise DomainError(f"zeta is 0 at s = {s}")

        _hook_evaluations(monkeypatch, zero_right_edge)
        with pytest.raises(DomainError, match=r"s = \(-0\.5\+"):
            count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 30.0))

    def test_pole_at_a_mirror_node_is_the_contour_points_pole(self):
        # the bottom edge's midpoint sits 1e-13 above the pole at 0; its
        # mirror image sits next to the pole at 1, which is off the contour
        with pytest.raises(PoleError) as info:
            count_zeros_rectangle(Rectangle(-0.25, 0.25, 1e-13, 1.0))
        assert info.value.point == 0.0

    @pytest.mark.parametrize("x_min, x_max, pole", [(-0.3, 0.25, 0.0), (0.3, 1.3, 1.0)])
    def test_bottom_edge_next_to_a_pole_names_it(self, x_min, x_max, pole):
        # no node of these contours lands within 1e-12 of the pole
        with pytest.raises(PoleError) as info:
            count_zeros_rectangle(Rectangle(x_min, x_max, 1e-13, 1.0))
        assert info.value.point == pole

    @pytest.mark.parametrize(
        "x_min, x_max, pole, piece",
        [(-0.3, 0.25, 0.0, 0.35), (0.3, 1.3, 1.0, 0.6), (-0.5, 1.5, 0.0, 0.6)],
    )
    def test_bottom_edge_closer_to_a_pole_than_the_quadrature_resolves(
        self, x_min, x_max, pole, piece, monkeypatch
    ):
        # the strip piece over the pole is halved to piece / 2^30 at most; a
        # segment that long spans pi/4 seen from 1.21 times its length
        reach = piece / 2**zeros.QUADRATURE_MAX_DEPTH / (2 * math.tan(math.pi / 8))
        calls = _count_evaluations(monkeypatch)
        with pytest.raises(PoleError) as info:
            count_zeros_rectangle(Rectangle(x_min, x_max, 0.99 * reach, 1.0))
        assert info.value.point == pole
        assert calls == []
        assert count_zeros_rectangle(Rectangle(x_min, x_max, 1.01 * reach, 1.0)) == 0

    @pytest.mark.parametrize("x_min, x_max", [(-0.5, 1e10), (-1e10, 1.5)])
    def test_exact_pieces_do_not_widen_the_reach_of_a_pole(self, x_min, x_max):
        # the bottom edge's exact piece is 1e10 long, but it takes no
        # quadrature, and the poles lie at least 0.1 from it
        assert count_zeros_rectangle(Rectangle(x_min, x_max, 1.0, 100.0)) == ZEROS_BELOW_100

    def test_count_leaves_no_reference_cycles(self):
        # a node cache kept alive by a cycle would outlive the call until a
        # full collection
        gc.collect()
        gc.disable()
        try:
            count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 30.0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_validation(self):
        with pytest.raises(DomainError):
            Rectangle(1.0, 0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            Rectangle(0.0, 1.0, -1.0, 2.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="huge-int")])
    @pytest.mark.parametrize("field", ["x_min", "x_max", "y_min", "y_max"])
    def test_non_finite_edge_is_named(self, field, value, monkeypatch):
        # the error names the argument, before any node blames zeta
        edges = {"x_min": -0.5, "x_max": 1.5, "y_min": 1.0, "y_max": 30.0, field: value}
        calls = _count_evaluations(monkeypatch)
        with pytest.raises(DomainError, match=f"finite {field}"):
            count_zeros_rectangle(Rectangle(**edges))
        assert calls == []

    def test_nearby_zero_still_resolved(self):
        # a zero 1e-4 below the top edge is resolvable and counted
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, ZERO_ORDINATES[0] + 1e-4)) == 1

    def test_boundary_through_zero_raises(self):
        # top edge within 1e-10 of the first zero defeats refinement
        with pytest.raises(PhaseJumpError):
            count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, ZERO_ORDINATES[0] + 1e-10))

    @pytest.mark.parametrize("y_min, y_max, count", [(950.0, 960.0, 9), (990.0, 1000.0, 9)])
    def test_count_matches_scan_past_underflow(self, y_min, y_max, count):
        # completed_zeta is exactly 0 on these boundaries, past t ~ 945; the
        # phase and log-derivative are taken in log space
        rect = Rectangle(-0.5, 1.5, y_min, y_max)
        assert len(scan_zeros(y_min, y_max, 0.25)) == count_zeros_rectangle(rect) == count

    @pytest.mark.parametrize(
        "y_min, count", [(455.5, 4), (565.0, 4), (675.0, 4), (785.0, 5), (895.0, 5)]
    )
    def test_six_high_windows_past_the_benchmark_match_scan(self, y_min, count):
        # every edge lies at least 0.065 from a zero
        y_max = y_min + 6.0
        rect = Rectangle(-0.5, 1.5, y_min, y_max)
        assert len(scan_zeros(y_min, y_max, 0.25)) == count_zeros_rectangle(rect) == count

    def test_edge_on_eta_denominator_zero(self):
        # the lower edge runs through 1 + 2 pi i / ln 2 and its reflection
        # 0 + 2 pi i / ln 2, where the eta sum and its denominator both vanish
        rect = Rectangle(-0.5, 1.5, ETA_DENOM_ZERO_IM, 30.0)
        assert len(scan_zeros(ETA_DENOM_ZERO_IM, 30.0, 0.25)) == count_zeros_rectangle(rect) == 3


def _hook_evaluations(monkeypatch, hook):
    """Call ``hook(s)`` before every node evaluation the rectangle count
    makes, at a point (zeta_log_logderiv) or on a row (the functions of
    zeta_log_logderiv_row)."""
    evaluate, row = zeros.zeta_log_logderiv, zeros.zeta_log_logderiv_row

    def hooked_row(t):
        on_row = row(t)
        return lambda sigma: hook(complex(sigma, t)) or on_row(sigma)

    monkeypatch.setattr(zeros, "zeta_log_logderiv", lambda s: hook(s) or evaluate(s))
    monkeypatch.setattr(zeros, "zeta_log_logderiv_row", hooked_row)


def _count_evaluations(monkeypatch):
    """The arguments of every node evaluation the rectangle count makes."""
    calls = []
    _hook_evaluations(monkeypatch, calls.append)
    return calls


def _csv_ordinates(text):
    # first column of the data rows, below the version comment and the header
    return [float(line.split(",")[0]) for line in text.splitlines()[2:]]


class TestCatalogIO:
    def _records(self):
        return [
            ZeroRecord(ordinate=14.134725142, bracket=(14.13, 14.14), criterion=1.0),
            ZeroRecord(ordinate=21.022039639, bracket=(21.02, 21.03), criterion=1.0),
        ]

    def test_csv_round_trip(self):
        text = records_to_csv(self._records())
        assert text.startswith("# zetasphere v")
        assert text.splitlines()[1] == "ordinate,criterion"
        assert _csv_ordinates(text) == pytest.approx([14.134725142, 21.022039639])

    def test_json_round_trip(self):
        text = records_to_json(self._records())
        assert [row["ordinate"] for row in json.loads(text)] == pytest.approx([14.134725142, 21.022039639])
        assert json.loads(text)[0] == {"ordinate": 14.134725142, "bracket": [14.13, 14.14], "criterion": 1.0}

    def test_catalog_feeds_covering(self):
        # the exported catalog is the ordinate source for the sphere module
        from zetasphere.sphere import covering_b

        records = scan_zeros(10.0, 30.0, 0.25)
        ords = _csv_ordinates(records_to_csv(records))
        cps = [covering_b(complex(0.5, t), ords) for t in ords]
        for cp in cps[1:]:
            gap = abs(cp.phase - cps[0].phase) % 1.0
            assert min(gap, 1.0 - gap) < 1e-9
