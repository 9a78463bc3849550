import gc
import json

import pytest

from zetasphere import zeros
from zetasphere.errors import DomainError, NoSignChange, PhaseJumpError, PoleError
from zetasphere.zeros import (
    Rectangle,
    ZeroRecord,
    count_zeros_rectangle,
    records_to_csv,
    records_to_json,
    refine_zero,
    scan_zeros,
    z_real,
)

from reference_values import (
    COMPLETED_HALF,
    ETA_DENOM_ZERO_IM,
    ZERO_ORDINATES,
    ZEROS_BELOW_100,
    ZEROS_BELOW_1000,
)


class TestZReal:
    def test_value_at_zero(self):
        assert z_real(0.0) == pytest.approx(COMPLETED_HALF, rel=1e-12)

    def test_even_in_t(self):
        for t in (3.3, 14.2, 27.9):
            assert z_real(-t) == pytest.approx(z_real(t), rel=1e-12)

    def test_small_at_first_zero(self):
        assert abs(z_real(14.134725)) < 1e-6

    def test_sign_change_around_first_zero(self):
        assert z_real(14.0) * z_real(14.3) < 0


class TestRefine:
    def test_bisection_halves_to_the_tolerance(self, monkeypatch):
        calls = []
        kernel = zeros._sign_kernel
        monkeypatch.setattr(zeros, "_sign_kernel", lambda t: calls.append(t) or kernel(t))
        rec = refine_zero((14.0, 14.25))
        # the two ends and 28 halvings: 0.25 / 2**28 < 1e-9 < 0.25 / 2**27
        assert len(calls) == 30
        assert rec.bracket[1] - rec.bracket[0] < 1e-9
        assert abs(rec.ordinate - ZERO_ORDINATES[0]) < 1e-9

    def test_given_ends_give_the_same_record(self, monkeypatch):
        bracket = (14.0, 14.25)
        ends = (zeros._sign_kernel(14.0), zeros._sign_kernel(14.25))
        calls = []
        kernel = zeros._sign_kernel
        monkeypatch.setattr(zeros, "_sign_kernel", lambda t: calls.append(t) or kernel(t))
        rec = refine_zero(bracket, ends=ends)
        assert len(calls) == 28
        assert rec == refine_zero(bracket)

    def test_given_ends_of_one_sign_raise(self):
        ends = (zeros._sign_kernel(13.0), zeros._sign_kernel(13.5))
        with pytest.raises(NoSignChange):
            refine_zero((13.0, 13.5), ends=ends)

    def test_first_zero(self):
        rec = refine_zero((14.0, 14.3))
        assert rec.ordinate == pytest.approx(ZERO_ORDINATES[0], abs=1e-6)
        assert rec.bracket[1] - rec.bracket[0] < 1e-9
        assert rec.residual < 1e-8
        assert rec.criterion == pytest.approx(1.0, abs=1e-6)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            refine_zero((13.0, 13.5))

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
        kernel = zeros._sign_kernel
        monkeypatch.setattr(zeros, "_sign_kernel", lambda t: calls.append(t) or kernel(t))
        assert len(scan_zeros(10.0, 30.0, 0.25)) == 3
        # 81 grid points, then 28 halvings per bracket
        assert len(calls) == 81 + 3 * 28

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

    def test_asymmetric_rectangle_to_100(self):
        # -0.25 and 1.75 are not mirror images, so few nodes are shared
        assert count_zeros_rectangle(Rectangle(-0.25, 1.75, 1.0, 100.0)) == ZEROS_BELOW_100

    def test_left_nodes_come_from_their_mirror_images(self, monkeypatch):
        calls = []
        evaluate = zeros.completed_zeta_phase_logderiv
        monkeypatch.setattr(
            zeros, "completed_zeta_phase_logderiv", lambda s: calls.append(s) or evaluate(s)
        )
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 30.0)) == 3
        assert all(s.real >= 0.5 for s in calls)
        assert len(set(calls)) == len(calls)
        # the quadrature visits 392 contour nodes here, 2 of them on the line
        assert len(calls) <= (392 + 2) // 2

    def test_count_to_100_takes_at_most_900_evaluations(self, monkeypatch):
        # Simpson's rule over quarter points makes 865 calls here
        calls = []
        evaluate = zeros.completed_zeta_phase_logderiv
        monkeypatch.setattr(
            zeros, "completed_zeta_phase_logderiv", lambda s: calls.append(s) or evaluate(s)
        )
        assert count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 100.0)) == ZEROS_BELOW_100
        assert len(calls) <= 900

    def test_zero_at_a_mirror_node_names_the_contour_point(self, monkeypatch):
        evaluate = zeros.completed_zeta_phase_logderiv

        def zero_right_edge(s):
            if s.real == 1.5:
                raise DomainError(f"completed zeta is 0 at s = {s}")
            return evaluate(s)

        monkeypatch.setattr(zeros, "completed_zeta_phase_logderiv", zero_right_edge)
        with pytest.raises(DomainError, match=r"s = \(-0\.5\+"):
            count_zeros_rectangle(Rectangle(-0.5, 1.5, 1.0, 30.0))

    def test_pole_at_a_mirror_node_is_the_contour_points_pole(self):
        # the bottom edge's midpoint sits 1e-13 above the pole at 0; its
        # mirror image sits next to the pole at 1, which is off the contour
        with pytest.raises(PoleError) as info:
            count_zeros_rectangle(Rectangle(-0.25, 0.25, 1e-13, 1.0))
        assert info.value.point == 0.0

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


def _csv_ordinates(text):
    # first column of the data rows, below the version comment and the header
    return [float(line.split(",")[0]) for line in text.splitlines()[2:]]


class TestCatalogIO:
    def _records(self):
        return [
            ZeroRecord(ordinate=14.134725142, bracket=(14.13, 14.14), residual=1e-12, criterion=1.0),
            ZeroRecord(ordinate=21.022039639, bracket=(21.02, 21.03), residual=2e-12, criterion=1.0),
        ]

    def test_csv_round_trip(self):
        text = records_to_csv(self._records())
        assert text.startswith("# zetasphere v")
        assert text.splitlines()[1] == "ordinate,residual,criterion"
        assert _csv_ordinates(text) == pytest.approx([14.134725142, 21.022039639])

    def test_json_round_trip(self):
        text = records_to_json(self._records())
        assert [row["ordinate"] for row in json.loads(text)] == pytest.approx([14.134725142, 21.022039639])
        assert json.loads(text)[0]["residual"] == 1e-12

    def test_catalog_feeds_covering(self):
        # the exported catalog is the ordinate source for the sphere module
        from zetasphere.sphere import covering_b

        records = scan_zeros(10.0, 30.0, 0.25)
        ords = _csv_ordinates(records_to_csv(records))
        cps = [covering_b(complex(0.5, t), ords) for t in ords]
        for cp in cps[1:]:
            gap = abs(cp.phase - cps[0].phase) % 1.0
            assert min(gap, 1.0 - gap) < 1e-9
