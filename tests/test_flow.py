import pytest

from zetasphere.errors import DomainError
from zetasphere.flow import FlowParams, continuity_probe, flow_map, flow_velocity, transport_divisor
from zetasphere.mero import Divisor, divisor_degree
from zetasphere.report import DISCREPANCY, PASS
from zetasphere.sphere import INFINITY

from reference_values import ZERO_ORDINATES

T0 = ZERO_ORDINATES[0]


class TestFlowMap:
    def test_t0_is_identity(self):
        p = FlowParams(a=0.2, t=0.0)
        for k in range(100):
            z = complex(0.005 + 0.0099 * k, -9 + 0.18 * k)
            assert flow_map(p, z) == z

    def test_t1_collapses_exactly(self):
        p = FlowParams(a=0.2, t=1.0)
        for x in (0.2, 0.31, 0.47, 0.5, 0.62, 0.8):
            assert flow_map(p, complex(x, 3.7)).real == 0.5

    def test_outside_strip_unchanged(self):
        p = FlowParams(a=0.2, t=1.0)
        for x in (0.0, 0.1, 0.85, 1.3, -2.0):
            z = complex(x, 1.0)
            assert flow_map(p, z) == z

    def test_ordinate_never_moves(self):
        p = FlowParams(a=0.1, t=0.7)
        assert flow_map(p, complex(0.3, -5.5)).imag == -5.5

    def test_monotone_contraction_in_t(self):
        z = complex(0.25, 2.0)
        dists = [abs(flow_map(FlowParams(a=0.2, t=t), z).real - 0.5) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b <= a for a, b in zip(dists, dists[1:]))

    def test_idempotent_at_t1(self):
        p = FlowParams(a=0.2, t=1.0)
        once = flow_map(p, complex(0.31, 2.0))
        assert flow_map(p, once) == once

    def test_critical_line_fixed_for_all_t(self):
        for t in (0.0, 0.3, 1.0):
            p = FlowParams(a=0.1, t=t)
            assert flow_map(p, complex(0.5, 9.0)) == complex(0.5, 9.0)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            FlowParams(a=0.6, t=0.5)
        with pytest.raises(DomainError):
            FlowParams(a=0.2, t=1.5)


class TestVelocity:
    def test_zero_on_critical_line(self):
        assert flow_velocity(FlowParams(a=0.2, t=0.5), 0.5 + 1j) == (0.0, 0.0)

    def test_formula_inside_substrip(self):
        assert flow_velocity(FlowParams(a=0.05, t=0.5), complex(0.9, 1.0)) == (-0.4, 0.0)

    def test_zero_outside(self):
        assert flow_velocity(FlowParams(a=0.2, t=0.5), complex(0.9, 1.0)) == (0.0, 0.0)

    def test_jump_across_boundary(self):
        p = FlowParams(a=0.2, t=0.5)
        inside = flow_velocity(p, complex(0.2, 0.0))
        outside = flow_velocity(p, complex(0.2 - 1e-12, 0.0))
        assert inside[0] == pytest.approx(0.3, abs=1e-12)
        assert outside[0] == 0.0

    def test_second_component_always_zero(self):
        for z in (0.3 + 5j, 0.9 - 2j, 0.5 + 0j):
            assert flow_velocity(FlowParams(a=0.1, t=1.0), z)[1] == 0.0


class TestContinuityProbe:
    def test_jump_matches_formula(self):
        items = {it.name: it for it in continuity_probe(FlowParams(a=0.2, t=1.0))}
        extrapolated = items["flow/boundary-jump extrapolated"]
        assert extrapolated.computed == pytest.approx(0.3, abs=1e-9)
        assert extrapolated.status == PASS

    def test_prose_conflict_flagged(self):
        items = {it.name: it for it in continuity_probe(FlowParams(a=0.2, t=1.0))}
        assert items["flow/prose-fixed-boundary vs measured jump"].status == DISCREPANCY

    def test_no_jump_at_t0(self):
        items = {it.name: it for it in continuity_probe(FlowParams(a=0.2, t=0.0))}
        assert items["flow/boundary-jump extrapolated"].computed == pytest.approx(0.0, abs=1e-12)
        assert items["flow/prose-fixed-boundary vs measured jump"].status == PASS

    def test_seam_at_half_continuous(self):
        items = {it.name: it for it in continuity_probe(FlowParams(a=0.2, t=1.0))}
        assert items["flow/seam-at-half continuous"].status == PASS


class TestTransport:
    def homotopy_divisor(self):
        return Divisor(
            {
                complex(0.2, 5): 1,
                complex(0.8, 5): 1,
                complex(0.2, -5): 1,
                complex(0.8, -5): 1,
                complex(0.5, T0): 1,
                complex(0.5, -T0): 1,
                0j: -1,
                1 + 0j: -1,
                INFINITY: -4,
            }
        )

    def test_degree_preserved(self):
        d = self.homotopy_divisor()
        for t in (0.0, 0.4, 1.0):
            moved = transport_divisor(FlowParams(a=0.2, t=t), d)
            assert divisor_degree(moved) == divisor_degree(d) == 0

    def test_t1_merges_offline_zeros_onto_line(self):
        moved = transport_divisor(FlowParams(a=0.2, t=1.0), self.homotopy_divisor())
        assert moved.multiplicity(complex(0.5, 5.0)) == 2
        assert moved.multiplicity(complex(0.5, -5.0)) == 2

    def test_infinity_fixed(self):
        moved = transport_divisor(FlowParams(a=0.2, t=1.0), self.homotopy_divisor())
        assert moved.multiplicity(INFINITY) == -4

    def test_critical_line_support_fixed_all_t(self):
        d = Divisor({complex(0.5, T0): 1})
        for t in (0.0, 0.5, 1.0):
            assert transport_divisor(FlowParams(a=0.2, t=t), d) == d

    def test_poles_outside_substrip_fixed(self):
        moved = transport_divisor(FlowParams(a=0.2, t=1.0), self.homotopy_divisor())
        assert moved.multiplicity(0j) == -1
        assert moved.multiplicity(1 + 0j) == -1

    def test_divisor_json_interchange(self):
        # flow consumes and produces the divisor JSON the mero module defines
        from zetasphere.mero import divisor_to_json

        moved = transport_divisor(FlowParams(a=0.2, t=1.0), self.homotopy_divisor())
        # the off-line zeros at 0.2 +- 5i and 0.8 +- 5i land on 0.5 +- 5i
        expected = Divisor(
            {
                complex(0.5, 5): 2,
                complex(0.5, -5): 2,
                complex(0.5, T0): 1,
                complex(0.5, -T0): 1,
                0j: -1,
                1 + 0j: -1,
                INFINITY: -4,
            }
        )
        assert divisor_to_json(moved) == divisor_to_json(expected)
