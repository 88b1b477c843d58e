"""Tests for the Runge–Kutta integrators, including convergence orders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.airdrop.integrators import (
    DOP853,
    DOPRI5,
    RK23,
    ButcherTableau,
    available_orders,
    get_integrator,
)


class TestTableauStructure:
    @pytest.mark.parametrize("tab", [RK23, DOPRI5, DOP853])
    def test_consistency_conditions(self, tab):
        # Σ b_i = 1 (order 1) and Σ b_i c_i = 1/2 (order 2)
        assert np.isclose(tab.b.sum(), 1.0, atol=1e-12)
        assert np.isclose((tab.b * tab.c).sum(), 0.5, atol=1e-12)

    @pytest.mark.parametrize("tab", [RK23, DOPRI5, DOP853])
    def test_row_sum_equals_c(self, tab):
        # internal consistency: Σ_j a_ij = c_i for explicit RK
        assert np.allclose(tab.a.sum(axis=1), tab.c, atol=1e-12)

    def test_stage_counts_match_paper_cost_story(self):
        assert RK23.n_stages == 3
        assert DOPRI5.n_stages == 6
        assert DOP853.n_stages == 12

    def test_non_lower_triangular_rejected(self):
        with pytest.raises(ValueError):
            ButcherTableau(
                name="bad",
                order=1,
                a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                b=np.array([0.5, 0.5]),
                c=np.array([0.0, 1.0]),
            )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            ButcherTableau(
                name="bad",
                order=1,
                a=np.zeros((2, 2)),
                b=np.array([1.0]),
                c=np.array([0.0, 1.0]),
            )


class TestLookup:
    def test_available_orders(self):
        assert available_orders() == [3, 5, 8]

    @pytest.mark.parametrize("order,expected", [(3, "RK23"), (5, "DOPRI5"), (8, "DOP853")])
    def test_get_integrator(self, order, expected):
        assert get_integrator(order).name == expected

    def test_unknown_order_raises(self):
        with pytest.raises(ValueError):
            get_integrator(4)


class TestAccuracy:
    def test_exact_on_linear_ode(self):
        # y' = const is integrated exactly by any consistent RK method
        rhs = lambda t, y: np.array([2.0])
        for order in available_orders():
            tab = get_integrator(order)
            y = tab.step(rhs, 0.0, np.array([1.0]), 0.5)
            assert np.isclose(y[0], 2.0, atol=1e-14)

    @pytest.mark.parametrize(
        "tab,expected_order", [(RK23, 3), (DOPRI5, 5), (DOP853, 8)]
    )
    def test_empirical_convergence_order(self, tab, expected_order):
        # y' = y, y(0)=1 → y(1) = e; halving h must cut the error ~2^order
        rhs = lambda t, y: y
        errors = []
        for h in (0.2, 0.1):
            y = np.array([1.0])
            t = 0.0
            while t < 1.0 - 1e-12:
                y = tab.step(rhs, t, y, h)
                t += h
            errors.append(abs(y[0] - np.e))
        observed = np.log2(errors[0] / errors[1])
        assert observed > expected_order - 0.7, (
            f"{tab.name}: observed order {observed:.2f} < {expected_order}"
        )

    def test_higher_order_is_more_accurate_on_oscillator(self):
        # the canopy-roll-like oscillator the env cares about
        def rhs(t, y):
            return np.array([y[1], -4.0 * np.sin(y[0]) - 0.2 * y[1]])

        errors = {}
        for order in available_orders():
            tab = get_integrator(order)
            y = np.array([0.5, 0.0])
            t = 0.0
            while t < 5.0 - 1e-12:
                y = tab.step(rhs, t, y, 0.25)
                t += 0.25
            ref = np.array([0.5, 0.0])
            tr = 0.0
            while tr < 5.0 - 1e-12:
                ref = DOP853.step(rhs, tr, ref, 0.25 / 64)
                tr += 0.25 / 64
            errors[order] = np.linalg.norm(y - ref)
        assert errors[3] > errors[5] > errors[8]


class TestIntegrateFixed:
    """Integration over an interval with fixed steps of :meth:`ButcherTableau.step`."""

    @given(st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_exponential_accuracy_property(self, h):
        rhs = lambda t, y: -y
        y, t = np.array([1.0]), 0.0
        while t < 1.0 - 1e-12:
            step = min(h, 1.0 - t)  # the final step lands exactly on t = 1
            y = DOP853.step(rhs, t, y, step)
            t += step
        assert np.isclose(y[0], np.exp(-1.0), rtol=1e-6)
