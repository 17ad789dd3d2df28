import math

import numpy as np
import pytest

from qnslab.fields import (
    DomainError,
    constant_field,
    evaluate,
    field_from_json,
    field_to_json,
    harmonic_field,
    indicator_field,
    radial_bump_field,
    sum_field,
)
from qnslab.geometry import Ball
from qnslab.regions import Region

OMEGA = Region((Ball((0.0, 0.0), 2.0),))
SUPPORT = Region((Ball((0.0, 0.0), 1.0, closed=True),))


class TestEvaluate:
    def test_constant(self):
        u = constant_field(1.0, OMEGA)
        assert evaluate(u, (0.3, 0.3)) == 1.0

    def test_indicator_inside(self):
        u = indicator_field(SUPPORT, OMEGA)
        assert evaluate(u, (0.5, 0.0)) == 1.0

    def test_indicator_outside_support(self):
        u = indicator_field(SUPPORT, OMEGA)
        assert evaluate(u, (1.5, 0.0)) == 0.0

    def test_indicator_closed_boundary(self):
        u = indicator_field(SUPPORT, OMEGA)
        assert evaluate(u, (1.0, 0.0)) == 1.0

    def test_outside_domain_rejected(self):
        u = constant_field(1.0, OMEGA)
        with pytest.raises(DomainError):
            evaluate(u, (3.0, 0.0))

    def test_indicator_is_idempotent(self):
        u = indicator_field(SUPPORT, OMEGA)
        rng = np.random.Generator(np.random.PCG64(0))
        pts = rng.uniform(-1.4, 1.4, size=(512, 2))
        vals = u.values(pts)
        assert np.array_equal(vals * vals, vals)
        assert set(np.unique(vals)) <= {0.0, 1.0}


class TestHarmonic:
    def test_values(self):
        u = harmonic_field(1.0, 10.0, OMEGA)
        assert math.isclose(evaluate(u, (1.0, 0.0)), 1.1, rel_tol=1e-12)

    def test_ball_mean_equals_center_value(self):
        # exact polar integration: the angular average of x^2 - y^2 over any
        # circle about (x0, y0) is x0^2 - y0^2, so the disk mean is the center
        # value; checked with a fine polar rule
        u = harmonic_field(1.0, 10.0, OMEGA)
        x0, y0, radius = 0.6, -0.3, 0.5
        rr = np.sqrt((np.arange(400) + 0.5) / 400) * radius
        theta = 2.0 * math.pi * (np.arange(512) + 0.5) / 512
        grid_x = x0 + rr[:, None] * np.cos(theta)[None, :]
        grid_y = y0 + rr[:, None] * np.sin(theta)[None, :]
        mean = np.mean(1.0 + (grid_x**2 - grid_y**2) / 10.0)
        assert math.isclose(mean, evaluate(u, (x0, y0)), abs_tol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_field(0.0, 1.0, OMEGA)  # x^2 - y^2 goes negative on the disk


class TestOtherKinds:
    def test_radial_bump(self):
        u = radial_bump_field((0.0, 0.0), 1.0, 2.0, OMEGA)
        assert evaluate(u, (0.0, 0.0)) == 2.0
        assert evaluate(u, (1.5, 0.0)) == 0.0

    def test_weighted_sum(self):
        u = sum_field([(2.0, constant_field(1.0, OMEGA)), (1.0, indicator_field(SUPPORT, OMEGA))], OMEGA)
        assert evaluate(u, (0.0, 0.0)) == 3.0
        assert evaluate(u, (1.5, 0.0)) == 2.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            sum_field([(-1.0, constant_field(1.0, OMEGA))], OMEGA)


class TestJson:
    @pytest.mark.parametrize(
        "field",
        [
            constant_field(2.5, OMEGA),
            indicator_field(SUPPORT, OMEGA),
            harmonic_field(1.0, 10.0, OMEGA),
            radial_bump_field((0.1, 0.2), 0.7, 1.5, OMEGA),
        ],
    )
    def test_round_trip(self, field):
        doc = field_to_json(field)
        back = field_from_json(doc)
        rng = np.random.Generator(np.random.PCG64(1))
        pts = rng.uniform(-1.0, 1.0, size=(256, 2))
        assert np.array_equal(field.values(pts), back.values(pts))

    def test_sum_round_trip(self):
        u = sum_field([(2.0, constant_field(1.0, OMEGA)), (0.5, indicator_field(SUPPORT, OMEGA))], OMEGA)
        back = field_from_json(field_to_json(u))
        rng = np.random.Generator(np.random.PCG64(2))
        pts = rng.uniform(-1.0, 1.0, size=(128, 2))
        assert np.array_equal(u.values(pts), back.values(pts))
