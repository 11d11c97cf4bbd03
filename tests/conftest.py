"""Shared shapes and helpers for the test suite."""

import numpy as np
import pytest

from sigma_eikonal.geometry import Ball, Box, OffsetBody, make_random_polytope


@pytest.fixture
def unit_square():
    """The square [-1, 1]^2 as an exact polytope."""
    return Box((1.0, 1.0))


@pytest.fixture
def unit_disk():
    return Ball((0.0, 0.0), 1.0)


@pytest.fixture
def offset_square():
    return OffsetBody(Box((1.0, 1.0)), 0.5)


@pytest.fixture
def tilted_polytope():
    """A random polytope whose edges are not grid-aligned."""
    return make_random_polytope(8, seed=5)


def dense_boundary_distance(shape, points, spacing=0.002):
    """Brute-force distance oracle: min over a dense boundary sampling."""
    surf = shape.boundary_sample(spacing)
    from scipy.spatial import cKDTree
    d, _ = cKDTree(surf.points).query(np.atleast_2d(points))
    return d
