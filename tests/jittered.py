"""Jittered unit-square meshes drawn by hypothesis, shared by the property tests."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ellreg.mesh import Mesh, build_unit_square


def random_mesh(n, rng):
    """build_unit_square(n) with every interior coordinate jittered by up to 0.1/n."""
    base = build_unit_square(n)
    nodes = base.nodes.copy()
    inside = (nodes > 0.0) & (nodes < 1.0)
    nodes += np.where(inside, rng.uniform(-0.1, 0.1, nodes.shape) / n, 0.0)
    return Mesh(nodes=nodes, triangles=base.triangles)


random_meshes = given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
examples = settings(max_examples=30, deadline=None)
