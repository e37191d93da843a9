"""Deterministic data and functional perturbations.

All randomness flows through the counter-based Philox generator keyed by
(seed, stream), so identical seeds reproduce identical bits and parallel
table cells can draw independent streams without shared state.
"""

from __future__ import annotations

import numpy as np

from . import assembly
from .forward import riesz_dual_norm
from .mesh import Mesh

# fixed stream ids so different perturbation kinds never share a stream
STREAM_DATA = 0
STREAM_FUNCTIONAL = 1


def generator(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed by ``[seed, stream]``."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


def perturb_data(Z: np.ndarray, seed: int, delta: float) -> np.ndarray:
    """Z + delta * eta with eta ~ U[0,1] i.i.d. per node."""
    if not 0.0 <= delta < np.inf:
        raise ValueError("data-noise level delta must be finite and >= 0")
    Z = np.asarray(Z, dtype=float)
    if delta == 0.0:
        return Z.copy()
    eta = generator(seed, STREAM_DATA).uniform(0.0, 1.0, size=Z.shape)
    return Z + delta * eta


def perturb_functional(P: np.ndarray, mesh: Mesh, seed: int, nu: float) -> np.ndarray:
    """Add a pseudorandom functional of discrete dual norm exactly nu.

    The perturbation is the L2 pairing with a seeded random nodal field,
    normalized in the W^-1 (dual) norm so the noise bound holds with
    equality.
    """
    if not 0.0 <= nu < np.inf:
        raise ValueError("functional-noise level nu must be finite and >= 0")
    P = np.asarray(P, dtype=float)
    if nu == 0.0:
        return P.copy()
    r = generator(seed, STREAM_FUNCTIONAL).uniform(0.0, 1.0, size=P.shape)
    q = assembly.shared_mass(mesh) @ r
    return P + nu * q / riesz_dual_norm(mesh, q)
