"""Deterministic data and functional perturbations.

All randomness flows through the counter-based Philox generator keyed by
(seed, stream), so identical specs reproduce identical bits and parallel
table cells can draw independent streams without shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .forward import riesz_dual_norm
from .mesh import Mesh

# fixed stream ids so different perturbation kinds never share a stream
STREAM_DATA = 0
STREAM_FUNCTIONAL = 1


@dataclass(frozen=True)
class NoiseSpec:
    seed: int
    delta: float = 0.0  # data-noise level
    nu: float = 0.0     # functional-noise level

    def __post_init__(self):
        if min(self.delta, self.nu) < 0:
            raise ValueError("noise levels must be nonnegative")

    def generator(self, stream: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[int(self.seed), int(stream)]))


def perturb_data(Z: np.ndarray, spec: NoiseSpec, delta: float | None = None,
                 stream: int = STREAM_DATA) -> np.ndarray:
    """Z + delta * eta with eta ~ U[0,1] i.i.d. per node."""
    Z = np.asarray(Z, dtype=float)
    d = spec.delta if delta is None else delta
    if d == 0.0:
        return Z.copy()
    eta = spec.generator(stream).uniform(0.0, 1.0, size=Z.shape)
    return Z + d * eta


def perturb_functional(P: np.ndarray, mesh: Mesh, spec: NoiseSpec,
                       nu: float | None = None,
                       stream: int = STREAM_FUNCTIONAL) -> np.ndarray:
    """Add a pseudorandom functional of discrete dual norm exactly nu.

    The perturbation is the L2 pairing with a seeded random nodal field,
    normalized in the W^-1 (dual) norm so the noise bound holds with
    equality.
    """
    P = np.asarray(P, dtype=float)
    n = spec.nu if nu is None else nu
    if n == 0.0:
        return P.copy()
    r = spec.generator(stream).uniform(0.0, 1.0, size=P.shape)
    q = assembly.shared_mass(mesh) @ r
    return P + n * q / riesz_dual_norm(mesh, q)
