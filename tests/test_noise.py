import numpy as np
import pytest

from ellreg.forward import riesz_dual_norm
from ellreg.mesh import build_unit_square
from ellreg.noise import (
    STREAM_DATA,
    STREAM_FUNCTIONAL,
    generator,
    perturb_data,
    perturb_functional,
)


def test_data_noise_band_and_determinism():
    Z = np.linspace(-1, 1, 200)
    Zd1 = perturb_data(Z, 42, 0.3)
    Zd2 = perturb_data(Z, 42, 0.3)
    assert np.array_equal(Zd1, Zd2)
    eta = (Zd1 - Z) / 0.3
    assert np.all(eta >= 0.0) and np.all(eta <= 1.0)
    assert eta.std() > 0.1  # actually random, not constant


def test_data_noise_zero_level_is_copy():
    Z = np.arange(5.0)
    out = perturb_data(Z, 1, 0.0)
    assert np.array_equal(out, Z)
    assert out is not Z


def test_streams_are_independent():
    a = generator(7, STREAM_DATA).uniform(size=100)
    b = generator(7, STREAM_FUNCTIONAL).uniform(size=100)
    assert not np.array_equal(a, b)
    # different seeds change the draw, same seed reproduces it
    c = generator(8, STREAM_DATA).uniform(size=100)
    assert not np.array_equal(a, c)
    d = generator(7, STREAM_DATA).uniform(size=100)
    assert np.array_equal(a, d)


def test_functional_noise_exact_dual_norm():
    mesh = build_unit_square(6)
    P = np.zeros(mesh.node_count)
    for nu in (1e-1, 1e-3, 1e-6):
        P_nu = perturb_functional(P, mesh, 3, nu)
        achieved = riesz_dual_norm(mesh, P_nu - P)
        assert achieved == pytest.approx(nu, abs=1e-10 * max(nu, 1.0))


def test_functional_noise_zero_level_is_copy():
    mesh = build_unit_square(3)
    P = np.arange(float(mesh.node_count))
    out = perturb_functional(P, mesh, 2, 0.0)
    assert np.array_equal(out, P)


def test_negative_levels_rejected():
    mesh = build_unit_square(3)
    with pytest.raises(ValueError):
        perturb_data(np.zeros(4), 0, -0.1)
    with pytest.raises(ValueError):
        perturb_functional(np.zeros(mesh.node_count), mesh, 0, -1e-9)
    for level in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            perturb_data(np.zeros(4), 0, level)
        with pytest.raises(ValueError, match="finite"):
            perturb_functional(np.zeros(mesh.node_count), mesh, 0, level)
