"""Built-in mechanical systems and their Hamiltonian forms."""

import numpy as np
import pytest

from fractime import harmonic, legendre_transform
from fractime.systems import free_particle, quartic


def test_natural_data_present_on_all_builtins():
    for sys in (free_particle(), harmonic(), quartic()):
        assert sys.natural is not None
        assert sys.natural.mass > 0.0
        assert sys.dim == 1


def test_free_particle_lagrangian_values():
    L = free_particle(m=2.0)
    x = np.array([[0.3]])
    v = np.array([[1.5]])
    t = np.array([0.0])
    assert L.lagrangian(x, v, t) == pytest.approx(0.5 * 2.0 * 1.5**2)
    assert np.asarray(L.dLdx(x, v, t)).ravel()[0] == 0.0
    assert np.asarray(L.dLdv(x, v, t)).ravel()[0] == pytest.approx(3.0)


def test_harmonic_gradients_are_linear_in_state():
    L = harmonic(m=1.0, omega=2.0)
    x = np.array([[0.5]])
    v = np.array([[0.0]])
    t = np.array([0.0])
    # dL/dx = -m omega^2 x
    assert np.asarray(L.dLdx(x, v, t)).ravel()[0] == pytest.approx(-2.0)


def test_quartic_gradient_is_cubic():
    L = quartic(lam=2.0)
    x = np.array([[0.5]])
    v = np.array([[0.0]])
    t = np.array([0.0])
    # U = lam x^4 / 4, dL/dx = -lam x^3
    assert np.asarray(L.dLdx(x, v, t)).ravel()[0] == pytest.approx(-2.0 * 0.125)


def test_gradients_broadcast_over_node_arrays():
    L = harmonic()
    x = np.linspace(-1.0, 1.0, 9)[:, None]
    v = np.zeros_like(x)
    t = np.linspace(0.0, 1.0, 9)
    out = np.asarray(L.dLdx(x, v, t))
    assert out.shape == x.shape
    np.testing.assert_allclose(out, -x)


def test_legendre_transform_recovers_kinetic_plus_potential():
    H = legendre_transform(harmonic(m=2.0, omega=3.0))
    x = np.array([0.5])
    p = np.array([1.0])
    # H = p^2/(2m) + m omega^2 x^2 / 2
    expect = 1.0 / 4.0 + 2.0 * 9.0 * 0.25 / 2.0
    assert np.asarray(H.hamiltonian(x, p)).ravel()[0] == pytest.approx(expect)
    assert np.asarray(H.dHdp(x, p)).ravel()[0] == pytest.approx(0.5)
    assert np.asarray(H.dHdx(x, p)).ravel()[0] == pytest.approx(2.0 * 9.0 * 0.5)


def test_legendre_transform_keeps_dim():
    H = legendre_transform(quartic())
    assert H.dim == 1


def test_separable_form_exposed_for_natural_systems():
    H = legendre_transform(harmonic())
    assert H.separable is not None
    assert H.separable.mass == 1.0
