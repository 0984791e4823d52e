"""Built-in natural systems: mass, potential and its gradient."""

import numpy as np
import pytest

from fractime import harmonic
from fractime.systems import free_particle, quartic


def test_natural_data_present_on_all_builtins():
    for sys in (free_particle(), harmonic(), quartic()):
        assert sys.mass > 0.0
        assert sys.dim == 1


def test_free_particle_lagrangian_values():
    L = free_particle(m=2.0)
    x = np.array([[0.3]])
    assert L.mass == 2.0
    assert L.potential(x).shape == (1,) and L.potential(x)[0] == 0.0
    assert np.asarray(L.potential_grad(x)).ravel()[0] == 0.0


def test_harmonic_gradients_are_linear_in_state():
    L = harmonic(m=1.0, omega=2.0)
    x = np.array([[0.5]])
    # U = m omega^2 x^2 / 2, dL/dx = -U' = -m omega^2 x
    assert L.potential(x)[0] == pytest.approx(0.5)
    assert np.asarray(L.potential_grad(x)).ravel()[0] == pytest.approx(2.0)


def test_quartic_gradient_is_cubic():
    L = quartic(lam=2.0)
    x = np.array([[0.5]])
    # U = lam x^4 / 4, dL/dx = -U' = -lam x^3
    assert L.mass == 1.0
    assert L.potential(x)[0] == pytest.approx(2.0 * 0.0625 / 4.0)
    assert np.asarray(L.potential_grad(x)).ravel()[0] == pytest.approx(2.0 * 0.125)


def test_gradients_broadcast_over_node_arrays():
    L = harmonic()
    x = np.linspace(-1.0, 1.0, 9)[:, None]
    out = np.asarray(L.potential_grad(x))
    assert out.shape == x.shape
    np.testing.assert_allclose(out, x)
    assert L.potential(x).shape == (9,)
