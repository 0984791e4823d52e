"""Built-in natural systems: mass, potential and its gradient."""

import numpy as np
import pytest

from fractime import harmonic
from fractime.systems import free_particle, quartic

_BUILTINS = {
    "free-particle": free_particle(),
    "free-particle(2)": free_particle(m=2.0),
    "harmonic": harmonic(),
    "harmonic(2,3)": harmonic(2.0, 3.0),
    "quartic": quartic(),
    "quartic(2)": quartic(2.0),
}


def test_natural_data_present_on_all_builtins():
    # one degree of freedom: a float position maps to a float
    for sys in _BUILTINS.values():
        assert sys.mass > 0.0
        assert isinstance(sys.potential(0.7), float)
        assert isinstance(sys.potential_grad(0.7), float)


def test_free_particle_lagrangian_values():
    L = free_particle(m=2.0)
    x = np.array([[0.3]])
    assert L.mass == 2.0
    assert L.potential(x).shape == (1, 1) and L.potential(x)[0, 0] == 0.0
    assert L.potential_grad(x).shape == (1, 1) and L.potential_grad(x)[0, 0] == 0.0
    # +0.0, as np.zeros_like gives, at negative positions too
    assert str(L.potential_grad(-0.3)) == "0.0"


def test_harmonic_gradients_are_linear_in_state():
    L = harmonic(m=1.0, omega=2.0)
    # U = m omega^2 x^2 / 2, dL/dx = -U' = -m omega^2 x
    assert L.potential(0.5) == pytest.approx(0.5)
    assert L.potential_grad(0.5) == pytest.approx(2.0)


def test_quartic_gradient_is_cubic():
    L = quartic(lam=2.0)
    # U = lam x^4 / 4, dL/dx = -U' = -lam x^3
    assert L.mass == 1.0
    assert L.potential(0.5) == pytest.approx(2.0 * 0.0625 / 4.0)
    assert L.potential_grad(0.5) == pytest.approx(2.0 * 0.125)
    # products, not powers: a float that overflows gives inf, not an error
    assert L.potential_grad(1e200) == np.inf


def test_gradients_broadcast_over_node_arrays():
    L = harmonic()
    x = np.linspace(-1.0, 1.0, 9)[:, None]
    out = L.potential_grad(x)
    assert out.shape == x.shape
    np.testing.assert_allclose(out, x)
    assert L.potential(x).shape == x.shape


@pytest.mark.parametrize("name", list(_BUILTINS))
def test_floats_and_arrays_give_the_same_bits(name):
    # the steppers call U' on floats, the bridge and the operators on arrays
    x = np.array([0.0, -0.0, 0.3, -1.7, 2.5, 1e8, -3e-9, 123.456])
    system = _BUILTINS[name]
    for fn in (system.potential, system.potential_grad):
        on_floats = np.array([fn(float(v)) for v in x])
        assert on_floats.tobytes() == fn(x).tobytes()
        assert on_floats.tobytes() == fn(x[:, None])[:, 0].tobytes()
