import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdlab.minkowski import (METRIC, AntisymTensor, ScaleMap, as_four,
                              boost_tensor, lorentz_boost, lorentz_boost_matrix,
                              minkowski_dot, scale_field)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
four = st.tuples(finite, finite, finite, finite).map(np.array)
beta3 = st.tuples(
    st.floats(min_value=-0.55, max_value=0.55),
    st.floats(min_value=-0.55, max_value=0.55),
    st.floats(min_value=-0.55, max_value=0.55),
).map(np.array)


def test_metric_is_fixed_diagonal():
    assert np.array_equal(METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        METRIC[0, 0] = 2.0


def test_dot_signature():
    assert minkowski_dot((1, 0, 0, 0), (1, 0, 0, 0)) == 1.0
    assert minkowski_dot((0, 1, 0, 0), (0, 1, 0, 0)) == -1.0


def test_as_four_rejects_wrong_shape():
    with pytest.raises(ValueError):
        as_four((1.0, 2.0, 3.0))


@given(u=four, v=four, beta=beta3)
@settings(max_examples=50, deadline=None)
def test_boost_preserves_dot(u, v, beta):
    lhs = minkowski_dot(lorentz_boost(u, beta), lorentz_boost(v, beta))
    scale = max(1.0, abs(lhs))
    assert abs(lhs - minkowski_dot(u, v)) < 1e-9 * scale


def test_boost_matrix_rejects_superluminal():
    with pytest.raises(ValueError):
        lorentz_boost_matrix((1.0, 0.2, 0.0))


def test_boost_matrix_identity_at_rest():
    assert np.array_equal(lorentz_boost_matrix((0, 0, 0)), np.eye(4))


def test_antisym_from_fields_roundtrip():
    E = np.array([1.0, -2.0, 0.5])
    B = np.array([0.3, 0.7, -1.1])
    F = AntisymTensor.from_fields(E, B)
    assert np.allclose(F.electric(), E)
    assert np.allclose(F.magnetic(), B)
    # F^{i0} = E^i: the force on a charge at rest is along E
    assert np.allclose(np.asarray(F)[1:, 0], E)
    assert F.invariant_f2() == pytest.approx(2.0 * (B @ B - E @ E))


def test_antisym_rejects_symmetric_part():
    with pytest.raises(ValueError):
        AntisymTensor(np.eye(4))


@given(beta=beta3)
@settings(max_examples=25, deadline=None)
def test_invariant_f2_is_boost_invariant(beta):
    F = AntisymTensor.from_fields((1.0, 0.0, 0.5), (0.0, 2.0, 0.0))
    assert boost_tensor(F, beta).invariant_f2() == pytest.approx(
        F.invariant_f2(), rel=1e-9, abs=1e-9)


def test_scale_map_compose_and_field():
    m = ScaleMap(2.0, dimension=-3.0)
    assert np.allclose(m((1.0, 0.0, 2.0, 0.0)), (2.0, 0.0, 4.0, 0.0))
    f = lambda x: float(np.sum(np.asarray(x) ** 2))
    g = scale_field(f, m)
    x = np.array([1.0, 1.0, 0.0, 0.0])
    assert g(x) == pytest.approx(2.0 ** -3 * f(x / 2.0))
    with pytest.raises(ValueError):
        ScaleMap(-1.0)
