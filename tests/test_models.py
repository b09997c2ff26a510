"""Model construction: Hamiltonian layout, band grids, parameter gates."""

import numpy as np
import pytest

from zenosim.core import ParameterError
from zenosim.models import (
    ModelKind,
    ModelSpec,
    build,
    continuum_grid,
    hub,
)


def test_two_level_matrix():
    h, rho0 = build(ModelSpec.two_level())
    np.testing.assert_array_equal(h, [[-0.2, 0.2], [0.2, 0.2]])
    np.testing.assert_array_equal(np.real(np.diagonal(np.asarray(rho0))), [1.0, 0.0])


def test_symmetric_two_level_eigenvalues_are_plus_minus_v():
    # eps0 = eps1 = 0: the coupling alone sets the splitting
    h, _ = build(ModelSpec.two_level(eps0=0.0, eps1=0.0, v=0.3))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), [-0.3, 0.3], atol=1e-15)


@pytest.mark.parametrize("v", [0.0, -0.1])
def test_builders_reject_nonpositive_coupling(v):
    with pytest.raises(ParameterError):
        build(ModelSpec.two_level(v=v))
    with pytest.raises(ParameterError):
        build(ModelSpec.custom_continuum(eps0=0.0, d=5.0, n_levels=200, spacing=0.05, v=v))


def test_zero_coupling_spec_validates_but_does_not_build():
    """v = 0 is a legal spec (predictors accept it) but not a buildable one."""
    spec = ModelSpec.two_level(v=0.0)
    spec.validate()
    with pytest.raises(ParameterError):
        build(spec)


def test_default_band_grid():
    grid = continuum_grid(200, 0.05, 5.0)
    assert grid.shape == (200,)
    np.testing.assert_allclose(grid[0], -4.95)
    assert grid[-1] == 5.0  # top level anchored exactly at the half width
    np.testing.assert_allclose(np.diff(grid), 0.05)
    assert 0.0 in grid  # resonant level is on the grid, not between points
    np.testing.assert_allclose(np.sum(grid), 5.0)


def test_band_grid_two_levels_at_edges():
    np.testing.assert_array_equal(continuum_grid(2, 10.0, 5.0), [-5.0, 5.0])


def test_level_in_continuum_dimensions_and_resonance():
    spec = ModelSpec.level_in_continuum()
    assert spec.dim == 201
    energies = hub(spec)[0]
    assert energies[0] == 0.0
    # one band level is exactly degenerate with state 0
    assert np.min(np.abs(energies[1:] - energies[0])) == 0.0


def test_level_outside_continuum_gap():
    spec = ModelSpec.level_outside_continuum()
    energies = hub(spec)[0]
    np.testing.assert_allclose(energies[0] - np.max(energies[1:]), 0.04)


def test_small_band_hamiltonian_layout():
    # n = 2, spacing = 2d puts the band levels at -d and +d exactly
    h, rho0 = build(ModelSpec.custom_continuum(eps0=1.5, d=5.0, n_levels=2, spacing=10.0, v=0.3))
    want = np.array(
        [
            [1.5, 0.3, 0.3],
            [0.3, -5.0, 0.0],
            [0.3, 0.0, 5.0],
        ]
    )
    np.testing.assert_array_equal(h, want)
    np.testing.assert_array_equal(np.real(np.diagonal(np.asarray(rho0))), [1.0, 0.0, 0.0])


def test_continuum_coupling_row_structure():
    h, _ = build(ModelSpec.custom_continuum(eps0=0.0, d=5.0, n_levels=200, spacing=0.05, v=0.01))
    assert h.shape == (201, 201)
    np.testing.assert_array_equal(h[0, 1:], 0.01)
    np.testing.assert_array_equal(h[1:, 0], 0.01)
    off_band = h[1:, 1:] - np.diag(np.diagonal(h)[1:])
    np.testing.assert_array_equal(off_band, 0.0)  # band levels never talk directly


def test_span_wider_than_band_rejected():
    with pytest.raises(ParameterError) as err:
        spec = ModelSpec.custom_continuum(eps0=0.0, d=1.0, n_levels=50, spacing=0.1, v=0.01)
        spec.validate()
    assert "span" in str(err.value)


def test_two_level_spec_requires_eps1():
    with pytest.raises(ParameterError):
        spec = ModelSpec(kind=ModelKind.TWO_LEVEL, v=0.2, eps0=-0.2)
        spec.validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=-1.0),
        dict(n_levels=1),
        dict(spacing=0.0),
        dict(n_levels=2.5),
    ],
)
def test_band_parameter_gates(kwargs):
    base = dict(eps0=0.0, d=5.0, n_levels=200, spacing=0.05, v=0.01)
    base.update(kwargs)
    with pytest.raises(ParameterError):
        ModelSpec.custom_continuum(**base).validate()


def test_hub_two_level():
    eps, c = hub(ModelSpec.two_level())
    np.testing.assert_array_equal(eps, [-0.2, 0.2])
    np.testing.assert_array_equal(c, [0.0, 0.2])


def test_build_dispatch_matches_direct_builders():
    # a named kind builds the same matrix as its parameters spelled out
    ha, _ = build(ModelSpec.two_level())
    hb, _ = build(ModelSpec(kind=ModelKind.TWO_LEVEL, v=0.2, eps0=-0.2, eps1=0.2))
    np.testing.assert_array_equal(ha, hb)
    hc, _ = build(ModelSpec.level_outside_continuum())
    assert hc[0, 0] == 5.04
    hd, _ = build(ModelSpec.custom_continuum(eps0=5.04, d=5.0, n_levels=200, spacing=0.05, v=0.01))
    np.testing.assert_array_equal(hc, hd)
    # every kind's dense H is its hub form written out
    for spec in (
        ModelSpec.two_level(),
        ModelSpec.level_in_continuum(),
        ModelSpec.level_outside_continuum(),
        ModelSpec.custom_continuum(eps0=1.5, d=5.0, n_levels=2, spacing=10.0, v=0.3),
    ):
        eps, c = hub(spec)
        want = np.diag(eps)
        want[0] += c
        want[:, 0] += c
        np.testing.assert_array_equal(build(spec)[0], want)
