"""Closed-form channel formulas against quadrature, exact dynamics and
special-function oracles."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from zenosim.core import DegenerateSpectrumError, ParameterError
from zenosim.diagnostics import record_observables
from zenosim.models import ModelSpec, build
from zenosim.perturbation import (
    ChannelInputs,
    channel_inputs,
    coherence_from_pop_1st,
    coupling_integral,
    pop_from_coherence_1st,
    pop_from_pop_2nd,
    rho00_perturbative,
    sigma_first_order,
    sigma_min_predictor,
)
from zenosim.propagator import eigendecompose, evolve

TWO = ModelSpec.two_level()
LIC = ModelSpec.level_in_continuum()


def initial_inputs(spec, t=None):
    pops = np.zeros(spec.dim)
    pops[0] = 1.0
    return channel_inputs(spec, pops, t)


def test_coupling_integral_against_quadrature():
    """The closed form equals the straight numerical integral."""
    for deps, v, t in [(0.4, 0.2, 1.0), (-2.3, 0.01, 7.0), (0.0, 0.5, 3.0)]:
        re = quad(lambda u: v * np.cos(deps * u), 0.0, t)[0]
        im = quad(lambda u: v * np.sin(deps * u), 0.0, t)[0]
        got = coupling_integral(deps, v, t)
        np.testing.assert_allclose(got, re + 1j * im, rtol=1e-10, atol=1e-12)


def test_coupling_integral_degenerate_channel():
    assert coupling_integral(0.0, 0.2, 3.0) == pytest.approx(0.6 + 0.0j)


def test_coupling_integral_broadcasts():
    out = coupling_integral(np.array([0.0, 0.4, -0.4]), 0.2, 1.0)
    assert out.shape == (3,)
    np.testing.assert_allclose(out[1], np.conj(out[2]))


def test_first_order_coherence_two_level():
    # Im part is frame independent: -v sin(deps t) / deps from |0><0|
    got = coherence_from_pop_1st(-1.0, 0.4, 0.2, 1.0)
    np.testing.assert_allclose(got.imag, -0.2 * np.sin(0.4) / 0.4, atol=1e-14)


def test_first_order_coherence_error_is_cubic_in_coupling():
    """Im rho_10 is odd in v, so the first-order error shrinks as v^3."""

    def error(v):
        h, rho0 = build(ModelSpec.two_level(v=v))
        exact = np.asarray(evolve(rho0, eigendecompose(h), 1.0))[1, 0].imag
        return abs(exact - coherence_from_pop_1st(-1.0, 0.4, v, 1.0).imag)

    assert error(0.2) < 1.0 * 0.2**3
    ratio = error(0.2) / error(0.02)
    assert 900.0 < ratio < 1100.0, f"cubic ratio {ratio}"


def test_second_order_survival_two_level():
    got = rho00_perturbative(TWO, 1.0)
    np.testing.assert_allclose(got, 0.9605304970014426, atol=1e-13)
    # within 1e-3 of the exact 0.96105535...
    assert abs(got - 0.9610553536741537) < 1e-3


def test_second_order_survival_degenerate_limit():
    spec = ModelSpec.two_level(eps0=0.0, eps1=0.0, v=0.1)
    np.testing.assert_allclose(rho00_perturbative(spec, 2.0), 1.0 - 0.04, atol=1e-14)


def test_restart_channels_compose_across_a_segment():
    """Propagating 1 a.u. past an unmeasured state needs both channels.

    From the exact state at t = 1 the next unit of transfer is the
    coherence-fed first-order piece plus the population-fed second-order
    piece; together they land within (vt)^3 of the exact increment,
    while either alone does not.
    """
    h, rho0 = build(TWO)
    spectral = eigendecompose(h)
    state = evolve(rho0, spectral, 1.0)
    coh = np.asarray(state)[1, 0]
    pops = record_observables(state, h)[0]
    p1 = pop_from_coherence_1st(coh, -0.4, 0.2, 1.0)
    p2 = pop_from_pop_2nd(pops[1] - pops[0], -0.4, 0.2, 1.0)
    exact_step = np.asarray(evolve(state, spectral, 1.0))[0, 0].real - pops[0]
    assert abs((p1 + p2) - exact_step) < 4e-3
    assert abs(p1 - exact_step) > 0.03  # single channels miss badly
    assert abs(p2 - exact_step) > 0.06


def test_erased_coherence_kills_first_order_channel():
    assert pop_from_coherence_1st(0.0, 0.4, 0.2, 1.0) == 0.0


def test_population_channel_quadratic_restart():
    # fresh diagonal state: outflow starts as (vt)^2, slope zero at t=0
    small = pop_from_pop_2nd(-1.0, 0.4, 0.2, 1e-4)
    np.testing.assert_allclose(small, -(0.2 * 1e-4) ** 2, rtol=1e-6)


def test_channel_gates():
    with pytest.raises(ParameterError):
        pop_from_coherence_1st(0.7, 0.4, 0.2, 1.0)  # |coh| > 1/2
    with pytest.raises(ParameterError):
        pop_from_coherence_1st(0.1, 0.4, 0.2, -1.0)
    with pytest.raises(ParameterError):
        coherence_from_pop_1st(1.5, 0.4, 0.2, 1.0)
    with pytest.raises(ParameterError):
        pop_from_pop_2nd(-1.2, 0.4, 0.2, 1.0)


def test_channel_inputs_validation():
    with pytest.raises(ParameterError):
        ChannelInputs(delta_rho=np.zeros(3), delta_eps=np.zeros(4), v=0.1)
    with pytest.raises(ParameterError):
        ChannelInputs(delta_rho=np.array([1.5]), delta_eps=np.array([0.0]), v=0.1)
    with pytest.raises(ParameterError):
        channel_inputs(TWO, np.array([1.0, 0.0, 0.0]))


def test_sigma_first_order_needs_time():
    with pytest.raises(ParameterError):
        sigma_first_order(initial_inputs(TWO))


def test_sigma_first_order_band_matches_sine_integral():
    """For the in-band model the channel sum is a discretized sine integral.

    sigma(t) ~ -2 (v / spacing) Si(d t); by t = 50 this sits within a
    few 1e-4 of the -pi v / spacing plateau.
    """
    got = sigma_first_order(initial_inputs(LIC, 50.0))
    oracle = -2.0 * (0.01 / 0.05) * sici(5.0 * 50.0)[0]
    np.testing.assert_allclose(got, oracle, rtol=1e-3)
    plateau = -np.pi * 0.01 / 0.05
    np.testing.assert_allclose(got, plateau, rtol=1e-2)


def numeric_sigma_minimum(spec, t_hi):
    inputs = initial_inputs(spec)
    ts = np.arange(1e-4, t_hi, 1e-4)
    vals = np.array(
        [
            sigma_first_order(
                ChannelInputs(inputs.delta_rho, inputs.delta_eps, inputs.v, t)
            )
            for t in ts
        ]
    )
    i = int(np.argmin(vals))
    return ts[i], vals[i]


def test_numeric_minimum_two_level():
    t_num, s_num = numeric_sigma_minimum(TWO, 6.0)
    # -0.5 sin(0.4 t) bottoms out at 0.4 t = pi/2
    np.testing.assert_allclose(t_num, np.pi / 0.8, atol=2e-4)
    np.testing.assert_allclose(s_num, -0.5, atol=1e-8)


def test_numeric_minimum_in_band():
    t_num, s_num = numeric_sigma_minimum(LIC, 3.0)
    np.testing.assert_allclose(t_num, 0.6283, atol=2e-4)
    np.testing.assert_allclose(s_num, -0.7407643482034524, atol=1e-9)


def test_predictor_frozen_values():
    t_min, s_min = sigma_min_predictor(initial_inputs(TWO))
    np.testing.assert_allclose(t_min, 3.5355339059327373, atol=1e-13)
    np.testing.assert_allclose(s_min, -0.4714045207910317, atol=1e-13)
    t_min, s_min = sigma_min_predictor(initial_inputs(LIC))
    np.testing.assert_allclose(t_min, 0.48988570156718186, atol=1e-13)
    np.testing.assert_allclose(s_min, -0.6531809354229091, atol=1e-13)


def test_predictor_two_level_close_to_numeric():
    """The cubic model lands within 10% of the true two-level minimum."""
    t_min, s_min = sigma_min_predictor(initial_inputs(TWO))
    t_num, s_num = numeric_sigma_minimum(TWO, 6.0)
    assert abs(t_min - t_num) / t_num < 0.10
    assert abs(s_min - s_num) / abs(s_num) < 0.06


def test_predictor_homogeneity():
    """Scaling every population offset scales the dip, not its time."""
    base = initial_inputs(LIC)
    scaled = ChannelInputs(0.25 * base.delta_rho, base.delta_eps, base.v)
    t0, s0 = sigma_min_predictor(base)
    t1, s1 = sigma_min_predictor(scaled)
    np.testing.assert_allclose(t1, t0, rtol=1e-12)
    np.testing.assert_allclose(s1, 0.25 * s0, rtol=1e-12)


def test_predictor_degenerate_spectrum():
    flat = ChannelInputs(np.array([-1.0, -1.0]), np.array([0.0, 0.0]), 0.1)
    with pytest.raises(DegenerateSpectrumError):
        sigma_min_predictor(flat)


@pytest.mark.parametrize(
    "spec, c, times",
    [
        (TWO, 0.25, np.arange(0.05, 2.0001, 0.05)),
        (LIC, 100.0, np.arange(0.1, 50.0001, 0.5)),
    ],
    ids=["two_level", "in_band"],
)
def test_survival_error_bounded_by_cubic_envelope(spec, c, times):
    h, rho0 = build(spec)
    spectral = eigendecompose(h)
    for t in times:
        exact = np.asarray(evolve(rho0, spectral, t))[0, 0].real
        gap = abs(exact - rho00_perturbative(spec, t))
        assert gap <= c * (spec.v * t) ** 3, f"t={t}: gap {gap}"


def test_band_outflow_starts_quadratically():
    # 200 equal channels: 1 - rho00 ~ n (v t)^2 before detunings bite
    coeff = (1.0 - rho00_perturbative(LIC, 0.05)) / 0.05**2
    np.testing.assert_allclose(coeff, 200 * 0.01**2, rtol=0.01)
