"""Closed-form low-order transfer channels and the dip predictor.

Everything here treats the coupling as the perturbation and evaluates
the time integrals analytically; no quadrature anywhere. The integrals
reduce to the cardinal sine, whose 0/0 limits are exact in numpy's
`sinc`, so a band level exactly resonant with state 0 needs no special
casing.

Conventions: the interaction-picture matrix element between states s
and s' is v exp(i (eps_s - eps_s') tau). First-order imaginary parts of
coherences are frame independent; real parts carry a frame phase and
are documented per function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegenerateSpectrumError, ParameterError
from .models import ModelSpec, hub

__all__ = [
    "ChannelInputs",
    "channel_inputs",
    "coupling_integral",
    "pop_from_coherence_1st",
    "coherence_from_pop_1st",
    "pop_from_pop_2nd",
    "rho00_perturbative",
    "sigma_first_order",
    "sigma_min_predictor",
]


def _sinc(x):
    # sin(x)/x with the analytic value 1 at x = 0
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class ChannelInputs:
    """Per-channel population offsets and detunings.

    Parameters
    ----------
    delta_rho : ndarray
        rho_kk - rho_00 per band level, each in [-1, 1].
    delta_eps : ndarray
        eps_k - eps_0 per band level, hartree.
    v : float
        Coupling, hartree.
    t : float or None
        Evaluation time. The dip predictor does not need one.
    """

    delta_rho: np.ndarray
    delta_eps: np.ndarray
    v: float
    t: float | None = None

    def __post_init__(self):
        dr = np.atleast_1d(np.asarray(self.delta_rho, dtype=np.float64))
        de = np.atleast_1d(np.asarray(self.delta_eps, dtype=np.float64))
        object.__setattr__(self, "delta_rho", dr)
        object.__setattr__(self, "delta_eps", de)
        if dr.shape != de.shape or dr.ndim != 1:
            raise ParameterError(
                f"delta_rho of shape {dr.shape} does not match delta_eps of shape {de.shape}"
            )
        if not np.all(np.abs(dr) <= 1.0 + 1e-12):
            raise ParameterError("delta_rho entries must lie in [-1, 1]")


def channel_inputs(spec: ModelSpec, populations, t: float | None = None) -> ChannelInputs:
    """Build ChannelInputs from a model and a population vector."""
    pops = np.asarray(populations, dtype=np.float64)
    energies = hub(spec)[0]
    if pops.shape != energies.shape:
        raise ParameterError(
            f"{pops.size} populations for a {energies.size}-level model"
        )
    return ChannelInputs(
        delta_rho=pops[1:] - pops[0],
        delta_eps=energies[1:] - energies[0],
        v=spec.v,
        t=t,
    )


def coupling_integral(delta_eps, v: float, t: float):
    """Integral of v exp(i delta_eps tau) over tau in [0, t], closed form.

    Equals ``v t exp(i delta_eps t / 2) sinc(delta_eps t / 2)``; the
    degenerate limit v t at delta_eps = 0 falls out of the sinc.
    Broadcasts over ``delta_eps``.
    """
    x = 0.5 * np.asarray(delta_eps) * t
    return v * t * np.exp(1j * x) * _sinc(x)


def pop_from_coherence_1st(coh0, delta_eps, v: float, t: float):
    """First-order population increment of state s fed by a coherence.

    Parameters
    ----------
    coh0 : complex
        rho_{s's}(0), the coherence present when the clock starts.
    delta_eps : float or ndarray
        eps_s - eps_s'.
    v, t : float

    Returns
    -------
    float or ndarray
        2 Im[coh0 * integral], the channel through which an existing
        coherence moves population. Erasing the coherence (coh0 = 0)
        kills this channel, which is the freeze mechanism behind
        repeated measurement.
    """
    if not np.all(np.abs(coh0) <= 0.5 + 1e-12):
        raise ParameterError(f"|coh0| must not exceed 1/2, got {coh0!r}")
    if not t >= 0:
        raise ParameterError(f"t must be nonnegative, got {t!r}")
    out = 2.0 * np.imag(np.asarray(coh0) * coupling_integral(delta_eps, v, t))
    return out if out.ndim else float(out)

def coherence_from_pop_1st(pop_diff, delta_eps, v: float, t: float):
    """First-order coherence rho_{ss'} grown from a population imbalance.

    ``pop_diff`` is rho_ss(0) - rho_s's'(0). Returns
    i * pop_diff * integral. The imaginary part,
    pop_diff * v * sin(delta_eps t) / delta_eps, is frame independent;
    the real part is reported in the rotating frame of the pair.
    """
    if not np.all(np.abs(pop_diff) <= 1.0 + 1e-12):
        raise ParameterError(f"|pop_diff| must not exceed 1, got {pop_diff!r}")
    out = 1j * np.asarray(pop_diff) * coupling_integral(delta_eps, v, t)
    return out if out.ndim else complex(out)


def pop_from_pop_2nd(pop_diff, delta_eps, v: float, t: float):
    """Second-order population flow driven by a population imbalance.

    ``pop_diff`` is the partner population minus the receiving one,
    rho_s's'(0) - rho_ss(0). Returns
    pop_diff * |integral|^2 = pop_diff * (v t sinc(delta_eps t / 2))^2,
    quadratic in t near t = 0, hence the zero restart slope after any
    coherence-erasing event.
    """
    if not np.all(np.abs(pop_diff) <= 1.0 + 1e-12):
        raise ParameterError(f"|pop_diff| must not exceed 1, got {pop_diff!r}")
    amp = v * t * _sinc(0.5 * np.asarray(delta_eps) * t)
    out = np.asarray(pop_diff) * amp * amp
    return out if out.ndim else float(out)


def rho00_perturbative(spec: ModelSpec, t: float) -> float:
    """Second-order survival probability of state 0 starting from |0><0|.

    The initial state is diagonal, so first order moves no population
    and the answer is 1 plus the summed second-order outflow into every
    partner level.
    """
    energies = hub(spec)[0]
    deps = energies[1:] - energies[0]
    return 1.0 + float(np.sum(pop_from_pop_2nd(-1.0, deps, spec.v, t)))


def sigma_first_order(inputs: ChannelInputs) -> float:
    """First-order value of the summed band-to-level Im coherences.

    Evaluates v * sum_k delta_rho_k sin(delta_eps_k t) / delta_eps_k
    with the degenerate terms contributing delta_rho_k * v * t.
    """
    if inputs.t is None:
        raise ParameterError("sigma_first_order needs ChannelInputs with a time")
    t = inputs.t
    return float(inputs.v * t * np.sum(inputs.delta_rho * _sinc(inputs.delta_eps * t)))


def sigma_min_predictor(inputs: ChannelInputs) -> tuple[float, float]:
    """Small-time estimate of the first dip of the summed Im coherences.

    Expanding `sigma_first_order` to cubic order in t and minimizing
    gives, with a = sum delta_rho_k and b = sum delta_rho_k delta_eps_k^2,

        t_min = sqrt(2 |a| / |b|),
        sigma_min = -(v / 3) |2 a|^(3/2) / |b|^(1/2).

    Returns
    -------
    (t_min, sigma_min) : tuple of float

    Raises
    ------
    DegenerateSpectrumError
        If b vanishes: the detunings carry no curvature and the cubic
        model has no interior minimum.
    """
    a = float(np.sum(inputs.delta_rho))
    b = float(np.sum(inputs.delta_rho * inputs.delta_eps**2))
    if b == 0.0:
        raise DegenerateSpectrumError(
            "sum of delta_rho * delta_eps^2 vanishes; no curvature to predict a dip"
        )
    t_min = float(np.sqrt(2.0 * abs(a) / abs(b)))
    sigma_min = float(-(inputs.v / 3.0) * abs(2.0 * a) ** 1.5 / abs(b) ** 0.5)
    return t_min, sigma_min
