"""Parafoil (parachute canopy) flight dynamics.

A nine-state point-mass-plus-roll model of a gliding ram-air canopy, the
standard reduced model for precision-airdrop guidance studies. The state
vector is

``[x, y, z, psi, omega, vh, vz, phi, p]``

* ``x, y`` — horizontal position of the package (m), target at the origin;
* ``z`` — altitude above ground (m);
* ``psi`` — heading angle (rad);
* ``omega`` — turn rate (rad/s), the *rotation* the agent commands;
* ``vh`` — horizontal airspeed along the heading (m/s);
* ``vz`` — sink rate (m/s, positive down);
* ``phi`` — roll (bank) angle of the canopy (rad);
* ``p`` — roll rate (rad/s).

The steering command ``u ∈ [-1, 1]`` (asymmetric brake deflection) drives a
first-order turn-rate response. Turning demands a coordinated bank, so the
roll mode — a lightly damped pendulum with natural frequency
``roll_omega0`` — is excited by every maneuver; a banked canopy sideslips
(lateral velocity ∝ sin φ), sheds lift (faster sink) and bleeds airspeed.

The roll mode is the reason the Runge–Kutta order matters at the 1 s
control period the environment integrates with: at ``h ≈ 1`` s a
2.4 rad/s oscillation sits on the edge of a 3rd-order method's stability
envelope, so RK23 distorts the canopy's lateral motion where DOP853
resolves it — reproducing the paper's "lower order → less accurate
observations → lower reward" effect from physics rather than scripting.

All functions are pure; randomness (gusts) enters only through the frozen
``wind`` vector argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParafoilParams",
    "parafoil_rhs",
    "make_rhs",
    "trim_glide_ratio",
    "turn_radius",
    "steady_bank",
    "STATE_DIM",
]

#: Indices into the state vector, exported for readability elsewhere.
IX, IY, IZ, IPSI, IOMEGA, IVH, IVZ, IPHI, IP = range(9)

STATE_DIM = 9

#: a numpy scalar, so a binary ufunc on a numpy-scalar operand skips the
#: conversion of a Python float (same value, about half the call cost)
_GRAVITY = np.float64(9.81)


@dataclass(frozen=True)
class ParafoilParams:
    """Physical parameters of the canopy/payload system.

    Defaults model a mid-size cargo canopy: ~10 m/s forward trim speed,
    ~5 m/s sink, maximum sustained turn rate ~0.6 rad/s, and a lightly
    damped roll (pendulum) mode around 2.4 rad/s — fast enough that a
    3rd-order method at the 1 s control step sits on its stability edge.
    """

    v_trim: float = 10.0        # trim horizontal airspeed (m/s)
    vz_trim: float = 5.0        # trim sink rate (m/s)
    tau_v: float = 2.5          # airspeed relaxation time constant (s)
    tau_vz: float = 1.5         # sink-rate relaxation time constant (s)
    tau_turn: float = 0.8       # turn-rate response time constant (s)
    omega_max: float = 0.6      # max commanded turn rate (rad/s)
    turn_drag: float = 0.35     # quadratic turn-rate damping coefficient
    roll_omega0: float = 2.4    # roll pendulum natural frequency (rad/s)
    roll_zeta: float = 0.10     # roll damping ratio
    slip_gain: float = 0.55     # lateral sideslip speed fraction per sin(phi)
    bank_sink_gain: float = 6.0   # extra sink per sin^2(phi) (m/s)
    bank_speed_loss: float = 3.5  # airspeed bleed per sin^2(phi) (m/s)

    def __post_init__(self) -> None:
        if min(self.v_trim, self.vz_trim, self.tau_v, self.tau_vz, self.tau_turn) <= 0:
            raise ValueError("speeds and time constants must be positive")
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")
        if self.roll_omega0 <= 0 or self.roll_zeta < 0:
            raise ValueError("roll mode must have positive frequency, non-negative damping")


def trim_glide_ratio(params: ParafoilParams) -> float:
    """Horizontal distance covered per unit altitude lost in straight flight."""
    return params.v_trim / params.vz_trim


def turn_radius(params: ParafoilParams) -> float:
    """Approximate minimum turning radius at full deflection (m)."""
    return params.v_trim / params.omega_max


def steady_bank(vh: float, omega: float) -> float:
    """Coordinated-turn bank angle ``atan(vh * omega / g)``."""
    return float(np.arctan2(vh * omega, _GRAVITY))


def parafoil_rhs(
    t: float,
    state: np.ndarray,
    u: float | np.ndarray,
    wind: np.ndarray,
    params: ParafoilParams,
) -> np.ndarray:
    """Time derivative of the parafoil state, over the trailing state axis.

    Every operation is elementwise, so row ``i`` of a batch is
    bit-identical to the call on row ``i`` alone. A ``(9,)`` row runs on
    numpy scalars, which keeps one row as cheap as a dedicated scalar
    model would be.

    Parameters
    ----------
    t:
        Time (the model is autonomous; kept for the integrator signature).
    state:
        One state row ``[x, y, z, psi, omega, vh, vz, phi, p]`` of shape
        ``(9,)``, or a batch of rows ``(N, 9)``; the result has its shape.
    u:
        Steering command in ``[-1, 1]`` (positive = turn left), a scalar
        or ``(N,)``.
    wind:
        Horizontal wind vector ``[wx, wy]`` frozen over the step, ``(2,)``
        or ``(N, 2)``.
    params:
        Canopy parameters.
    """
    columns = state.T  # one entry (row) or column (batch) per state variable
    psi, omega, vh, vz = columns[IPSI], columns[IOMEGA], columns[IVH], columns[IVZ]
    phi, p = columns[IPHI], columns[IP]
    wind = wind.T

    cos_psi = np.cos(psi)
    sin_psi = np.sin(psi)
    sin_phi = np.sin(phi)
    sin_phi_sq = sin_phi * sin_phi

    # Kinematics: ground velocity = forward airspeed along the heading,
    # plus bank-induced sideslip perpendicular to it, plus wind drift.
    v_lat = params.slip_gain * vh * sin_phi
    dx = vh * cos_psi - v_lat * sin_psi + wind[0]
    dy = vh * sin_psi + v_lat * cos_psi + wind[1]
    dz = -vz

    # Heading/turn-rate dynamics: first-order response to the commanded
    # turn rate with quadratic aerodynamic damping.
    omega_cmd = u * params.omega_max
    domega = (omega_cmd - omega) / params.tau_turn - params.turn_drag * omega * abs(omega)

    # Roll pendulum, driven toward the coordinated-turn bank angle
    # (:func:`steady_bank`).
    phi_ss = np.arctan2(vh * omega, _GRAVITY)
    w0 = params.roll_omega0
    dphi = p
    dp = -w0 * w0 * (sin_phi - np.sin(phi_ss)) - 2.0 * params.roll_zeta * w0 * p

    # Energy couplings: banking sheds lift (faster sink) and bleeds speed.
    vh_target = params.v_trim - params.bank_speed_loss * sin_phi_sq
    vz_target = params.vz_trim + params.bank_sink_gain * sin_phi_sq
    dvh = (vh_target - vh) / params.tau_v
    dvz = (vz_target - vz) / params.tau_vz

    return np.array([dx, dy, dz, omega, domega, dvh, dvz, dphi, dp]).T


def make_rhs(u: float | np.ndarray, wind: np.ndarray, params: ParafoilParams):
    """Bind control and wind into an ``f(t, y)`` suitable for the integrators.

    The control is clipped to ``[-1, 1]``; ``u`` and ``wind`` are shaped
    like the leading axes of the states ``f`` will be called on (a scalar
    and ``(2,)`` for one row).
    """
    u = np.minimum(np.maximum(u, -1.0), 1.0)
    wind = np.asarray(wind, dtype=np.float64)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return parafoil_rhs(t, y, u, wind, params)

    return rhs
