"""UPA geometry, far-field position/angle mapping, steering vectors, and the
closed-form steering correlation kernel."""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"Speed of light in m/s."


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array in the yz-plane, broadside along +x.

    Elements are spaced exactly half a wavelength apart; the element count is
    ``m_y * m_z``.
    """

    m_y: int
    m_z: int
    wavelength: float = SPEED_OF_LIGHT / 7e9
    spacing_over_wavelength: float = 0.5

    def __post_init__(self):
        if self.m_y < 1 or int(self.m_y) != self.m_y:
            raise ValueError(f"array.m_y must be a positive integer, got {self.m_y}")
        if self.m_z < 1 or int(self.m_z) != self.m_z:
            raise ValueError(f"array.m_z must be a positive integer, got {self.m_z}")
        if self.wavelength <= 0:
            raise ValueError(f"array.wavelength must be > 0, got {self.wavelength}")
        if self.spacing_over_wavelength != 0.5:
            raise ValueError("array.spacing_over_wavelength is fixed at 0.5")

    @property
    def m_total(self) -> int:
        return self.m_y * self.m_z

    @property
    def spacing(self) -> float:
        return self.wavelength * self.spacing_over_wavelength


@dataclass(frozen=True)
class SceneConfig:
    """Geometry and sensing budget of one deployment.

    The controllable plane is the ``extent_y x extent_z`` rectangle centered on
    the boresight axis at distance ``distance_d``.  ``snr_gamma0`` is the
    per-snapshot post-matched-filter echo SNR; the echo power is
    ``snr_gamma0 * noise_var_sigma2``.
    """

    distance_d: float
    extent_y: float = 2.0
    extent_z: float = 2.0
    snr_gamma0: float = 10.0
    noise_var_sigma2: float = 1.0
    snapshots_l: int = 5
    pulse_duration_tp: float = 1.0
    far_field_ratio: float = 0.05

    def __post_init__(self):
        for key in ("distance_d", "extent_y", "extent_z", "snr_gamma0",
                    "noise_var_sigma2", "pulse_duration_tp"):
            v = getattr(self, key)
            if not v > 0:
                raise ValueError(f"scene.{key} must be > 0, got {v}")
        if self.snapshots_l < 1 or int(self.snapshots_l) != self.snapshots_l:
            raise ValueError(
                f"scene.snapshots_l must be a positive integer, got {self.snapshots_l}")
        ratio = max(self.extent_y, self.extent_z) / (2.0 * self.distance_d)
        if ratio > self.far_field_ratio:
            raise ValueError(
                f"scene violates the far-field small-angle regime: "
                f"extent/(2*distance) = {ratio:.4g} > {self.far_field_ratio}")

    @property
    def echo_power_rho2(self) -> float:
        return self.snr_gamma0 * self.noise_var_sigma2

    def with_snr(self, gamma0: float) -> "SceneConfig":
        return replace(self, snr_gamma0=gamma0)

    def with_snapshots(self, l: int) -> "SceneConfig":
        return replace(self, snapshots_l=l)


@dataclass(frozen=True)
class Position:
    """Offset (y, z) in meters from the center of the controllable plane."""

    y: float
    z: float


@dataclass(frozen=True)
class Displacement:
    """Free displacement vector (dy, dz) in meters between two positions."""

    dy: float
    dz: float

    def __neg__(self) -> "Displacement":
        return Displacement(-self.dy, -self.dz)

    @property
    def norm(self) -> float:
        return float(np.hypot(self.dy, self.dz))


def position_in_plane(r: Position, scene: SceneConfig, tol: float = 1e-12) -> bool:
    return (abs(r.y) <= scene.extent_y / 2 + tol
            and abs(r.z) <= scene.extent_z / 2 + tol)


def position_to_angles(r: Position, scene: SceneConfig) -> tuple[float, float]:
    """Small-angle map (y, z) -> (theta, phi) = (y/D, z/D) in radians.

    Raises ValueError for positions outside the controllable plane.
    """
    if not position_in_plane(r, scene):
        raise ValueError(
            f"position ({r.y}, {r.z}) lies outside the "
            f"{scene.extent_y} x {scene.extent_z} m plane")
    return r.y / scene.distance_d, r.z / scene.distance_d


def steering_vector(r: Position, array: ArrayConfig, scene: SceneConfig) -> np.ndarray:
    """Unit-norm array response of a scatterer at r under the small-angle map.

    Entry (m, n) is exp(j*pi*(m*y/D + n*z/D)) / sqrt(M); the two axis factors
    are combined as a Kronecker product (y-axis phases vary slowest).
    """
    uy = r.y / scene.distance_d
    uz = r.z / scene.distance_d
    ph_y = np.exp(1j * np.pi * uy * np.arange(array.m_y))
    ph_z = np.exp(1j * np.pi * uz * np.arange(array.m_z))
    return np.kron(ph_y, ph_z) / np.sqrt(array.m_total)


def _dirichlet_sq(delta: np.ndarray | float, m: int, distance_d: float):
    """Squared normalized Dirichlet kernel |sin(pi M u)/(M sin(pi u))|^2,
    u = delta/(2 D), evaluated through its periodic fold so every removable
    singularity (u at any integer) takes its series-limit value."""
    u = np.asarray(delta, dtype=float) / (2.0 * distance_d)
    u = u - np.round(u)
    amp = np.sinc(m * u) / np.sinc(u)
    return amp * amp


def steering_correlation_exact(delta: Displacement, array: ArrayConfig,
                               scene: SceneConfig) -> float:
    """Squared steering-vector correlation eta(delta) = eta_y(dy) * eta_z(dz).

    Each axis factor is a squared Dirichlet kernel with period 2D; the value is
    1 at zero displacement and 0 at kernel nulls (multiples of 2D/M on that
    axis).
    """
    return float(steering_correlation_grid(delta.dy, delta.dz, array, scene))


def steering_correlation_grid(dy: np.ndarray, dz: np.ndarray, array: ArrayConfig,
                              scene: SceneConfig) -> np.ndarray:
    """Vectorized eta over broadcastable displacement arrays."""
    ey = _dirichlet_sq(dy, array.m_y, scene.distance_d)
    ez = _dirichlet_sq(dz, array.m_z, scene.distance_d)
    return ey * ez


def _warn(message: str) -> None:
    """UserWarning attributed to the first frame outside this package: the
    code that called into the library, however deep the warning is raised."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(
            __package__ + "."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def gamma0_from_link_budget(transmit_energy: float, illumination_gain: float,
                            rcs: float, wavelength: float, distance_d: float,
                            noise_var_sigma2: float) -> float:
    """Per-snapshot echo SNR from free-space radar link-budget primitives.

    rho = sqrt(E_t * G_illum) * lambda * sqrt(rcs) / ((4 pi)^(3/2) D^2) and
    gamma0 = rho^2 / sigma^2.
    """
    rho = (np.sqrt(transmit_energy * illumination_gain)
           * wavelength * np.sqrt(rcs) / ((4 * np.pi) ** 1.5 * distance_d ** 2))
    return float(rho * rho / noise_var_sigma2)
