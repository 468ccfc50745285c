"""UPA geometry, steering vectors under the far-field small-angle map, and
the closed-form steering correlation kernel."""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array in the yz-plane, broadside along +x.

    Elements are spaced exactly half a wavelength apart, so the carrier
    wavelength cancels out of every steering phase; the element count is
    ``m_y * m_z``.
    """

    m_y: int
    m_z: int

    def __post_init__(self):
        if self.m_y < 1 or int(self.m_y) != self.m_y:
            raise ValueError(f"array.m_y must be a positive integer, got {self.m_y}")
        if self.m_z < 1 or int(self.m_z) != self.m_z:
            raise ValueError(f"array.m_z must be a positive integer, got {self.m_z}")

    @property
    def m_total(self) -> int:
        return self.m_y * self.m_z


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
            if not 0 < v < np.inf:
                raise ValueError(f"scene.{key} must be finite and > 0, got {v}")
        if self.snapshots_l < 1 or int(self.snapshots_l) != self.snapshots_l:
            raise ValueError(
                f"scene.snapshots_l must be a positive integer, got {self.snapshots_l}")
        ratio = max(self.extent_y, self.extent_z) / (2.0 * self.distance_d)
        if not ratio <= self.far_field_ratio:
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


def position_in_plane(r: Position, scene: SceneConfig, tol: float = 1e-12) -> bool:
    return (abs(r.y) <= scene.extent_y / 2 + tol
            and abs(r.z) <= scene.extent_z / 2 + tol)


def steering_matrix(y, z, array: ArrayConfig, scene: SceneConfig) -> np.ndarray:
    """Unit-norm array responses of scatterers at broadcastable in-plane
    offsets (y, z) under the small-angle map; the last axis is the M elements.

    Entry (m, n) is exp(j*pi*(m*y/D + n*z/D)) / sqrt(M), the product of the two
    axis phase factors with the y-axis index varying slowest.
    """
    uy = np.asarray(y, dtype=float) / scene.distance_d
    uz = np.asarray(z, dtype=float) / scene.distance_d
    ph_y = np.exp(1j * np.pi * uy[..., None] * np.arange(array.m_y))
    ph_z = np.exp(1j * np.pi * uz[..., None] * np.arange(array.m_z))
    a = ph_y[..., :, None] * ph_z[..., None, :]
    a /= np.sqrt(array.m_total)  # in place: a support grid's atoms are tens of MB
    return a.reshape(*a.shape[:-2], array.m_total)


def steering_vector(r: Position, array: ArrayConfig, scene: SceneConfig) -> np.ndarray:
    """Unit-norm array response of a scatterer at r: one row of
    steering_matrix."""
    return steering_matrix(r.y, r.z, array, scene)


_EPS = float(np.finfo(float).eps)


def _dirichlet_sq(delta: np.ndarray | float, m: int, distance_d: float):
    """Squared normalized Dirichlet kernel |sin(pi M u)/(M sin(pi u))|^2,
    u = delta/(2 D), evaluated through its periodic fold so every removable
    singularity (u at any integer) takes its series-limit value.

    Bit for bit (np.sinc(M u) / np.sinc(u))**2: np.sinc(x) is sin(y) / y
    with y = pi x, and y = eps where y == 0.  Written out on three buffers
    this function owns, without np.sinc's temporaries and call overhead.
    A scalar or 0-d input gives a numpy scalar, as np.sin does."""
    u = np.asarray(delta, dtype=float)
    u = np.divide(u, 2.0 * distance_d, out=np.empty(u.shape))
    y_m = np.rint(u, out=np.empty(u.shape))  # np.round's value at 0 decimals
    u -= y_m
    # y_m = (M u) pi is 0 exactly where u is: M >= 1 and pi > 1 cannot
    # underflow a nonzero u, and the fold keeps |u| <= 1/2
    zero = u == 0
    np.multiply(u, m, out=y_m)
    y_m *= np.pi
    u *= np.pi
    np.copyto(y_m, _EPS, where=zero)
    np.copyto(u, _EPS, where=zero)
    amp = np.sin(y_m)
    amp /= y_m
    np.sin(u, out=y_m)
    y_m /= u
    amp /= y_m
    amp *= amp
    return amp


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
