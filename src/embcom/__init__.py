"""Scatterer-position channel analysis.

A point scatterer placed on a distant controllable plane imprints its position
on the covariance of a multi-snapshot array observation.  This package maps
that sensing geometry end to end: the pairwise reliability field over
displacements, lattice codebooks packed against the field's forbidden region,
information-theoretic and geometric converses, and a Monte Carlo simulator
that validates every analytic bound.
"""

from .arrays import (ArrayConfig, Displacement, Position, SceneConfig,
                     steering_correlation_exact, steering_vector)
from .bounds import (binary_entropy, geo_bound_mainlobe, info_bound_universal,
                     optimal_snapshots)
from .codebook import (Codebook, DesignReport, greedy_packing_baseline,
                       hexagonal_design, lambert_w0, make_codebook,
                       verify_codebook)
from .field import (QuadraticFieldParams, b_codebook, b_necessary,
                    bhattacharyya_exact, bhattacharyya_quadratic,
                    necessary_separation_dnec, quadratic_params)
from .simulate import (SimReport, SnapshotBatch, draw_channel_use,
                       estimate_errors, ml_decode)
from .sweep import bound_sweep, lstar_sweep, rate_sweep

__version__ = "0.1.0"
