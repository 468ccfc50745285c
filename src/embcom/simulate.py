"""Monte Carlo simulation of the multi-snapshot Gaussian sensing channel:
snapshot synthesis, the accumulated-energy ML decoder, and empirical error
estimation against the analytic predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, SceneConfig, steering_vector
from .codebook import Codebook
from .field import bhattacharyya_grid

__all__ = ["SnapshotBatch", "SimReport", "draw_channel_use", "ml_decode",
           "ml_decode_loglik", "estimate_errors", "wilson_halfwidth"]


@dataclass(frozen=True)
class SnapshotBatch:
    """One channel use: the M x L observation and the index that produced it."""

    y_matrix: np.ndarray
    true_index: int


def _rng_for(seed: int, codeword: int, trial: int) -> np.random.Generator:
    # one independent stream per (codeword, trial); reproducible under any
    # execution order
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(codeword, trial)))


def _draw(rng: np.random.Generator, a: np.ndarray, m: int, l: int,
          rho2: float, sigma2: float) -> np.ndarray:
    h = rng.standard_normal(l) + 1j * rng.standard_normal(l)
    h *= math.sqrt(rho2 / 2.0)
    n = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
    n *= math.sqrt(sigma2 / 2.0)
    return np.outer(a, h) + n


def draw_channel_use(cb: Codebook, j: int, rng_seed: int, scene: SceneConfig,
                     array: ArrayConfig, trial: int = 0) -> SnapshotBatch:
    """Synthesize Y = a(r_j) h^T + N with h_l ~ CN(0, rho^2) i.i.d. across the
    L snapshots and N with i.i.d. CN(0, sigma^2) entries.  The draw is fully
    determined by (rng_seed, j, trial)."""
    if not 0 <= j < len(cb):
        raise ValueError(f"codeword index {j} out of range for J={len(cb)}")
    a = steering_vector(cb.positions[j], array, scene)
    rng = _rng_for(rng_seed, j, trial)
    y = _draw(rng, a, array.m_total, scene.snapshots_l,
              scene.echo_power_rho2, scene.noise_var_sigma2)
    return SnapshotBatch(y, j)


def _steering_matrix(cb: Codebook, array: ArrayConfig, scene: SceneConfig) -> np.ndarray:
    return np.array([steering_vector(p, array, scene) for p in cb.positions])


def _energy_statistics(y: np.ndarray, a_conj: np.ndarray) -> np.ndarray:
    # a_j^H Y Y^H a_j accumulated over snapshots; rows of a_conj are a_j^*
    proj = a_conj @ y
    return np.einsum("jl,jl->j", proj, proj.conj()).real


def ml_decode(batch: SnapshotBatch, cb: Codebook, array: ArrayConfig,
              scene: SceneConfig) -> int:
    """Maximum-likelihood decision: the candidate whose steering vector
    captures the most accumulated sensing energy, argmax_j a_j^H Y Y^H a_j.
    Ties resolve to the lowest index."""
    if len(cb) < 1:
        raise ValueError("codebook is empty")
    a_conj = _steering_matrix(cb, array, scene).conj()
    return int(np.argmax(_energy_statistics(batch.y_matrix, a_conj)))


def ml_decode_loglik(batch: SnapshotBatch, cb: Codebook, array: ArrayConfig,
                     scene: SceneConfig) -> int:
    """Reference decoder minimizing the full negative log-likelihood
    L log det R_j + tr(R_j^-1 Y Y^H) with explicit M x M covariances; agrees
    with the energy form since det R_j is hypothesis independent."""
    m = array.m_total
    l = scene.snapshots_l
    s2, g0 = scene.noise_var_sigma2, scene.snr_gamma0
    yyh = batch.y_matrix @ batch.y_matrix.conj().T
    costs = []
    for p in cb.positions:
        a = steering_vector(p, array, scene)
        r = s2 * (np.eye(m) + g0 * np.outer(a, a.conj()))
        sign, logdet = np.linalg.slogdet(r)
        costs.append(l * logdet + np.trace(np.linalg.solve(r, yyh)).real)
    return int(np.argmin(costs))


def wilson_halfwidth(errors: int, trials: int, z: float = 1.959963984540054) -> float:
    """Half-width of the Wilson score interval for a binomial rate."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = errors / trials
    denom = 1.0 + z * z / trials
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4.0 * trials * trials))
    return half


@dataclass(frozen=True)
class SimReport:
    """Empirical error rates with confidence half-widths and the analytic
    bounds they are checked against."""

    trials: int
    per_codeword_error: tuple[float, ...]
    max_error: float
    wilson_halfwidth_95: float
    union_bound_prediction: float
    b_min: float
    pairwise_empirical: tuple[tuple[float, ...], ...]
    pairwise_bound: tuple[tuple[float, ...], ...]
    pairwise_halfwidth: tuple[tuple[float, ...], ...]
    seed: int

    def bound_violations(self) -> list[str]:
        """Hard soundness checks: empirical rates may not exceed their
        analytic bounds by more than the statistical half-width."""
        out = []
        if self.max_error > self.union_bound_prediction + self.wilson_halfwidth_95:
            out.append(
                f"max error {self.max_error:.6g} exceeds union bound "
                f"{self.union_bound_prediction:.6g} + {self.wilson_halfwidth_95:.6g}")
        j = len(self.per_codeword_error)
        for i in range(j):
            for k in range(j):
                if i == k:
                    continue
                emp = self.pairwise_empirical[i][k]
                cap = self.pairwise_bound[i][k] + self.pairwise_halfwidth[i][k]
                if emp > cap:
                    out.append(f"pairwise {i}->{k} rate {emp:.6g} exceeds "
                               f"bound-plus-halfwidth {cap:.6g}")
        return out


def estimate_errors(cb: Codebook, trials_per_codeword: int, rng_seed: int,
                    scene: SceneConfig, array: ArrayConfig) -> SimReport:
    """Condition on each codeword in turn, decode ``trials_per_codeword``
    independent channel uses, and tabulate per-codeword and pairwise confusion
    rates with Wilson 95% half-widths next to the analytic union-bound and
    per-pair predictions."""
    if trials_per_codeword < 100:
        raise ValueError(
            f"trials_per_codeword must be >= 100, got {trials_per_codeword}")
    j = len(cb)
    if j < 1:
        raise ValueError("codebook is empty")
    m, l = array.m_total, scene.snapshots_l
    rho2, s2 = scene.echo_power_rho2, scene.noise_var_sigma2
    a_mat = _steering_matrix(cb, array, scene)
    a_conj = a_mat.conj()  # once, not per trial: no per-trial J x M temporary

    confusion = np.zeros((j, j), dtype=np.int64)
    for i in range(j):
        a_true = a_mat[i]
        for t in range(trials_per_codeword):
            rng = _rng_for(rng_seed, i, t)
            y = _draw(rng, a_true, m, l, rho2, s2)
            confusion[i, int(np.argmax(_energy_statistics(y, a_conj)))] += 1

    n = trials_per_codeword
    per_cw_err = tuple(float((n - confusion[i, i]) / n) for i in range(j))
    worst = int(np.argmax(per_cw_err))
    hw_max = wilson_halfwidth(n - int(confusion[worst, worst]), n)

    pts = cb.as_array()
    dy = pts[:, None, 0] - pts[None, :, 0]
    dz = pts[:, None, 1] - pts[None, :, 1]
    b = bhattacharyya_grid(dy, dz, array, scene)
    pair_bound = np.exp(-l * b)
    np.fill_diagonal(pair_bound, 1.0)
    b_min = float(b[~np.eye(j, dtype=bool)].min()) if j >= 2 else math.inf
    union = float((j - 1) * math.exp(-l * b_min)) if j >= 2 else 0.0

    pair_emp = confusion / n
    pair_hw = np.array([[wilson_halfwidth(int(confusion[i, k]), n) for k in range(j)]
                        for i in range(j)])
    return SimReport(
        trials=n,
        per_codeword_error=per_cw_err,
        max_error=float(max(per_cw_err)),
        wilson_halfwidth_95=float(hw_max),
        union_bound_prediction=union,
        b_min=b_min,
        pairwise_empirical=tuple(tuple(float(x) for x in row) for row in pair_emp),
        pairwise_bound=tuple(tuple(float(x) for x in row) for row in pair_bound),
        pairwise_halfwidth=tuple(tuple(float(x) for x in row) for row in pair_hw),
        seed=rng_seed,
    )
