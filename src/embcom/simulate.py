"""Monte Carlo simulation of the multi-snapshot Gaussian sensing channel:
snapshot synthesis, the accumulated-energy ML decoder, and empirical error
estimation against the analytic predictions.

The error estimate draws the decoder's sufficient statistic, the J x L
matched-filter outputs A^H Y, directly instead of the M x L snapshot; the full
synthesis stays in ``draw_channel_use`` as the reference."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, SceneConfig, steering_matrix
from .codebook import Codebook
from .field import bhattacharyya_grid

__all__ = ["SnapshotBatch", "SimReport", "draw_channel_use", "ml_decode",
           "ml_decode_loglik", "estimate_errors", "wilson_halfwidth"]


@dataclass(frozen=True)
class SnapshotBatch:
    """One channel use: the M x L observation and the index that produced it."""

    y_matrix: np.ndarray
    true_index: int


# trials drawn from one RNG stream by ``estimate_errors``
_BLOCK = 1024


def _rng_for(seed: int, codeword: int, index: int) -> np.random.Generator:
    # one independent stream per (codeword, index), where the index is a trial
    # of ``draw_channel_use`` or a block of trials of ``estimate_errors``;
    # reproducible under any execution order
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(codeword, index)))


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # i.i.d. CN(0, 2): independent standard normal real and imaginary parts
    return rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]


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
    a = steering_matrix(*cb.points[j], array, scene)
    rng = _rng_for(rng_seed, j, trial)
    y = _draw(rng, a, array.m_total, scene.snapshots_l,
              scene.echo_power_rho2, scene.noise_var_sigma2)
    return SnapshotBatch(y, j)


def _energy_statistics(proj: np.ndarray) -> np.ndarray:
    # a_j^H Y Y^H a_j accumulated over snapshots, from the matched-filter
    # outputs proj[..., j, l] = a_j^H y_l
    return np.einsum("...jl,...jl->...j", proj, proj.conj()).real


def _gram_factor(g: np.ndarray) -> np.ndarray:
    """J x r factor C with C C^H = G of a Hermitian positive semidefinite G:
    outer-product Cholesky with diagonal pivoting, stopped once the largest
    remaining diagonal is at most J eps max(diag G), so r is G's numerical
    rank.  Equal rows of G give bitwise-equal rows of C."""
    j = g.shape[0]
    res = np.array(g, dtype=np.complex128)
    tol = j * np.finfo(float).eps * float(res.diagonal().real.max())
    cols = []
    for _ in range(j):
        d = res.diagonal().real
        p = int(np.argmax(d))
        if d[p] <= tol:
            break
        c = res[:, p] / math.sqrt(d[p])
        res -= np.outer(c, c.conj())
        cols.append(c)
    return np.stack(cols, axis=1)


def ml_decode(batch: SnapshotBatch, cb: Codebook, array: ArrayConfig,
              scene: SceneConfig) -> int:
    """Maximum-likelihood decision: the candidate whose steering vector
    captures the most accumulated sensing energy, argmax_j a_j^H Y Y^H a_j.
    Ties resolve to the lowest index."""
    if len(cb) < 1:
        raise ValueError("codebook is empty")
    a_conj = steering_matrix(*cb.points.T, array, scene).conj()
    return int(np.argmax(_energy_statistics(a_conj @ batch.y_matrix)))


def ml_decode_loglik(batch: SnapshotBatch, cb: Codebook, array: ArrayConfig,
                     scene: SceneConfig) -> int:
    """Reference decoder minimizing the full negative log-likelihood
    L log det R_j + tr(R_j^-1 Y Y^H) with explicit M x M covariances; agrees
    with the energy form since det R_j is hypothesis independent."""
    if len(cb) < 1:
        raise ValueError("codebook is empty")
    m = array.m_total
    l = scene.snapshots_l
    s2, g0 = scene.noise_var_sigma2, scene.snr_gamma0
    yyh = batch.y_matrix @ batch.y_matrix.conj().T
    costs = []
    for a in steering_matrix(*cb.points.T, array, scene):
        r = s2 * (np.eye(m) + g0 * np.outer(a, a.conj()))
        sign, logdet = np.linalg.slogdet(r)
        costs.append(l * logdet + np.trace(np.linalg.solve(r, yyh)).real)
    return int(np.argmin(costs))


def wilson_halfwidth(errors, trials: int):
    """Half-width of the 95% Wilson score interval for a binomial rate: a
    float for one error count, an array for an array of counts."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = 1.959963984540054  # standard normal 97.5% quantile
    p = errors / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4.0 * trials * trials))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SimReport:
    """Empirical error rates with confidence half-widths and the analytic
    bounds they are checked against.  The tables are read-only arrays, row i
    of a (J, J) table the codeword sent; reports compare by identity."""

    trials: int
    per_codeword_error: np.ndarray
    max_error: float
    wilson_halfwidth_95: float
    union_bound_prediction: float
    b_min: float
    pairwise_empirical: np.ndarray
    pairwise_bound: np.ndarray
    pairwise_halfwidth: np.ndarray
    seed: int

    def bound_violations(self) -> list[str]:
        """Hard soundness checks: empirical rates may not exceed their
        analytic bounds by more than the statistical half-width."""
        out = []
        if self.max_error > self.union_bound_prediction + self.wilson_halfwidth_95:
            out.append(
                f"max error {self.max_error:.6g} exceeds union bound "
                f"{self.union_bound_prediction:.6g} + {self.wilson_halfwidth_95:.6g}")
        emp = self.pairwise_empirical
        cap = self.pairwise_bound + self.pairwise_halfwidth
        over = emp > cap
        np.fill_diagonal(over, False)
        out += [f"pairwise {i}->{k} rate {emp[i, k]:.6g} exceeds "
                f"bound-plus-halfwidth {cap[i, k]:.6g}"
                for i, k in zip(*np.nonzero(over))]
        return out


def estimate_errors(cb: Codebook, trials_per_codeword: int, rng_seed: int,
                    scene: SceneConfig, array: ArrayConfig) -> SimReport:
    """Condition on each codeword in turn, decode ``trials_per_codeword``
    independent channel uses, and tabulate per-codeword and pairwise confusion
    rates with Wilson 95% half-widths next to the analytic union-bound and
    per-pair predictions.

    Under codeword i the decoder reads A^H Y = G[:, i] h^T + A^H N with
    G = A^H A; the columns of A^H N are i.i.d. CN(0, sigma^2 G), the law of
    C W for C C^H = G and W with i.i.d. CN(0, sigma^2) entries.  So each trial
    draws h and the r x L matrix W, not the M x L snapshot, for any rank r of
    G.  Trials of one codeword come in blocks of ``_BLOCK``, one RNG stream
    per (codeword, block)."""
    if trials_per_codeword < 100:
        raise ValueError(
            f"trials_per_codeword must be >= 100, got {trials_per_codeword}")
    j = len(cb)
    if j < 1:
        raise ValueError("codebook is empty")
    l = scene.snapshots_l
    pts = cb.points
    a_mat = steering_matrix(*pts.T, array, scene)
    gram = np.einsum("jm,km->jk", a_mat.conj(), a_mat)
    # the draws' scale sqrt(variance / 2) per part is folded into the factors
    # once, not applied per trial
    noise = _gram_factor(gram) * math.sqrt(scene.noise_var_sigma2 / 2.0)
    echo = gram * math.sqrt(scene.echo_power_rho2 / 2.0)
    r = noise.shape[1]

    n = trials_per_codeword
    confusion = np.zeros((j, j), dtype=np.int64)
    for i in range(j):
        for b, start in enumerate(range(0, n, _BLOCK)):
            nb = min(_BLOCK, n - start)
            rng = _rng_for(rng_seed, i, b)
            h = _complex_normal(rng, (nb, 1, l))
            w = _complex_normal(rng, (nb, r, l))
            proj = noise @ w + echo[:, i, None] * h
            decided = np.argmax(_energy_statistics(proj), axis=1)
            confusion[i] += np.bincount(decided, minlength=j)

    per_cw_err = (n - confusion.diagonal()) / n
    worst = int(np.argmax(per_cw_err))
    hw_max = wilson_halfwidth(n - int(confusion[worst, worst]), n)

    dy = pts[:, None, 0] - pts[None, :, 0]
    dz = pts[:, None, 1] - pts[None, :, 1]
    b = bhattacharyya_grid(dy, dz, array, scene)
    pair_bound = np.exp(-l * b)
    np.fill_diagonal(pair_bound, 1.0)
    b_min = float(b[~np.eye(j, dtype=bool)].min()) if j >= 2 else math.inf
    union = float((j - 1) * math.exp(-l * b_min)) if j >= 2 else 0.0
    return SimReport(
        trials=n,
        per_codeword_error=_read_only(per_cw_err),
        max_error=float(per_cw_err[worst]),
        wilson_halfwidth_95=float(hw_max),
        union_bound_prediction=union,
        b_min=b_min,
        pairwise_empirical=_read_only(confusion / n),
        pairwise_bound=_read_only(pair_bound),
        pairwise_halfwidth=_read_only(wilson_halfwidth(confusion, n)),
        seed=rng_seed,
    )
