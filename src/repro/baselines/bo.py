"""Minimal Gaussian-process Bayesian optimisation (numpy/scipy only).

Aquatope relies on an offline Bayesian-optimisation training process to
learn good per-stage configurations for every application.  This module
provides the optimiser that :mod:`repro.baselines.aquatope` uses: a standard
GP surrogate with an RBF kernel and expected-improvement acquisition over
the unit hypercube, following the training protocol described in
Section 4.2 of the ESG paper (100 bootstrapping samples, 50 rounds, five
configurations sampled per round).

Scipy is imported inside the three methods that call it, never at module
level: a process loads it on its first BO fit, so every run that does not
train Aquatope starts without it (docs/performance.md, "Start-up and
memory"). ``tests/integration/test_startup_imports.py`` guards this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["GaussianProcess", "BayesianOptimizer", "BOResult"]


@dataclass
class GaussianProcess:
    """GP regressor with an RBF kernel and observation noise.

    The target values are standardised internally so the prior mean (zero)
    and unit signal variance are reasonable regardless of the objective's
    scale.
    """

    lengthscale: float | None = None
    noise: float = 1e-4
    _x: np.ndarray | None = field(default=None, repr=False)
    _y_mean: float = field(default=0.0, repr=False)
    _y_std: float = field(default=1.0, repr=False)
    _chol: tuple[np.ndarray, bool] | None = field(default=None, repr=False)
    _alpha: np.ndarray | None = field(default=None, repr=False)

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-0.5 * sq / (self.lengthscale**2))

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit the GP to observations ``x`` (n x d) and ``y`` (n,)."""
        from scipy.linalg import cho_factor, cho_solve

        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]} values")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a GP to zero observations")
        if self.lengthscale is None:
            # Median-distance heuristic.
            if x.shape[0] > 1:
                diffs = x[:, None, :] - x[None, :, :]
                dists = np.sqrt(np.sum(diffs**2, axis=-1))
                positive = dists[dists > 0]
                self.lengthscale = float(np.median(positive)) if positive.size else 1.0
            else:
                self.lengthscale = 1.0
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        y_norm = (y - self._y_mean) / self._y_std
        k = self._kernel(x, x)
        k[np.diag_indices_from(k)] += self.noise
        self._chol = cho_factor(k, lower=True)
        self._alpha = cho_solve(self._chol, y_norm)
        self._x = x
        return self

    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``x_new`` (m x d)."""
        from scipy.linalg import cho_solve

        if self._x is None or self._alpha is None or self._chol is None:
            raise RuntimeError("GaussianProcess.predict called before fit")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        k_star = self._kernel(x_new, self._x)
        mean_norm = k_star @ self._alpha
        v = cho_solve(self._chol, k_star.T)
        var = 1.0 + self.noise - np.sum(k_star * v.T, axis=1)
        np.maximum(var, 1e-12, out=var)
        mean = mean_norm * self._y_std + self._y_mean
        std = np.sqrt(var) * self._y_std
        return mean, std


@dataclass(frozen=True)
class BOResult:
    """Outcome of one Bayesian-optimisation run."""

    best_x: np.ndarray
    best_y: float
    xs: np.ndarray
    ys: np.ndarray
    evaluations: int


@dataclass
class BayesianOptimizer:
    """Expected-improvement BO over the unit hypercube (minimisation).

    Parameters
    ----------
    num_dims:
        Dimensionality of the search space (each dimension in [0, 1]).
    objective:
        Callable mapping a point (1-d array of length ``num_dims``) to the
        scalar to minimise.
    rng:
        Random generator (bootstrap samples and candidate pools).
    bootstrap:
        Number of random samples before the surrogate is used (the paper's
        Aquatope setup uses 100).
    rounds:
        Number of BO rounds (paper: 50).
    samples_per_round:
        Configurations sampled per round (paper: 5).
    candidate_pool:
        Number of random candidates scored by expected improvement per round.
    """

    num_dims: int
    objective: Callable[[np.ndarray], float]
    rng: np.random.Generator
    bootstrap: int = 100
    rounds: int = 50
    samples_per_round: int = 5
    candidate_pool: int = 256

    def __post_init__(self) -> None:
        if self.num_dims < 1:
            raise ValueError("num_dims must be >= 1")
        if self.bootstrap < 1:
            raise ValueError("bootstrap must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.samples_per_round < 1:
            raise ValueError("samples_per_round must be >= 1")

    @staticmethod
    def expected_improvement(mean: np.ndarray, std: np.ndarray, best_y: float) -> np.ndarray:
        """EI of candidate points for a minimisation problem."""
        from scipy.stats import norm

        improvement = best_y - mean
        z = improvement / std
        return improvement * norm.cdf(z) + std * norm.pdf(z)

    def run(self) -> BOResult:
        """Execute the bootstrap + BO rounds and return the best point found."""
        xs = list(self.rng.uniform(0.0, 1.0, size=(self.bootstrap, self.num_dims)))
        ys = [float(self.objective(x)) for x in xs]

        for _ in range(self.rounds):
            gp = GaussianProcess().fit(np.asarray(xs), np.asarray(ys))
            best_y = min(ys)
            candidates = self.rng.uniform(0.0, 1.0, size=(self.candidate_pool, self.num_dims))
            mean, std = gp.predict(candidates)
            ei = self.expected_improvement(mean, std, best_y)
            picks = np.argsort(-ei)[: self.samples_per_round]
            for idx in picks:
                x = candidates[idx]
                xs.append(x)
                ys.append(float(self.objective(x)))

        ys_arr = np.asarray(ys)
        best_idx = int(np.argmin(ys_arr))
        return BOResult(
            best_x=np.asarray(xs[best_idx]),
            best_y=float(ys_arr[best_idx]),
            xs=np.asarray(xs),
            ys=ys_arr,
            evaluations=len(ys),
        )
