"""The quantum belief-propagation channel and the high-peak tent density.

The channel conjugates its input by exp(-iG(theta)t) and averages t over the
tent density p(t) = (2/pi) ln|coth(pi t/2)|. In the G(theta) eigenbasis this
reduces exactly to an elementwise spectral filter on eigenvalue gaps,
f(d) = tanh(d/2)/(d/2), which is how the channel is applied here. The sampler
for p(t) backs the shot estimators: it inverts a piecewise-linear CDF whose
node values are exact (p has a dilogarithm antiderivative), with the grid
refined near the logarithmic peak so the sampled law is within total-variation
1e-6 of the true density, validated when the sampler is built. The cached
default sampler is built once per process, in about 0.5 s on 2 cores (168 MB
traced peak), and keeps 96 MB of grid and CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import spence

from .linalg import hermitize

if TYPE_CHECKING:
    from .gibbs import ThermalState

T_MAX = 12.0
NODES_PER_SECTION = 1_500_000
TV_BOUND = 1e-6
_TV_BLOCK = 1 << 18


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent RNG stream derived by hashing (master_seed, *key).

    This is the artifact-wide split rule: every shot worker, matrix element,
    training iteration, and metrology repeat gets its own stream, so results
    are bitwise reproducible regardless of evaluation order or worker count.
    """
    parts = (int(master_seed),) + tuple(int(k) for k in key)
    if any(p < 0 for p in parts):
        raise ValueError("seed components must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence(entropy=parts))


def tent_density(t):
    """p(t) = (2/pi) ln|coth(pi t / 2)|, the high-peak tent probability density.

    Diverges (integrably) at t = 0, which is rejected; callers integrate
    around the singularity rather than evaluating at it.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t == 0.0):
        raise ValueError("tent density is singular at t = 0")
    z = np.exp(-np.pi * np.abs(t))
    # ln coth(x) = log1p(z) - log1p(-z) with z = exp(-2x); stable in both tails
    out = (2.0 / np.pi) * (np.log1p(z) - np.log1p(-z))
    return float(out) if out.ndim == 0 else out


def filter_value(delta):
    """Spectral filter of the channel on an eigenvalue gap: tanh(d/2)/(d/2), f(0) = 1."""
    d = np.asarray(delta, dtype=float)
    small = np.abs(d) < 1e-6
    safe = np.where(small, 1.0, d)
    out = np.where(small, 1.0 - d * d / 12.0, np.tanh(safe / 2.0) / (safe / 2.0))
    return float(out) if out.ndim == 0 else out


def _dilog(x):
    # Li2(x) for x in [-1, 1]
    return spence(1.0 - np.asarray(x, dtype=float))


def _upper_tail(t):
    """Integral of p over [t, inf) for t >= 0, in closed form."""
    z = np.exp(-np.pi * np.asarray(t, dtype=float))
    return (2.0 / np.pi**2) * (_dilog(z) - _dilog(-z))


def _cdf_exact(t):
    """CDF of the tent density."""
    t = np.asarray(t, dtype=float)
    tail = _upper_tail(np.abs(t))
    return np.where(t >= 0, 1.0 - tail, tail)


def _positive_nodes(t_max: float, nodes_per_section: int) -> np.ndarray:
    # sqrt spacing on (0, 1] resolves the log peak (|p'| ~ 1/t there); uniform
    # beyond, where p decays like exp(-pi t)
    k = np.arange(1, nodes_per_section + 1, dtype=float)
    near = (k / nodes_per_section) ** 2
    far = 1.0 + (t_max - 1.0) * k / nodes_per_section
    return np.concatenate([near, far])


def _density_crossing(p_hat: np.ndarray) -> np.ndarray:
    # |t| where p(t) equals p_hat: coth(pi t/2) = exp(pi p_hat/2)
    return (1.0 / np.pi) * np.log1p(2.0 / np.expm1(np.pi * p_hat / 2.0))


def _cell_l1(a, b, f_a, f_b, mass):
    # integral of |p - mass/(b-a)| over each positive cell [a, b]; f_* is the true CDF
    p_hat = mass / (b - a)
    ok = p_hat > 1e-300
    tau = np.clip(np.where(ok, _density_crossing(np.where(ok, p_hat, 1.0)), a), a, b)
    return np.where(ok, np.abs(2.0 * _cdf_exact(tau) - f_a - f_b + p_hat * (a + b - 2.0 * tau)), mass)


def _tv_distance(grid: np.ndarray, cdf: np.ndarray, t_max: float) -> float:
    """Exact total variation between the sampled (piecewise-constant) law and p.

    Within each positive cell the true density is monotone, so |p - p_hat|
    integrates in closed form through the single crossing point; the negative
    half mirrors it, and the truncated tail mass beyond t_max is added.
    """
    half = len(grid) // 2
    a, b = grid[half:-1], grid[half + 1:]  # positive-half cells, [0, t1], ...
    f_a, f_b = cdf[half:-1], cdf[half + 1:]
    cell_l1 = np.empty(len(a))
    for lo in range(0, len(a), _TV_BLOCK):
        s = slice(lo, lo + _TV_BLOCK)
        cell_l1[s] = _cell_l1(a[s], b[s], f_a[s], f_b[s], f_b[s] - f_a[s])
    # the last node is clamped to 1; the true CDF there is short by the truncated tail
    cell_l1[-1:] = _cell_l1(a[-1:], b[-1:], f_a[-1:], _cdf_exact(b[-1:]), f_b[-1:] - f_a[-1:])
    l1 = 2.0 * float(np.sum(cell_l1)) + 2.0 * float(_upper_tail(t_max))
    return l1 / 2.0


@dataclass(frozen=True)
class TentSampler:
    """Grid inverse-CDF sampler for the tent density on [-t_max, t_max].

    `cdf` holds exact CDF values at the grid nodes (endpoints clamped to 0/1;
    the true endpoint deviation is below 1e-16). `tv_error` is the measured
    total-variation distance between the sampled law and the true density.
    """

    grid: np.ndarray = field(repr=False)
    cdf: np.ndarray = field(repr=False)
    t_max: float
    tv_error: float

    def __post_init__(self):
        if self.cdf[0] > 1e-12 or 1.0 - self.cdf[-1] > 1e-12:
            raise ValueError("CDF endpoints do not cover [0, 1]")
        if self.tv_error > TV_BOUND:
            raise ValueError(
                f"sampled law is {self.tv_error:.2e} from the tent density in TV, "
                f"above the {TV_BOUND:.0e} bound"
            )


def build_tent_sampler(
    t_max: float = T_MAX, nodes_per_section: int = NODES_PER_SECTION
) -> TentSampler:
    pos = _positive_nodes(t_max, nodes_per_section)
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    del pos
    tail = _upper_tail(grid[len(grid) // 2:])  # the grid is symmetric: mirror one half
    cdf = np.concatenate([tail[:0:-1], 1.0 - tail])
    del tail
    cdf[0], cdf[-1] = 0.0, 1.0
    tv = _tv_distance(grid, cdf, t_max)
    grid.setflags(write=False)
    cdf.setflags(write=False)
    return TentSampler(grid=grid, cdf=cdf, t_max=t_max, tv_error=tv)


@lru_cache(maxsize=1)
def default_sampler() -> TentSampler:
    return build_tent_sampler()


def sample_t(sampler: TentSampler, rng: np.random.Generator, size: int | None = None):
    """Inverse-CDF draws: bisect the CDF grid, interpolate linearly in the cell."""
    u = rng.random(size if size is not None else 1)
    idx = np.searchsorted(sampler.cdf, u, side="right") - 1
    idx = np.clip(idx, 0, len(sampler.grid) - 2)
    lo, hi = sampler.cdf[idx], sampler.cdf[idx + 1]
    den = hi - lo
    frac = np.where(den > 0, (u - lo) / np.where(den > 0, den, 1.0), 0.5)
    t = sampler.grid[idx] + frac * (sampler.grid[idx + 1] - sampler.grid[idx])
    return float(t[0]) if size is None else t


def filter_matrix(mu: np.ndarray) -> np.ndarray:
    """Matrix of filter values on all eigenvalue gaps mu_k - mu_l."""
    return filter_value(mu[:, None] - mu[None, :])


def apply_channel(ts: ThermalState, x: np.ndarray) -> np.ndarray:
    """Exact channel action on a Hermitian operator via the spectral filter."""
    x = hermitize(x)
    if x.shape[0] != ts.dim:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {ts.dim}")
    return channel_from_eigenbasis(ts, ts.to_eigenbasis(x))


def channel_from_eigenbasis(ts: ThermalState, x_eig: np.ndarray) -> np.ndarray:
    """Phi(X) in the computational basis, for X given in the G(theta) eigenbasis."""
    out = ts.from_eigenbasis(ts.filter * x_eig)
    return hermitize(out, tol=1e-10 * (1.0 + float(np.max(np.abs(out)))))
