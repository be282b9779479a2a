"""Threshold design for event-triggered sampling, priced by MAC backlog.

For a scalar loop the optimal sampling law is a threshold rule: transmit
iff |e| > M(lambda), where lambda is the communication price.  M is found
offline by relative value iteration on the average-cost MDP over the
one-step-ahead estimation error:

    state   e on a uniform grid of [-e_max, e_max]
    action  delta in {0, 1}
    next    e' = (1 - delta) * A * e + w,   w ~ N(0, Z)
    cost    Qe * E[e'^2] + lambda * delta
            = Qe * ((1 - delta) * A^2 * e^2 + Z) + lambda * delta

i.e. a sampling decision is charged the error cost it can still influence,
the error that materializes one step later.  (Charging the pre-decision
error (1-delta)*Qe*e^2 instead yields thresholds 15-25% away from the
published curves; this timing reproduces them to within ~2%.)

Online, the price is the scaled backlog of the loop's source MAC buffer,
lambda = theta * B, so a congested source raises the threshold and throttles
its own loop.  Tables map a price grid to thresholds and interpolate; the
decision |e| > M(theta * B) itself is made for all loops at once in
`engine.run`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .control import LqgSolution, PlantSpec


class ValueIterationError(RuntimeError):
    """Relative value iteration did not reach the span tolerance."""


class ThresholdStructureError(RuntimeError):
    """The optimal policy was not of threshold form (grid too coarse)."""


@dataclass(frozen=True)
class ViConfig:
    """Grid and convergence knobs for the threshold design.

    e_max/e_step define the symmetric error grid, noise_quad the number of
    Gauss-Hermite points for the N(0, Z) integral, span_tol the relative
    value iteration stopping span.
    """

    e_max: float = 25.0
    e_step: float = 0.05
    noise_quad: int = 32
    span_tol: float = 1e-6
    max_iter: int = 500_000

    def __post_init__(self):
        for name in ("e_max", "e_step", "span_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.e_max / self.e_step < 100:
            raise ValueError("e_max/e_step must be at least 100 (grid too coarse)")
        if self.noise_quad < 2:
            raise ValueError("noise_quad must be at least 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


def plant_class_id(spec: PlantSpec, sol: LqgSolution) -> str:
    """Stable identifier for the scalar plant class a table belongs to."""
    if not spec.is_scalar:
        raise ValueError("threshold design is defined for scalar plants")
    a = float(spec.A[0, 0])
    qe = float(spec.weight * sol.Qe[0, 0])
    z = float(spec.Z[0, 0])
    return f"a{a:g}_qe{qe:g}_z{z:g}"


def default_lambda_grid() -> np.ndarray:
    """64-knot price grid: linear up to 5, geometric out to 200."""
    linear = np.arange(0.0, 5.0 + 1e-12, 0.5)
    geometric = np.geomspace(5.0, 200.0, 54)[1:]
    return np.concatenate([linear, geometric])


@dataclass(frozen=True)
class ThresholdTable:
    """Monotone map from price lambda to sampling threshold M."""

    lambdas: np.ndarray
    thresholds: np.ndarray
    class_id: str

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        thr = np.asarray(self.thresholds, dtype=float)
        if lam.ndim != 1 or lam.shape != thr.shape or lam.size == 0:
            raise ValueError("lambdas and thresholds must be matching 1-D arrays")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("lambda grid must be strictly ascending")
        if lam[0] < 0:
            raise ValueError("prices must be non-negative")
        if np.any(np.diff(thr) < 0):
            raise ValueError("thresholds must be nondecreasing")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "thresholds", thr)

    def lookup_many(self, lam: np.ndarray) -> np.ndarray:
        """Piecewise-linear interpolation, clamped to the last knot above the grid."""
        return np.interp(lam, self.lambdas, self.thresholds)

    def save(self, path) -> None:
        """Two-column plain text (lambda, M) with a class-naming header.

        Values carry 17 significant digits so a load reproduces the
        doubles exactly.  The text goes to a per-process temporary file
        beside `path` that is then renamed onto it, so runs sharing a cache
        directory never read or interleave a partly written table.
        """
        lines = [f"# threshold-table class={self.class_id}"]
        for lam, thr in zip(self.lambdas, self.thresholds):
            lines.append(f"{lam:.17g} {thr:.17g}")
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "ThresholdTable":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header.startswith("# threshold-table class="):
                raise ValueError(f"{path}: not a threshold table file")
            class_id = header.split("class=", 1)[1].strip()
            lams, thrs = [], []
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                a, b = line.split()
                lams.append(float(a))
                thrs.append(float(b))
        return cls(lambdas=np.array(lams), thresholds=np.array(thrs), class_id=class_id)


class _ErrorGridMdp:
    """Precomputed grid geometry and noise quadrature for one plant class."""

    def __init__(self, a: float, qe: float, z: float, cfg: ViConfig):
        self.a = a
        self.qe = qe
        self.cfg = cfg
        half = int(round(cfg.e_max / cfg.e_step))
        self.grid = (np.arange(-half, half + 1)) * cfg.e_step
        self.n = self.grid.size
        self.mid = half

        nodes, weights = np.polynomial.hermite.hermgauss(cfg.noise_quad)
        sigma = math.sqrt(max(z, 0.0))
        self.w_pts = nodes * math.sqrt(2.0) * sigma
        self.w_wts = weights / math.sqrt(math.pi)

        # Transitions leaving the grid are clamped to the boundary state.
        stay_pos = np.clip(a * self.grid[:, None] + self.w_pts[None, :],
                           -cfg.e_max, cfg.e_max)
        self.stay_lo, self.stay_fr = self._interp_coeffs(stay_pos)
        send_pos = np.clip(self.w_pts, -cfg.e_max, cfg.e_max)
        self.send_lo, self.send_fr = self._interp_coeffs(send_pos)

        # Qe * E[e'^2] given each action; the Qe*Z floor is paid either way.
        self.stay_cost = qe * ((a * self.grid) ** 2 + z)
        self.send_cost = qe * z

    def _interp_coeffs(self, pos):
        scaled = (pos + self.cfg.e_max) / self.cfg.e_step
        lo = np.clip(np.floor(scaled).astype(np.int64), 0, self.n - 2)
        fr = np.clip(scaled - lo, 0.0, 1.0)
        return lo, fr

    def expected_value(self, h, lo, fr):
        vals = h[lo] * (1.0 - fr) + h[lo + 1] * fr
        return vals @ self.w_wts


def _solve_threshold(lam: float, mdp: _ErrorGridMdp, cfg: ViConfig,
                     h0: np.ndarray | None = None):
    """Relative value iteration; returns (threshold, h, average_cost, iters)."""
    h = np.zeros(mdp.n) if h0 is None else h0.copy()
    span = math.inf
    for it in range(1, cfg.max_iter + 1):
        eh_stay = mdp.expected_value(h, mdp.stay_lo, mdp.stay_fr)
        eh_send = float(mdp.expected_value(h, mdp.send_lo, mdp.send_fr))
        stay = mdp.stay_cost + eh_stay
        send = mdp.send_cost + lam + eh_send
        th = np.minimum(stay, send)
        th = 0.5 * (th + th[::-1])  # dynamics and costs are even in e
        diff = th - h
        span = float(diff.max() - diff.min())
        avg_cost = 0.5 * float(diff.max() + diff.min())
        h = th - th[mdp.mid]
        if span <= cfg.span_tol:
            break
    else:
        raise ValueIterationError(
            f"no convergence at lambda={lam:g}: span {span:.3e} after {cfg.max_iter} iterations"
        )

    # Final greedy policy; ties broken toward transmitting so that a free
    # channel (lambda = 0) yields M = 0.
    eh_stay = mdp.expected_value(h, mdp.stay_lo, mdp.stay_fr)
    eh_send = float(mdp.expected_value(h, mdp.send_lo, mdp.send_fr))
    send_opt = (mdp.send_cost + lam + eh_send) <= (mdp.stay_cost + eh_stay)
    half = send_opt[mdp.mid:]
    flips = np.flatnonzero(np.diff(half.astype(np.int8)))
    if half.any():
        first = int(np.argmax(half))
        if flips.size > 1 or not half[first:].all():
            raise ThresholdStructureError(
                f"policy at lambda={lam:g} is not threshold-form; refine the grid"
            )
        threshold = float(mdp.grid[mdp.mid + first])
    else:
        threshold = float(mdp.cfg.e_max)
    return threshold, h, avg_cost, it


def _plant_mdp(spec: PlantSpec, sol: LqgSolution, cfg: ViConfig) -> _ErrorGridMdp:
    if not spec.is_scalar:
        raise ValueError("threshold design is defined for scalar plants")
    return _ErrorGridMdp(a=float(spec.A[0, 0]), qe=float(spec.weight * sol.Qe[0, 0]),
                         z=float(spec.Z[0, 0]), cfg=cfg)


def design_threshold(lam: float, spec: PlantSpec, sol: LqgSolution,
                     cfg: ViConfig = ViConfig()) -> float:
    """Optimal sampling threshold M(lambda) for one scalar plant class."""
    if lam < 0:
        raise ValueError("price must be non-negative")
    mdp = _plant_mdp(spec, sol, cfg)
    threshold, _, _, _ = _solve_threshold(lam, mdp, cfg)
    return threshold


def build_table(lambda_grid: Iterable[float], spec: PlantSpec, sol: LqgSolution,
                cfg: ViConfig = ViConfig()) -> ThresholdTable:
    """Threshold table over an ascending price grid starting at 0.

    Successive solves warm-start from the previous relative value function,
    and numerical jitter is removed by isotonic clipping (running maximum).
    """
    lams = np.asarray(list(lambda_grid), dtype=float)
    if lams.size == 0 or lams[0] != 0.0:
        raise ValueError("lambda grid must start at 0")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lambda grid must be strictly ascending")

    mdp = _plant_mdp(spec, sol, cfg)
    thresholds = np.empty_like(lams)
    h = None
    for i, lam in enumerate(lams):
        thresholds[i], h, _, _ = _solve_threshold(float(lam), mdp, cfg, h0=h)
    thresholds = np.maximum.accumulate(thresholds)
    return ThresholdTable(lambdas=lams, thresholds=thresholds,
                          class_id=plant_class_id(spec, sol))
