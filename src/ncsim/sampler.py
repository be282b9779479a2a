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

The noise is symmetric and the cost even in e, so the relative value
function h is even: the grid, h and every iterate hold the half e >= 0 only,
and E[h(e')] interpolates on [-e_max, e_max] with indices folded onto it.

At a given price most states cannot prefer staying.  E[h(e')] is a
positively weighted sum of values of h, so it is at least min(min h, 0) up
to rounding; a state whose stay cost Qe * (A^2 e^2 + Z) alone exceeds the
send value minus that floor sends, whatever h is there (MacQueen's test for
suboptimal actions, Operations Research 15, 1967).  Each iteration
therefore computes the send value first, finds the first such state of the
half e >= 0 with one searchsorted (the stay cost is nondecreasing there),
computes E[h(e')] under staying only on the states before it, and gives
every later state the send value, which the minimum of the two would have
returned bit for bit.  The bound uses min h, not 0, as h may dip below 0
(the unstable standard class's to -0.022); a margin of
1e-9 * (|send| + max |h| + 1) covers rounding.  With A = 0 or Qe = 0 no
state is cut.

A table solves its prices in ascending order.  Each price starts from the
previous price's relative value function h alone: its first iteration
computes the expected values E[h(e')] afresh, since a larger price cuts
fewer states.

Online, the price is the scaled backlog of the loop's source MAC buffer,
lambda = theta * B, so a congested source raises the threshold and throttles
its own loop.  Tables map a price grid to thresholds and interpolate; the
decision |e| > M(theta * B) is made per loop in `engine.run`.
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
    """The optimal policy was not of threshold form (grid too coarse) or hit the grid's edge."""


class ViConfig:
    """The threshold design's fixed grid and convergence settings.

    e_max/e_step define the symmetric error grid, noise_quad the number of
    Gauss-Hermite points for the N(0, Z) integral, span_tol the relative
    value iteration stopping span, max_iter its iteration cap.
    """

    e_max = 25.0
    e_step = 0.05
    noise_quad = 32
    span_tol = 1e-6
    max_iter = 500_000


def _class_params(spec: PlantSpec, sol: LqgSolution) -> tuple:
    """(a, weight * qe, z): all that a plant's threshold design depends on."""
    return spec.a, spec.weight * sol.qe, spec.z


def plant_class_id(spec: PlantSpec, sol: LqgSolution) -> str:
    """Stable identifier for the plant class a table belongs to."""
    a, qe, z = _class_params(spec, sol)
    return f"a{a:.17g}_qe{qe:.17g}_z{z:.17g}"


def default_lambda_grid() -> np.ndarray:
    """64-knot price grid: linear up to 5, geometric out to 200."""
    linear = np.arange(0.0, 5.0 + 1e-12, 0.5)
    geometric = np.geomspace(5.0, 200.0, 54)[1:]
    return np.concatenate([linear, geometric])


@dataclass(frozen=True)
class ThresholdTable:
    """Monotone map from price lambda to sampling threshold M, finite at every knot."""

    lambdas: np.ndarray
    thresholds: np.ndarray
    class_id: str

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        thr = np.asarray(self.thresholds, dtype=float)
        if lam.ndim != 1 or lam.shape != thr.shape or lam.size == 0:
            raise ValueError("lambdas and thresholds must be matching 1-D arrays")
        if not (np.isfinite(lam).all() and np.isfinite(thr).all()):
            raise ValueError("lambdas and thresholds must be finite")
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
                if not line.endswith("\n"):
                    raise ValueError(f"{path}: truncated last line {line!r}")
                a, b = line.split()
                lams.append(float(a))
                thrs.append(float(b))
        return cls(lambdas=np.array(lams), thresholds=np.array(thrs), class_id=class_id)


class _ErrorGridMdp:
    """Grid geometry and noise quadrature for one plant class, on the half e >= 0 only."""

    def __init__(self, a: float, qe: float, z: float, cfg: ViConfig):
        self.cfg = cfg
        self.params = a, qe, z
        half = int(round(cfg.e_max / cfg.e_step))
        self.grid = np.arange(half + 1) * cfg.e_step
        self.mid = half  # the index of e = 0 on the full grid of [-e_max, e_max]

        nodes, weights = np.polynomial.hermite.hermgauss(cfg.noise_quad)
        sigma = math.sqrt(z)
        self.w_pts = nodes * math.sqrt(2.0) * sigma
        self.w_wts = weights / math.sqrt(math.pi)

        self.stay = self._interp_coeffs(a * self.grid[:, None] + self.w_pts[None, :])
        self.send = self._interp_coeffs(self.w_pts.copy())

        # Qe * E[e'^2] given each action; the Qe*Z floor is paid either way.
        self.stay_cost = qe * ((a * self.grid) ** 2 + z)
        self.send_cost = qe * z

    def _interp_coeffs(self, pos):
        """(lo, hi, 1 - fr, fr) placing `pos`, clamped to [-e_max, e_max], between the full
        grid's points lo and lo + 1, folded onto the half as lo = |lo - mid| and hi =
        |lo + 1 - mid|, and two work buffers.  `pos` becomes `fr`: one temporary at a time."""
        e_max = self.cfg.e_max
        np.clip(pos, -e_max, e_max, out=pos)
        pos += e_max
        pos /= self.cfg.e_step
        lo = np.floor(pos).astype(np.int64)
        np.clip(lo, 0, 2 * self.mid - 1, out=lo)
        pos -= lo
        fr = np.clip(pos, 0.0, 1.0, out=pos)
        lo -= self.mid
        return abs(lo), abs(lo + 1), 1.0 - fr, fr, np.empty(pos.shape), np.empty(pos.shape)

    def expected_value(self, h, coeffs):
        """E[h(e')] under one action, (h[lo] * (1 - fr) + h[hi] * fr) @ w_wts to the double,
        in its work buffers, for `h` on the half grid: "clip" mode lets `take` write into
        `out` unbuffered.  Only the result is a new array."""
        lo, hi, keep, fr, low, high = coeffs
        h.take(lo, out=low, mode="clip")
        low *= keep
        h.take(hi, out=high, mode="clip")
        high *= fr
        low += high
        return low @ self.w_wts

    def backup(self, h, lam: float) -> tuple:
        """(send, stay) for `h` on the half grid: the cost-to-go of sending, and stay_cost +
        E[h(e')] on the leading states that may prefer staying; every later state sends.

        Those are the states before the first whose stay cost exceeds send - min(min h, 0)
        by a rounding margin, rounded up to a multiple of four rows: the matrix-vector
        product computes rows in blocks of four, so each row comes out as in the full
        product.  Their expected values use leading rows of the coefficients and buffers.
        """
        send = self.send_cost + lam + float(self.expected_value(h, self.send))
        lowest, highest = float(np.minimum.reduce(h)), float(np.maximum.reduce(h))
        margin = 1e-9 * (abs(send) + max(highest, -lowest) + 1.0)
        rows = int(self.stay_cost.searchsorted(send - min(lowest, 0.0) + margin, side="right"))
        rows = -(-rows // 4) * 4
        eh_stay = self.expected_value(h, [c[:rows] for c in self.stay])
        return send, self.stay_cost[:rows] + eh_stay


def _solve_threshold(lam: float, mdp: _ErrorGridMdp, h: np.ndarray | None = None):
    """Relative value iteration under `mdp.cfg` on the half e >= 0; returns (threshold, h).

    `h`, the start (none means h = 0), and the h returned hold the even value
    function on the half grid; each iterate is a fresh array no later step writes.
    """
    cfg = mdp.cfg
    if h is None:
        h = np.zeros(mdp.grid.size)
    send, stay = mdp.backup(h, lam)
    span = math.inf
    for it in range(cfg.max_iter):
        th = np.full(h.size, send)
        np.minimum(stay, send, out=th[:stay.size])
        diff = th - h
        # as Python floats, an overflowed iterate's inf - inf is nan without a warning
        span = float(np.maximum.reduce(diff)) - float(np.minimum.reduce(diff))
        if not math.isfinite(span):
            raise ValueIterationError(f"non-finite values at lambda={lam:g}: span {span} "
                                      f"after {it + 1} iterations")
        h = th - th[0]
        send, stay = mdp.backup(h, lam)
        if span <= cfg.span_tol:
            break
    else:
        raise ValueIterationError(f"no convergence at lambda={lam:g}: span {span:.3e} "
                                  f"after {cfg.max_iter} iterations")

    # Final greedy policy; ties broken toward transmitting so that a free
    # channel (lambda = 0) yields M = 0.
    half = send <= stay  # every state past the cut sends too
    first = int(np.argmax(half)) if half.any() else stay.size
    if not half[first:].all():
        raise ThresholdStructureError(f"policy at lambda={lam:g} is not threshold-form; "
                                      "refine the grid")
    # a threshold at the edge is the clamped grid's; never sampling is exact only if qe = 0
    a, qe, z = mdp.params
    if first >= h.size - 1 and qe > 0:
        raise ThresholdStructureError(f"threshold at lambda={lam:g} reaches the grid's edge "
                                      f"e_max={cfg.e_max:g} for the class a={a:g}, "
                                      f"weight*qe={qe:g}, z={z:g}")
    if first < h.size:
        return float(mdp.grid[first]), h
    return float(cfg.e_max), h


def design_threshold(lam: float, spec: PlantSpec, sol: LqgSolution,
                     cfg: ViConfig = ViConfig()) -> float:
    """Optimal sampling threshold M(lambda) for one plant class."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"price must be non-negative and finite, got {lam!r}")
    mdp = _ErrorGridMdp(*_class_params(spec, sol), cfg)
    return _solve_threshold(lam, mdp)[0]


def build_table(lambda_grid: Iterable[float], spec: PlantSpec, sol: LqgSolution,
                cfg: ViConfig = ViConfig()) -> ThresholdTable:
    """Threshold table over an ascending price grid starting at 0.

    Each solve starts from the previous price's relative value function,
    and numerical jitter is removed by isotonic clipping (running maximum).
    """
    lams = np.asarray(list(lambda_grid), dtype=float)
    if not np.isfinite(lams).all():
        raise ValueError(f"prices must be finite, got {lams[~np.isfinite(lams)].tolist()}")
    if lams.size == 0 or lams[0] != 0.0:
        raise ValueError("lambda grid must start at 0")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lambda grid must be strictly ascending")

    mdp = _ErrorGridMdp(*_class_params(spec, sol), cfg)
    thresholds = np.empty_like(lams)
    h = None
    for i, lam in enumerate(lams):
        thresholds[i], h = _solve_threshold(float(lam), mdp, h)
    thresholds = np.maximum.accumulate(thresholds)
    return ThresholdTable(lambdas=lams, thresholds=thresholds,
                          class_id=plant_class_id(spec, sol))
