"""The threshold design's value iteration as it was before the row cut.

Kept as the oracle for `ncsim.sampler`: every iteration computes the stay
action's expected value E[h(a e + w)] on all 501 grid points e >= 0, and a
table's next price starts from the previous price's h and both actions'
expected values.  `_ErrorGridMdp` and `_solve_threshold` are copied
verbatim from that version; `solve_prices` runs a price grid the way
`build_table` does and keeps each price's threshold and end value function,
before the running maximum.  Not a test module itself.
"""

from __future__ import annotations

import math

import numpy as np

from ncsim.sampler import ValueIterationError, ThresholdStructureError, ViConfig, _class_params


class _ErrorGridMdp:
    """Grid geometry and noise quadrature for one plant class, the stay action on e >= 0 only."""

    def __init__(self, a: float, qe: float, z: float, cfg: ViConfig):
        self.cfg = cfg
        half = int(round(cfg.e_max / cfg.e_step))
        self.grid = (np.arange(-half, half + 1)) * cfg.e_step
        self.n = self.grid.size
        self.mid = half

        nodes, weights = np.polynomial.hermite.hermgauss(cfg.noise_quad)
        sigma = math.sqrt(z)
        self.w_pts = nodes * math.sqrt(2.0) * sigma
        self.w_wts = weights / math.sqrt(math.pi)

        upper = self.grid[half:]  # e >= 0: stay values are needed only there
        self.stay = self._interp_coeffs(a * upper[:, None] + self.w_pts[None, :])
        self.send = self._interp_coeffs(self.w_pts.copy())

        # Qe * E[e'^2] given each action; the Qe*Z floor is paid either way.
        self.stay_cost = qe * ((a * upper) ** 2 + z)
        self.send_cost = qe * z

    def _interp_coeffs(self, pos):
        """(lo, 1 - fr, fr) placing `pos`, clamped to the grid, between grid points lo and
        lo + 1, and two work buffers.  `pos` becomes `fr`: one temporary at a time."""
        e_max = self.cfg.e_max
        np.clip(pos, -e_max, e_max, out=pos)
        pos += e_max
        pos /= self.cfg.e_step
        lo = np.floor(pos).astype(np.int64)
        np.clip(lo, 0, self.n - 2, out=lo)
        pos -= lo
        fr = np.clip(pos, 0.0, 1.0, out=pos)
        return lo, 1.0 - fr, fr, np.empty(pos.shape), np.empty(pos.shape)

    def expected_value(self, h, coeffs):
        """E[h(e')] under one action, (h[lo] * (1 - fr) + h[lo + 1] * fr) @ w_wts to the
        double, in its work buffers: h[lo + 1] is h[1:][lo] as lo <= n - 2, and "clip"
        mode lets `take` write into `out` unbuffered.  Only the result is a new array."""
        lo, keep, fr, low, high = coeffs
        np.take(h, lo, out=low, mode="clip")
        low *= keep
        np.take(h[1:], lo, out=high, mode="clip")
        high *= fr
        low += high
        return low @ self.w_wts

    def expected_values(self, h) -> tuple:
        """(E[h(e')] per state e >= 0 if not sending, E[h(e')] if sending), for an even `h`."""
        return self.expected_value(h, self.stay), float(self.expected_value(h, self.send))


def _solve_threshold(lam: float, mdp: _ErrorGridMdp, start: tuple | None = None):
    """Relative value iteration under `mdp.cfg` on the half e >= 0; returns (threshold, end).

    A start or end is (h, mdp.expected_values(h)) with h over the full,
    mirrored grid, in arrays no later step writes; no start means h = 0.
    The end holds the final greedy step's values, so a solve started from
    it, as `build_table`'s next price is, does not compute them again.
    """
    cfg = mdp.cfg
    if start is None:
        h = np.zeros(mdp.n)
        start = h, mdp.expected_values(h)
    h, (eh_stay, eh_send) = start
    span = math.inf
    for _ in range(cfg.max_iter):
        th = np.minimum(mdp.stay_cost + eh_stay, mdp.send_cost + lam + eh_send)
        diff = th - h[mdp.mid:]
        span = float(diff.max() - diff.min())
        th -= th[0]
        h = np.concatenate((th[:0:-1], th))  # h is even in e: mirror the half e >= 0
        eh_stay, eh_send = mdp.expected_values(h)
        if span <= cfg.span_tol:
            break
    else:
        raise ValueIterationError(f"no convergence at lambda={lam:g}: span {span:.3e} "
                                  f"after {cfg.max_iter} iterations")

    # Final greedy policy; ties broken toward transmitting so that a free
    # channel (lambda = 0) yields M = 0.
    half = (mdp.send_cost + lam + eh_send) <= (mdp.stay_cost + eh_stay)
    if half.any():
        first = int(np.argmax(half))
        if not half[first:].all():
            raise ThresholdStructureError(f"policy at lambda={lam:g} is not threshold-form; "
                                          "refine the grid")
        threshold = float(mdp.grid[mdp.mid + first])
    else:
        threshold = float(cfg.e_max)
    return threshold, (h, (eh_stay, eh_send))


def solve_prices(lambdas, spec, sol, cfg: ViConfig = ViConfig()):
    """([threshold per price], [h at each price's end]) over an ascending price grid."""
    mdp = _ErrorGridMdp(*_class_params(spec, sol), cfg)
    thresholds, ends, start = [], [], None
    for lam in lambdas:
        threshold, start = _solve_threshold(float(lam), mdp, start)
        thresholds.append(threshold)
        ends.append(start[0])
    return thresholds, ends
