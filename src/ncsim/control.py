"""LQG machinery for stochastic LTI loops under intermittent state updates.

A loop is x[k+1] = A x[k] + B u[k] + w[k] with w ~ N(0, Z) i.i.d., running
under certainty-equivalence control u = -K xhat.  The gain K comes from the
stationary solution P of the discrete Riccati equation

    P = Qx + A' (P - P B (Qu + B' P B)^-1 B' P) A

and the residual cost of *not* refreshing the estimate is weighted by

    Qe = K' (Qu + B' P B) K,

so the achievable cost floor with perfect state knowledge is Tr(P Z).

The estimator is model based: it coasts on (A - B K) between packet
deliveries and snaps to the delivered sample.  When the delivery arrives
late, it rolls the sample forward by its own model, z <- A z + B u, through
each input applied since the sample was taken.  The per-period plant,
estimator and error updates of scalar loops run inline in `engine.run`; the
late-delivery roll-forward is `estimator_deliver`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RICCATI_TOL = 1e-9
RICCATI_MAX_ITER = 1_000_000

_SYM_TOL = 1e-9


class RiccatiDivergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance within the cap."""


class ReplayError(RuntimeError):
    """Input history does not cover the steps needed to replay a delivery."""


def _matrix(value, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(value, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be a scalar or 2-D matrix")
    return m


def _check_sym_psd(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if not np.allclose(m, m.T, atol=_SYM_TOL):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(m).min() < -_SYM_TOL:
        raise ValueError(f"{name} must be positive semi-definite")


@dataclass(frozen=True)
class PlantSpec:
    """Parameters of one LTI loop and its quadratic cost.

    A: system matrix (n x n), B: input matrix (n x m), Z: noise covariance,
    Qx/Qu: state/input cost weights, weight: this loop's weight in the
    network-wide cost.
    """

    A: np.ndarray
    B: np.ndarray
    Z: np.ndarray
    Qx: np.ndarray
    Qu: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "A", _matrix(self.A, "A"))
        object.__setattr__(self, "B", _matrix(self.B, "B"))
        object.__setattr__(self, "Z", _matrix(self.Z, "Z"))
        object.__setattr__(self, "Qx", _matrix(self.Qx, "Qx"))
        object.__setattr__(self, "Qu", _matrix(self.Qu, "Qu"))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B row count must match A")
        m = self.B.shape[1]
        if self.Z.shape != (n, n):
            raise ValueError("Z must be n x n")
        if self.Qx.shape != (n, n):
            raise ValueError("Qx must be n x n")
        if self.Qu.shape != (m, m):
            raise ValueError("Qu must be m x m")
        _check_sym_psd(self.Z, "Z")
        _check_sym_psd(self.Qx, "Qx")
        _check_sym_psd(self.Qu, "Qu")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")

    @property
    def is_scalar(self) -> bool:
        return self.A.shape == (1, 1) and self.B.shape == (1, 1)


@dataclass(frozen=True)
class LqgSolution:
    """Riccati fixed point P, optimal gain K, error weight Qe, cost floor Tr(P Z)."""

    P: np.ndarray
    K: np.ndarray
    Qe: np.ndarray
    floor_cost: float


def solve_riccati(spec: PlantSpec, tol: float = RICCATI_TOL,
                  max_iter: int = RICCATI_MAX_ITER) -> np.ndarray:
    """Stationary P by fixed-point iteration from P0 = Qx.

    Raises RiccatiDivergenceError if the max-norm residual stays above
    `tol` for `max_iter` iterations, and LinAlgError if Qu + B'PB becomes
    singular along the way.
    """
    A, B, Qx, Qu = spec.A, spec.B, spec.Qx, spec.Qu
    P = Qx.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        gain_term = np.linalg.solve(Qu + BtP @ B, BtP)
        P_next = Qx + A.T @ (P - P @ B @ gain_term) @ A
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) <= tol:
            return P_next
        P = P_next
    raise RiccatiDivergenceError(
        f"Riccati iteration did not converge within {max_iter} iterations "
        f"for A={spec.A.tolist()}, B={spec.B.tolist()}"
    )


def compute_gain(P: np.ndarray, spec: PlantSpec) -> LqgSolution:
    """Optimal gain K = (B'PB + Qu)^-1 B'PA plus the derived cost weights."""
    S = spec.Qu + spec.B.T @ P @ spec.B
    K = np.linalg.solve(S, spec.B.T @ P @ spec.A)
    Qe = K.T @ S @ K
    floor = float(np.trace(P @ spec.Z))
    return LqgSolution(P=P, K=K, Qe=Qe, floor_cost=floor)


def design_lqg(spec: PlantSpec) -> LqgSolution:
    """Convenience: Riccati solve followed by gain computation."""
    return compute_gain(solve_riccati(spec), spec)


def estimator_deliver(a: float, b: float, x_sampled: float, inputs) -> float:
    """Estimate now from a sample delayed by d = len(inputs) steps.

    The sample is rolled forward open loop through the inputs the controller
    actually applied since it was taken, z <- a z + b u once per elapsed
    period; with no inputs (zero delay) the estimate is the sample itself.
    """
    z = x_sampled
    for u in inputs:
        z = a * z + b * u
    return z


class InputLog:
    """Applied inputs of every loop in one (loops, horizon) array.

    record(step, u) stores all loops' inputs of one step, in step order.
    prune(loop, step) drops the loop's inputs before `step`, which is safe
    once a sample born at `step` has been applied, because a loop's samples
    are delivered in birth order.
    """

    def __init__(self, loops: int, horizon: int):
        self._u = np.zeros((loops, horizon))
        self._base = [0] * loops  # per loop, the first step still held
        self._next = 0

    def record(self, step: int, u) -> None:
        if step != self._next:
            raise ValueError(f"inputs must be recorded in order: expected step {self._next}, got {step}")
        self._u[:, step] = u
        self._next = step + 1

    def window(self, loop: int, start: int, stop: int) -> np.ndarray:
        """The loop's inputs for steps start..stop-1; raises ReplayError on any gap."""
        if start < self._base[loop]:
            raise ReplayError(f"loop {loop}: input history starts at {self._base[loop]}, need {start}")
        if stop > self._next:
            raise ReplayError(f"input history ends at {self._next}, need {stop}")
        return self._u[loop, start:stop]

    def prune(self, loop: int, keep_from: int) -> None:
        if keep_from > self._base[loop]:
            self._base[loop] = keep_from
