"""LQG machinery for stochastic LTI loops under intermittent state updates.

A loop is x[k+1] = A x[k] + B u[k] + w[k] with w ~ N(0, Z) i.i.d., running
under certainty-equivalence control u = -K xhat.  The gain K comes from the
stationary solution P of the discrete Riccati equation

    P = Qx + A' (P - P B (Qu + B' P B)^-1 B' P) A

and the residual cost of *not* refreshing the estimate is weighted by

    Qe = K' (Qu + B' P B) K,

so the achievable cost floor with perfect state knowledge is Tr(P Z).

The estimator is model based: it coasts on (A - B K) between packet
deliveries, snaps to the delivered sample, and replays the inputs it
applied since the sample was taken when the delivery arrives late.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    Qx/Qu: state/input cost weights, period: control period in seconds,
    weight: this loop's weight in the network-wide cost.
    """

    A: np.ndarray
    B: np.ndarray
    Z: np.ndarray
    Qx: np.ndarray
    Qu: np.ndarray
    period: float = 1.0
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
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")

    @property
    def n(self) -> int:
        return self.A.shape[0]

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


def plant_step(x: np.ndarray, u: np.ndarray, w: np.ndarray,
               spec: PlantSpec) -> np.ndarray:
    """One step of the open plant: x+ = A x + B u + w."""
    return spec.A @ x + spec.B @ u + w


def control_input(xhat: np.ndarray, sol: LqgSolution) -> np.ndarray:
    """Certainty-equivalence input u = -K xhat."""
    return -(sol.K @ xhat)


def estimator_predict(xhat: np.ndarray, sol: LqgSolution,
                      spec: PlantSpec) -> np.ndarray:
    """No-delivery estimator update: xhat+ = (A - B K) xhat."""
    return (spec.A - spec.B @ sol.K) @ xhat


def estimator_deliver(x_sampled: np.ndarray, birth_step: int, current_step: int,
                      applied_inputs: Sequence[np.ndarray],
                      spec: PlantSpec) -> np.ndarray:
    """Estimate at `current_step` from a sample taken at `birth_step`.

    Zero delay returns the sample itself; otherwise the sample is rolled
    forward open loop through the inputs the controller actually applied:
    xhat = A^d x + sum_j A^(d-1-j) B u_j over the delayed steps.
    """
    delay = current_step - birth_step
    if delay < 0:
        raise ReplayError(f"delivery from the future: born {birth_step}, now {current_step}")
    if len(applied_inputs) < delay:
        raise ReplayError(
            f"need {delay} inputs to replay steps {birth_step}..{current_step - 1}, "
            f"have {len(applied_inputs)}"
        )
    z = np.atleast_1d(np.asarray(x_sampled, dtype=float))
    for j in range(delay):
        u = np.atleast_1d(np.asarray(applied_inputs[j], dtype=float))
        z = spec.A @ z + spec.B @ u
    return z


def error_step(e: np.ndarray, delta: int, w: np.ndarray,
               spec: PlantSpec) -> np.ndarray:
    """Sampler-side one-step-ahead error: e+ = (1 - delta) A e + w."""
    if delta:
        return np.asarray(w, dtype=float).copy()
    return spec.A @ e + w


def stage_cost(x: np.ndarray, u: np.ndarray, spec: PlantSpec) -> float:
    """Per-step quadratic cost x'Qx x + u'Qu u."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return float(x @ spec.Qx @ x + u @ spec.Qu @ u)


class InputLog:
    """Applied-input history indexed by control step, pruned as samples land.

    Grows on demand; prune(step) drops everything before `step`, which is
    safe once a sample born at `step` has been applied because older
    deliveries are discarded as stale.
    """

    def __init__(self, start_step: int = 0):
        self._base = start_step
        self._items: list = []

    def record(self, step: int, u) -> None:
        expected = self._base + len(self._items)
        if step != expected:
            raise ValueError(f"inputs must be recorded in order: expected step {expected}, got {step}")
        self._items.append(u)

    def window(self, start: int, stop: int) -> list:
        """Inputs for steps start..stop-1; raises ReplayError on any gap."""
        if start < self._base:
            raise ReplayError(f"input history starts at {self._base}, need {start}")
        if stop > self._base + len(self._items):
            raise ReplayError(f"input history ends at {self._base + len(self._items)}, need {stop}")
        lo = start - self._base
        return self._items[lo:lo + (stop - start)]

    def prune(self, keep_from: int) -> None:
        drop = keep_from - self._base
        if drop > 0:
            del self._items[:drop]
            self._base = keep_from

    def __len__(self) -> int:
        return len(self._items)

