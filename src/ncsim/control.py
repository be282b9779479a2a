"""LQG design for scalar stochastic LTI loops under intermittent state updates.

A loop is x[k+1] = a x[k] + b u[k] + w[k] with w ~ N(0, z) i.i.d. and stage
cost qx x^2 + qu u^2, running under certainty-equivalence control
u = -k xhat.  The gain comes from the stationary solution p of the scalar
discrete Riccati equation, iterated from p = qx as

    g = b p / (qu + b p b),    p <- qx + a (p - p b g) a,

and then

    s = qu + b p b,    k = b p a / s,    qe = k s k,

where qe weights the residual cost of *not* refreshing the estimate, and
the achievable cost floor with perfect state knowledge is p z.

The estimator is model based: it coasts on (a - b k) between packet
deliveries and snaps to the delivered sample.  When the delivery arrives
late, it rolls the sample forward by its own model, z <- a z + b u, through
each input applied since the sample was taken.  The per-period plant,
estimator and error updates run inline in `engine.run`; the late-delivery
roll-forward is `estimator_deliver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

RICCATI_TOL = 1e-9
RICCATI_MAX_ITER = 1_000_000


class RiccatiDivergenceError(RuntimeError):
    """Fixed-point iteration went non-finite or failed to reach tolerance within the cap."""


class ReplayError(RuntimeError):
    """Input history does not cover the steps needed to replay a delivery."""


def _number(value, name: str, signed: bool) -> float:
    """`value` as one finite float, non-negative unless `signed`; else ValueError naming `name`."""
    try:
        x = np.asarray(value, dtype=float).item()  # ValueError unless exactly one element
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be one number, got {value!r}") from None
    if not math.isfinite(x) or (x < 0 and not signed):
        raise ValueError(f"{name} must be {'' if signed else 'non-negative and '}finite, got {x!r}")
    return x


def _as_1x1(x: float) -> np.ndarray:
    """`x` as a read-only 1 x 1 array, for callers that index [0, 0]."""
    m = np.full((1, 1), x)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class PlantSpec:
    """One scalar LTI loop and its quadratic cost, one number per field.

    A/B: system/input coefficient, finite; Z: noise variance, Qx/Qu:
    state/input cost weights, weight: the scale on the error weight qe in the
    loop's threshold design (weight * qe, so part of its class id; the costs
    `run` and `sweep` report are unweighted), each finite and non-negative.
    Any other value raises ValueError naming the field.  A spec holds the
    plant's numbers as floats a, b, z, qx, qu, compares and hashes by them,
    and keeps A..Qu as read-only 1 x 1 arrays.
    """

    A: np.ndarray = field(compare=False)
    B: np.ndarray = field(compare=False)
    Z: np.ndarray = field(compare=False)
    Qx: np.ndarray = field(compare=False)
    Qu: np.ndarray = field(compare=False)
    weight: float = 1.0
    a: float = field(init=False, repr=False)
    b: float = field(init=False, repr=False)
    z: float = field(init=False, repr=False)
    qx: float = field(init=False, repr=False)
    qu: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("A", "B", "Z", "Qx", "Qu"):
            x = _number(getattr(self, name), name, signed=name in ("A", "B"))
            object.__setattr__(self, name.lower(), x)
            object.__setattr__(self, name, _as_1x1(x))
        object.__setattr__(self, "weight", _number(self.weight, "weight", signed=False))


@dataclass(frozen=True)
class LqgSolution:
    """Riccati fixed point p, optimal gain k, error weight qe, cost floor p z.

    P, K and Qe hold p, k and qe as read-only 1 x 1 arrays.
    """

    p: float
    k: float
    qe: float
    floor_cost: float
    P: np.ndarray = field(init=False, repr=False, compare=False)
    K: np.ndarray = field(init=False, repr=False, compare=False)
    Qe: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("P", "K", "Qe"):
            object.__setattr__(self, name, _as_1x1(getattr(self, name.lower())))


def solve_riccati(spec: PlantSpec) -> np.ndarray:
    """Stationary p, as a 1 x 1 array, by fixed-point iteration from p = qx.

    Raises RiccatiDivergenceError at the first non-finite iterate or if
    |p' - p| stays above RICCATI_TOL for RICCATI_MAX_ITER iterations, and
    ValueError if qu + b p b is zero along the way, where the gain is
    undefined.
    """
    a, b, qx, qu = spec.a, spec.b, spec.qx, spec.qu
    p = qx
    for it in range(RICCATI_MAX_ITER):
        btp = b * p
        try:
            g = btp / (qu + btp * b)
        except ZeroDivisionError:
            raise _undefined_gain(spec) from None
        p_next = qx + a * (p - p * b * g) * a
        if abs(p_next - p) <= RICCATI_TOL:
            return _as_1x1(p_next)
        if not math.isfinite(p_next):
            raise RiccatiDivergenceError(
                f"Riccati iterate is not finite after {it + 1} iterations for A={a!r}, B={b!r}")
        p = p_next
    raise RiccatiDivergenceError(
        f"Riccati iteration did not converge within {RICCATI_MAX_ITER} iterations "
        f"for A={a!r}, B={b!r}"
    )


def _undefined_gain(spec: PlantSpec) -> ValueError:
    return ValueError(f"gain is undefined for A={spec.a!r}, B={spec.b!r}, Qx={spec.qx!r}, "
                      f"Qu={spec.qu!r}: qu + b p b = 0")


def design_lqg(spec: PlantSpec) -> LqgSolution:
    """Riccati fixed point p, gain k = b p a / (qu + b p b), error weight qe, cost floor p z.

    Raises ValueError if qu + b p b is zero, where the gain is undefined.
    """
    p, a, b = float(solve_riccati(spec)[0, 0]), spec.a, spec.b
    s = spec.qu + b * p * b
    if not s:
        raise _undefined_gain(spec)
    k = b * p * a / s
    return LqgSolution(p=p, k=k, qe=k * s * k, floor_cost=p * spec.z)


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
