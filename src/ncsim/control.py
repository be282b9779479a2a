"""LQG design for scalar stochastic LTI loops under intermittent state updates.

A loop is x[k+1] = a x[k] + b u[k] + w[k] with w ~ N(0, z) i.i.d. and stage
cost qx x^2 + qu u^2, running under certainty-equivalence control
u = -k xhat.  The gain comes from the stationary solution p of the scalar
discrete Riccati equation p = qx + a^2 p - (a b p)^2 / (qu + b^2 p), which
times qu + b^2 p is b^2 p^2 - c p - qx qu = 0, c = qx b^2 - qu (1 - a^2).
`solve_riccati` takes its larger, stabilising root (Bertsekas, Dynamic
Programming and Optimal Control I, Sec. 4.1) in closed form, with
d = hypot(c, 2 |b| sqrt(qx qu)) and no cancellation:

    p = (c + d) / (2 b^2) if c >= 0,    p = 2 qx qu / (d - c) if c < 0;

qu = 0 gives p = qx exactly and b = 0 gives p = qx / (1 - a^2).  At qx = 0
the roots are 0 and qu (a^2 - 1) / b^2: p = 0 and k = 0 for |a| <= 1, else
the gain that moves the pole to 1/a.  Then

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
import numbers
from dataclasses import dataclass, field

import numpy as np


class RiccatiDivergenceError(RuntimeError):
    """The plant has no finite stationary Riccati solution p.

    Either b = 0 with |a| >= 1 and qx > 0, a costed mode that the input
    cannot act on and that does not decay, or the root overflows.
    """


class ReplayError(RuntimeError):
    """Input history does not cover the steps needed to replay a delivery."""


def _number(value, name: str, signed: bool) -> float:
    """`value` as one finite float, non-negative unless `signed`; else ValueError naming `name`.

    A real value of any number type, or a one-element integer or float array,
    is a number; a string, bytes, a bool or None is not, even where NumPy
    would convert it.
    """
    x = None
    try:
        array = np.asarray(value)
        if array.dtype.kind in "iuf" or isinstance(value, numbers.Number) and not isinstance(value, bool):
            x = float(array.item())
    except (TypeError, ValueError, OverflowError):  # ragged, not one element, an int past floats
        pass
    if x is None:
        raise ValueError(f"{name} must be one number, got {value!r}")
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
    """Riccati solution p, optimal gain k, error weight qe, cost floor p z.

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
    """Stationary p, as a 1 x 1 array: the stabilising root in closed form (module docstring).

    Raises ValueError where b = qu = 0, as the gain is undefined there, and
    RiccatiDivergenceError naming the plant where b = 0, |a| >= 1 and qx > 0,
    or where p overflows.
    """
    a, b, qx, qu = spec.a, spec.b, spec.qx, spec.qu
    if not b:
        if not qu:
            raise _undefined_gain(spec)
        if qx and abs(a) >= 1:
            raise RiccatiDivergenceError(f"Riccati equation has no finite solution for A={a!r}, "
                                         f"B={b!r}: |A| >= 1 and the input cannot act")
        p = qx / (1 - a * a) if qx else 0.0  # a state that costs nothing needs no input
    elif not qu:
        p = qx
    else:
        c = qx * b * b - qu * (1 - a * a)
        d = math.hypot(c, 2 * abs(b) * math.sqrt(qx) * math.sqrt(qu))
        # divided by b twice, as b * b may underflow where p does not
        p = (c + d) / (2 * b) / b if c >= 0 else 2 * qx * (qu / (d - c))
    if not math.isfinite(p):
        raise RiccatiDivergenceError(f"Riccati solution overflows for A={a!r}, B={b!r}, "
                                     f"Qx={qx!r}, Qu={qu!r}")
    return _as_1x1(p)


def _undefined_gain(spec: PlantSpec) -> ValueError:
    return ValueError(f"gain is undefined for A={spec.a!r}, B={spec.b!r}, Qx={spec.qx!r}, "
                      f"Qu={spec.qu!r}: qu + b p b = 0")


def design_lqg(spec: PlantSpec) -> LqgSolution:
    """Riccati solution p, gain k = b p a / (qu + b p b), error weight qe, cost floor p z.

    Raises ValueError if qu + b p b is zero, where the gain is undefined, and
    if k, qe or p z overflows, naming the plant either way.
    """
    p, a, b = float(solve_riccati(spec)[0, 0]), spec.a, spec.b
    s = spec.qu + b * p * b
    if not s:
        raise _undefined_gain(spec)
    k = b * p * a / s
    qe, floor_cost = k * s * k, p * spec.z
    if not all(map(math.isfinite, (k, qe, floor_cost))):
        raise ValueError(f"LQG design overflows for A={a!r}, B={b!r}, Z={spec.z!r}, "
                         f"Qx={spec.qx!r}, Qu={spec.qu!r}: k={k!r}, qe={qe!r}, p z={floor_cost!r}")
    return LqgSolution(p=p, k=k, qe=qe, floor_cost=floor_cost)


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
