"""Exact laws and simulation for the extremal chains.

Both chains run on a schedule of increments ``a_t``: from ``X = 0`` the
chain jumps to the ceiling ``X = 1`` with probability ``a_t``, and
otherwise stays at 0 with its compensator raised by ``a_t``.  So the
increments fix the chain, and its compensator path is their running
sum.  The *doubling chain* is the constant schedule ``a_t = 1/2``; the
*table-driven chain* takes ``a = policy.action(n, y)`` from a computed
value table with ``n`` steps left.  The unabsorbed state is
deterministic, so one running product gives the exact finite-support
law of either chain, as two arrays of support points and
probabilities, which validates the one sampler.  The sampler draws
each step from one ``Generator(Philox(seed))`` stream: the paths still
live at step ``t`` take its next uniforms, in index order, and a path
leaves at its first jump.  It returns the absorption step of every
path: memory is O(paths), whatever the number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .functions import FunctionSpec

__all__ = [
    "ChainLaw",
    "intro_schedule",
    "policy_schedule",
    "schedule_law",
    "extremal_chain_law",
    "exact_expectation",
    "doob_decompose",
    "SimulationResult",
    "simulate_schedule",
    "simulate_intro",
]

_PROB_TOL = 1e-9


class ChainLaw(NamedTuple):
    """Finite-support terminal law of the compensator ``Y_n``: two
    float64 arrays, the support points and their probabilities."""

    y_values: np.ndarray
    probabilities: np.ndarray


# ----------------------------------------------------------------------
# schedules and their exact laws


def intro_schedule(n_steps: int) -> np.ndarray:
    """The doubling chain's increments: ``a[t] = 1/2``."""
    return np.full(n_steps, 0.5)


def policy_schedule(policy, horizon: int) -> np.ndarray:
    """Deterministic increments of the unabsorbed state: ``a[t]``
    applied with ``horizon - t`` steps left, at the compensator the
    steps before it summed to."""
    a_sched = np.empty(horizon)
    y = 0.0
    for t in range(horizon):
        a_sched[t] = policy.action(horizon - t, y)
        y += a_sched[t]
    return a_sched


def _compensator(a_sched) -> tuple[np.ndarray, np.ndarray]:
    """The schedule's increments as a float64 array, each in ``[0, 1]``,
    and the compensator path ``y[t + 1] = y[t] + a[t]`` from ``y[0] = 0``."""
    a_sched = np.asarray(a_sched, dtype=float)
    if not np.all((a_sched >= 0.0) & (a_sched <= 1.0)):
        raise ValueError("schedule increments must lie in [0, 1]")
    return a_sched, np.concatenate(([0.0], np.cumsum(a_sched)))


def schedule_law(a_sched) -> ChainLaw:
    """Exact terminal law on a schedule: absorption at step ``t`` puts
    ``prod(1 - a[:t]) * a[t]`` on ``y[t + 1]``, the unabsorbed remainder
    ``prod(1 - a)`` on ``y[-1]``; the product runs in step order, and
    only positive probabilities are kept."""
    a_sched, y_sched = _compensator(a_sched)
    live = np.cumprod(np.concatenate(([1.0], 1.0 - a_sched)))
    prob = np.append(live[:-1] * a_sched, live[-1])
    keep = prob > 0.0
    return ChainLaw(np.append(y_sched[1:], y_sched[-1])[keep], prob[keep])


def extremal_chain_law(policy, horizon: int) -> ChainLaw:
    """Exact terminal law of the chain driven by a value-table policy
    over ``horizon`` steps."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return schedule_law(policy_schedule(policy, horizon))


def exact_expectation(spec: FunctionSpec, law: ChainLaw) -> float:
    """``E f(Y_n)`` under a finite-support terminal law."""
    return float(np.dot(law.probabilities, spec.value(law.y_values)))


# ----------------------------------------------------------------------
# pathwise compensators


def doob_decompose(x_path, kernel) -> np.ndarray:
    """Compensator along one path, from 0: running sum of conditional
    increment means under ``kernel(step, x) -> ((next_x, prob), ...)``.

    Rejects kernels whose conditional mean ever drops below the current
    value -- the decomposition only applies to submartingales.
    """
    x = np.asarray(x_path, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("x_path must be a nonempty 1-d sequence")
    y = np.zeros(len(x))
    for t in range(len(x) - 1):
        transitions = kernel(t, float(x[t]))
        total = math.fsum(p for _, p in transitions)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(
                f"kernel probabilities sum to {total} at step {t}")
        mean_next = math.fsum(v * p for v, p in transitions)
        increment = mean_next - x[t]
        if increment < -1e-12:
            raise ValueError(
                f"negative compensator increment {increment:.3e} at step "
                f"{t}; the kernel does not give a submartingale")
        y[t + 1] = y[t] + increment
    return y


# ----------------------------------------------------------------------
# Monte Carlo


def _first_hits(seed: int, a_sched: np.ndarray, n_paths: int) -> np.ndarray:
    """1-based absorption step of each path, ``n_steps + 1`` for none.

    One ``Generator(Philox(seed))`` stream feeds every step: at step
    ``t`` the paths still live take its next uniforms, one each in index
    order, and a path jumps when its uniform is below ``a_sched[t]``.
    The draw stops once no path is live.  The live indices are
    ``int32`` wherever they fit, and are compacted by gathering at the
    positions ``np.flatnonzero`` finds, which is several times faster
    than indexing by the random boolean mask itself.  Memory peaks at
    about 22 bytes a path on the doubling chain, and 25 when few paths
    jump: the 8-byte absorption step, a 4-byte live index, and an 8-byte
    uniform or gather position with 1-byte jump flags.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    t_hit = np.full(n_paths, len(a_sched) + 1, dtype=np.int64)
    live = np.arange(n_paths, dtype=np.int32 if n_paths < 2 ** 31
                     else np.intp)
    for t, a in enumerate(a_sched):
        if not len(live):
            break
        jump = rng.random(len(live)) < a
        t_hit[live[np.flatnonzero(jump)]] = t + 1
        live = live[np.flatnonzero(~jump)]
    return t_hit


@dataclass(eq=False)
class SimulationResult:
    """Sample statistics of ``f(Y_n)`` plus a pathwise audit.

    ``max_doob_residual`` is the largest absolute gap, over the audited
    paths and all time steps, between the compensator rebuilt from the
    raw path via :func:`doob_decompose` and the closed-form value the
    sampler used.  A path is fixed by its absorption step, so each
    distinct step among the audited paths is rebuilt once.
    """

    seed: int
    mean_f: float
    std_error: float
    max_doob_residual: float
    # The compensator of the unabsorbed state after 0 .. n_steps steps.
    y_path: np.ndarray = field(repr=False)
    # 1-based absorption step per path; n_steps + 1 means never absorbed.
    t_hit: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return len(self.t_hit)


def simulate_schedule(spec: FunctionSpec, a_sched, n_paths: int, seed: int,
                      audit_paths: int = 200) -> SimulationResult:
    """Monte-Carlo draw of the chain on a schedule: a path jumps at the
    first step ``t`` where its uniform is below ``a_sched[t]``, the
    paths still live at step ``t`` taking the next uniforms of one
    ``Generator(Philox(seed))`` stream in index order.  The first
    ``audit_paths`` paths are audited."""
    a_sched, y_sched = _compensator(a_sched)
    n_steps = len(a_sched)
    if n_steps < 1:
        raise ValueError("the schedule needs at least one step")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if audit_paths < 0:
        raise ValueError("audit_paths must be >= 0")
    # The schedule's compensator is nondecreasing, so f peaks at its end;
    # an overflow there turns the estimate and the exact value into inf.
    with np.errstate(over="ignore"):
        if not math.isfinite(spec.value(y_sched[-1])):
            raise ValueError(f"{spec.spec_string()} overflows float64 at "
                             f"the schedule's last compensator value "
                             f"{float(y_sched[-1])!r}")
    # Counter-based bit generator: a fixed seed pins every uniform,
    # independent of platform threading.
    t_hit = _first_hits(seed, a_sched, n_paths)
    values = spec.forms.f(y_sched)[np.minimum(t_hit, n_steps)]
    mean_f = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n_paths))

    def kernel(step, x):
        # Jump to the ceiling with probability a_sched[step]; the
        # ceiling absorbs.
        if x >= 1.0 - 1e-12:
            return ((1.0, 1.0),)
        return ((1.0, a_sched[step]), (0.0, 1.0 - a_sched[step]))

    residual = 0.0
    steps = np.arange(n_steps + 1)
    for t in np.unique(t_hit[:audit_paths]):
        x_path = (steps >= t).astype(float)
        rebuilt = doob_decompose(x_path, kernel)
        closed = y_sched[np.minimum(steps, t)]
        residual = max(residual, float(np.max(np.abs(rebuilt - closed))))
    return SimulationResult(seed, mean_f, std_error, residual, y_sched,
                            t_hit)


def simulate_intro(spec: FunctionSpec, n_steps: int, n_paths: int,
                   seed: int, audit_paths: int = 200) -> SimulationResult:
    """Monte-Carlo draw of the doubling chain."""
    return simulate_schedule(spec, intro_schedule(n_steps), n_paths, seed,
                             audit_paths)
