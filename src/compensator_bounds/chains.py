"""Exact laws and simulation for the extremal chains.

Both chains run on a schedule ``(a_t, y_t)``: from ``X = 0`` the chain
jumps to the ceiling ``X = 1`` with probability ``a_t``, and otherwise
stays at 0 with its compensator raised to ``y_{t+1} = y_t + a_t``.  The
*doubling chain* is the constant schedule ``a_t = 1/2``; the
*table-driven chain* takes ``a = policy.action(n, y)`` from a computed
value table with ``n`` steps left.  The unabsorbed state is
deterministic, so one builder gives the exact finite-support law of
either chain, which validates the one sampler.  The sampler streams its
uniforms in row chunks, bit-identical to a single draw, but returns the
absorption step of every path: memory is O(paths + chunk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functions import FunctionSpec, vector_callable

__all__ = [
    "LawAtom",
    "ChainLaw",
    "intro_schedule",
    "policy_schedule",
    "schedule_law",
    "intro_chain_law",
    "extremal_chain_law",
    "exact_expectation",
    "intro_kernel",
    "doob_decompose",
    "SimulationResult",
    "simulate_schedule",
    "simulate_intro",
    "simulate_extremal",
]

_PROB_TOL = 1e-9

# Uniforms drawn per chunk of paths (2 MB of float64).
_CHUNK_FLOATS = 1 << 18


@dataclass(frozen=True)
class LawAtom:
    """One support point of a terminal law: the chain value ``x``, the
    accumulated compensator ``y``, and its probability."""

    x: float
    y: float
    prob: float


@dataclass(frozen=True)
class ChainLaw:
    """Finite-support joint law of ``(X_n, Y_n)``."""

    atoms: tuple[LawAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("law needs at least one atom")
        total = 0.0
        for atom in self.atoms:
            if not 0.0 <= atom.x <= 1.0:
                raise ValueError(f"chain value {atom.x} outside [0, 1]")
            if atom.y < 0.0:
                raise ValueError(f"compensator value {atom.y} is negative")
            if not 0.0 < atom.prob <= 1.0:
                raise ValueError(f"probability {atom.prob} outside (0, 1]")
            total += atom.prob
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @property
    def y_values(self) -> np.ndarray:
        return np.array([a.y for a in self.atoms])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([a.prob for a in self.atoms])


# ----------------------------------------------------------------------
# schedules and their exact laws


def intro_schedule(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The doubling chain as a schedule: ``a[t] = 1/2``, ``y[t] = t/2``."""
    return np.full(n_steps, 0.5), 0.5 * np.arange(n_steps + 1)


def policy_schedule(policy, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic increments and compensator path of the unabsorbed
    state: ``a[t]`` applied with ``horizon - t`` steps left, ``y[t]``
    the compensator after ``t`` steps."""
    a_sched = np.empty(horizon)
    y_sched = np.zeros(horizon + 1)
    for t in range(horizon):
        a_sched[t] = policy.action(horizon - t, y_sched[t])
        y_sched[t + 1] = y_sched[t] + a_sched[t]
    return a_sched, y_sched


def schedule_law(a_sched, y_sched) -> ChainLaw:
    """Exact terminal law on a schedule: one absorbed atom per step with
    a positive absorption probability, plus the unabsorbed remainder
    when it has one."""
    atoms: list[LawAtom] = []
    p_live = 1.0
    for t, a in enumerate(a_sched):
        p_absorb = p_live * a
        if p_absorb > 0.0:
            atoms.append(LawAtom(1.0, float(y_sched[t + 1]), float(p_absorb)))
        p_live *= 1.0 - a
    if p_live > 0.0:
        atoms.append(LawAtom(0.0, float(y_sched[len(a_sched)]), float(p_live)))
    return ChainLaw(tuple(atoms))


def intro_chain_law(n_steps: int) -> ChainLaw:
    """Exact terminal law of the doubling chain after ``n_steps``.

    Absorption at step ``k`` has probability ``2**-k`` and compensator
    ``k/2``; the never-absorbed remainder carries ``2**-n`` at ``n/2``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    return schedule_law(*intro_schedule(n_steps))


def extremal_chain_law(policy, horizon: int | None = None) -> ChainLaw:
    """Exact terminal law of the chain driven by a value-table policy."""
    horizon = policy.horizon if horizon is None else horizon
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return schedule_law(*policy_schedule(policy, horizon))


def exact_expectation(spec: FunctionSpec, law: ChainLaw) -> float:
    """``E f(Y_n)`` under a finite-support terminal law."""
    return float(np.dot(law.probabilities, spec.value(law.y_values)))


# ----------------------------------------------------------------------
# pathwise compensators


def _two_point(a: float, x: float):
    """Transition law from value ``x`` when the ceiling is reached with
    probability ``a``; the ceiling absorbs."""
    if x >= 1.0 - 1e-12:
        return ((1.0, 1.0),)
    return ((1.0, a), (0.0, 1.0 - a))


def intro_kernel(step: int, x: float, y: float):
    """One-step transition law of the doubling chain from value ``x``."""
    return _two_point(0.5, x)


def doob_decompose(x_path, kernel, y0: float = 0.0) -> np.ndarray:
    """Compensator along one path: running sum of conditional increment
    means under ``kernel(step, x, y) -> ((next_x, prob), ...)``.

    Rejects kernels whose conditional mean ever drops below the current
    value -- the decomposition only applies to submartingales.
    """
    x = np.asarray(x_path, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("x_path must be a nonempty 1-d sequence")
    y = np.empty(len(x))
    y[0] = y0
    for t in range(len(x) - 1):
        transitions = kernel(t, float(x[t]), float(y[t]))
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


@dataclass(eq=False)
class SimulationResult:
    """Sample statistics of ``f(Y_n)`` plus a pathwise audit.

    ``max_doob_residual`` is the largest absolute gap, over the audited
    paths and all time steps, between the compensator rebuilt from the
    raw path via :func:`doob_decompose` and the closed-form value the
    sampler used.
    """

    spec: FunctionSpec
    n_steps: int
    n_paths: int
    seed: int
    mean_f: float
    std_error: float
    max_doob_residual: float
    # 1-based absorption step per path; n_steps + 1 means never absorbed.
    t_hit: np.ndarray = field(repr=False)


def simulate_schedule(spec: FunctionSpec, a_sched, y_sched, n_paths: int,
                      seed: int, audit_paths: int = 200) -> SimulationResult:
    """Monte-Carlo draw of the chain on a schedule: path ``i`` uses row
    ``i`` of one ``(n_paths, steps)`` draw, made in row chunks."""
    n_steps = len(a_sched)
    if n_steps < 1:
        raise ValueError("the schedule needs at least one step")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    # The schedule's compensator is nondecreasing, so f peaks at its end;
    # an overflow there turns the estimate and the exact value into inf.
    with np.errstate(over="ignore"):
        if not math.isfinite(spec.value(y_sched[-1])):
            raise ValueError(f"{spec.spec_string()} overflows float64 at "
                             f"the schedule's last compensator value "
                             f"{float(y_sched[-1])!r}")
    # Counter-based bit generator: a fixed seed pins the whole draw
    # order, independent of platform threading and of the chunk size.
    rng = np.random.Generator(np.random.Philox(seed))
    t_hit = np.empty(n_paths, dtype=np.int64)
    rows = max(1, _CHUNK_FLOATS // n_steps)
    for lo in range(0, n_paths, rows):
        jumps = rng.random((min(rows, n_paths - lo), n_steps)) < a_sched
        t_hit[lo:lo + len(jumps)] = np.where(
            jumps.any(axis=1), jumps.argmax(axis=1) + 1, n_steps + 1)
    values = vector_callable(spec)(y_sched)[np.minimum(t_hit, n_steps)]
    mean_f = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n_paths))

    def kernel(step, x, y):
        return _two_point(a_sched[step], x)

    residual = 0.0
    steps = np.arange(n_steps + 1)
    for i in range(min(audit_paths, n_paths)):
        x_path = (steps >= t_hit[i]).astype(float)
        y_path = doob_decompose(x_path, kernel)
        closed = y_sched[np.minimum(steps, t_hit[i])]
        residual = max(residual, float(np.max(np.abs(y_path - closed))))
    return SimulationResult(spec, n_steps, n_paths, seed, mean_f,
                            std_error, residual, t_hit)


def simulate_intro(spec: FunctionSpec, n_steps: int, n_paths: int,
                   seed: int, audit_paths: int = 200) -> SimulationResult:
    """Monte-Carlo draw of the doubling chain."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return simulate_schedule(spec, *intro_schedule(n_steps), n_paths, seed,
                             audit_paths)


def simulate_extremal(policy, spec: FunctionSpec, n_paths: int, seed: int,
                      horizon: int | None = None,
                      audit_paths: int = 200) -> SimulationResult:
    """Monte-Carlo draw of the table-driven chain."""
    horizon = policy.horizon if horizon is None else horizon
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return simulate_schedule(spec, *policy_schedule(policy, horizon),
                             n_paths, seed, audit_paths)
