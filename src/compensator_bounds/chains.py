"""Exact laws and simulation for the extremal chains.

Both chains run on a schedule ``(a_t, y_t)``: from ``X = 0`` the chain
jumps to the ceiling ``X = 1`` with probability ``a_t``, and otherwise
stays at 0 with its compensator raised to ``y_{t+1} = y_t + a_t``.  The
*doubling chain* is the constant schedule ``a_t = 1/2``; the
*table-driven chain* takes ``a = policy.action(n, y)`` from a computed
value table with ``n`` steps left.  The unabsorbed state is
deterministic, so one running product gives the exact finite-support
law of either chain, as two arrays of support points and
probabilities, which validates the one sampler.  The sampler reads path
``i``'s uniforms from row ``i`` of one ``Generator(Philox(seed))`` draw,
but a path is absorbed after a few steps, so it evaluates the Philox
counter blocks itself and only those that hold a live path's next
uniform.  It returns the absorption step of every path: memory is
O(paths + chunk), whatever the number of steps.
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

# Paths per chunk of the Philox kernel: its thirteen work buffers take
# 1.6 MB.
_CHUNK_PATHS = 1 << 14

# Philox4x64-10 (Salmon et al., SC'11, as numpy's ``Philox`` runs it):
# round multipliers, key increments (Weyl constants) and round count.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


class ChainLaw(NamedTuple):
    """Finite-support terminal law of the compensator ``Y_n``: two
    float64 arrays, the support points and their probabilities."""

    y_values: np.ndarray
    probabilities: np.ndarray


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


def _increments(a_sched) -> np.ndarray:
    """The schedule's increments as a float64 array, each in ``[0, 1]``."""
    a_sched = np.asarray(a_sched, dtype=float)
    if not np.all((a_sched >= 0.0) & (a_sched <= 1.0)):
        raise ValueError("schedule increments must lie in [0, 1]")
    return a_sched


def schedule_law(a_sched, y_sched) -> ChainLaw:
    """Exact terminal law on a schedule: absorption at step ``t`` puts
    ``prod(1 - a[:t]) * a[t]`` on ``y[t + 1]``, the unabsorbed remainder
    ``prod(1 - a)`` on ``y[-1]``; the product runs in step order, and
    only positive probabilities are kept."""
    a_sched = _increments(a_sched)
    y_sched = np.asarray(y_sched, dtype=float)
    live = np.cumprod(np.concatenate(([1.0], 1.0 - a_sched)))
    prob = np.append(live[:-1] * a_sched, live[-1])
    keep = prob > 0.0
    return ChainLaw(np.append(y_sched[1:], y_sched[-1])[keep], prob[keep])


def extremal_chain_law(policy, horizon: int) -> ChainLaw:
    """Exact terminal law of the chain driven by a value-table policy
    over ``horizon`` steps."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return schedule_law(*policy_schedule(policy, horizon))


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


def _mulhilo(m: int, b, hi, s1, s2, s3) -> None:
    """The 128-bit product ``m * b`` of a 64-bit constant and a uint64
    array, in place: ``hi`` gets its high words and ``b`` its low words.
    The high words are summed from 32-bit half products so that no sum
    overflows; ``s1``-``s3`` are scratch arrays of ``b``'s length."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    np.bitwise_and(b, _MASK32, out=s1)
    np.right_shift(b, 32, out=s2)
    np.multiply(b, np.uint64(m), out=b)
    np.multiply(s1, m_lo, out=hi)
    np.right_shift(hi, 32, out=hi)
    np.multiply(s2, m_lo, out=s3)
    np.add(hi, s3, out=hi)
    np.multiply(s1, m_hi, out=s1)
    np.bitwise_and(hi, _MASK32, out=s3)
    np.add(s1, s3, out=s1)
    np.right_shift(hi, 32, out=hi)
    np.multiply(s2, m_hi, out=s2)
    np.add(hi, s2, out=hi)
    np.right_shift(s1, 32, out=s1)
    np.add(hi, s1, out=hi)


def _philox_blocks(bufs, key) -> tuple:
    """Philox4x64-10 on many counters at once.  ``bufs`` is nine uint64
    arrays of one length, whose first four hold the counters' four
    64-bit lanes, low lane first; ``key`` is two Python ints.  Returns
    the four output lanes, which are four of the nine buffers."""
    x0, x1, x2, x3, h0, h1, s1, s2, s3 = bufs
    k0, k1 = key
    for _ in range(_PHILOX_ROUNDS):
        _mulhilo(_PHILOX_M[0], x0, h0, s1, s2, s3)
        _mulhilo(_PHILOX_M[1], x2, h1, s1, s2, s3)
        np.bitwise_xor(h1, x1, out=h1)
        np.bitwise_xor(h1, np.uint64(k0), out=h1)
        np.bitwise_xor(h0, x3, out=h0)
        np.bitwise_xor(h0, np.uint64(k1), out=h0)
        x0, x1, x2, x3, h0, h1 = h1, x2, h0, x0, x1, x3
        # Python ints: a numpy scalar would warn on the wraparound.
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    return x0, x1, x2, x3


def _first_hits(seed: int, a_sched: np.ndarray, n_paths: int) -> np.ndarray:
    """1-based absorption step of each path, ``n_steps + 1`` for none,
    as ``Generator(Philox(seed)).random((n_paths, n_steps)) < a_sched``
    gives it.

    Path ``i``'s uniform at step ``t`` is word ``k = i*n_steps + t`` of
    the Philox stream: lane ``k % 4`` of the block with counter
    ``k // 4 + 1``, turned into ``(w >> 11) * 2**-53``.  Round ``r``
    evaluates, for every path still live, its ``r``-th block, which
    holds the steps ``4r - (i*n_steps) % 4`` to 3 more; a path leaves at
    its first jump.
    """
    n_steps = len(a_sched)
    key = [int(w) for w in np.random.Philox(seed).state["state"]["key"]]
    # (w >> 11) * 2**-53 < a exactly when (w >> 11) < ceil(a * 2**53);
    # the three leading and four trailing zeros stand for the words of
    # a block that belong to the paths before and after.
    thresholds = np.zeros(n_steps + 7, dtype=np.uint64)
    thresholds[3:n_steps + 3] = np.ceil(a_sched * 2.0 ** 53)
    t_hit = np.full(n_paths, n_steps + 1, dtype=np.int64)
    chunk = _CHUNK_PATHS
    bufs = [np.empty(chunk, dtype=np.uint64) for _ in range(9)]
    word, base, index, hits = (np.empty(chunk, dtype=np.int64)
                               for _ in range(4))
    live = np.arange(n_paths)
    r = 0
    while len(live):
        survivors = []
        for lo in range(0, len(live), chunk):
            paths = live[lo:lo + chunk]
            m = len(paths)
            x = [b[:m] for b in bufs]
            k, lane0, idx, hit = word[:m], base[:m], index[:m], hits[:m]
            np.multiply(paths, n_steps, out=k)
            np.bitwise_and(k, 3, out=lane0)
            np.subtract(4 * r, lane0, out=lane0)   # the step of lane 0
            np.right_shift(k, 2, out=k)
            np.add(k, r + 1, out=x[0].view(np.int64))
            for lane in x[1:4]:
                lane.fill(0)
            w = _philox_blocks(x, key)
            # Lane j holds step lane0 + j, whose threshold sits at index
            # lane0 + j + 3; keep that index of the first jump, or 0.
            hit.fill(0)
            for j in (3, 2, 1, 0):
                np.add(lane0, j + 3, out=idx)
                np.copyto(hit, idx,
                          where=(w[j] >> 11) < thresholds.take(idx))
            absorbed = hit > 0
            t_hit[paths[absorbed]] = hit[absorbed] - 2
            survivors.append(paths[~absorbed & (lane0 + 4 < n_steps)])
        live = np.concatenate(survivors)
        r += 1
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
    """Monte-Carlo draw of the chain on a schedule: path ``i`` jumps at
    the first step ``t`` where ``u[i, t] < a_sched[t]``, ``u`` being one
    ``Generator(Philox(seed)).random((n_paths, steps))`` draw.  Only the
    Philox blocks that hold a live path's next uniform are computed,
    with the same bits.  The first ``audit_paths`` paths are audited."""
    a_sched = _increments(a_sched)
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
    # independent of platform threading and of the chunk size.
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
        y_path = doob_decompose(x_path, kernel)
        closed = y_sched[np.minimum(steps, t)]
        residual = max(residual, float(np.max(np.abs(y_path - closed))))
    return SimulationResult(n_steps, n_paths, seed, mean_f, std_error,
                            residual, t_hit)


def simulate_intro(spec: FunctionSpec, n_steps: int, n_paths: int,
                   seed: int, audit_paths: int = 200) -> SimulationResult:
    """Monte-Carlo draw of the doubling chain."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return simulate_schedule(spec, *intro_schedule(n_steps), n_paths, seed,
                             audit_paths)
