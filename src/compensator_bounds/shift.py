"""Shift-inequality checks for expectations of increasing functions.

For the functions this package cares about, a nonnegative random
variable ``Y`` and any shift ``a >= 0`` satisfy::

    E f(a + Y)  <=  f(a + f^{-1}(E f(Y)))

with equality for exponentials and at ``a = 0``.  :func:`shift_gap`
measures the right side minus the left; :func:`property_scan` hammers
the inequality with seeded random discrete distributions, each trial
drawn from its own ``(seed, trial)`` numpy generator, which the scan
reproduces for a whole batch of trials in uint64 array arithmetic.  The
``remark2`` family is the built-in function that breaks the inequality,
and its fixed counterexample instance (a two-point coin on {0, 1} with a
unit shift) is always evaluated as trial zero of a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import FunctionSpec

__all__ = [
    "DiscreteRV",
    "ScanReport",
    "COUNTEREXAMPLE_RV",
    "COUNTEREXAMPLE_SHIFT",
    "VIOLATION_THRESHOLD",
    "expect_f",
    "shift_gap",
    "property_scan",
]

# A gap below this, times max(1, |E f(shift + Y)|), counts as a genuine
# violation rather than float dust.
VIOLATION_THRESHOLD = -1e-9

_PROB_TOL = 1e-12
# Random trials draw 2 .. _MAX_ATOMS atoms with values on [0, _VALUE_CAP]
# and a shift on [0, _SHIFT_CAP].
_MAX_ATOMS = 5
_VALUE_CAP = 4.0
_SHIFT_CAP = 2.0
# Trials drawn and evaluated per batch; bounds the scan's memory whatever
# the trial count.  At 2^10 each batch array is 40 kB; 2^14 ran no faster
# and left the process's peak RSS 0.5 MB higher.
_CHUNK_TRIALS = 1 << 10


@dataclass(frozen=True)
class DiscreteRV:
    """A finitely supported distribution on ``[0, inf)``.

    ``atoms`` is a tuple of ``(value, probability)`` pairs with distinct
    finite nonnegative values, strictly positive probabilities, and total
    mass one (within 1e-12).
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        values = [v for v, _ in self.atoms]
        probs = [p for _, p in self.atoms]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"atom values must be finite, got {values}")
        if any(v < 0.0 for v in values):
            raise ValueError(f"atom values must be >= 0, got {min(values)}")
        if len(set(values)) != len(values):
            raise ValueError("atom values must be distinct")
        if any(not 0.0 < p <= 1.0 for p in probs):
            raise ValueError("atom probabilities must lie in (0, 1]")
        total = sum(probs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total}, not 1")

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms], dtype=float)

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms], dtype=float)


# The fixed instance that witnesses the failure of the inequality for
# ``remark2``: Y uniform on {0, 1}, shifted by 1.
COUNTEREXAMPLE_RV = DiscreteRV(((0.0, 0.5), (1.0, 0.5)))
COUNTEREXAMPLE_SHIFT = 1.0


def _check_shift(shift: float) -> None:
    # nan < 0 is False, so a plain sign test lets nan through.
    if not (math.isfinite(shift) and shift >= 0.0):
        raise ValueError(f"shift must be finite and >= 0, got {shift}")


def expect_f(spec: FunctionSpec, rv: DiscreteRV, shift: float = 0.0) -> float:
    """``E f(shift + Y)`` for ``Y ~ rv``."""
    _check_shift(shift)
    return float(np.dot(rv.probs, spec.value(shift + rv.values)))


def shift_gap(spec: FunctionSpec, shift: float, rv: DiscreteRV) -> float:
    """Right side minus left side of the shift inequality.

    Nonnegative (up to float noise) whenever the inequality holds for
    ``spec``; a return below :data:`VIOLATION_THRESHOLD` times
    ``max(1, |E f(shift + Y)|)`` is a violation.  This is the scalar
    oracle that :func:`property_scan` evaluates in batches.
    """
    _check_shift(shift)
    bound = spec.value(shift + spec.inverse(expect_f(spec, rv)))
    return bound - expect_f(spec, rv, shift)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of :func:`property_scan`.

    ``min_gap`` / ``argmin_shift`` / ``argmin_rv`` describe the worst
    instance over the whole scan, trial zero included: the first trial
    whose gap is the strict minimum.  ``injected_gap`` is the gap of the
    fixed counterexample instance at trial zero.  ``min_gap`` is the
    absolute gap, while ``violations`` scales each gap by
    ``max(1, |E f(shift + Y)|)``, so a family with large values can show
    a large negative ``min_gap`` that is only round-off, with no
    violation (exp:lambda=10, 50000 trials, seed 1: about -2.66e11).
    Every field is the same whatever the scan's chunk size.
    """

    trials: int
    seed: int
    violations: int
    min_gap: float
    argmin_trial: int
    argmin_shift: float
    argmin_rv: DiscreteRV
    injected_gap: float


def _draw(seed: int, trial: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Shift, atom values and probabilities of one random trial, drawn
    from its own generator ``np.random.default_rng((seed, trial))``.

    This is the definition of a trial's instance.  :func:`_chunk_draws`
    reproduces it for a batch of trials and falls back here for the rows
    where this draw redraws (a repeated value or a zero weight)."""
    rng = np.random.default_rng((seed, trial))
    n_atoms = int(rng.integers(2, _MAX_ATOMS + 1))
    while True:
        values = rng.uniform(0.0, _VALUE_CAP, size=n_atoms)
        if len(set(values.tolist())) == n_atoms:
            break
    weights = rng.uniform(0.0, 1.0, size=n_atoms)
    while (weights <= 0.0).any():
        weights = rng.uniform(0.0, 1.0, size=n_atoms)
    probs = weights / weights.sum()
    # Absorb the normalization residue into the largest atom so the
    # masses sum to one exactly.
    probs[probs.argmax()] += 1.0 - probs.sum()
    return float(rng.uniform(0.0, _SHIFT_CAP)), values, probs


def _random_instance(seed: int, trial: int) -> tuple[float, DiscreteRV]:
    """Instance for one random trial, derived only from ``(seed, trial)``:
    each trial has its own seeded generator, so an instance does not
    depend on which trials were drawn before it or on the chunking of
    :func:`property_scan`."""
    shift, values, probs = _draw(seed, trial)
    atoms = tuple((float(v), float(p)) for v, p in zip(values, probs))
    return shift, DiscreteRV(atoms)


# numpy's SeedSequence hash constants and PCG64 multiplier, for
# _hasher, _seed_words and _pcg64_outputs.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# One integer, then at most 2 * _MAX_ATOMS + 1 uniforms, per trial.
_OUTPUTS = 2 * _MAX_ATOMS + 2


def _hasher(hash_const: int, mult: int):
    """numpy's SeedSequence ``hashmix``: a hash of 32-bit words whose
    constant is multiplied by ``mult`` after each word it hashes."""
    def hash_word(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT
    return hash_word


def _seed_words(seed: int, trials: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((seed, t)).generate_state(8, np.uint32)`` for each
    ``t`` in ``trials`` (uint64, below 2^64), one array per word.

    Words live in uint64 lanes and are masked back to 32 bits after each
    product, so no operation overflows.  A trial below 2^32 is one word
    of entropy and a larger one two; while the entropy fits the pool, a
    missing high word hashes like a zero word, so only the entropy mixed
    in after the pool is full needs the per-row mask.
    """
    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    # The seed's little-endian 32-bit words, as numpy's
    # _int_to_uint32_array makes them (0 is one word), then the trial's.
    high = trials >> 32
    entropy = [np.full_like(trials, seed >> bit & _MASK32)
               for bit in range(0, max(int(seed).bit_length(), 1), 32)]
    entropy += [trials & _MASK32, high]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(trials))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        present = high > 0 if src == len(entropy) - 1 else True
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(present,
                                 mix(pool[dst], hashmix(entropy[src])),
                                 pool[dst])
    generate = _hasher(_INIT_B, _MULT_B)
    return [generate(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """``state * multiplier + inc`` modulo 2^128 on (hi, lo) uint64
    limbs; lo * multiplier_lo is built from 32-bit partial products."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    lo_prod = (p00 & _MASK32) | (mid << 32)
    hi = (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
          + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI)
    lo = lo_prod + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _pcg64_outputs(seed: int, trials: np.ndarray) -> np.ndarray:
    """The first ``_OUTPUTS`` 64-bit outputs of
    ``np.random.default_rng((seed, t))`` for each ``t``, one row per
    trial: PCG64 seeded as numpy seeds it (state 0, ``inc = 2·initseq +
    1``, one step, add ``initstate``, one more step), then step and
    emit XSL-RR."""
    w = _seed_words(seed, trials)
    state_hi, state_lo = w[0] | w[1] << 32, w[2] | w[3] << 32
    seq_hi, seq_lo = w[4] | w[5] << 32, w[6] | w[7] << 32
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + state_lo
    hi, lo = _lcg_step(inc_hi + state_hi + (lo < state_lo), lo,
                       inc_hi, inc_lo)
    out = np.empty((trials.size, _OUTPUTS), dtype=np.uint64)
    for k in range(_OUTPUTS):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, k] = x >> rot | x << (64 - rot & 63)
    return out


def _scalar_rows(values: np.ndarray, weights: np.ndarray,
                 atoms: np.ndarray) -> np.ndarray:
    """Rows on which :func:`_draw` would redraw: two equal atom values or
    a zero weight (each about 2^-50 per trial)."""
    ordered = np.sort(np.where(atoms, values, np.nan), axis=1)
    return ((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            | (atoms & (weights <= 0.0)).any(axis=1))


def _chunk_draws(seed: int, start: int,
                 stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_draw` for trials ``start .. stop-1`` at once: shifts and
    zero-padded ``(rows, _MAX_ATOMS)`` values and probabilities, bit
    for bit.  The atom count is Lemire's bounded draw on the first
    output's low 32 bits (the range 4 divides 2^32, so it never rejects);
    each later output ``o`` gives ``(o >> 11) · 2^-53``, scaled to the
    values, then the weights, then the shift."""
    trials = np.arange(start, stop, dtype=np.uint64)
    out = _pcg64_outputs(seed, trials)
    span = _MAX_ATOMS - 1
    n_atoms = (2 + ((out[:, 0] & _MASK32) * span >> 32)).astype(np.intp)
    uniforms = (out[:, 1:] >> 11) * 2.0 ** -53
    cols = np.arange(_MAX_ATOMS)
    atoms = cols < n_atoms[:, None]
    rows = np.arange(trials.size)
    values = np.where(atoms, _VALUE_CAP * uniforms[:, :_MAX_ATOMS], 0.0)
    weights = np.where(atoms, np.take_along_axis(
        uniforms, n_atoms[:, None] + cols, axis=1), 0.0)
    shifts = _SHIFT_CAP * uniforms[rows, 2 * n_atoms]
    # Zero padding adds exact zeros to the row sums and never wins the
    # argmax, so each row normalizes as _draw's 1-d arrays do.
    probs = weights / weights.sum(axis=1, keepdims=True)
    probs[rows, probs.argmax(axis=1)] += 1.0 - probs.sum(axis=1)
    for row in np.flatnonzero(_scalar_rows(values, weights, atoms)):
        shifts[row], v, p = _draw(seed, start + int(row))
        values[row], probs[row] = 0.0, 0.0
        values[row, :v.size], probs[row, :p.size] = v, p
    return shifts, values, probs


def _row_expectations(probs: np.ndarray, f_values: np.ndarray) -> np.ndarray:
    # One BLAS dot per row, the reduction np.dot makes in expect_f.  ddot
    # fuses each multiply into its add, so row sums and einsum differ in
    # the last bit; zero-probability padding adds an exact 0.
    return np.matmul(probs[:, None, :], f_values[:, :, None])[:, 0, 0]


def _chunk_gaps(spec: FunctionSpec, seed: int, start: int,
                stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaps and left sides ``E f(shift + Y)`` of trials ``start .. stop-1``,
    evaluated as one batch; each equals :func:`shift_gap` on the trial's
    instance bit for bit."""
    shifts, values, probs = _chunk_draws(seed, start, stop)
    if start == 0:
        rv = COUNTEREXAMPLE_RV
        shifts[0], values[0], probs[0] = COUNTEREXAMPLE_SHIFT, 0.0, 0.0
        values[0, :len(rv.atoms)], probs[0, :len(rv.atoms)] = (rv.values,
                                                               rv.probs)

    f = spec.forms.f
    mean_f = _row_expectations(probs, f(values))
    lhs = _row_expectations(probs, f(shifts[:, None] + values))
    offsets = np.array([spec.inverse(m) for m in mean_f])
    return f(shifts + offsets) - lhs, lhs


def property_scan(spec: FunctionSpec, trials: int, seed: int) -> ScanReport:
    """Evaluate :func:`shift_gap` on ``trials`` seeded instances.

    Trial zero is always the fixed counterexample instance; trials
    ``1 .. trials-1`` are random with atom count uniform on ``[2, 5]``,
    values uniform on ``[0, 4]``, probabilities from a normalized uniform
    draw, and shift uniform on ``[0, 2]``, each from its own generator
    ``np.random.default_rng((seed, trial))``.  Deterministic given
    ``seed``.  Trials are drawn and then evaluated in batches of at most
    ``_CHUNK_TRIALS``, so memory stays bounded however large ``trials``
    is.  A batch reproduces its trials' generators in one vectorized
    pass, so every instance is the one :func:`_draw` gives and every gap
    equals the scalar :func:`shift_gap` exactly.  A gap counts as a
    violation below :data:`VIOLATION_THRESHOLD` times
    ``max(1, |E f(shift + Y)|)``, since its round-off grows with the
    values.  Raises ValueError when ``seed`` is negative, and when ``f``
    overflows float64 on the range the trials read.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    top = _VALUE_CAP + _SHIFT_CAP
    with np.errstate(over="ignore"):
        if not math.isfinite(spec.value(top)):
            raise ValueError(f"{spec} overflows float64 at {top}, inside "
                             f"the range [0, {top}] the trials read")

    violations = 0
    min_gap = math.inf
    argmin_trial = 0
    for start in range(0, trials, _CHUNK_TRIALS):
        gaps, lhs = _chunk_gaps(spec, seed, start,
                                min(start + _CHUNK_TRIALS, trials))
        if start == 0:
            injected_gap = float(gaps[0])
        violations += int(np.count_nonzero(
            gaps < VIOLATION_THRESHOLD * np.maximum(1.0, np.abs(lhs))))
        row = int(np.argmin(gaps))
        if gaps[row] < min_gap:
            min_gap = float(gaps[row])
            argmin_trial = start + row

    if argmin_trial == 0:
        argmin_shift, argmin_rv = COUNTEREXAMPLE_SHIFT, COUNTEREXAMPLE_RV
    else:
        argmin_shift, argmin_rv = _random_instance(seed, argmin_trial)
    return ScanReport(
        trials=trials,
        seed=seed,
        violations=violations,
        min_gap=min_gap,
        argmin_trial=argmin_trial,
        argmin_shift=argmin_shift,
        argmin_rv=argmin_rv,
        injected_gap=injected_gap,
    )
