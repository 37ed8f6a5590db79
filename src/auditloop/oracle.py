"""Evaluation environments standing in for validation-score feedback.

The synthetic oracle maps a gate vector to a scalar score in [0, 1] built
from per-unit saturating learning curves, concave redundancy groups, and
seeded Gaussian evaluation noise. A replay oracle serves a recorded run's
scores back in order, and an exhaustive optimum supports regret accounting
on small spaces.

The recording and replay wrappers implement only the driver's protocol:
`n_units`, `fresh_state`, `train_step`, `true_value` and
`evaluate_toggles(state, gates, units, first_call_index)`, the audit step's
one query per cycle. It scores the full configuration and each one-unit
toggle of it under call indices `first_call_index, first_call_index + 1,
...`; only the driver assigns call indices. `SyntheticOracle.evaluate` is
the per-call reference that `evaluate_toggles` matches bit for bit. The
batched query is the seam where an external evaluator may parallelise the
toggles on its own side; the engine itself audits on one thread.

Every seeded stream in the engine comes from a `KeyedStreams`: its
generator for key i is `np.random.default_rng([*prefix, i])`, draw for draw.
Seeding one such stream through `SeedSequence` hashes its words in Python
loops; `_seed_states` runs the same hash as array expressions over an
aligned block of `SEED_BLOCK` keys at once, and each stream then starts from
its precomputed row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .allocator import ENUMERATION_MAX, best_subset, subset_sums
from .errors import (
    InactiveUnit,
    InvalidParams,
    LengthMismatch,
    MalformedTrace,
    TooLarge,
    UnknownConfiguration,
    check_count,
    check_finite,
)

_NOISE_TAG = 0x0E11
_DRIFT_TAG = 0xD21F


# Keys per seed-state block: a `KeyedStreams` hashes the seeds of keys
# b * SEED_BLOCK ... (b + 1) * SEED_BLOCK - 1 together.
SEED_BLOCK = 1024

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _seed_states(entropy) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for every row of a
    (K, L) array of 32-bit words, as one pass of array expressions.

    This is numpy's `mix_entropy` followed by `generate_state`: the hash
    constant runs the same sequence for every row, so it stays a Python int
    and only the pool words are arrays. Rows shorter than the pool hash
    zeros for the missing words; words past the pool mix into every pool
    word."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    n_keys, n_words = entropy.shape
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> _XSHIFT)

    zeros = np.zeros(n_keys, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = np.empty((n_keys, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    # generate_state reads word pairs as little-endian uint64s.
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _BlockSeed(ISeedSequence):
    """A seed sequence whose state was computed ahead by `_seed_states`.
    `PCG64` asks it for exactly that state: 4 uint64 words."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self._state


def _words(key: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit
    words, with 0 as one word."""
    if key < 0:
        raise InvalidParams(f"stream keys must be non-negative, not {key}")
    return [key >> shift & 0xFFFFFFFF for shift in range(0, max(key.bit_length(), 1), 32)]


class KeyedStreams:
    """Generators keyed by one int under a fixed prefix of non-negative ints:
    `streams(i)` yields the stream of `np.random.default_rng([*prefix, i])`.

    Keys are seeded in aligned blocks of `SEED_BLOCK`. Every key of a block
    has the same words as the block's first key except the lowest, which
    adds the key's offset, so the block's entropy is one broadcast and its
    seed states one `_seed_states` call. Only the latest block is kept;
    every caller asks for keys in increasing order, so each block is hashed
    once per instance."""

    def __init__(self, *prefix: int):
        self._prefix = [w for key in prefix for w in _words(int(key))]
        self._block: int | None = None
        self._states: np.ndarray | None = None

    def __call__(self, key: int) -> Generator:
        key = int(key)
        block, offset = divmod(key, SEED_BLOCK)
        if block != self._block:
            words = np.array(self._prefix + _words(key), dtype=np.uint32)
            low = len(self._prefix)
            words[low] -= offset  # the block's first key: same words, low word aligned
            entropy = np.tile(words, (SEED_BLOCK, 1))
            entropy[:, low] += np.arange(SEED_BLOCK, dtype=np.uint32)
            self._states = _seed_states(entropy)
            self._block = block
        return Generator(PCG64(_BlockSeed(self._states[offset])))


@dataclass(frozen=True)
class OracleSpec:
    """Ground-truth utility surface for a unit library.

    Each unit i approaches `mu_inf[i]` as its accumulated training steps grow
    (63% after `kappa[i]` steps); `warm_floor` is the untrained fraction of
    the asymptote already visible at zero steps. Units inside one redundancy
    group aggregate concavely with that group's gamma; gamma = 1 is purely
    additive. `drift` bounds an optional per-training-call random walk on the
    asymptotes, and `sigma_val` is the evaluation noise scale.
    """

    base_score: float
    mu_inf: tuple[float, ...]
    kappa: tuple[float, ...]
    drift: float = 0.0
    sigma_val: float = 0.0
    groups: tuple[tuple[int, ...], ...] = ()
    gammas: tuple[float, ...] = ()
    warm_floor: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_inf", tuple(float(m) for m in self.mu_inf))
        object.__setattr__(self, "kappa", tuple(float(k) for k in self.kappa))
        object.__setattr__(self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        n = len(self.mu_inf)
        if n < 1:
            raise InvalidParams("need at least one unit")
        check_finite("mu_inf, kappa, drift and sigma_val",
                     *self.mu_inf, *self.kappa, self.drift, self.sigma_val)
        check_count("oracle seed", self.seed, 0)
        if not 0.0 <= self.base_score <= 1.0:
            raise InvalidParams("base_score must lie in [0, 1]")
        if len(self.kappa) != n:
            raise InvalidParams("kappa must match mu_inf length")
        if any(k <= 0.0 for k in self.kappa):
            raise InvalidParams("learning rates kappa must be positive")
        if self.drift < 0.0 or self.sigma_val < 0.0:
            raise InvalidParams("drift and sigma_val must be non-negative")
        if not 0.0 <= self.warm_floor <= 1.0:
            raise InvalidParams("warm_floor must lie in [0, 1]")
        if len(self.gammas) != len(self.groups):
            raise InvalidParams("one gamma per group")
        if any(not 0.0 < g <= 1.0 for g in self.gammas):
            raise InvalidParams("group gammas must lie in (0, 1]")
        seen: set[int] = set()
        for g in self.groups:
            for i in g:
                if i in seen or not 0 <= i < n:
                    raise InvalidParams("groups must partition unit ids without repeats")
                seen.add(i)

    @property
    def n_units(self) -> int:
        return len(self.mu_inf)

    def full_groups(self) -> list[tuple[tuple[int, ...], float]]:
        """Listed groups plus implicit additive singletons for uncovered ids."""
        covered = {i for g in self.groups for i in g}
        out = [(g, gamma) for g, gamma in zip(self.groups, self.gammas)]
        out.extend(((i,), 1.0) for i in range(self.n_units) if i not in covered)
        return out

    @classmethod
    def from_json(cls, doc: dict | str | Path) -> "OracleSpec":
        if not isinstance(doc, dict):
            doc = json.loads(Path(doc).read_text())
        try:
            return cls(
                base_score=float(doc["base_score"]),
                mu_inf=tuple(doc["mu_inf"]),
                kappa=tuple(doc["kappa"]),
                drift=float(doc.get("drift", 0.0)),
                sigma_val=float(doc.get("sigma_val", 0.0)),
                groups=tuple(tuple(g) for g in doc.get("groups", ())),
                gammas=tuple(doc.get("gammas", ())),
                warm_floor=float(doc.get("warm_floor", 0.0)),
                seed=doc.get("seed", 0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParams(f"malformed oracle spec: {exc}") from exc

    def to_json(self) -> dict:
        return {
            "base_score": self.base_score,
            "mu_inf": list(self.mu_inf),
            "kappa": list(self.kappa),
            "drift": self.drift,
            "sigma_val": self.sigma_val,
            "groups": [list(g) for g in self.groups],
            "gammas": list(self.gammas),
            "warm_floor": self.warm_floor,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class TrainingState:
    """Accumulated training steps per unit plus the drift-walk offsets."""

    steps: np.ndarray
    drift_offsets: np.ndarray
    n_train_calls: int = 0

    @classmethod
    def fresh(cls, n_units: int) -> "TrainingState":
        return cls(
            steps=np.zeros(n_units, dtype=float),
            drift_offsets=np.zeros(n_units, dtype=float),
            n_train_calls=0,
        )


class SyntheticOracle:
    """Noise-seeded synthetic evaluation environment for one OracleSpec."""

    def __init__(self, spec: OracleSpec):
        self.spec = spec
        self._mu_inf = np.array(spec.mu_inf, dtype=float)
        self._kappa = np.array(spec.kappa, dtype=float)
        self._groups = spec.full_groups()
        self._members = [np.array(g, dtype=np.intp) for g, _ in self._groups]
        self._group_of = np.empty(self.n_units, dtype=np.intp)
        for k, members in enumerate(self._members):
            self._group_of[members] = k
        # Group capacity: positive asymptote mass, the value a fully trained
        # group realizes exactly under its concave aggregation.
        self._capacity = [float(np.maximum(self._mu_inf[list(g)], 0.0).sum()) for g, _ in self._groups]
        self._noise = KeyedStreams(spec.seed, _NOISE_TAG)
        self._drift = KeyedStreams(spec.seed, _DRIFT_TAG)

    @property
    def n_units(self) -> int:
        return self.spec.n_units

    def fresh_state(self) -> TrainingState:
        return TrainingState.fresh(self.n_units)

    def _unit_utilities(self, state: TrainingState) -> np.ndarray:
        learned = 1.0 - np.exp(-state.steps / self._kappa)
        learned = np.maximum(learned, self.spec.warm_floor)
        return (self._mu_inf + state.drift_offsets) * learned

    def _check_gates(self, gates) -> np.ndarray:
        gates = np.asarray(gates, dtype=bool)
        if gates.size != self.n_units:
            raise LengthMismatch("gate vector length must match the unit count")
        return gates

    def _group_term(self, mu: np.ndarray, k: int, gates: np.ndarray) -> float:
        """Value of group k's active members under `gates`."""
        members = self._members[k]
        s = float(mu[members[gates[members]]].sum())
        return _group_value(s, self._groups[k][1], self._capacity[k])

    def _totals(self, terms: list[float], swaps=()) -> np.ndarray:
        """Base score plus the group terms, added in group order from left to
        right and clamped to [0, 1]. Row 0 totals `terms`; row r then totals
        them with group k's term replaced by t, for the r-th (k, t) of
        `swaps`. One accumulate along each row adds exactly as a Python loop
        would; a row sum would add pairwise."""
        rows = np.empty((1 + len(swaps), 1 + len(terms)))
        rows[:, 0] = self.spec.base_score
        rows[:, 1:] = terms
        if swaps:
            groups, values = zip(*swaps)
            rows[np.arange(1, rows.shape[0]), 1 + np.array(groups)] = values
        totals = np.add.accumulate(rows, axis=1)[:, -1]
        return np.minimum(1.0, np.maximum(0.0, totals))

    def _noisy(self, value: float, call_index: int) -> float:
        """Add the noise draw of one call index and clamp to [0, 1].

        Noise is drawn from a stream seeded by (spec.seed, call_index), so a
        fixed call-index assignment reproduces identical scores under any
        execution schedule.
        """
        if self.spec.sigma_val > 0.0:
            value += self.spec.sigma_val * self._noise(call_index).standard_normal()
        return float(min(1.0, max(0.0, value)))

    def true_value(self, state: TrainingState, gates) -> float:
        """Noise-free score of a configuration; does not count as an evaluation."""
        gates = self._check_gates(gates)
        mu = self._unit_utilities(state)
        return float(self._totals([self._group_term(mu, k, gates) for k in range(len(self._groups))])[0])

    def evaluate(self, state: TrainingState, gates, call_index: int) -> float:
        """Noisy evaluation: true value plus Gaussian noise, clamped to [0, 1]."""
        return self._noisy(self.true_value(state, gates), call_index)

    def evaluate_toggles(
        self, state: TrainingState, gates, units, first_call_index: int
    ) -> tuple[float, list[float]]:
        """Scores of `gates` and of each one-unit toggle of it, bit-identical
        to `evaluate` at call indices first_call_index, first_call_index + 1, ...

        The group terms of the full configuration are computed once; a toggle
        recomputes only its unit's group, and one `_totals` call adds up the
        full configuration and every toggle.
        """
        gates = self._check_gates(gates)
        mu = self._unit_utilities(state)
        terms = [self._group_term(mu, k, gates) for k in range(len(self._groups))]
        flipped = gates.copy()
        swaps = []
        for unit in units:
            k = int(self._group_of[unit])
            flipped[unit] = not flipped[unit]
            swaps.append((k, self._group_term(mu, k, flipped)))
            flipped[unit] = gates[unit]
        full, *toggled = (
            self._noisy(value, first_call_index + pos)
            for pos, value in enumerate(self._totals(terms, swaps).tolist())
        )
        return full, toggled

    def train_step(self, state: TrainingState, gates, k: int) -> TrainingState:
        """Advance active units by k steps; inactive units are untouched."""
        if k < 1:
            raise InvalidParams("k must be at least 1")
        gates = self._check_gates(gates)
        steps = state.steps.copy()
        steps[gates] += float(k)
        offsets = state.drift_offsets
        if self.spec.drift > 0.0:
            rng = self._drift(state.n_train_calls)
            offsets = offsets + rng.uniform(-self.spec.drift, self.spec.drift, self.n_units)
        return TrainingState(steps=steps, drift_offsets=offsets, n_train_calls=state.n_train_calls + 1)

    def true_marginal(self, state: TrainingState, gates, unit_id: int) -> float:
        """Noise-free value change from toggling an active unit off."""
        gates = np.asarray(gates, dtype=bool)
        if not gates[unit_id]:
            raise InactiveUnit(f"unit {unit_id} is inactive; its toggle-off marginal is undefined")
        without = gates.copy()
        without[unit_id] = False
        return self.true_value(state, gates) - self.true_value(state, without)

    def oracle_optimum(self, state: TrainingState, costs, p_max: float) -> tuple[np.ndarray, float]:
        """Exact budget-constrained maximizer of the noise-free value
        (N <= `ENUMERATION_MAX`) and its `true_value`, which the subset
        values here, from `np.power`, can miss in the last bit."""
        n = self.n_units
        if n > ENUMERATION_MAX:
            raise TooLarge(f"{n} units exceed the enumeration cap of {ENUMERATION_MAX}")
        costs = np.asarray(costs, dtype=float)
        if costs.size != n:
            raise LengthMismatch("cost vector length must match the unit count")

        sub_cost = subset_sums(n, enumerate(costs))
        mu = self._unit_utilities(state)
        values = np.full(1 << n, self.spec.base_score)
        for (members, gamma), cap in zip(self._groups, self._capacity):
            group_sum = subset_sums(n, ((i, mu[i]) for i in members))
            values += _group_value_array(group_sum, gamma, cap)
        np.clip(values, 0.0, 1.0, out=values)
        gates = best_subset(values, sub_cost, costs, p_max, range(n), n)
        return gates, self.true_value(state, gates)


def _group_value(s: float, gamma: float, cap: float) -> float:
    """Capacity-scaled concave aggregation of one group's active utility mass.

    Additive at gamma = 1 and for non-positive sums; otherwise
    cap^(1-gamma) * s^gamma, which realizes exactly `cap` when the whole
    group is active and fully trained.
    """
    if gamma >= 1.0 or cap <= 0.0 or s <= 0.0:
        return s
    return cap ** (1.0 - gamma) * s**gamma


def _group_value_array(s: np.ndarray, gamma: float, cap: float) -> np.ndarray:
    if gamma >= 1.0 or cap <= 0.0:
        return s
    out = s.copy()
    pos = s > 0.0
    out[pos] = cap ** (1.0 - gamma) * np.power(s[pos], gamma)
    return out


def gates_to_bits(gates) -> str:
    return "".join("1" if g else "0" for g in np.asarray(gates, dtype=bool))


def _toggles(gates, units):
    """Each one-unit toggle of `gates`, in the order of `units`."""
    gates = np.asarray(gates, dtype=bool)
    for unit in units:
        toggled = gates.copy()
        toggled[unit] = not toggled[unit]
        yield toggled


class TraceRecordingOracle:
    """Wraps an oracle and appends every query to a JSONL trace.

    Noisy evaluations record their call index under `noise_seed`; noise-free
    value queries record noise_seed = -1. A replay serves the records back in
    file order and checks each query against both fields.
    """

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")

    @property
    def n_units(self) -> int:
        return self.inner.n_units

    def fresh_state(self) -> TrainingState:
        return self.inner.fresh_state()

    def _record(self, gates, score: float, noise_seed: int) -> None:
        rec = {"gates": gates_to_bits(gates), "score": score, "noise_seed": noise_seed}
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def evaluate_toggles(self, state, gates, units, first_call_index: int) -> tuple[float, list[float]]:
        """Records the full configuration, then each toggle, at consecutive
        call indices."""
        full, toggled = self.inner.evaluate_toggles(state, gates, units, first_call_index)
        self._record(gates, full, int(first_call_index))
        for pos, (flipped, score) in enumerate(zip(_toggles(gates, units), toggled)):
            self._record(flipped, score, int(first_call_index) + 1 + pos)
        return full, toggled

    def true_value(self, state, gates) -> float:
        score = self.inner.true_value(state, gates)
        self._record(gates, score, -1)
        return score

    def train_step(self, state, gates, k: int):
        return self.inner.train_step(state, gates, k)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceRecordingOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReplayOracle:
    """Serves a recorded trace back as one ordered stream.

    Each query takes the next record, which must match it on the gates and on
    `noise_seed`: the call index for an evaluation, -1 for a noise-free value
    query. A mismatch, or a query past the last record, raises
    UnknownConfiguration naming the record. Training is not recorded, so a
    replay cannot tell a run that differs only in step counts.
    """

    def __init__(self, records: list[tuple[str, int, float]], n_units: int):
        self._records = records
        self._n_units = n_units
        self._next = 0

    @property
    def n_units(self) -> int:
        return self._n_units

    def fresh_state(self) -> TrainingState:
        return TrainingState.fresh(self._n_units)

    def _serve(self, gates, noise_seed: int) -> float:
        """The next record's score, if the record is this query."""
        bits = gates_to_bits(gates)
        if len(bits) != self._n_units:
            raise LengthMismatch("gate vector length must match the trace unit count")
        number = self._next + 1
        if number > len(self._records):
            raise UnknownConfiguration(f"replay query {number} runs past the {len(self._records)} trace records")
        rec_bits, rec_seed, score = self._records[self._next]
        if rec_seed != noise_seed:
            raise UnknownConfiguration(
                f"replay diverges at trace record {number}: recorded noise_seed {rec_seed}, queried {noise_seed}"
            )
        if rec_bits != bits:
            raise UnknownConfiguration(f"replay diverges at trace record {number}: the queried gates differ")
        self._next = number
        return score

    def evaluate_toggles(self, state, gates, units, first_call_index: int) -> tuple[float, list[float]]:
        """Serves the full configuration's score, then each toggle's."""
        full = self._serve(gates, first_call_index)
        calls = enumerate(_toggles(gates, units), start=first_call_index + 1)
        return full, [self._serve(flipped, call_index) for call_index, flipped in calls]

    def true_value(self, state, gates) -> float:
        return self._serve(gates, -1)

    def train_step(self, state, gates, k: int) -> TrainingState:
        return state  # training dynamics live behind the recorded scores


def replay_trace(path: str | Path) -> ReplayOracle:
    """Build a replay oracle from a JSONL trace of {gates, score, noise_seed}."""
    path = Path(path)
    records: list[tuple[str, int, float]] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise MalformedTrace(f"cannot read trace {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            bits = rec["gates"]
            score = float(rec["score"])
            noise_seed = int(rec["noise_seed"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedTrace(f"{path}:{lineno}: {exc}") from exc
        if not isinstance(bits, str) or set(bits) - {"0", "1"}:
            raise MalformedTrace(f"{path}:{lineno}: gates must be a 0/1 bitstring")
        if records and len(bits) != len(records[0][0]):
            raise MalformedTrace(f"{path}:{lineno}: inconsistent gate vector length")
        records.append((bits, noise_seed, score))
    if not records:
        raise MalformedTrace(f"{path}: trace contains no records")
    return ReplayOracle(records, len(records[0][0]))
