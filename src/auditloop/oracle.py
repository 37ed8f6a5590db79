"""Evaluation environments standing in for validation-score feedback.

The synthetic oracle maps a gate vector to a scalar score in [0, 1] built
from per-unit saturating learning curves, concave redundancy groups, and
seeded Gaussian evaluation noise. A replay oracle serves a recorded run's
scores back in order, and an exhaustive optimum supports regret accounting
on small spaces.

The recording and replay wrappers implement only the driver's protocol:
`fresh_state`, `train_step`, `true_value` and
`evaluate_toggles(state, gates, units, first_call_index)`, the audit step's
one query per cycle. It scores the full configuration and each one-unit
toggle of it under call indices `first_call_index, first_call_index + 1,
...`; only the driver assigns call indices. It matches, bit for bit, the
per-call reference in the tests: `true_value` plus the noise draw of each
call index. An external evaluator may parallelise the toggles behind it;
the engine audits on one thread. The recorder writes one trace record per
query: an audit's first call index, gates, toggled units and its 1 + M
scores, or a value query's call -1, gates and one score. A replay serves
the records back in order and checks each query's call, gates and units;
training is not recorded, so it cannot tell a run that differs only in
step counts. The recorder forwards `oracle_optimum` (ground truth, for the
regret curve) unrecorded; a replay has none.

A group's term sums its active members in spec order as a 1-D numpy `.sum()`
does (pairwise, not left to right). `_terms` finds the terms of every group
and of each toggled group in one pass: the rows with k active members form
one C-contiguous (rows, k) block, whose `sum(axis=1)` adds each row exactly
as that 1-D sum (a test pins this for the installed numpy), so there is one
reduction per distinct count, not per group; only rows with an active
member go through the concave step, and the others take the term 0.0.
`true_value` and `evaluate_toggles` share that one noise-free computation,
which returns the audit's 1 + M totals as one array. It lays the base score
and the group terms out as one column per configuration, each toggle's
column holding its group's toggled term, and `_fold` adds every column top
to bottom, as a Python loop would, with one reduce down the columns. Against
a per-row accumulate of the same sums that takes 4.4 against 28.5 µs at
M = 100, G = 80, and 48 against 673 µs at M = 500, G = 400 (timeit, best
of 7, 2-core VM, numpy 2.4.6). numpy adds one lone column pairwise, so a
pass without toggles, such as a value query on a fresh state, accumulates
it instead; a test pins both orders for the installed numpy.
`evaluate_toggles` adds each call index's noise and clamps them in array
operations, each element as `min(1.0, max(0.0, v))` gives it, and returns
Python floats; at M = 100 that tail is about 15% cheaper than a Python loop
over the totals, and at M = 10 about the same.
The oracle caches the latest full pass's state, gates, unit utilities and
group terms. A `true_value` on that same state object rescores only the
groups that hold a unit whose gate differs from the cached gates, each as
that 1-D sum through the same concave step, folds the base score and the
terms with `_fold`, and caches its own result; so the cycle's
value query after a commit rescores only the groups the commit touched. A
query on any other state takes the full pass. A state is the units' float
step array, read-only as `fresh_state` and `train_step` return it, so a
cached one cannot change.

Every seeded stream in the engine comes from a `KeyedStreams`: its
generator for key i is `np.random.default_rng([*prefix, i])`, draw for draw.
Seeding one such stream through `SeedSequence` hashes its words in Python
loops; `_seed_states` runs the same hash as array expressions over an
aligned block of `SEED_BLOCK` keys at once, and each stream then starts from
its precomputed row. `evaluate_toggles` needs only the first
`standard_normal()` of each call index's stream, and `normals` serves those
as one slice: the first time an audit reaches a block, `_first_normals`
draws all of the block's as array expressions over its seed states (PCG64's
seeding and first output, then the ziggurat's first try, with numpy's
tables in `_ziggurat`), and numpy itself draws the rows it would not accept
on that try, about 1.5% of them. An audit's noise is then one copy of
about 1 µs, and a block's draw about 105 µs once per 1,024 call indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ._ziggurat import KI, WI
from .allocator import ENUMERATION_MAX, Budget, best_subset, subset_sums
from .errors import (
    InvalidParams,
    LengthMismatch,
    MalformedTrace,
    TooLarge,
    UnknownConfiguration,
    check_bits,
    check_count,
    check_keys,
    check_number,
    read_json_lines,
)

_NOISE_TAG = 0x0E11
_NO_UNITS = np.empty(0, dtype=np.intp)
# The keys of every trace record, in sorted order.
_TRACE_KEYS = ("call", "gates", "scores", "units")


# Keys per seed-state block: a `KeyedStreams` hashes the seeds of keys
# b * SEED_BLOCK ... (b + 1) * SEED_BLOCK - 1 together.
SEED_BLOCK = 1024

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)

# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h), as its high
# and low 64 bits.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


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
    """A seed sequence whose state was computed ahead as one row of
    `_seed_states`. `PCG64` asks it for exactly that state: 4 uint64 words."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self._state


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each a * b, for uint64 `a` and a 64-bit int `b`,
    from products of 32-bit halves."""
    a1, a0, b1, b0 = a >> 32, a & 0xFFFFFFFF, b >> 32, b & 0xFFFFFFFF
    low, mid0, mid1 = a0 * b0, a0 * b1, a1 * b0
    carry = (low >> 32) + (mid0 & 0xFFFFFFFF) + (mid1 & 0xFFFFFFFF)
    return a1 * b1 + (mid0 >> 32) + (mid1 >> 32) + (carry >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """a + b mod 2**128 on (high, low) limbs; the low sum wraps below a_lo
    exactly when it carries."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _step128(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * MULT + inc mod 2**128, on (high, low) limbs."""
    hi = _mulhi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return _add128(hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _first_tries(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ziggurat's first try at `standard_normal()` of the `PCG64` seeded
    from each row of `_seed_states`, and whether numpy accepts it.

    PCG64 seeds from (v0, v1, v2, v3) as state = ((inc + initstate) * MULT +
    inc) mod 2**128, with initstate = v0 * 2**64 + v1 and inc = (v2 * 2**64 +
    v3) * 2 + 1; the draw's first output is the XSL-RR of the next state,
    rotr64(hi ^ lo, hi >> 58). Its low byte picks the layer, bit 8 the sign
    and bits 9 to 60 the magnitude, accepted below `KI` of the layer."""
    v0, v1, v2, v3 = states.T
    inc_hi, inc_lo = v2 << 1 | v3 >> 63, v3 << 1 | 1
    hi, lo = _step128(*_add128(inc_hi, inc_lo, v0, v1), inc_hi, inc_lo)
    hi, lo = _step128(hi, lo, inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> 58
    out = xored >> rot | xored << (64 - rot & 63)
    layer = (out & 0xFF).astype(np.intp)
    magnitude = out >> 9 & (1 << 52) - 1
    values = magnitude.astype(np.float64) * WI[layer]
    np.negative(values, out=values, where=(out >> 8 & 1).astype(bool))
    return values, magnitude < KI[layer]


def _first_normals(states: np.ndarray) -> np.ndarray:
    """The first `standard_normal()` of the generator of each row of
    `_seed_states`, bit for bit: the first try where numpy accepts it, and
    numpy's own draw on the rows where it would try again."""
    values, accepted = _first_tries(states)
    for row in np.flatnonzero(~accepted).tolist():
        values[row] = Generator(PCG64(_BlockSeed(states[row]))).standard_normal()
    return values


def _words(key: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit
    words, with 0 as one word."""
    check_count("stream key", key, 0)
    return [key >> shift & 0xFFFFFFFF for shift in range(0, max(key.bit_length(), 1), 32)]


class KeyedStreams:
    """Generators keyed by one int under a fixed prefix of non-negative ints:
    `streams(i)` yields the stream of `np.random.default_rng([*prefix, i])`,
    and `streams.normals(i, n)` the first `standard_normal()` of keys i to
    i + n - 1.

    Keys are seeded in aligned blocks of `SEED_BLOCK`. Every key of a block
    has the same words as the block's first key except the lowest, which
    adds the key's offset, so the block's entropy is one broadcast and its
    seed states one `_seed_states` call. Only the latest block, with its
    first normals once `normals` asks for them, is kept; every caller asks
    for keys in increasing order, so each block is hashed once per
    instance."""

    def __init__(self, *prefix: int):
        self._prefix = [w for key in prefix for w in _words(int(key))]
        self._block: int | None = None
        self._states: np.ndarray | None = None
        self._normals: np.ndarray | None = None

    def __call__(self, key: int) -> Generator:
        offset = self._load(int(key))
        return Generator(PCG64(_BlockSeed(self._states[offset])))

    def _load(self, key: int) -> int:
        """Makes key's block the cached one and returns key's offset in it."""
        block, offset = divmod(key, SEED_BLOCK)
        if block != self._block:
            words = np.array(self._prefix + _words(key), dtype=np.uint32)
            low = len(self._prefix)
            words[low] -= offset  # the block's first key: same words, low word aligned
            entropy = np.tile(words, (SEED_BLOCK, 1))
            entropy[:, low] += np.arange(SEED_BLOCK, dtype=np.uint32)
            self._states = _seed_states(entropy)
            self._block, self._normals = block, None
        return offset

    def normals(self, first: int, count: int) -> np.ndarray:
        """The first `standard_normal()` of the streams of keys `first` to
        `first + count - 1`, as one array. Each block's are drawn once, with
        its states, by `_first_normals`."""
        out, first = np.empty(count), int(first)
        key, end = first, first + count
        while key < end:
            offset = self._load(key)
            if self._normals is None:
                self._normals = _first_normals(self._states)
            n = min(SEED_BLOCK - offset, end - key)
            out[key - first : key - first + n] = self._normals[offset : offset + n]
            key += n
        return out


@dataclass(frozen=True)
class OracleSpec:
    """Ground-truth utility surface for a unit library.

    Each unit i approaches `mu_inf[i]` as its accumulated training steps grow
    (63% after `kappa[i]` steps); `warm_floor` is the untrained fraction of
    the asymptote already visible at zero steps. Units inside one redundancy
    group aggregate concavely with that group's gamma; gamma = 1 is purely
    additive. `sigma_val` is the evaluation noise scale.
    """

    base_score: float
    mu_inf: tuple[float, ...]
    kappa: tuple[float, ...]
    sigma_val: float = 0.0
    groups: tuple[tuple[int, ...], ...] = ()
    gammas: tuple[float, ...] = ()
    warm_floor: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        intervals = {"base_score": "[0, 1]", "sigma_val": "[0, inf)", "warm_floor": "[0, 1]"}
        for name, interval in intervals.items():
            object.__setattr__(self, name, check_number(name, getattr(self, name), interval))
        for name, interval in {"mu_inf": "(-inf, inf)", "kappa": "(0, inf)", "gammas": "(0, 1]"}.items():
            object.__setattr__(self, name, tuple(check_number(f"{name} entry", v, interval) for v in getattr(self, name)))
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))
        n = len(self.mu_inf)
        if n < 1:
            raise InvalidParams("need at least one unit")
        check_count("oracle seed", self.seed, 0)
        if len(self.kappa) != n:
            raise InvalidParams("kappa must match mu_inf length")
        if len(self.gammas) != len(self.groups):
            raise InvalidParams("one gamma per group")
        seen: set[int] = set()
        for g in self.groups:
            for i in g:
                check_count("group member", i, 0)
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


def _read_only(steps: np.ndarray) -> np.ndarray:
    steps.flags.writeable = False
    return steps


class SyntheticOracle:
    """Noise-seeded synthetic evaluation environment for one OracleSpec."""

    def __init__(self, spec: OracleSpec):
        self.spec = spec
        self._mu_inf = np.array(spec.mu_inf, dtype=float)
        self._kappa = np.array(spec.kappa, dtype=float)
        self._groups = spec.full_groups()
        # Row k lists group k's ids in spec order, `_valid` masks its padding
        # and `_slot[i]` marks unit i's place in its row.
        self._rows = np.arange(len(self._groups))
        self._table = np.zeros((len(self._groups), max(len(g) for g, _ in self._groups)), dtype=np.intp)
        self._valid = np.zeros(self._table.shape, dtype=bool)
        self._group_of = np.empty(self.n_units, dtype=np.intp)
        self._slot = np.zeros((self.n_units, self._table.shape[1]), dtype=bool)
        # Per group, (cap^(1 - gamma), gamma) if it aggregates concavely, else
        # None. The capacity cap is the positive asymptote mass, the value a
        # fully trained group realizes exactly.
        self._shape = []
        for k, (members, gamma) in enumerate(self._groups):
            ids = list(members)
            self._table[k, : len(ids)], self._valid[k, : len(ids)] = ids, True
            self._group_of[ids], self._slot[ids, np.arange(len(ids))] = k, True
            cap = float(np.maximum(self._mu_inf[ids], 0.0).sum())
            self._shape.append((cap ** (1.0 - gamma), gamma) if gamma < 1.0 and cap > 0.0 else None)
        self._members = [np.array(members, dtype=np.intp) for members, _ in self._groups]
        # The latest noise-free full pass, or the latest value query after it:
        # state, gates, unit utilities, (base, *group terms) and value.
        self._cache: tuple = (None, None, None, None, None)
        self._noise = KeyedStreams(spec.seed, _NOISE_TAG)

    @property
    def n_units(self) -> int:
        return self.spec.n_units

    def fresh_state(self) -> np.ndarray:
        """No unit trained: a read-only array of zero steps."""
        return _read_only(np.zeros(self.n_units))

    def _unit_utilities(self, steps: np.ndarray) -> np.ndarray:
        return self._mu_inf * np.maximum(1.0 - np.exp(-steps / self._kappa), self.spec.warm_floor)

    def _check_gates(self, gates) -> np.ndarray:
        gates = np.asarray(gates, dtype=bool)
        if gates.size != self.n_units:
            raise LengthMismatch("gate vector length must match the unit count")
        return gates

    def _shaped(self, groups, sums) -> list[float]:
        """Each group's term from the sum of its active members: the sum, or
        the group's concave step of it."""
        return [s if (shape := self._shape[g]) is None or s <= 0.0 else shape[0] * s ** shape[1]
                for g, s in zip(groups, sums)]

    def _terms(self, mu: np.ndarray, gates: np.ndarray, units=_NO_UNITS) -> np.ndarray:
        """Terms of every group under `gates`, then of each of `units`' group
        with that unit toggled. Rows sorted by active count put each count's
        values side by side. A row with none has the term 0.0, which is what
        `_shaped` gives its empty sum, so only the other rows are shaped."""
        rows = np.concatenate((self._rows, self._group_of.take(units)))
        act = gates.take(self._table.take(rows, 0)) & self._valid.take(rows, 0)
        act[self._rows.size :] ^= self._slot.take(units, 0)
        counts = act.sum(axis=1)
        order = np.argsort(counts, kind="stable")
        by_count = rows.take(order)
        flat = mu.take(self._table.take(by_count, 0))[act.take(order, 0)]
        n_rows = np.bincount(counts).tolist()
        sums, start = [], 0
        for k, n in enumerate(n_rows[1:], start=1):
            sums.append(flat[start : start + n * k].reshape(n, k).sum(axis=1))
            start += n * k
        terms = np.zeros(rows.size)
        if sums:
            terms[order[n_rows[0] :]] = self._shaped(by_count[n_rows[0] :].tolist(), np.concatenate(sums).tolist())
        return terms

    def _values(self, state: np.ndarray, gates: np.ndarray, units=_NO_UNITS) -> np.ndarray:
        """Noise-free values of `gates`, then of each one-unit toggle of it in
        `units`, as an array, from one `_terms` pass folded column by column:
        column 0 is the full configuration's (base, group terms), and each
        toggle's column holds its group's toggled term. Caches column 0."""
        mu, n_groups = self._unit_utilities(state), self._rows.size
        terms = self._terms(mu, gates, units)
        cols = np.empty((1 + n_groups, 1 + units.size))
        cols[0] = self.spec.base_score
        cols[1:] = terms[:n_groups, None]
        cols[1 + self._group_of[units], np.arange(1, cols.shape[1])] = terms[n_groups:]
        totals = _fold(cols)
        self._cache = (state, gates.copy(), mu, cols[:, 0].copy(), float(totals[0]))
        return totals

    def true_value(self, state: np.ndarray, gates) -> float:
        """Noise-free score of a configuration; does not count as an evaluation.
        On the state of the latest cached pass it rescores only the groups
        that hold a unit whose gate differs from that pass's gates."""
        gates = self._check_gates(gates)
        cached_state, cached_gates, mu, row, value = self._cache
        if cached_state is not state:
            return float(self._values(state, gates)[0])
        changed = np.flatnonzero(gates != cached_gates)
        if changed.size:
            groups = list(dict.fromkeys(self._group_of.take(changed).tolist()))
            members = [self._members[g] for g in groups]
            sums = [float(mu.take(m[gates.take(m)]).sum()) for m in members]
            row[1:][groups] = self._shaped(groups, sums)
            value = float(_fold(row[:, None])[0])
            self._cache = (state, gates.copy(), mu, row, value)
        return value

    def evaluate_toggles(
        self, state: np.ndarray, gates, units, first_call_index: int
    ) -> tuple[float, list[float]]:
        """`true_value` plus noise, clamped to [0, 1], of `gates` and of each
        one-unit toggle of it, at call indices first_call_index, +1, ...

        Each call index's noise is drawn from a stream seeded by (spec.seed,
        call index), so a fixed call-index assignment reproduces identical
        scores under any execution schedule. The noise is added and the
        totals clamped as arrays, each element as `min(1.0, max(0.0, v))`
        would give it, and the scores return as Python floats.
        """
        gates = self._check_gates(gates)
        totals = self._values(state, gates, np.asarray(units, dtype=np.intp))
        if (sigma := self.spec.sigma_val) > 0.0:
            totals = totals + sigma * self._noise.normals(first_call_index, totals.size)
        full, *toggled = _clamp(totals).tolist()
        return full, toggled

    def train_step(self, state: np.ndarray, gates, k: int) -> np.ndarray:
        """A new read-only state with the active units k steps further;
        inactive units are untouched, and so is `state`."""
        check_count("k", k, 1)
        gates = self._check_gates(gates)
        steps = state.copy()
        steps[gates] += float(k)
        return _read_only(steps)

    def oracle_optimum(self, state: np.ndarray, budget: Budget) -> tuple[np.ndarray, float]:
        """Exact budget-constrained maximizer of the noise-free value
        (N <= `ENUMERATION_MAX`) and its `true_value`, which the subset
        values here, from `np.power`, can miss in the last bit."""
        n = self.n_units
        if n > ENUMERATION_MAX:
            raise TooLarge(f"{n} units exceed the enumeration cap of {ENUMERATION_MAX}")
        if budget.counts.size != n:
            raise LengthMismatch("the budget must have one count per unit")

        mu = self._unit_utilities(state)
        values = np.full(1 << n, self.spec.base_score)
        for (members, _), shape in zip(self._groups, self._shape):
            values += _group_value_array(subset_sums(n, ((i, mu[i]) for i in members)), shape)
        np.clip(values, 0.0, 1.0, out=values)
        gates = best_subset(values, budget, range(n), n)
        return gates, self.true_value(state, gates)


def _fold(cols: np.ndarray) -> np.ndarray:
    """Each column of (base score, group terms) added from top to bottom, as a
    Python loop would add it, and clamped to [0, 1]. With two or more
    columns, numpy's reduce down axis 0 adds each column in that order (a
    test pins this); one column it would add pairwise, so that one is
    accumulated."""
    if cols.shape[1] > 1:
        sums = np.add.reduce(cols, axis=0)
    else:
        sums = np.add.accumulate(cols[:, 0])[-1:]
    return np.minimum(1.0, np.maximum(0.0, sums))


def _clamp(values: np.ndarray) -> np.ndarray:
    """`min(1.0, max(0.0, v))` of each value, bit for bit. `np.fmax` maps NaN
    to 0.0, where `np.maximum` and `np.clip` keep it, and adding 0.0 turns a
    -0.0 into 0.0."""
    out = np.fmax(values, 0.0)
    np.fmin(out, 1.0, out=out)
    out += 0.0
    return out


def _group_value_array(s: np.ndarray, shape: tuple[float, float] | None) -> np.ndarray:
    if shape is None:
        return s
    out, pos = s.copy(), s > 0.0
    out[pos] = shape[0] * np.power(s[pos], shape[1])
    return out


def gates_to_bits(gates) -> str:
    return (np.asarray(gates, dtype=bool).view(np.uint8) + ord("0")).tobytes().decode("ascii")


class TraceRecordingOracle:
    """Wraps an oracle and appends one JSONL line per query to a trace, as
    `replay_trace` reads it: `json.dumps(record, sort_keys=True)`."""

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")

    def fresh_state(self) -> np.ndarray:
        return self.inner.fresh_state()

    def _write(self, call: int, gates, scores: list, units: list[int]) -> None:
        rec = {"call": call, "gates": gates_to_bits(gates), "scores": scores, "units": units}
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def evaluate_toggles(self, state, gates, units, first_call_index: int) -> tuple[float, list[float]]:
        full, toggled = self.inner.evaluate_toggles(state, gates, units, first_call_index)
        self._write(int(first_call_index), gates, [full, *toggled], list(map(int, units)))
        return full, toggled

    def true_value(self, state, gates) -> float:
        score = self.inner.true_value(state, gates)
        self._write(-1, gates, [score], [])
        return score

    def train_step(self, state, gates, k: int):
        return self.inner.train_step(state, gates, k)

    def oracle_optimum(self, state, budget):
        """Forwarded unrecorded: ground truth is no query a replay answers."""
        return self.inner.oracle_optimum(state, budget)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceRecordingOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReplayOracle:
    """Serves a recorded trace back as one ordered stream. Each query takes
    the next record, which must match it on the call, the gates and the
    units; a mismatch, or a query past the last record, raises
    UnknownConfiguration naming the record, as `check_used_up` does for
    records that a finished run left unread."""

    def __init__(self, records: list[tuple[int, str, list[float], list[int]]], n_units: int):
        self._records = records
        self._n_units = n_units
        self._next = 0

    def fresh_state(self) -> np.ndarray:
        return _read_only(np.zeros(self._n_units))

    def _serve(self, call: int, gates, units: list[int]) -> list[float]:
        """The next record's scores, if the record is this query."""
        bits = gates_to_bits(gates)
        if len(bits) != self._n_units:
            raise LengthMismatch("gate vector length must match the trace unit count")
        number = self._next + 1
        if number > len(self._records):
            raise UnknownConfiguration(f"replay query {number} runs past the {len(self._records)} trace records")
        rec_call, rec_bits, scores, rec_units = self._records[self._next]
        if rec_call != call:
            raise UnknownConfiguration(
                f"replay diverges at trace record {number}: recorded call {rec_call}, queried {call}"
            )
        if rec_bits != bits:
            raise UnknownConfiguration(f"replay diverges at trace record {number}: the queried gates differ")
        if rec_units != units:
            raise UnknownConfiguration(f"replay diverges at trace record {number}: the queried units differ")
        self._next = number
        return scores

    def evaluate_toggles(self, state, gates, units, first_call_index: int) -> tuple[float, list[float]]:
        full, *toggled = self._serve(first_call_index, gates, list(map(int, units)))
        return full, toggled

    def true_value(self, state, gates) -> float:
        return self._serve(-1, gates, [])[0]

    def train_step(self, state, gates, k: int) -> np.ndarray:
        return state  # training dynamics live behind the recorded scores

    def check_used_up(self) -> None:
        """Raise UnknownConfiguration unless every record has been served."""
        if self._next < len(self._records):
            raise UnknownConfiguration(f"replay used {self._next} of {len(self._records)} trace records")


def replay_trace(path: str | Path) -> ReplayOracle:
    """Build a replay oracle from a JSON-lines trace, read by `read_json_lines`
    with MalformedTrace for its errors. Each record holds exactly the keys
    `call` (an integer of at least -1), `gates` (a 0/1 string as wide as the
    first record's), `units` (a list of unit ids below that width) and
    `scores` (a list of one JSON number more than `units`; NaN and
    infinities replay, and an integer comes back as a float). An empty
    trace, or any other record, raises MalformedTrace naming the line."""
    records: list[tuple[int, str, list[float], list[int]]] = []
    for lineno, doc in read_json_lines(path, MalformedTrace, "trace"):
        try:
            rec = check_keys("trace record", doc, _TRACE_KEYS, required=_TRACE_KEYS)
            call, bits, scores, units = (rec[key] for key in _TRACE_KEYS)
            check_count("call", call, -1)
            check_bits("gates", bits, len(records[0][1]) if records else None)
            if type(units) is not list or type(scores) is not list or len(scores) != len(units) + 1:
                raise InvalidParams("units and scores must be lists, with one score more than units")
            for unit in units:
                check_count("unit", unit, 0, len(bits) - 1)
            records.append((call, bits, [check_number("score", score) for score in scores], units))
        except InvalidParams as exc:
            raise MalformedTrace(f"{path}:{lineno}: {exc}") from exc
    if not records:
        raise MalformedTrace(f"{path}: trace contains no records")
    return ReplayOracle(records, len(records[0][1]))
