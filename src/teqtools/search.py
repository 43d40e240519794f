"""Seeded search for tournaments with more than one minimal retentive set.

Uniqueness of the minimal TEQ-retentive set is known to hold through order 12
and known to fail at order 24, so the interesting gap is 13..23. The harness
is a sampler, not a prover: uniform mode draws random tournaments, structured
mode draws a random half of order n/2 and composes two copies with the same
cross-block pattern as the embedded order-24 instance.
"""

import time
from collections import namedtuple

from .core import MAX_ORDER, Tournament, derive_seed, random_tournament, serialize
from .teq import DeadlineExceeded, TeqCache, minimal_retentive_sets

_SOURCES = {
    "uniform": random_tournament,
    "structured": lambda order, seed: compose_structured(random_tournament(order // 2, seed), order // 4),
}
MODES = tuple(_SOURCES)
DEFAULT_WITNESS_CAP = 10


class SearchConfig(namedtuple("SearchConfig", "order trials seed mode time_budget witness_cap",
                              defaults=("uniform", None, DEFAULT_WITNESS_CAP))):
    """What one search run does; ``time_budget`` is seconds per trial, None = unlimited."""

    __slots__ = ()

    def validate(self) -> None:
        # bool subclasses int, but True is no order and False no seed
        for name in ("order", "trials", "seed", "witness_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name.replace('_', ' ')} must be an integer, got {value!r}")
        if isinstance(self.time_budget, bool) or not (self.time_budget is None
                                                      or isinstance(self.time_budget, (int, float))):
            raise ValueError(f"time budget must be a number or None, got {self.time_budget!r}")
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {self.order}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "structured" and self.order % 4:
            raise ValueError(f"structured mode needs order divisible by 4, got {self.order}")
        if self.time_budget is not None and not self.time_budget >= 0:  # rejects NaN too
            raise ValueError("time budget must be nonnegative")
        if self.witness_cap < 0:
            raise ValueError("witness cap must be nonnegative")


class SearchReport(namedtuple("SearchReport", "order trials seed mode found timed_out witnesses "
                                              "total_seconds max_trial_seconds")):
    """Aggregate results of one search run; the field order is the JSON key order.

    Counts and witness bytes are a pure function of the config (with an
    unlimited time budget); the timing fields are not.
    """

    __slots__ = ()

    def to_dict(self, include_timing: bool = True) -> dict:
        d = self._asdict()
        d["witnesses"] = list(self.witnesses)
        if not include_timing:
            del d["total_seconds"], d["max_trial_seconds"]
        return d


def compose_structured(half: Tournament, split: int) -> Tournament:
    """Two copies of ``half`` glued with the four-block cross pattern.

    ``split`` cuts each copy into a first block of ``split`` alternatives and
    a second block of the rest; the X copy occupies indices 0..n-1 and the Y
    copy n..2n-1. Cross edges: X1 > Y2, X2 > Y1, Y1 > X1, Y2 > X2.
    """
    n = half.order
    if n % 2:
        raise ValueError(f"half must have even order, got {n}")
    if not 1 <= split <= n - 1:
        raise ValueError(f"split must be between 1 and {n - 1}, got {split}")
    if 2 * n > MAX_ORDER:
        raise ValueError(f"composed order {2 * n} exceeds {MAX_ORDER}")
    block1 = (1 << split) - 1
    block2 = ((1 << n) - 1) ^ block1
    beats = [row | (block2 if v < split else block1) << n for v, row in enumerate(half.beats)]
    beats += [row << n | (block1 if v < split else block2) for v, row in enumerate(half.beats)]
    return Tournament(beats)


def search_random(config: SearchConfig) -> SearchReport:
    """Run ``config.trials`` independent trials and count multi-set findings.

    Trial t draws ``_SOURCES[config.mode](config.order, derive_seed(config.seed, t))``,
    so a run is reproducible and trials could be distributed without changing the report.
    Witnesses (serialized tournaments with >= 2 minimal retentive sets) are
    kept up to the cap; counts stay exact. Trials that exceed the per-trial
    time budget are counted as timed out, never as findings.
    """
    config.validate()
    found = timed_out = 0
    witnesses = []
    max_trial_seconds = 0.0
    started = time.monotonic()
    for trial in range(config.trials):
        t = _SOURCES[config.mode](config.order, derive_seed(config.seed, trial))
        trial_started = time.monotonic()
        deadline = None if config.time_budget is None else trial_started + config.time_budget
        try:
            minimal = minimal_retentive_sets(t, TeqCache(t, deadline=deadline))
        except DeadlineExceeded:
            timed_out += 1
        else:
            if len(minimal) >= 2:
                found += 1
                if len(witnesses) < config.witness_cap:
                    witnesses.append(serialize(t))
        max_trial_seconds = max(max_trial_seconds, time.monotonic() - trial_started)
    return SearchReport(config.order, config.trials, config.seed, config.mode, found, timed_out,
                        witnesses, time.monotonic() - started, max_trial_seconds)
