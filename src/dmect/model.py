"""Domain types: network instances, node orderings, slot schedules.

Node indices are 0-based. Noise is normalized to one, so ``power * gain``
is an SNR and the decoding threshold ``theta`` is in nats/Hz. A receiver
decodes within a slot when its accumulated information reaches ``theta``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

# largest theta whose e^theta - 1 is still a finite float
_THETA_MAX = math.log(sys.float_info.max)


def check_theta(theta: float) -> float:
    """Validated decoding threshold: positive, with e^theta - 1 finite."""
    # compared before the float conversion, which overflows on a huge integer
    if not 0.0 < theta <= _THETA_MAX:
        raise ValueError(f"theta must be positive with finite e^theta - 1, "
                         f"got {theta}")
    return float(theta)


def _float_array(value, what: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except TypeError as exc:     # e.g. a JSON object where numbers belong
        raise ValueError(f"{what} must be numeric") from exc


class Accumulation(str, Enum):
    """How a receiver combines the signals arriving within one slot."""

    EA = "ea"    # energy accumulation: decode when log(1 + sum_s p_s h_s) >= theta
    MIA = "mia"  # mutual-information accumulation: decode when sum_s log(1 + p_s h_s) >= theta


@dataclass(frozen=True)
class Instance:
    """A static memoryless network plus one transmission task.

    ``gains`` is the symmetric n-by-n channel gain matrix with a zero
    diagonal. ``destinations`` is the nonempty set of nodes that must
    decode; broadcast means every node except the source.
    """

    n: int
    gains: np.ndarray
    source: int
    destinations: frozenset[int]
    theta: float
    accumulation: Accumulation = Accumulation.EA
    positions: np.ndarray | None = None

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise ValueError(f"instance needs at least 2 nodes, got n={n}")
        gains = _float_array(self.gains, "gains")
        if gains.shape != (n, n):
            raise ValueError(f"gains must be {n}x{n}, got {gains.shape}")
        if not np.all(np.isfinite(gains)):
            raise ValueError("gains must be finite")
        if np.any(gains < 0.0):
            raise ValueError("gains must be nonnegative")
        if not np.array_equal(gains, gains.T):
            raise ValueError("gains must be symmetric")
        if np.any(np.diag(gains) != 0.0):
            raise ValueError("gains must have a zero diagonal")
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)

        source = int(self.source)
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range [0, {n})")
        object.__setattr__(self, "source", source)

        dests = frozenset(int(d) for d in self.destinations)
        if not dests:
            raise ValueError("destinations must be nonempty")
        if source in dests:
            raise ValueError("source cannot be a destination")
        if any(not 0 <= d < n for d in dests):
            raise ValueError("destination index out of range")
        object.__setattr__(self, "destinations", dests)

        object.__setattr__(self, "theta", check_theta(self.theta))
        object.__setattr__(self, "accumulation", Accumulation(self.accumulation))

        if self.positions is not None:
            pos = _float_array(self.positions, "positions")
            if pos.shape != (n, 2):
                raise ValueError(f"positions must be {n}x2, got {pos.shape}")
            pos.setflags(write=False)
            object.__setattr__(self, "positions", pos)


def broadcast_destinations(n: int, source: int) -> frozenset[int]:
    """Every node except the source."""
    return frozenset(i for i in range(n) if i != source)


@dataclass(frozen=True)
class Ordering:
    """A permutation of all node indices; solvers require order[0] == source."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order must be a permutation of 0..n-1")
        object.__setattr__(self, "order", order)

    @cached_property
    def position(self) -> dict[int, int]:
        return {node: i for i, node in enumerate(self.order)}


@dataclass(frozen=True)
class Slot:
    """One time slot: who transmits at what power, who decodes.

    Nodes that idle are simply absent from ``powers``. Structural rules
    (half-duplex, eligibility) are checked by verify_schedule, not here,
    so that invalid solver outputs can be reported instead of crashing.
    """

    senders: frozenset[int]
    receivers: frozenset[int]
    powers: dict[int, float]

    def __post_init__(self):
        object.__setattr__(self, "senders", frozenset(int(s) for s in self.senders))
        object.__setattr__(self, "receivers", frozenset(int(r) for r in self.receivers))
        object.__setattr__(self, "powers", {int(k): float(v) for k, v in self.powers.items()})


@dataclass(frozen=True)
class Schedule:
    """An ordered tuple of slots."""

    slots: tuple[Slot, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))

    @property
    def cost(self) -> float:
        return float(sum(sum(s.powers.values()) for s in self.slots))


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative transmit powers for one slot, keyed by sender index."""

    powers: dict[int, float]
    cost: float

    @classmethod
    def from_powers(cls, powers: dict[int, float]) -> "PowerAllocation":
        powers = {int(k): float(v) for k, v in powers.items()}
        return cls(powers=powers, cost=float(sum(powers.values())))


EMPTY_ALLOCATION = PowerAllocation(powers={}, cost=0.0)


def accumulated_info(senders, powers: dict[int, float], receiver: int, instance: Instance) -> float:
    """Information (nats) gathered by ``receiver`` within one slot.

    Energy accumulation adds SNRs before the log; mutual-information
    accumulation adds the per-sender logs. Senders missing from ``powers``
    idle at power zero.
    """
    h = instance.gains
    if instance.accumulation is Accumulation.EA:
        snr = 0.0
        for s in sorted(senders):
            snr += powers.get(s, 0.0) * h[s, receiver]
        return math.log1p(snr)
    info = 0.0
    for s in sorted(senders):
        info += math.log1p(powers.get(s, 0.0) * h[s, receiver])
    return info


@dataclass(frozen=True)
class Verdict:
    """Outcome of verify_schedule; slot numbers are 1-based."""

    feasible: bool
    kind: str | None = None
    slot: int | None = None
    node: int | None = None
    message: str = "feasible"

    def __bool__(self) -> bool:
        return self.feasible


def verify_schedule(instance: Instance, schedule: Schedule, tolerance: float = 1e-6) -> Verdict:
    """Check a schedule against the instance; report the first violation.

    Checks, per slot: powers are finite, nonnegative and on senders only,
    senders and receivers are disjoint, every sender has already decoded
    (or is the source), no receiver decodes twice, and every receiver
    accumulates at least theta * (1 - tolerance). Finally every destination
    must have decoded by the last slot. Never raises on bad schedules.
    """
    decoded = {instance.source}
    for t, slot in enumerate(schedule.slots, start=1):
        # written so that a NaN fails every comparison here and below
        bad_power = sorted(k for k, v in slot.powers.items()
                           if not 0.0 <= v < math.inf or k not in slot.senders)
        if bad_power:
            node = bad_power[0]
            return Verdict(False, "power", t, node,
                           f"slot {t}: invalid power entry for node {node}")
        clash = slot.senders & slot.receivers
        if clash:
            node = min(clash)
            return Verdict(False, "half_duplex", t, node,
                           f"slot {t}: node {node} both sends and receives")
        ineligible = slot.senders - decoded
        if ineligible:
            node = min(ineligible)
            return Verdict(False, "eligibility", t, node,
                           f"slot {t}: node {node} transmits before decoding")
        repeat = slot.receivers & decoded
        if repeat:
            node = min(repeat)
            return Verdict(False, "redecode", t, node,
                           f"slot {t}: node {node} already decoded")
        for r in sorted(slot.receivers):
            info = accumulated_info(slot.senders, slot.powers, r, instance)
            if not info >= instance.theta * (1.0 - tolerance):
                return Verdict(False, "decoding", t, r,
                               f"slot {t}: node {r} accumulates {info:.9g} < theta "
                               f"{instance.theta:.9g}")
        decoded |= slot.receivers
    missing = instance.destinations - decoded
    if missing:
        node = min(missing)
        return Verdict(False, "coverage", len(schedule.slots), node,
                       f"destination {node} never decodes")
    return Verdict(True)


# ---------------------------------------------------------------------------
# JSON wire formats. Field names are part of the CLI contract.

def instance_to_dict(instance: Instance) -> dict:
    d = {
        "n": instance.n,
        "source": instance.source,
        "destinations": sorted(instance.destinations),
        "theta": instance.theta,
        "accumulation": instance.accumulation.value,
        "gains": instance.gains.tolist(),
    }
    if instance.positions is not None:
        d["positions"] = instance.positions.tolist()
    return d


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_int_list(value, what: str) -> list[int]:
    """``value`` if it is a JSON list of integers, else a ValueError naming ``what``."""
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise ValueError(f"{what} must be a list of integers")
    return value


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise ValueError("instance json must be an object")
    required = {"n", "source", "destinations", "theta", "accumulation", "gains"}
    missing = required - d.keys()
    if missing:
        raise ValueError(f"instance json missing fields: {sorted(missing)}")
    for key in ("n", "source"):
        if not _is_int(d[key]):
            raise ValueError(f"instance json field {key!r} must be an integer")
    if not (_is_int(d["theta"]) or isinstance(d["theta"], float)):
        raise ValueError("instance json field 'theta' must be a number")
    dests = check_int_list(d["destinations"], "instance json field 'destinations'")
    return Instance(
        n=d["n"],
        gains=d["gains"],
        source=d["source"],
        destinations=frozenset(dests),
        theta=d["theta"],
        accumulation=Accumulation(d["accumulation"]),
        positions=d.get("positions"),
    )


def schedule_to_dict(schedule: Schedule) -> dict:
    return {
        "slots": [
            {
                "senders": sorted(s.senders),
                "receivers": sorted(s.receivers),
                "powers": {str(k): s.powers[k] for k in sorted(s.powers)},
            }
            for s in schedule.slots
        ]
    }


def schedule_from_dict(d: dict) -> Schedule:
    if "slots" not in d:
        raise ValueError("schedule json missing 'slots'")
    slots = []
    for s in d["slots"]:
        slots.append(Slot(
            senders=frozenset(s["senders"]),
            receivers=frozenset(s["receivers"]),
            powers={int(k): float(v) for k, v in s["powers"].items()},
        ))
    return Schedule(slots=tuple(slots))


def load_instance(path: str | Path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_instance(instance: Instance, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")
