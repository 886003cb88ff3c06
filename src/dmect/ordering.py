"""Node orderings fed to the scheduling DP.

The DP is exact for a fixed ordering; picking the ordering is the hard
part. Small instances can afford the factorial search, larger ones use the
shortest-path heuristic (distances on the direct-link power graph) or the
source-gain ordering, which is provably optimal for two slots.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .errors import CapExceededError, DisconnectedError
from .model import Instance, Ordering
from .schedule import SlotCache, dmect_go, link_power_matrix

BRUTE_FORCE_CAP = 8


def shortest_path_distances(weights: np.ndarray, source: int) -> np.ndarray:
    """Dijkstra over a dense nonnegative weight matrix; inf marks no edge."""
    n = weights.shape[0]
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        row = weights[u]
        for v in range(n):
            if done[v] or not np.isfinite(row[v]):
                continue
            nd = d + row[v]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def dijkstra_ordering(instance: Instance) -> Ordering:
    """Nodes ascending by shortest-path distance from the source on the
    direct-link power graph; ties break on the node index."""
    dist = shortest_path_distances(link_power_matrix(instance), instance.source)
    unreachable = {i for i in range(instance.n) if not np.isfinite(dist[i])}
    if unreachable:
        raise DisconnectedError(f"nodes {sorted(unreachable)} unreachable from source",
                                nodes=unreachable)
    rest = sorted((i for i in range(instance.n) if i != instance.source),
                  key=lambda i: (dist[i], i))
    return Ordering(order=(instance.source, *rest))


def gain_ordering(instance: Instance) -> Ordering:
    """Nodes descending by channel gain from the source; ties break on index."""
    h = instance.gains[instance.source]
    rest = sorted((i for i in range(instance.n) if i != instance.source),
                  key=lambda i: (-h[i], i))
    return Ordering(order=(instance.source, *rest))


def brute_force_ordering(instance: Instance, T: int,
                         cache: SlotCache | None = None) -> tuple[Ordering, float]:
    """Exhaustive minimum over all (n-1)! source-first orderings.

    Slot optima are shared across orderings through one cache; pass a
    shared ``cache`` to keep them for later solves on the same instance.
    Ties keep the lexicographically smallest ordering.
    """
    if instance.n > BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"n={instance.n} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    if cache is None:
        cache = SlotCache(instance)
    rest = sorted(i for i in range(instance.n) if i != instance.source)
    best_order = None
    best_cost = np.inf
    for perm in itertools.permutations(rest):
        ordering = Ordering(order=(instance.source, *perm))
        cost = dmect_go(instance, ordering, T, cache=cache).cost
        if cost < best_cost:
            best_cost = cost
            best_order = ordering
    return best_order, float(best_cost)


def random_ordering(instance: Instance, rng) -> Ordering:
    """A uniformly random source-first ordering; rng is a numpy Generator."""
    rest = [i for i in range(instance.n) if i != instance.source]
    rng.shuffle(rest)
    return Ordering(order=(instance.source, *rest))
