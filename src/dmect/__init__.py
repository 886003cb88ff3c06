"""Minimum-energy cooperative transmission scheduling under a slot deadline."""

from .baseline import greedy_slot, noncoop_solve
from .errors import (CapExceededError, DegenerateDrawError, DisconnectedError,
                     DmectError, InfeasibleError, SolverConvergenceError)
from .model import (Accumulation, Instance, Ordering, PowerAllocation, Schedule,
                    Slot, Verdict, accumulated_info, broadcast_destinations,
                    instance_from_dict, instance_to_dict, load_instance,
                    save_instance, schedule_from_dict, schedule_to_dict,
                    verify_schedule)
from .netgen import TopologyConfig, generate
from .oracle import (ea_vertex_optimum, exact_integral_slot, exhaustive_global,
                     exhaustive_partition)
from .ordering import (brute_force_ordering, dijkstra_ordering, gain_ordering,
                       random_ordering, shortest_path_distances)
from .power import (SlotProblem, ea_lp, mia_barrier, solve_slot,
                    waterfill_single_receiver)
from .schedule import (CostMatrix, SlotCache, SolveResult, UnicastResult,
                       UnicastTable, dmect_go, link_power_matrix, unicast_ea)

__version__ = "0.1.0"

__all__ = [
    "Accumulation", "CapExceededError", "CostMatrix", "DegenerateDrawError",
    "DisconnectedError", "DmectError", "InfeasibleError", "Instance",
    "Ordering", "PowerAllocation", "Schedule", "Slot", "SlotCache",
    "SlotProblem", "SolveResult", "SolverConvergenceError", "TopologyConfig",
    "UnicastResult", "UnicastTable", "Verdict",
    "accumulated_info", "broadcast_destinations", "brute_force_ordering",
    "dijkstra_ordering", "dmect_go", "ea_lp",
    "ea_vertex_optimum", "exact_integral_slot", "exhaustive_global",
    "exhaustive_partition", "gain_ordering", "generate", "greedy_slot",
    "instance_from_dict", "instance_to_dict", "link_power_matrix",
    "load_instance", "mia_barrier", "noncoop_solve", "random_ordering",
    "save_instance", "schedule_from_dict", "schedule_to_dict",
    "shortest_path_distances", "solve_slot", "unicast_ea",
    "verify_schedule", "waterfill_single_receiver",
]
