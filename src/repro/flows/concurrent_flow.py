"""Exact maximum concurrent flow via linear programming (paper §3.2).

The paper defines ``theta(G, M_i)`` as the largest fraction of the
(unit-demand) permutation matrix ``M_i`` that can be routed concurrently
on ``G`` without exceeding any link capacity (Shahrokhi & Matula's
maximum concurrent flow).  We solve the edge-based LP with scipy's HiGHS
backend:

    maximize    phi
    subject to  flow conservation per commodity and node,
                sum_k f_k(e) <= c(e)          for every edge e,
                f_k(e) >= 0, phi >= 0,

where commodity ``k`` must ship ``phi * w_k`` units from its source to
its destination.  Capacities are normalized by a *reference rate* (one
transceiver bandwidth ``b``) so that ``theta == 1`` means "every pair
enjoys a dedicated full-rate circuit" — the matched-topology ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..exceptions import FlowError
from ..matching import Matching
from ..topology.base import Topology

__all__ = [
    "Commodity",
    "ConcurrentFlowResult",
    "max_concurrent_flow",
    "commodities_from_matching",
    "commodities_from_matrix",
]


@dataclass(frozen=True)
class Commodity:
    """A single source-destination demand.

    ``demand`` is expressed in reference-rate units: a full permutation
    step uses demand 1.0 per pair.
    """

    src: object
    dst: object
    demand: float = 1.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise FlowError(f"commodity with src == dst == {self.src!r}")
        if not self.demand > 0:
            raise FlowError(f"commodity demand must be positive, got {self.demand}")


@dataclass(frozen=True)
class ConcurrentFlowResult:
    """Outcome of a maximum-concurrent-flow computation.

    Attributes
    ----------
    theta:
        The maximum concurrent flow value.  ``0.0`` means at least one
        commodity is disconnected; ``inf`` means there were no
        commodities to route.
    edge_flows:
        Optional per-commodity edge flows at the optimum, as a tuple of
        ``{(u, v): flow}`` mappings aligned with the commodity order
        (flows are for *one unit* of theta-scaled demand, i.e. they ship
        ``theta * w_k``).  ``None`` unless ``return_flows=True``.
    """

    theta: float
    edge_flows: tuple[dict[tuple[object, object], float], ...] | None = None


def commodities_from_matching(matching: Matching) -> tuple[Commodity, ...]:
    """Unit-demand commodities for each pair of a matching."""
    return tuple(Commodity(src, dst, 1.0) for src, dst in matching)


def commodities_from_matrix(
    matrix: np.ndarray, reference_volume: float | None = None
) -> tuple[Commodity, ...]:
    """Commodities from a demand matrix.

    Each nonzero off-diagonal entry becomes a commodity.  Demands are
    divided by ``reference_volume`` (default: the maximum entry) so the
    heaviest pair has demand 1.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise FlowError(f"demand matrix must be square, got shape {matrix.shape}")
    if (matrix < 0).any():
        raise FlowError("demand matrix entries must be non-negative")
    if reference_volume is None:
        reference_volume = float(matrix.max())
        if reference_volume <= 0:
            return ()
    commodities = []
    n = matrix.shape[0]
    for src in range(n):
        for dst in range(n):
            if src != dst and matrix[src, dst] > 0:
                commodities.append(
                    Commodity(src, dst, float(matrix[src, dst]) / reference_volume)
                )
    return tuple(commodities)


class _LPStructure:
    """Capacity-independent constraint skeleton of a concurrent-flow LP.

    Holds what depends only on the node set, edge endpoints, and
    commodity count: the flow-conservation coefficient prefix (the ±1
    entries at edge tails and heads), the capacity matrix ``A_ub``, and
    the objective.  :meth:`a_eq` appends the demand tail of
    ``A_eq`` (which commodities go where).

    Constraint assembly is vectorized: the (commodity x edge) index grids
    below enumerate every flow variable once, and numpy builds the COO
    triplets in bulk (the Python-loop version dominated solve time for
    large n).  ``tocsr()`` canonicalizes entry order, so the matrices are
    identical to the loop-built ones.
    """

    def __init__(self, topology: Topology, n_comm: int) -> None:
        nodes = list(topology.nodes)
        self.node_index = {node: i for i, node in enumerate(nodes)}
        self.edge_list = [(u, v) for u, v, _ in topology.edges()]
        self.n_nodes = len(nodes)
        self.n_edges = len(self.edge_list)
        self.n_comm = n_comm

        # Variable layout: x = [phi, f_{0,e0}, f_{0,e1}, ..., f_{K-1,eE-1}]
        self.n_vars = 1 + n_comm * self.n_edges

        k_grid = np.repeat(np.arange(n_comm), self.n_edges)
        e_grid = np.tile(np.arange(self.n_edges), n_comm)
        flow_cols = 1 + k_grid * self.n_edges + e_grid

        # Flow conservation: for each commodity k and node v,
        #   sum_out f - sum_in f - phi * w_k * sign(v) = 0
        tail_index = np.array(
            [self.node_index[u] for u, _ in self.edge_list], dtype=np.int64
        )
        head_index = np.array(
            [self.node_index[v] for _, v in self.edge_list], dtype=np.int64
        )
        self.eq_prefix_rows = np.concatenate(
            [
                k_grid * self.n_nodes + np.tile(tail_index, n_comm),  # +f at tail
                k_grid * self.n_nodes + np.tile(head_index, n_comm),  # -f at head
            ]
        )
        self.eq_cols = np.concatenate(
            [flow_cols, flow_cols, np.zeros(2 * n_comm, dtype=np.int64)]
        )
        self.eq_prefix_vals = np.concatenate(
            [np.ones(n_comm * self.n_edges), -np.ones(n_comm * self.n_edges)]
        )
        self.row_base = np.arange(n_comm, dtype=np.int64) * self.n_nodes
        self.b_eq = np.zeros(n_comm * self.n_nodes)

        # Capacity: sum_k f_k(e) <= c(e)
        self.a_ub = sparse.coo_matrix(
            (np.ones(n_comm * self.n_edges), (e_grid, flow_cols)),
            shape=(self.n_edges, self.n_vars),
        ).tocsr()

        self.objective = np.zeros(self.n_vars)
        self.objective[0] = -1.0  # maximize phi

    def a_eq(self, commodities: Sequence[Commodity]) -> sparse.csr_matrix:
        """Full ``A_eq`` for one demand placement."""
        src_index = np.array(
            [self.node_index[c.src] for c in commodities], dtype=np.int64
        )
        dst_index = np.array(
            [self.node_index[c.dst] for c in commodities], dtype=np.int64
        )
        demands = np.array([c.demand for c in commodities], dtype=float)
        eq_rows = np.concatenate(
            [
                self.eq_prefix_rows,
                self.row_base + src_index,  # -phi * w_k at the source
                self.row_base + dst_index,  # +phi * w_k at the destination
            ]
        )
        eq_vals = np.concatenate([self.eq_prefix_vals, -demands, demands])
        return sparse.coo_matrix(
            (eq_vals, (eq_rows, self.eq_cols)),
            shape=(self.n_comm * self.n_nodes, self.n_vars),
        ).tocsr()


def _extract_flows(
    structure: _LPStructure, x: np.ndarray
) -> tuple[dict[tuple[object, object], float], ...]:
    # Vectorized: scan the (commodity x edge) block once and only walk
    # the nonzero entries (optimal flows are sparse at scale).
    flows = x[1:].reshape(structure.n_comm, structure.n_edges)
    result: tuple[dict[tuple[object, object], float], ...] = tuple(
        {} for _ in range(structure.n_comm)
    )
    edge_list = structure.edge_list
    for k, e in zip(*(idx.tolist() for idx in np.nonzero(flows > 1e-12))):
        result[k][edge_list[e]] = float(flows[k, e])
    return result


def max_concurrent_flow(
    topology: Topology,
    commodities: Sequence[Commodity],
    reference_rate: float,
    return_flows: bool = False,
) -> ConcurrentFlowResult:
    """Solve the maximum concurrent flow LP exactly.

    Parameters
    ----------
    topology:
        The capacitated directed graph ``G``.
    commodities:
        The demands to route concurrently.
    reference_rate:
        Capacity normalizer in bits/second (one transceiver ``b``).
    return_flows:
        Also extract the optimal per-commodity edge flows.

    Returns
    -------
    ConcurrentFlowResult
        ``theta`` is ``inf`` with no commodities, ``0.0`` when some
        commodity is disconnected, the LP optimum otherwise.
    """
    if reference_rate <= 0:
        raise FlowError(f"reference_rate must be positive, got {reference_rate}")
    commodities = [c for c in commodities if c.src != c.dst]
    if not commodities:
        return ConcurrentFlowResult(theta=float("inf"), edge_flows=() if return_flows else None)

    # Quick reachability screen: a disconnected commodity pins theta at 0.
    for commodity in commodities:
        if not topology.has_path(commodity.src, commodity.dst):
            return ConcurrentFlowResult(theta=0.0, edge_flows=None)

    structure = _LPStructure(topology, len(commodities))
    capacities = np.array(
        [c / reference_rate for _, _, c in topology.edges()], dtype=float
    )
    result = linprog(
        structure.objective,
        A_ub=structure.a_ub,
        b_ub=capacities,
        A_eq=structure.a_eq(commodities),
        b_eq=structure.b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise FlowError(
            f"concurrent-flow LP failed on {topology.name!r}: {result.message}"
        )
    x = result.x
    theta = float(x[0])
    edge_flows = _extract_flows(structure, x) if return_flows else None
    return ConcurrentFlowResult(theta=theta, edge_flows=edge_flows)
