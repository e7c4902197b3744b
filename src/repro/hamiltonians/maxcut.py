"""MaxCut cost Hamiltonians for QAOA-style workloads.

QISMET claims applicability across all VQAs; this module provides the
optimization-domain workload so the library covers QAOA as well as VQE.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.operators.pauli_sum import PauliSum
from repro.utils.rng import ensure_rng


def maxcut_hamiltonian(graph: nx.Graph) -> PauliSum:
    """Cost Hamiltonian ``H = sum_{(i,j)} w_ij/2 (Z_i Z_j - I)``.

    Minimizing ``H`` maximizes the cut weight; the ground energy equals
    ``-maxcut_weight``.
    """
    nodes = sorted(graph.nodes())
    if not nodes:
        raise ValueError("empty graph")
    index = {node: i for i, node in enumerate(nodes)}
    num_qubits = len(nodes)
    terms = []
    for u, v, data in graph.edges(data=True):
        weight = float(data.get("weight", 1.0))
        chars = ["I"] * num_qubits
        chars[index[u]] = "Z"
        chars[index[v]] = "Z"
        terms.append((weight / 2.0, "".join(chars)))
        terms.append((-weight / 2.0, "I" * num_qubits))
    return PauliSum(terms)


def maxcut_value(graph: nx.Graph, assignment: Iterable[int]) -> float:
    """Cut weight of a +/-1 or 0/1 node assignment (ordered by node sort)."""
    nodes = sorted(graph.nodes())
    values = list(assignment)
    if len(values) != len(nodes):
        raise ValueError("assignment length mismatch")
    side = {
        node: (1 if value in (1, -1) and value == 1 else 0)
        for node, value in zip(nodes, values)
    }
    total = 0.0
    for u, v, data in graph.edges(data=True):
        if side[u] != side[v]:
            total += float(data.get("weight", 1.0))
    return total


def ring_graph(num_nodes: int) -> nx.Graph:
    """Unweighted ring, the classic QAOA teaching example."""
    if num_nodes < 3:
        raise ValueError("ring needs >= 3 nodes")
    return nx.cycle_graph(num_nodes)


def random_weighted_graph(
    num_nodes: int, edge_probability: float, seed: int
) -> nx.Graph:
    """Erdos-Renyi graph with uniform [0.5, 1.5] edge weights."""
    graph = nx.gnp_random_graph(num_nodes, edge_probability, seed=seed)
    rng = ensure_rng(seed)
    for u, v in graph.edges():
        graph[u][v]["weight"] = float(rng.uniform(0.5, 1.5))
    return graph
