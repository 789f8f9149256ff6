"""Web-graph-like sparse adjacency matrices (the paper's "Webbase" dataset, substituted).

The paper uses the webbase-1M graph (1,000,005 nodes, 3,105,536 directed
edges) from Williams et al.'s SpMV study; NMF on the adjacency matrix exposes
cluster structure.  We generate a synthetic stand-in with the properties that
matter for the computational behaviour: a square, very sparse, directed graph
whose in/out-degree distributions are heavy-tailed (power-law-like), produced
by a preferential-attachment process with a small uniform-random component.
The skewed degree distribution is what creates nonzero load imbalance across
a uniform 2D block distribution — the effect the paper's future-work section
mentions — so keeping it matters for a faithful reproduction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Fraction of edge endpoints drawn by (Zipf-like) popularity.
PREFERENTIAL_FRACTION = 0.75


def web_graph_matrix(
    n_nodes: int,
    n_edges: int,
    seed: int = 0,
) -> sp.csr_matrix:
    """A directed, power-law-ish graph adjacency matrix with ~``n_edges`` edges.

    Parameters
    ----------
    n_nodes:
        Number of vertices (the matrix is ``n_nodes × n_nodes``).
    n_edges:
        Target number of directed edges (duplicates are merged, so the exact
        count can be slightly lower).  Every edge has weight 1.

    :data:`PREFERENTIAL_FRACTION` of the edge endpoints are chosen by
    preferential attachment (by popularity); the rest are uniform random,
    which keeps the graph from collapsing onto a few hubs.

    Notes
    -----
    The generator works in O(n_edges) time and memory: destination popularity
    is approximated with a Zipf-like distribution over node indices rather
    than by maintaining the evolving degree sequence, which is accurate enough
    to produce the heavy-tailed in-degree profile NMF workloads care about.
    """
    import scipy.sparse as sp

    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if n_edges < 1:
        raise ValueError(f"need at least 1 edge, got {n_edges}")
    rng = np.random.default_rng(seed)

    n_pref = int(n_edges * PREFERENTIAL_FRACTION)
    n_unif = n_edges - n_pref

    # Zipf-like popularity over nodes: weight of node i proportional to 1/(i+1)^s.
    s = 0.9
    weights = 1.0 / np.power(np.arange(1, n_nodes + 1, dtype=np.float64), s)
    weights /= weights.sum()
    # Random permutation so the "popular" nodes are spread over the index
    # space (otherwise a block distribution would give rank 0 all the hubs).
    permutation = rng.permutation(n_nodes)

    dst_pref = permutation[rng.choice(n_nodes, size=n_pref, p=weights)]
    src_pref = permutation[rng.choice(n_nodes, size=n_pref, p=weights)]
    dst_unif = rng.integers(0, n_nodes, size=n_unif)
    src_unif = rng.integers(0, n_nodes, size=n_unif)

    src = np.concatenate([src_pref, src_unif])
    dst = np.concatenate([dst_pref, dst_unif])
    # Drop self loops.
    keep = src != dst
    src, dst = src[keep], dst[keep]

    A = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=(n_nodes, n_nodes))
    A.sum_duplicates()
    A = A.tocsr()
    # Merged duplicates accumulate counts; clamp back to a 0/1 adjacency.
    A.data[:] = 1.0
    return A


def degree_statistics(A: sp.spmatrix) -> dict:
    """In/out degree summary statistics (used by tests to confirm heavy tails)."""
    A = A.tocsr()
    out_degree = np.diff(A.indptr)
    in_degree = np.diff(A.tocsc().indptr)
    return {
        "out_mean": float(out_degree.mean()),
        "out_max": int(out_degree.max()),
        "in_mean": float(in_degree.mean()),
        "in_max": int(in_degree.max()),
        "nnz": int(A.nnz),
    }
