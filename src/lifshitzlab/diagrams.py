"""Even-block partitions, Feynman graphs, and power counting.

Moments of products of the random potential expand over partitions of the
doubled insertion-index set {1..n, n+2..2n+1} into blocks of even size; a
block {i, i+1} of consecutive indices is a gate (tadpole) and is removed by
the self-energy renormalization.

Each partition maps to a closed directed multigraph: two chains of n
vertices carry momentum lines p_1..p_{n+1} and p_{n+2}..p_{2n+2}, block
members are merged into single vertices, and the four chain endpoints merge
into one external vertex (the endpoint delta function is forced by the block
deltas; a test checks that it lies in their row space).  Momentum
conservation at the merged vertices reproduces the block delta functions
delta(sum_{i in S} p_i - p_{i+1}) exactly.

A spanning tree avoiding the two phase-carrying lines p_1, p_{n+2} splits
edges into k tree momenta and l loop momenta with k + l = 2n + 2; the
reduced system u_i = sum_j a_ij w_j determines the same affine subspace as
the block deltas (a test checks this by exact rank over the rationals, for
every pairing graph at n = 2, 3).

Power counting on a subgraph G' (a subset of lines): N vertices, I internal
lines, E external hooks, Lambda = I - N + 1 loops,

    div = 3 Lambda - 2 I,      l-div = Lambda - 4 I.

A graph is superficially convergent when every connected subgraph satisfies
div < -2 eps E, or div = 0 with l-div <= -eps (eps > 0).

Every power-counting query reads one subset table: for a line set S, each
of its 2^|S| subsets is a bitmask row holding its vertex mask (each vertex is
a bit) and line count, built by level doubling over the lines, and whether it
is connected, by a reach closure from the row's lowest vertex bit swept until
it stops growing. (N, I, E, Lambda) then follow from the vertex bits and the
degrees. The census keeps the connected rows of the table over all L lines
and decides the clauses in exact integer arithmetic; `divergence_degree`
reads the full-set row of the table over S, and `is_one_line_reducible` its
|S| rows S - {e}. A line set with more than CENSUS_BUDGET nonempty subsets
raises before its table is built.
"""

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .density import DensitySpec
from .errors import CombinatorialBudgetError

__all__ = [
    "IndexSet",
    "Partition",
    "enumerate_partitions",
    "cumulant_coefficient",
    "FeynmanGraph",
    "build_feynman_graph",
    "spanning_tree_decomposition",
    "divergence_degree",
    "is_one_line_reducible",
    "classify_superficial_convergence",
    "SubgraphRecord",
    "CensusReport",
    "is_graph_F",
]

EXTERNAL = "ext"
MAX_INDEX_SET = 16        # enumeration guard on the doubled index-set size
CENSUS_BUDGET = 10**6     # enumeration guard on the line subsets of a census
_CLAUSES = np.array(["div<-2epsE", "div=0,l-div<=-eps", "fails"], dtype=object)


@dataclass(frozen=True)
class IndexSet:
    """Doubled insertion indices {1..n_left, n_left+2 .. n_left+n_right+1}."""

    n_left: int
    n_right: int

    def __post_init__(self):
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("sizes must be >= 0")

    @property
    def members(self) -> tuple:
        left = range(1, self.n_left + 1)
        right = range(self.n_left + 2, self.n_left + self.n_right + 2)
        return tuple(left) + tuple(right)

    def __len__(self):
        return self.n_left + self.n_right


def _is_gate(block) -> bool:
    return len(block) == 2 and max(block) - min(block) == 1


@dataclass(frozen=True)
class Partition:
    """Partition of an index set into disjoint even-size blocks."""

    index_set: IndexSet
    blocks: frozenset  # of frozensets

    def __post_init__(self):
        members = set(self.index_set.members)
        seen = set()
        for b in self.blocks:
            if len(b) % 2:
                raise ValueError("blocks must have even size")
            if b & seen:
                raise ValueError("blocks must be disjoint")
            seen |= b
        if seen != members:
            raise ValueError("blocks must cover the index set")

    @property
    def has_gate(self) -> bool:
        return any(_is_gate(b) for b in self.blocks)

    def canonical_key(self):
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))

    def label(self) -> str:
        inner = ",".join("-".join(map(str, b)) for b in self.canonical_key())
        return f"n{self.index_set.n_left}.{self.index_set.n_right}:{inner}"


def _even_partitions(members, pairs_only=False, gate_free=False):
    """Block lists of `members`: pairs only, or gates dropped as they form, if asked."""
    members = list(members)
    if not members:
        yield []
        return
    first, rest = members[0], members[1:]
    for size_minus_one in range(1, 2 if pairs_only else len(members), 2):
        for companions in itertools.combinations(rest, size_minus_one):
            block = frozenset((first, *companions))
            if gate_free and _is_gate(block):
                continue
            remaining = [m for m in rest if m not in block]
            for tail in _even_partitions(remaining, pairs_only, gate_free):
                yield [block] + tail


def enumerate_partitions(index_set: IndexSet, pairings_only: bool = False,
                         gate_free: bool = False):
    """All even-block partitions, duplicate-free, in sorted canonical order."""
    members = index_set.members
    if len(members) > MAX_INDEX_SET:
        raise CombinatorialBudgetError(
            f"index set of size {len(members)} exceeds the enumeration guard "
            f"{MAX_INDEX_SET}"
        )
    if pairings_only and len(members) % 2:
        raise ValueError("pairings need an even number of indices")
    out = [Partition(index_set, frozenset(blocks))
           for blocks in _even_partitions(members, pairings_only, gate_free)]
    out.sort(key=lambda p: p.canonical_key())
    return out


@functools.lru_cache(maxsize=None)
def cumulant_coefficient(block_size: int) -> float:
    """Coefficient c_{2l} of the even-partition moment expansion.

    Defined recursively so that the single-site moments of the uniform law
    satisfy m_{2l} = sum over even partitions pi of 2l slots of
    prod_j c_{|S_j|}; in particular c_2 = 1 (unit variance).  A test
    rebuilds m_2 .. m_8 from that partition sum.
    """
    if block_size % 2 or block_size <= 0:
        raise ValueError("block size must be a positive even integer")
    density = DensitySpec()
    if block_size == 2:
        return density.moment(2)  # = 1 by the unit-variance assumption
    total = 0.0
    for blocks in _even_partitions(tuple(range(block_size))):
        if len(blocks) == 1:
            continue
        prod = 1.0
        for b in blocks:
            prod *= cumulant_coefficient(len(b))
        total += prod
    return density.moment(block_size) - total


@dataclass(frozen=True)
class FeynmanGraph:
    """Closed directed multigraph of a partition, with the external vertex merged."""

    n: int
    partition: Partition
    edges: dict = field(repr=False)  # edge id (1-based) -> (tail, head)
    special_edges: tuple = ()

    @property
    def edge_ids(self):
        return tuple(sorted(self.edges))

    @property
    def vertices(self):
        out = set()
        for t, h in self.edges.values():
            out.add(t)
            out.add(h)
        return out

    @property
    def zero_loops(self):
        """Edges whose endpoints coincide (gates)."""
        return tuple(e for e, (t, h) in sorted(self.edges.items()) if t == h)

    def degree(self, vertex) -> int:
        return sum((t == vertex) + (h == vertex) for t, h in self.edges.values())

    def label(self) -> str:
        if self.partition is not None:
            return self.partition.label()
        lab = lambda v: "ext" if v == EXTERNAL else "-".join(map(str, sorted(v)))
        edges = ";".join(f"{lab(t)}>{lab(h)}" for _, (t, h) in sorted(self.edges.items()))
        return f"adhoc[{edges}]"


def build_feynman_graph(partition: Partition) -> FeynmanGraph:
    """Graph of a partition of the doubled set {1..n, n+2..2n+1}."""
    iset = partition.index_set
    if iset.n_left != iset.n_right:
        raise ValueError("graphs are built over the doubled set with n_left == n_right")
    n = iset.n_left
    if n < 1:
        raise ValueError(f"graphs need order n >= 1, got {n}")
    # one walk over 0..2n+2: indices 0, n+1 and 2n+2 are in no block and
    # stand for the external vertex, so line i runs from chain[i-1] to chain[i]
    owner = {i: frozenset(b) for b in partition.blocks for i in b}
    chain = [owner.get(i, EXTERNAL) for i in range(2 * n + 3)]
    edges = {i: (chain[i - 1], chain[i]) for i in range(1, 2 * n + 3)}
    return FeynmanGraph(n=n, partition=partition, edges=edges,
                        special_edges=(1, n + 2))


def spanning_tree_decomposition(graph: FeynmanGraph):
    """Tree/loop split avoiding the special edges, plus the a_ij matrix.

    Returns (tree_edge_ids, loop_edge_ids, a) with loop order starting at the
    special edges and a[i][j] in {-1, 0, +1} such that u_i = sum_j a_ij w_j
    reproduces the block deltas. One breadth-first pass builds the tree and
    gives each vertex v its signed path: path[v][e] = +1 when the tree path
    root -> v follows edge e's orientation. Loop j = (t -> h) closes through
    h -> root -> t, so a[i][j] = path[t][i] - path[h][i].
    """
    special = set(graph.special_edges)
    adj = {}
    for eid, (t, h) in sorted(graph.edges.items()):
        if eid not in special:
            adj.setdefault(t, []).append((eid, h, +1))
            adj.setdefault(h, []).append((eid, t, -1))
    verts = graph.vertices
    root = EXTERNAL if EXTERNAL in verts else min(verts, key=lambda v: tuple(sorted(v)))
    path = {root: {}}
    frontier, tree = [root], []
    for v in frontier:  # grows while it is walked
        for eid, w, orient in adj.get(v, ()):
            if w not in path:
                path[w] = {**path[v], eid: orient}
                frontier.append(w)
                tree.append(eid)
    if path.keys() != verts:
        raise ValueError("graph disconnected without its special edges")
    skip = special.union(tree)
    loops = (*graph.special_edges, *(e for e in graph.edge_ids if e not in skip))
    ends = [graph.edges[e] for e in loops]
    a = tuple(tuple(path[t].get(e, 0) - path[h].get(e, 0) for t, h in ends)
              for e in tree)
    return tuple(tree), loops, a


def _subset_table(graph: FeynmanGraph, lines):
    """Every subset of `lines` as one bitmask row, indexed by the subset's own bitmask.

    Returns (verts, vmask, size, connected): the vertices in order of
    appearance (vertex b is bit b), and for subset k (bit i for lines[i]) its
    vertex mask, its line count and whether its lines connect its vertices.
    Each reach sweep adds the ends of every member line that touches the
    reached set, until a sweep adds nothing.
    """
    n_subsets = 2 ** len(lines) - 1
    if n_subsets > CENSUS_BUDGET:
        raise CombinatorialBudgetError(
            f"{n_subsets} line subsets exceed the census guard {CENSUS_BUDGET}"
        )
    bit = {}
    for e in lines:
        for v in graph.edges[e]:
            bit.setdefault(v, len(bit))
    emask = [(1 << bit[t]) | (1 << bit[h]) for t, h in map(graph.edges.get, lines)]
    vmask = np.zeros(n_subsets + 1, dtype=np.int64)
    size = np.zeros(n_subsets + 1, dtype=np.int64)
    for i, e in enumerate(emask):
        vmask[1 << i:2 << i] = vmask[:1 << i] | e
        size[1 << i:2 << i] = size[:1 << i] + 1
    subsets = np.arange(n_subsets + 1)
    member = [((subsets >> i) & 1).astype(bool) for i in range(len(emask))]
    reach = vmask & -vmask
    while True:
        before = reach.copy()
        for e, inside in zip(emask, member):
            reach |= np.where(inside & ((reach & e) != 0), e, 0)
        if np.array_equal(reach, before):
            return list(bit), vmask, size, reach == vmask


def _counts(graph: FeynmanGraph, verts, vmask, size):
    """(N, I, E, Lambda, div, l-div) columns of the rows (vmask, size).

    E counts external hooks: the line ends on a row's vertices that do not
    belong to its own lines.
    """
    n_v = np.zeros_like(vmask)
    ends = np.zeros_like(vmask)
    for b, v in enumerate(verts):
        on = (vmask >> b) & 1
        n_v += on
        ends += graph.degree(v) * on
    lam = size - n_v + 1
    return n_v, size, ends - 2 * size, lam, 3 * lam - 2 * size, lam - 4 * size


def divergence_degree(graph: FeynmanGraph, edge_subset=None):
    """(div, l-div) of a connected subgraph; defaults to the whole graph."""
    lines = graph.edge_ids if edge_subset is None else sorted(frozenset(edge_subset))
    verts, vmask, size, connected = _subset_table(graph, lines)
    if not lines or not connected[-1]:
        raise ValueError("subgraph must be connected")
    *_, div, ldiv = _counts(graph, verts, vmask[-1:], size[-1:])
    return int(div[0]), int(ldiv[0])


def is_one_line_reducible(graph: FeynmanGraph, edge_subset) -> bool:
    """Removing some line disconnects the subset's vertices (stranded ones count)."""
    lines = sorted(frozenset(edge_subset))
    if len(lines) <= 1:
        return False
    _, vmask, _, connected = _subset_table(graph, lines)
    drops = (vmask.size - 1) ^ (1 << np.arange(len(lines)))  # S - {e}, every e
    return not (connected[drops] & (vmask[drops] == vmask[-1])).all()


def is_graph_F(graph: FeynmanGraph, edge_subset) -> bool:
    """Two vertices joined by three parallel internal lines (no 0-loops)."""
    edge_subset = frozenset(edge_subset)
    if len(edge_subset) != 3:
        return False
    if len({v for e in edge_subset for v in graph.edges[e]}) != 2:
        return False
    return all(graph.edges[e][0] != graph.edges[e][1] for e in edge_subset)


class SubgraphRecord(NamedTuple):
    edges: tuple
    n_vertices: int
    internal: int
    external: int
    loops: int
    div: int
    l_div: int
    clause: str  # "div<-2epsE" | "div=0,l-div<=-eps" | "fails"


@dataclass(frozen=True)
class CensusReport:
    graph_label: str
    eps: Fraction
    records: tuple

    @property
    def superficially_convergent(self) -> bool:
        return all(r.clause != "fails" for r in self.records)

    @property
    def divergent_records(self):
        return tuple(r for r in self.records if r.clause == "fails")

    def proper_div_nonnegative(self, graph: FeynmanGraph):
        """Proper (connected, not one-line-reducible) strict subgraphs with div >= 0."""
        full = frozenset(graph.edge_ids)
        return tuple(
            r for r in self.records
            if r.div >= 0 and frozenset(r.edges) != full
            and not is_one_line_reducible(graph, r.edges)
        )


@functools.lru_cache(maxsize=None)
def _subset_order(n_lines: int):
    """Every nonempty subset of n_lines lines as a bitmask, in itertools.combinations order."""
    order = np.array([sum(1 << i for i in c) for r in range(1, n_lines + 1)
                      for c in itertools.combinations(range(n_lines), r)], dtype=np.int64)
    order.flags.writeable = False
    return order


def _edge_tuples(subsets, sizes, ids):
    """Line ids of each subset; rows come grouped by size, in increasing size."""
    cols = np.nonzero((subsets[:, None] >> np.arange(len(ids))) & 1)[1]
    flat = np.asarray(ids)[cols]
    out, start = [], 0
    for r, m in enumerate(np.bincount(sizes).tolist()):
        out += map(tuple, flat[start:start + r * m].reshape(m, r).tolist())
        start += r * m
    return out


def _clauses(div, hooks, ldiv, eps: Fraction):
    """Power-counting verdict of each row, in exact integer arithmetic.

    With eps = p/q, div < -2 eps E is div <= -floor(2pE/q) - 1 and
    l-div <= -eps is l-div <= floor(-p/q); both cuts are Python integers,
    clipped to a bound no count reaches before they meet the int64 arrays.
    """
    p, q = eps.numerator, eps.denominator
    clip = lambda cut: max(cut, -2**62)
    cut_e = np.array([clip(-(2 * p * e // q) - 1) for e in range(int(hooks.max(initial=0)) + 1)])
    code = np.where(div <= cut_e[hooks], 0,
                    np.where((div == 0) & (ldiv <= clip(-p // q)), 1, 2))
    return _CLAUSES[code].tolist()


def classify_superficial_convergence(graph: FeynmanGraph,
                                     eps=Fraction(1, 10)) -> CensusReport:
    """Enumerate all connected subgraphs with their power-counting verdicts.

    Every line subset is classified at once from the subset table of all the
    graph's lines; the connected rows are kept. Records come in
    itertools.combinations order, by size and then lexicographically.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    ids = graph.edge_ids
    verts, vmask, size, connected = _subset_table(graph, ids)
    order = _subset_order(len(ids))
    subsets = order[connected[order]]
    counts = _counts(graph, verts, vmask[subsets], size[subsets])
    _, i_lines, hooks, _, div, ldiv = counts
    records = tuple(map(SubgraphRecord, _edge_tuples(subsets, i_lines, ids),
                        *(c.tolist() for c in counts), _clauses(div, hooks, ldiv, eps)))
    return CensusReport(graph_label=graph.label(), eps=eps, records=records)
