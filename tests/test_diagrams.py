import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifshitzlab import cli
from lifshitzlab import diagrams as dg
from lifshitzlab import green as gr
from lifshitzlab.density import SQRT3, DensitySpec
from lifshitzlab.errors import CombinatorialBudgetError
from test_graphvalues import GRAPH_F, TWO_LINE

GOLDEN_CENSUS = os.path.join(os.path.dirname(__file__), "data",
                             "diagram_census_n3_golden.json")


def double_factorial_count(n_pairs: int) -> int:
    """(2n-1)!! pairings of 2n indices."""
    out = 1
    for k in range(2 * n_pairs - 1, 0, -2):
        out *= k
    return out


def test_index_set_members():
    assert dg.IndexSet(2, 2).members == (1, 2, 4, 5)
    assert dg.IndexSet(1, 1).members == (1, 3)
    assert dg.IndexSet(4, 4).members == (1, 2, 3, 4, 6, 7, 8, 9)
    assert len(dg.IndexSet(3, 2)) == 5


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 15), (4, 105)])
def test_pairing_count_is_double_factorial(n, count):
    parts = dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True)
    assert len(parts) == count == double_factorial_count(n)


def test_gate_free_pairings_n2_exact():
    parts = dg.enumerate_partitions(dg.IndexSet(2, 2), pairings_only=True,
                                    gate_free=True)
    keys = [p.canonical_key() for p in parts]
    assert keys == [((1, 4), (2, 5)), ((1, 5), (2, 4))]


def test_upsilon11_single_pairing_not_a_gate():
    parts = dg.enumerate_partitions(dg.IndexSet(1, 1), pairings_only=True)
    assert len(parts) == 1 and parts[0].canonical_key() == ((1, 3),)
    gate_free = dg.enumerate_partitions(dg.IndexSet(1, 1), pairings_only=True,
                                        gate_free=True)
    assert len(gate_free) == 1  # {1, 3} is not consecutive


def test_enumeration_is_deterministic():
    a = dg.enumerate_partitions(dg.IndexSet(3, 3), pairings_only=True)
    b = dg.enumerate_partitions(dg.IndexSet(3, 3), pairings_only=True)
    assert [p.canonical_key() for p in a] == [p.canonical_key() for p in b]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("pairings_only, gate_free",
                         list(itertools.product([False, True], repeat=2)))
def test_direct_generation_matches_filtered_enumeration(n, pairings_only, gate_free):
    # oracle: every even-block partition, filtered afterwards, then sorted
    iset = dg.IndexSet(n, n)
    expected = sorted(
        (tuple(sorted(tuple(sorted(b)) for b in blocks))
         for blocks in dg._even_partitions(iset.members)
         if not (pairings_only and any(len(b) != 2 for b in blocks))
         and not (gate_free and any(dg._is_gate(b) for b in blocks))))
    parts = dg.enumerate_partitions(iset, pairings_only=pairings_only,
                                    gate_free=gate_free)
    assert [p.canonical_key() for p in parts] == expected


def test_enumeration_budget_guard():
    with pytest.raises(CombinatorialBudgetError):
        dg.enumerate_partitions(dg.IndexSet(9, 9), pairings_only=True)


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_partitions_are_valid_even_covers(nl, nr):
    if (nl + nr) % 2:
        return
    iset = dg.IndexSet(nl, nr)
    parts = dg.enumerate_partitions(iset)
    seen = set()
    for p in parts:
        key = p.canonical_key()
        assert key not in seen  # duplicate-free
        seen.add(key)
        union = set()
        for block in p.blocks:
            assert len(block) % 2 == 0
            assert not (block & union)
            union |= block
        assert union == set(iset.members)


def test_cumulants_uniform_density():
    assert dg.cumulant_coefficient(2) == pytest.approx(1.0)
    assert dg.cumulant_coefficient(4) == pytest.approx(-6.0 / 5.0, rel=1e-12)
    with pytest.raises(ValueError):
        dg.cumulant_coefficient(3)


def moment_from_partition_sum(order: int) -> float:
    """Reconstruct m_{2l} from the partition sum (consistency oracle)."""
    total = 0.0
    for blocks in dg._even_partitions(tuple(range(order))):
        prod = 1.0
        for b in blocks:
            prod *= dg.cumulant_coefficient(len(b))
        total += prod
    return total


def uniform_pdf(v):
    """Density of the uniform law on [-sqrt(3), sqrt(3)] (quadrature oracle)."""
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) <= SQRT3, 1.0 / (2.0 * SQRT3), 0.0)


def test_moment_reconstruction_from_partition_sum():
    density = DensitySpec()
    for order in (2, 4, 6, 8):
        assert moment_from_partition_sum(order) == pytest.approx(
            density.moment(order), rel=1e-10)


def test_two_site_moment_matches_partition_prediction():
    # E[V(a)^2 V(b)^4] for a != b by numeric integration over the product
    # density, against the partition-sum prediction c2 * (3 c2^2 + c4)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    a = SQRT3
    x = a * nodes
    w = a * weights * uniform_pdf(x)
    m2 = float(np.sum(w * x**2))
    m4 = float(np.sum(w * x**4))
    lhs = m2 * m4  # independence
    c2 = dg.cumulant_coefficient(2)
    c4 = dg.cumulant_coefficient(4)
    prediction = c2 * (3 * c2**2 + c4)
    assert lhs == pytest.approx(prediction, abs=1e-8)


FIG1_PARTITION = frozenset({frozenset({1, 3}), frozenset({2, 6}),
                            frozenset({4, 9}), frozenset({7, 8})})


def _rank_exact(rows) -> int:
    """Rank over Q of integer rows (fraction-pivot Gaussian elimination)."""
    mat = [[Fraction(int(x)) for x in row] for row in rows]
    if not mat:
        return 0
    rank, cols = 0, len(mat[0])
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


@dataclass(frozen=True)
class DeltaSystem:
    """Product of momentum delta functions as integer linear constraints (test oracle)."""

    dim: int
    constraints: tuple  # of integer coefficient tuples

    def rank(self) -> int:
        return _rank_exact(self.constraints)

    def equivalent(self, other: "DeltaSystem") -> bool:
        """Same affine subspace: equal row spaces, tested by exact rank."""
        if self.dim != other.dim:
            return False
        ra, rb = self.rank(), other.rank()
        rboth = _rank_exact(list(self.constraints) + list(other.constraints))
        return ra == rb == rboth

    def forces(self, row) -> bool:
        """True when `row` = 0 holds on the subspace (lies in the row space)."""
        return _rank_exact(list(self.constraints) + [tuple(row)]) == self.rank()


def delta_system(graph: dg.FeynmanGraph) -> DeltaSystem:
    """Block delta functions as integer coefficient vectors over p_1..p_{2n+2}."""
    dim = 2 * graph.n + 2
    rows = []
    for block in sorted(graph.partition.blocks, key=lambda b: min(b)):
        row = [0] * dim
        for i in sorted(block):
            row[i - 1] += 1
            row[i] -= 1
        rows.append(tuple(row))
    return DeltaSystem(dim=dim, constraints=tuple(rows))


def endpoint_delta(graph: dg.FeynmanGraph) -> tuple:
    """The forced constraint p_1 - p_{n+1} + p_{n+2} - p_{2n+2} = 0."""
    row = [0] * (2 * graph.n + 2)
    row[0] = 1
    row[graph.n] = -1
    row[graph.n + 1] = 1
    row[2 * graph.n + 1] = -1
    return tuple(row)


def reduced_delta_system(graph: dg.FeynmanGraph, tree, loops, a) -> DeltaSystem:
    """Constraints u_i - sum_j a_ij w_j = 0 as a DeltaSystem."""
    dim = 2 * graph.n + 2
    rows = []
    for i, te in enumerate(tree):
        row = [0] * dim
        row[te - 1] = 1
        for j, le in enumerate(loops):
            row[le - 1] -= a[i][j]
        rows.append(tuple(row))
    return DeltaSystem(dim=dim, constraints=tuple(rows))


def test_reference_graph_delta_system():
    part = dg.Partition(dg.IndexSet(4, 4), FIG1_PARTITION)
    graph = dg.build_feynman_graph(part)
    system = delta_system(graph)
    expected = [
        (1, -1, 1, -1, 0, 0, 0, 0, 0, 0),     # p1 - p2 + p3 - p4
        (0, 0, 0, 1, -1, 0, 0, 0, 1, -1),     # p4 - p5 + p9 - p10
        (0, 1, -1, 0, 0, 1, -1, 0, 0, 0),     # p2 - p3 + p6 - p7
        (0, 0, 0, 0, 0, 0, 1, 0, -1, 0),      # p7 - p9 (the gate block)
    ]
    for row in expected:
        assert row in system.constraints
    # summing all four block deltas forces the endpoint delta p1-p5+p6-p10
    total = tuple(sum(c[i] for c in system.constraints) for i in range(10))
    assert total == endpoint_delta(graph)
    assert system.forces(endpoint_delta(graph))


def test_gate_block_yields_zero_loop():
    part = dg.Partition(dg.IndexSet(4, 4), FIG1_PARTITION)
    graph = dg.build_feynman_graph(part)
    assert graph.zero_loops == (8,)  # line p8 closes on the merged {7, 8} vertex
    gate_free = dg.enumerate_partitions(dg.IndexSet(3, 3), pairings_only=True,
                                        gate_free=True)
    assert all(not dg.build_feynman_graph(p).zero_loops for p in gate_free)


def test_pairing_graphs_are_four_regular():
    for p in dg.enumerate_partitions(dg.IndexSet(3, 3), pairings_only=True):
        graph = dg.build_feynman_graph(p)
        assert all(graph.degree(v) == 4 for v in graph.vertices)


@pytest.mark.parametrize("n", [2, 3])
def test_spanning_tree_counts_and_equivalence(n):
    for p in dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True):
        graph = dg.build_feynman_graph(p)
        tree, loops, a = dg.spanning_tree_decomposition(graph)
        assert len(tree) == n and len(loops) == n + 2
        assert len(tree) + len(loops) == 2 * n + 2
        assert loops[0] == 1 and loops[1] == n + 2  # specials are loop momenta
        assert len(tree) == len(delta_system(graph).constraints)
        reduced = reduced_delta_system(graph, tree, loops, a)
        assert delta_system(graph).equivalent(reduced)


def _decomposition_test_graphs():
    """Pairing graphs at n <= 4, even-partition graphs at n <= 3, two ad-hoc graphs."""
    parts = [p for n in (1, 2, 3, 4)
             for p in dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True)]
    parts += [p for n in (1, 2, 3) for p in dg.enumerate_partitions(dg.IndexSet(n, n))]
    return [dg.build_feynman_graph(p) for p in parts] + [TWO_LINE, GRAPH_F]


def test_spanning_tree_conserves_momentum_at_every_vertex():
    # loop momentum w_j = 1 alone: line e carries a[i][j] on tree edge i, 1 on
    # loop j and 0 on the other loops, so the net flow into each vertex is 0
    graphs = _decomposition_test_graphs()
    assert len(graphs) == 162
    for graph in graphs:
        tree, loops, a = dg.spanning_tree_decomposition(graph)
        assert sorted(tree + loops) == list(graph.edge_ids)
        for j, loop in enumerate(loops):
            flow = {e: a[i][j] for i, e in enumerate(tree)}
            flow.update((e, int(e == loop)) for e in loops)
            net = dict.fromkeys(graph.vertices, 0)
            for e, (t, h) in graph.edges.items():
                net[t] -= flow[e]
                net[h] += flow[e]
            assert set(net.values()) == {0}, (graph.label(), loop)


def test_spanning_tree_adhoc_graph_and_disconnection():
    # three parallel lines A -> B without an external vertex: u_1 = -w_2 - w_3
    assert dg.spanning_tree_decomposition(GRAPH_F) == ((1,), (2, 3), ((-1, -1),))
    split = dg.FeynmanGraph(n=0, partition=None, edges=dict(GRAPH_F.edges),
                            special_edges=(1, 2, 3))
    with pytest.raises(ValueError, match="disconnected"):
        dg.spanning_tree_decomposition(split)


def test_delta_system_rank_oracle():
    sys_a = DeltaSystem(dim=3, constraints=((1, -1, 0), (0, 1, -1)))
    sys_b = DeltaSystem(dim=3, constraints=((1, 0, -1), (0, 1, -1)))
    sys_c = DeltaSystem(dim=3, constraints=((1, -1, 0),))
    assert sys_a.equivalent(sys_b)
    assert not sys_a.equivalent(sys_c)
    assert sys_a.forces((1, 0, -1))
    assert not sys_c.forces((1, 0, -1))


def test_divergence_degrees_of_reference_shapes():
    part = dg.Partition(dg.IndexSet(4, 4), FIG1_PARTITION)
    graph = dg.build_feynman_graph(part)
    div, _ = dg.divergence_degree(graph, [8])  # the tadpole 0-loop
    assert div == 1
    # graph F inside the double-crossed pairing at n = 4
    f_part = dg.Partition(dg.IndexSet(4, 4), frozenset({
        frozenset({1, 3}), frozenset({2, 4}), frozenset({6, 8}), frozenset({7, 9})}))
    f_graph = dg.build_feynman_graph(f_part)
    f_edges = [e for e in f_graph.edge_ids
               if {f_graph.edges[e][0], f_graph.edges[e][1]} ==
               {frozenset({1, 3}), frozenset({2, 4})}]
    assert len(f_edges) == 3
    assert dg.is_graph_F(f_graph, f_edges)
    assert dg.divergence_degree(f_graph, f_edges) == (0, -10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_graph_divergence_two_minus_n(n):
    p = dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True,
                                gate_free=True)[0]
    graph = dg.build_feynman_graph(p)
    div, _ = dg.divergence_degree(graph)
    assert div == 2 - n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_gate_free_convergent(n):
    for p in dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True,
                                     gate_free=True):
        graph = dg.build_feynman_graph(p)
        report = dg.classify_superficial_convergence(graph)
        assert report.superficially_convergent


def test_census_gate_graph_fails():
    part = dg.Partition(dg.IndexSet(2, 2),
                        frozenset({frozenset({1, 2}), frozenset({4, 5})}))
    graph = dg.build_feynman_graph(part)
    report = dg.classify_superficial_convergence(graph)
    assert not report.superficially_convergent
    tadpoles = [r for r in report.divergent_records if r.internal == 1]
    assert tadpoles and all(r.div == 1 for r in tadpoles)


def test_counting_identities_all_subgraphs_n3():
    eps = Fraction(1, 10)
    for p in dg.enumerate_partitions(dg.IndexSet(3, 3), pairings_only=True):
        graph = dg.build_feynman_graph(p)
        report = dg.classify_superficial_convergence(graph, eps=eps)
        for rec in report.records:
            assert 2 * rec.internal + rec.external == 4 * rec.n_vertices
            assert rec.loops + rec.n_vertices - 1 == rec.internal
            assert rec.div <= 4 - rec.external - rec.loops
            if rec.n_vertices >= 2:
                assert rec.l_div <= -4


def test_census_budget_raises(monkeypatch):
    p = dg.enumerate_partitions(dg.IndexSet(3, 3), pairings_only=True)[0]
    monkeypatch.setattr(dg, "CENSUS_BUDGET", 10)  # 8 lines have 255 subsets
    with pytest.raises(CombinatorialBudgetError):
        dg.classify_superficial_convergence(dg.build_feynman_graph(p))
    monkeypatch.undo()
    # n = 9 is past the enumeration guard; its 20 lines have 2^20 - 1 subsets
    n9 = dg.Partition(dg.IndexSet(9, 9),
                      frozenset(frozenset({i, i + 10}) for i in range(1, 10)))
    with pytest.raises(CombinatorialBudgetError):
        dg.classify_superficial_convergence(dg.build_feynman_graph(n9))


def _oracle_vertices(graph, edge_subset):
    verts = set()
    for e in edge_subset:
        t, h = graph.edges[e]
        verts.add(t)
        verts.add(h)
    return verts


def _oracle_joins(graph, edge_subset, verts):
    """True when the lines in edge_subset connect all of verts (search from any one)."""
    start = next(iter(verts))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for e in edge_subset:
            t, h = graph.edges[e]
            if t == v and h not in seen:
                seen.add(h)
                frontier.append(h)
            elif h == v and t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen == verts


def _oracle_counts(graph, edge_subset):
    """(N, I, E, Lambda) by a depth-first search and a count over the other lines."""
    verts = _oracle_vertices(graph, edge_subset)
    if not verts or not _oracle_joins(graph, edge_subset, verts):
        return None
    hooks = 0
    for e in graph.edge_ids:
        if e not in edge_subset:
            t, h = graph.edges[e]
            hooks += (t in verts) + (h in verts)
    return len(verts), len(edge_subset), hooks, len(edge_subset) - len(verts) + 1


def _oracle_one_line_reducible(graph, edge_subset):
    if len(edge_subset) <= 1:
        return False
    verts = _oracle_vertices(graph, edge_subset)
    return any(not _oracle_joins(graph, edge_subset - {e}, verts) for e in edge_subset)


def _oracle_census(graph, epsilons):
    """Census records per eps by the slow path: every subset in combinations order,
    counts from the search oracle, clauses in Fraction arithmetic."""
    counted = []
    for r in range(1, len(graph.edge_ids) + 1):
        for subset in itertools.combinations(graph.edge_ids, r):
            counts = _oracle_counts(graph, subset)
            if counts is not None:
                counted.append((subset, *counts))
    out = []
    for eps in map(Fraction, epsilons):
        records = []
        for subset, n_v, i_lines, hooks, lam in counted:
            div = 3 * lam - 2 * i_lines
            ldiv = lam - 4 * i_lines
            if Fraction(div) < -2 * eps * hooks:
                clause = "div<-2epsE"
            elif div == 0 and Fraction(ldiv) <= -eps:
                clause = "div=0,l-div<=-eps"
            else:
                clause = "fails"
            records.append((subset, n_v, i_lines, hooks, lam, div, ldiv, clause))
        out.append(records)
    return out


def _census_oracle_graphs():
    """Every pairing graph at n <= 4, every even-partition graph at n <= 3, two ad hoc graphs."""
    graphs = [dg.build_feynman_graph(p) for n in (1, 2, 3, 4)
              for p in dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True)]
    graphs += [dg.build_feynman_graph(p) for n in (1, 2, 3)
               for p in dg.enumerate_partitions(dg.IndexSet(n, n))]
    return graphs + [TWO_LINE, GRAPH_F]


def test_census_matches_slow_oracle():
    # the last two push the integer cuts past int64 (they are clipped)
    epsilons = (Fraction(1, 10), Fraction(1, 3), 0.05, Fraction(5, 2),
                Fraction(10**30), Fraction(1, 10**30))
    graphs = _census_oracle_graphs()
    assert len(graphs) == 162
    for graph in graphs:
        for eps, expected in zip(epsilons, _oracle_census(graph, epsilons)):
            report = dg.classify_superficial_convergence(graph, eps=eps)
            assert report.eps == Fraction(eps)
            assert list(report.records) == expected, (graph.label(), eps)
            # plain Python ints, as the JSON outputs need
            assert {type(v) for r in report.records for v in (*r.edges, *r[1:7])} <= {int}


@pytest.mark.parametrize("eps", [0, -1])
def test_census_rejects_nonpositive_eps(eps):
    # the gate graph's tadpole fails at any eps > 0; a negative eps would hide it
    gate = dg.build_feynman_graph(dg.Partition(
        dg.IndexSet(2, 2), frozenset({frozenset({1, 2}), frozenset({4, 5})})))
    with pytest.raises(ValueError):
        dg.classify_superficial_convergence(gate, eps=eps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_counting_queries_match_search_oracle(n):
    # every line subset, disconnected ones included
    for p in dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True):
        graph = dg.build_feynman_graph(p)
        for r in range(1, len(graph.edge_ids) + 1):
            for subset in itertools.combinations(graph.edge_ids, r):
                fs = frozenset(subset)
                counts = _oracle_counts(graph, fs)
                if counts is None:
                    with pytest.raises(ValueError):
                        dg.divergence_degree(graph, fs)
                else:
                    _, i_lines, _, lam = counts
                    assert (dg.divergence_degree(graph, fs)
                            == (3 * lam - 2 * i_lines, lam - 4 * i_lines))
                assert (dg.is_one_line_reducible(graph, fs)
                        == _oracle_one_line_reducible(graph, fs))


def test_one_line_reducible_counts_stranded_vertex():
    # line 8 is the 0-loop on {7, 8}; line 7 joins {2, 6} to it. Without line 7
    # the remaining lines are connected, but {2, 6} is stranded.
    graph = dg.build_feynman_graph(dg.Partition(dg.IndexSet(4, 4), FIG1_PARTITION))
    assert graph.edges[7] == (frozenset({2, 6}), frozenset({7, 8}))
    assert dg.divergence_degree(graph, {7, 8}) == (-1, -7)  # N = 2, I = 2, Lambda = 1
    assert dg.is_one_line_reducible(graph, {7, 8})
    assert not dg.is_one_line_reducible(graph, {2, 3})  # a double line
    with pytest.raises(ValueError):
        dg.divergence_degree(graph, [1, 8])


def test_census_json_matches_golden_file(tmp_path):
    # every pairing at n = 3, gate graphs and their divergent subgraphs included
    assert cli.main(["diagrams", "--n", "3", "--no-gate-free", "--out", str(tmp_path)]) == 0
    with open(GOLDEN_CENSUS, "rb") as fh:
        assert (tmp_path / "diagram_census.json").read_bytes() == fh.read()


def _kernel_sum_for_partition(blocks, table, x, y, sites):
    """Truncated positive kernel sum of a partition over given lattice sites."""
    total = 0.0
    blocks = [sorted(b) for b in blocks]
    members = sorted({i for b in blocks for i in b})
    for assignment in itertools.product(sites, repeat=len(blocks)):
        pos = {}
        for block, site in zip(blocks, assignment):
            for i in block:
                pos[i] = site
        n = len(members) // 2
        pos[n + 1] = y
        pos[2 * n + 2] = y
        val = table.value(np.subtract(x, pos[1])) * table.value(np.subtract(x, pos[n + 2]))
        for i in members:
            val *= table.value(np.subtract(pos[i], pos[i + 1]))
        total += val
    return total


def test_pair_refinement_dominates_four_block():
    # positivity of the kernel makes any pair refinement dominate, spot check
    table = gr.green_table_bessel(0.5, radius=9)
    sites = [(i, j, k) for i in (-2, -1, 0, 1, 2) for j in (-1, 0, 1) for k in (0,)]
    x, y = (0, 0, 0), (1, 0, 0)
    four_block = [frozenset({1, 2, 4, 5})]
    lhs = _kernel_sum_for_partition(four_block, table, x, y, sites)
    for refinement in ([frozenset({1, 4}), frozenset({2, 5})],
                       [frozenset({1, 5}), frozenset({2, 4})]):
        rhs = _kernel_sum_for_partition(refinement, table, x, y, sites)
        assert lhs <= rhs * (1 + 1e-12)
