from fractions import Fraction as F

import pytest

from orientw import Graph, GraphError, INF, Metric, is_finite, metric_closure
from orientw.metric import complete_graph_of, validate_graph

from conftest import line_metric


def test_line_closure_distances():
    m = line_metric(4)
    assert m.d[0][3] == F(3)
    assert m.d[3][0] == F(3)
    assert m.d[1][2] == F(1)
    for v in range(4):
        assert m.d[v][v] == 0


def test_directed_cycle_closure():
    g = Graph.build(True, 3, [(0, 1, F(1)), (1, 2, F(3)), (2, 0, F(2))])
    m = metric_closure(g)
    assert m.d[0][1] == F(1)
    assert m.d[1][0] == F(5)   # must go the long way round: 1 -> 2 -> 0
    assert m.d[0][2] == F(4)
    assert m.d[2][1] == F(3)


def test_closure_repairs_triangle_violation():
    g = Graph.build(False, 3, [(0, 1, F(1)), (1, 2, F(1)), (0, 2, F(10))])
    m = metric_closure(g)
    assert m.d[0][2] == F(2)


def test_unreachable_is_infinite():
    g = Graph.build(False, 4, [(0, 1, F(2))])
    m = metric_closure(g)
    assert not is_finite(m.d[0][3])
    assert m.d[0][3] == INF
    assert m.d[0][1] == F(2)


def test_parallel_edges_keep_cheapest():
    g = Graph.build(False, 2, [(0, 1, F(5)), (0, 1, F(2))])
    m = metric_closure(g)
    assert m.d[0][1] == F(2)


@pytest.mark.parametrize("edges", [
    [(0, 1, F(-1))],          # negative weight
    [(0, 5, F(1))],           # endpoint out of range
])
def test_bad_graphs_rejected(edges):
    g = Graph.build(False, 3, edges)
    with pytest.raises(GraphError) as info:
        metric_closure(g)
    assert str(info.value) == validate_graph(g)[0]


def test_self_loop_is_inert():
    g = Graph.build(False, 2, [(0, 1, F(2)), (0, 0, F(7))])
    m = metric_closure(g)
    assert m.d[0][0] == 0
    assert m.d[0][1] == F(2)


def test_empty_vertex_set_rejected():
    g = Graph.build(False, 0, [])
    with pytest.raises(GraphError) as info:
        metric_closure(g)
    assert str(info.value) == validate_graph(g)[0] == "graph has no vertices"


def test_validate_graph_reports_disconnection():
    g = Graph.build(False, 3, [(0, 1, F(1))])
    problems = validate_graph(g, source=0)
    assert problems
    assert any("2" in p for p in problems)
    assert validate_graph(Graph.build(False, 2, [(0, 1, F(1))]), source=0) == []


def test_scaled_and_transposed():
    g = Graph.build(True, 2, [(0, 1, F(3))])
    m = metric_closure(g)
    assert m.scaled(F(2)).d[0][1] == F(6)
    mt = m.transposed()
    assert mt.d[1][0] == F(3)
    assert not is_finite(mt.d[0][1])


def test_complete_graph_round_trip():
    m = line_metric(4)
    again = metric_closure(complete_graph_of(m))
    for u in range(4):
        for v in range(4):
            assert again.d[u][v] == m.d[u][v]


def test_validate_graph_flags_negative_weight():
    # bypass Graph.build so the raw diagnostic path is exercised
    g = Graph(directed=False, n=2, edges=((0, 1, F(-1)),))
    problems = validate_graph(g)
    assert any("negative" in p for p in problems)
