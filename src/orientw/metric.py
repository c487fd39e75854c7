"""Graph input and exact all-pairs shortest-walk closure.

Distances are exact rationals; unreachable pairs carry INF (the distinguished
infinity marker from orientw.rational), never a large finite sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

from .errors import GraphError
from .rational import INF, as_fraction, is_finite


@dataclass(frozen=True)
class Graph:
    """Weighted graph given as an edge list.

    directed: when False every edge is usable in both directions.
    n: number of vertices, ids 0..n-1.
    edges: (u, v, w) triples with exact nonnegative rational weights.
    Parallel edges and self loops are tolerated; the closure collapses them.
    """

    directed: bool
    n: int
    edges: tuple

    @staticmethod
    def build(directed: bool, n: int, edges: Iterable) -> "Graph":
        norm = []
        for (u, v, w) in edges:
            norm.append((u, v, as_fraction(w)))
        return Graph(directed, n, tuple(norm))


@dataclass(frozen=True, slots=True)
class Metric:
    """Immutable n x n table of exact shortest-walk distances.

    d[u][v] is a Fraction for reachable pairs and INF otherwise.  The table
    satisfies the triangle inequality by construction; symmetric inputs give
    a symmetric table.

    The same table in integer units rides along for the search kernels:
    ints[u][v] is an int, or None where d[u][v] is INF, and
    d[u][v] == Fraction(ints[u][v], scale) for every reachable pair.  Both
    take no part in equality, and neither is a constructor argument: a
    Metric built from d alone computes them once, and rejects a table that
    is not n x n, any float entry other than the INF marker itself, a
    negative entry and an asymmetric undirected table.  closure, scaled()
    and transposed() build ints alone (_from_ints), and d is built from
    them on its first read.
    """

    directed: bool
    n: int
    d: tuple
    scale: int = field(init=False, compare=False, repr=False)
    ints: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        scale, ints = _integer_table(self.directed, self.n, self.d)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", ints)

    def __getattr__(self, name):
        # reached only when lookup fails: d, unset by _from_ints, is read off ints
        if name != "d":
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        fractions = {x: Fraction(x, self.scale) for row in self.ints for x in row
                     if x is not None}
        fractions[None] = INF
        d = tuple(tuple(fractions[x] for x in row) for row in self.ints)
        object.__setattr__(self, "d", d)
        return d

    def transposed(self) -> "Metric":
        """Every distance reversed: the metric itself when undirected."""
        if not self.directed:
            return self
        return _from_ints(self.directed, self.n, self.scale,
                          tuple(zip(*self.ints)))

    def scaled(self, c: Fraction) -> "Metric":
        """Every distance times c > 0; ints times c's numerator over a scale
        times its denominator, with their common factor cancelled."""
        scale = self.scale * c.denominator
        g = gcd(c.numerator, scale)
        factor = c.numerator // g
        scale //= g
        ints = tuple(tuple(None if x is None else x * factor for x in row)
                     for row in self.ints)
        return _from_ints(self.directed, self.n, scale, ints)


def _integer_table(directed: bool, n: int, d) -> tuple:
    """(scale, ints) for an n x n table given in Fractions and INF."""
    if len(d) != n or any(len(row) != n for row in d):
        raise GraphError("distance table is not %d x %d" % (n, n))
    dens = []
    for row in d:
        for x in row:
            if isinstance(x, float):
                if x is not INF:
                    raise GraphError("distance %r is a float; use a Fraction, "
                                     "or orientw.INF for an unreachable pair" % (x,))
            else:
                dens.append(as_fraction(x).denominator)
    scale = lcm(*dens)
    ints = tuple(tuple(None if x is INF else x.numerator * (scale // x.denominator)
                       for x in row) for row in d)
    if any(x is not None and x < 0 for row in ints for x in row):
        raise GraphError("distance table has a negative entry")
    if not directed and any(ints[u][v] != ints[v][u] for u in range(n) for v in range(u)):
        raise GraphError("undirected distance table is not symmetric")
    return scale, ints


def _from_ints(directed: bool, n: int, scale: int, ints: tuple) -> Metric:
    """Metric of an integer table, its Fraction table d built when first read."""
    m = object.__new__(Metric)
    for name, value in (("directed", directed), ("n", n), ("scale", scale), ("ints", ints)):
        object.__setattr__(m, name, value)
    return m


def metric_closure(g: Graph) -> Metric:
    """All-pairs shortest-walk distances of g, as an exact Metric.

    Floyd-Warshall runs on integers: every weight is scaled by the lcm of
    the weights' denominators.  Raises GraphError with validate_graph's
    first finding on malformed input.  Cubic in n, which is fine at the
    instance sizes this package targets.
    """
    findings = validate_graph(g)
    if findings:
        raise GraphError(findings[0])
    n = g.n
    weights = [(u, v, as_fraction(w)) for (u, v, w) in g.edges]
    scale = lcm(*(w.denominator for (_u, _v, w) in weights))
    d: list = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for (u, v, w) in weights:
        x = w.numerator * (scale // w.denominator)
        if d[u][v] is None or x < d[u][v]:
            d[u][v] = x
        if not g.directed and (d[v][u] is None or x < d[v][u]):
            d[v][u] = x
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            row = d[i]
            for j in range(n):
                dkj = dk[j]
                if dkj is not None:
                    x = dik + dkj
                    old = row[j]
                    if old is None or x < old:
                        row[j] = x
    return _from_ints(g.directed, n, scale, tuple(tuple(row) for row in d))


def validate_graph(g: Graph, source: Optional[int] = None) -> list:
    """Diagnostics for a graph: returns a list of human-readable strings.

    Reports negative weights, out-of-range vertex ids, and (when source is
    given) vertices unreachable from it.  An empty list means no findings.
    """
    findings = []
    if g.n < 1:
        findings.append("graph has no vertices")
        return findings
    ok_edges = []
    for (u, v, w) in g.edges:
        bad = False
        if not (0 <= u < g.n) or not (0 <= v < g.n):
            findings.append("edge (%r, %r) uses a vertex id outside 0..%d" % (u, v, g.n - 1))
            bad = True
        if w < 0:
            findings.append("edge (%r, %r) has negative weight %s" % (u, v, w))
            bad = True
        if not bad:
            ok_edges.append((u, v, w))
    if source is not None:
        if not (0 <= source < g.n):
            findings.append("source vertex %r outside 0..%d" % (source, g.n - 1))
        else:
            seen = {source}
            stack = [source]
            adj = {i: [] for i in range(g.n)}
            for (u, v, _w) in ok_edges:
                adj[u].append(v)
                if not g.directed:
                    adj[v].append(u)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            for v in range(g.n):
                if v not in seen:
                    findings.append("vertex %d unreachable from %d" % (v, source))
    return findings


def complete_graph_of(metric: Metric) -> Graph:
    """Edge list over all finite off-diagonal entries; closure-idempotent."""
    edges = []
    for u in range(metric.n):
        for v in range(metric.n):
            if u != v and is_finite(metric.d[u][v]):
                edges.append((u, v, metric.d[u][v]))
    return Graph(True if metric.directed else False, metric.n, tuple(edges))
