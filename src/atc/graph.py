"""Undirected attributed graphs: loading, projections, and BFS distances.

External vertex ids (arbitrary non-negative integers) are remapped to dense
internal ids 0..n-1 in first-seen order; attribute labels are interned to
dense attribute ids the same way.  All algorithms work on internal ids.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator

UNREACHABLE = float("inf")


class GraphFormatError(ValueError):
    """Malformed edge-list or attribute file."""


class UnknownVertexError(KeyError):
    pass


class UnknownAttributeError(KeyError):
    pass


class _View:
    """The read half of Graph and Subgraph: `adj` maps each vertex to its
    neighbours and `m` counts the edges."""

    __slots__ = ()

    @property
    def vertices(self):
        return self.adj.keys()

    def has_vertex(self, v: int) -> bool:
        return v in self.adj

    def num_vertices(self) -> int:
        return len(self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, ns in self.adj.items():
            for v in ns:
                if u < v:
                    yield (u, v)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges())

    def copy(self) -> "Subgraph":
        """A mutable Subgraph with the same vertices and edges."""
        return Subgraph(self.parent, {v: set(ns) for v, ns in self.adj.items()},
                        self.m)


class Graph(_View):
    """Immutable simple undirected graph with per-vertex attribute sets.

    `adj` maps each vertex to the sorted tuple of its neighbours, through a
    read-only mapping.  A Graph is its own full view: the searches read it
    in place, and `copy()` gives a mutable Subgraph to peel.
    """

    def __init__(self, adjacency: list[Iterable[int]], ext_ids: list[int]):
        self.adj = MappingProxyType(
            {v: tuple(sorted(ns)) for v, ns in enumerate(adjacency)})
        self.n = len(adjacency)
        self.m = sum(map(len, self.adj.values())) // 2
        self.ext_ids = list(ext_ids)
        self.ext_to_int = {e: i for i, e in enumerate(self.ext_ids)}
        # attribute state; empty until attach_attributes
        self.attr_labels: list[str] = []
        self.label_to_id: dict[str, int] = {}
        self.attrs: list[tuple[int, ...]] = [() for _ in range(self.n)]
        self.postings: list[list[int]] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]],
                   extra_vertices: Iterable[int] = ()) -> "Graph":
        """Build from external-id edge pairs; dedups and drops self-loops."""
        ext_ids: list[int] = []
        ext_to_int: dict[int, int] = {}
        nbrs: list[set[int]] = []  # dedups: one neighbour set per vertex

        def intern(x: int) -> int:
            i = ext_to_int.get(x)
            if i is None:
                i = len(ext_ids)
                ext_to_int[x] = i
                ext_ids.append(x)
                nbrs.append(set())
            return i

        for a, b in edges:
            u, v = intern(a), intern(b)
            if u != v:
                nbrs[u].add(v)
                nbrs[v].add(u)
        for x in extra_vertices:
            intern(x)
        return cls(nbrs, ext_ids)

    def attach_attributes(self, table: dict[int, Iterable[str]]) -> None:
        """Attach attribute labels keyed by external vertex id."""
        label_to_id: dict[str, int] = {}
        labels: list[str] = []
        per_vertex: list[set[int]] = [set() for _ in range(self.n)]
        for ext, toks in table.items():
            if ext not in self.ext_to_int:
                raise UnknownVertexError(ext)
            v = self.ext_to_int[ext]
            for t in toks:
                if not t:
                    raise GraphFormatError(f"empty attribute label for vertex {ext}")
                w = label_to_id.get(t)
                if w is None:
                    w = len(labels)
                    label_to_id[t] = w
                    labels.append(t)
                per_vertex[v].add(w)
        self.attr_labels = labels
        self.label_to_id = label_to_id
        self.attrs = [tuple(sorted(s)) for s in per_vertex]
        self.postings = [[] for _ in labels]
        for v in range(self.n):
            for w in self.attrs[v]:
                self.postings[w].append(v)

    # -- accessors ---------------------------------------------------------

    def attr_id(self, label: str) -> int:
        try:
            return self.label_to_id[label]
        except KeyError:
            raise UnknownAttributeError(label) from None

    def vertices_with(self, w: int) -> list[int]:
        if not (0 <= w < len(self.postings)):
            raise UnknownAttributeError(w)
        return self.postings[w]

    @property
    def parent(self) -> "Graph":
        return self

    def internal(self, ext: int) -> int:
        try:
            return self.ext_to_int[ext]
        except KeyError:
            raise UnknownVertexError(ext) from None


def parse_vertex_id(token: str) -> int:
    """A vertex id in ASCII digits only; int() would also take "1_0", "+3"
    and " 7"."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a vertex id: {token!r}")
    return int(token)


def load_edge_list(path: str) -> Graph:
    """Load whitespace-separated "u v" lines; '#' starts a comment line."""
    pairs: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected two tokens, got {len(toks)}")
            try:
                pairs.append((parse_vertex_id(toks[0]), parse_vertex_id(toks[1])))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
    if not pairs:
        raise GraphFormatError(f"{path}: no edges found")
    return Graph.from_edges(pairs)


def load_attributes(path: str, g: Graph) -> Graph:
    """Load TAB-separated "v<TAB>label..." lines onto g; repeated lines union.

    Labels get attribute ids in the order the file first names them, taking
    all of a vertex's labels at its first line, so the ids do not depend on
    the string hash seed.
    """
    table: dict[int, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            toks = line.split("\t")
            try:
                ext = parse_vertex_id(toks[0])
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
            if ext not in g.ext_to_int:
                raise UnknownVertexError(f"{path}:{lineno}: unknown vertex {ext}")
            for t in toks[1:]:
                if not t:
                    raise GraphFormatError(f"{path}:{lineno}: empty label token")
            table.setdefault(ext, []).extend(toks[1:])
    g.attach_attributes(table)
    return g


@dataclass
class QuerySpec:
    """Query nodes/attributes plus search parameters (internal ids)."""
    query_nodes: frozenset[int]
    query_attrs: frozenset[int] = frozenset()
    k: int = 4
    d: int = 4
    epsilon: Fraction = Fraction(3, 100)
    gamma: Fraction = Fraction(1, 5)
    eta: int = 1000
    k_d_auto: bool = False

    def __post_init__(self):
        if not self.query_nodes:
            raise ValueError("query node set must be non-empty")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.eta < 1:
            raise ValueError("eta must be >= 1")

    def check_ids(self, g: Graph | Subgraph) -> None:
        """Raise UnknownVertexError or UnknownAttributeError for ids not in g.parent."""
        for v in sorted(self.query_nodes):
            if not g.parent.has_vertex(v):
                raise UnknownVertexError(v)
        for w in sorted(self.query_attrs):
            g.parent.vertices_with(w)


class Subgraph(_View):
    """Mutable vertex/edge-induced view over a parent Graph.

    Vertices are the keys of ``adj``; isolated members keep an empty set.
    Single-owner while mutated (peeling); the parent graph is never touched.
    """

    __slots__ = ("parent", "adj", "m")

    def __init__(self, parent: Graph, adj: dict[int, set[int]], m: int):
        self.parent = parent
        self.adj = adj
        self.m = m

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.m -= 1

    def remove_vertex(self, v: int) -> None:
        """Delete v and its incident edges."""
        ns = self.adj.pop(v)
        for u in ns:
            self.adj[u].discard(v)
        self.m -= len(ns)


def induced_subgraph(src: Graph | Subgraph, vertices: Iterable[int]) -> Subgraph:
    """The subgraph of src induced on vertices, which must all be in src."""
    vs = set(vertices)
    for v in vs:
        if not src.has_vertex(v):
            raise UnknownVertexError(v)
    adj = {v: vs.intersection(src.adj[v]) for v in vs}
    m = sum(len(s) for s in adj.values()) // 2
    return Subgraph(src.parent, adj, m)


def project_on_attribute(g: Graph, w: int) -> Subgraph:
    """Induced subgraph on the vertices carrying attribute w."""
    return induced_subgraph(g, g.vertices_with(w))


def source_distances(adj, sources: Iterable[int]) -> dict:
    """Each vertex's largest hop distance to the sources, in adj's key
    order; UNREACHABLE where some source cannot reach it.

    Sweeps from all sources at once, level by level (Then et al., PVLDB
    2014).  Bit i of a vertex's mask stands for source i; `need` keeps the
    bits that have not reached the vertex yet, so its distance is the level
    at which its need empties.  Only the vertices that gained bits in a
    level, each with just those bits, form the next frontier.  A single
    source runs a plain BFS, which is faster for one.
    """
    srcs = list(dict.fromkeys(sources))
    dist = dict.fromkeys(adj, UNREACHABLE)
    if len(srcs) == 1:
        dist[srcs[0]] = 0
        seen = set(srcs)  # tests faster than reading dist
        frontier, level = srcs, 0
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        dist[u] = level
                        nxt.append(u)
            frontier = nxt
        return dist
    full = (1 << len(srcs)) - 1
    need = dict.fromkeys(adj, full)
    frontier = {}
    for i, s in enumerate(srcs):
        frontier[s] = 1 << i
        need[s] = full ^ (1 << i)
    level = 0
    while frontier:
        level += 1
        nxt: dict[int, int] = {}
        for v, bits in frontier.items():
            for u in adj[v]:
                r = need[u]
                new = bits & r
                if new:
                    r ^= new
                    need[u] = r
                    nxt[u] = nxt.get(u, 0) | new
                    if not r:
                        dist[u] = level
        frontier = nxt
    return dist


def query_distance(h: Graph | Subgraph, query_nodes: Iterable[int]):
    """Per-vertex max hop distance to the query nodes, plus the graph value.

    Unreachable pairs are encoded as UNREACHABLE.  Returns (dist_map, value).
    """
    qs = list(query_nodes)
    for q in qs:
        if not h.has_vertex(q):
            raise UnknownVertexError(q)
    dist = source_distances(h.adj, qs) if qs else {}
    value = max(dist.values()) if dist else 0
    return dist, value
