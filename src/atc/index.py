"""Attribute-truss index: structural and per-attribute-projection trussness.

The index holds what local search reads: the edge trussness of the full
graph and inside each attribute-projected graph.  Vertex trussness and
tau_max follow from the first table and are derived, not stored.
The disk format is versioned sectioned text with per-section CRC32 lines,
keyed by external vertex ids and attribute labels so a rebuilt graph reads
it back.  A header line records n, m and a digest of the graph, so an index
is never read against a graph it was not built from.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from .graph import Graph, UnknownAttributeError, project_on_attribute
from .truss import truss_decompose

FORMAT_MAGIC = "ATIDX"
FORMAT_VERSION = 3

# lookup result for objects absent from a projection (never a valid trussness)
NOT_IN_PROJECTION = -1

_M64 = (1 << 64) - 1


class IndexFileError(Exception):
    pass


class CorruptIndexError(IndexFileError):
    pass


class VersionMismatchError(IndexFileError):
    pass


class ChecksumError(IndexFileError):
    pass


class GraphMismatchError(IndexFileError):
    pass


@dataclass
class ATIndex:
    """Edge trussness of G (n vertices) and of each projection G_w.

    A vertex's trussness is the largest of its edges' (0 when isolated) and
    tau_max the largest edge trussness (2 when G has no edges).
    """
    n: int
    edge_truss: dict[tuple[int, int], int]
    attr_edge_truss: dict[int, dict[tuple[int, int], int]]
    vertex_truss: list[int] = field(init=False, compare=False)
    tau_max: int = field(init=False, compare=False)

    def __post_init__(self):
        vt = [0] * self.n
        for (u, v), t in self.edge_truss.items():
            if t > vt[u]:
                vt[u] = t
            if t > vt[v]:
                vt[v] = t
        self.vertex_truss = vt
        self.tau_max = max(self.edge_truss.values(), default=2)

    def structural_edge(self, u: int, v: int) -> int:
        return self.edge_truss[(u, v) if u < v else (v, u)]

    def structural_vertex(self, v: int) -> int:
        return self.vertex_truss[v]

    def attribute_edge(self, w: int, u: int, v: int) -> int:
        try:
            table = self.attr_edge_truss[w]
        except KeyError:
            raise UnknownAttributeError(w) from None
        return table.get((u, v) if u < v else (v, u), NOT_IN_PROJECTION)

    def entry_count(self) -> int:
        """Held trussness entries: m + n + sum_w |E(G_w)|."""
        return (len(self.edge_truss) + len(self.vertex_truss)
                + sum(len(t) for t in self.attr_edge_truss.values()))


def build_index(g: Graph) -> ATIndex:
    """Decompose G and every attribute projection."""
    edge_tau = truss_decompose(g)
    attr_edge = {w: truss_decompose(project_on_attribute(g, w))
                 for w in range(len(g.attr_labels))}
    return ATIndex(g.n, edge_tau, attr_edge)


def _mix(x: int) -> int:
    """splitmix64: a fixed, well-spread map of integers to 64-bit integers."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def graph_digest(g: Graph) -> int:
    """Order-independent 64-bit digest of g's external edges and attributes.

    The sum, mod 2**64, of mix(a) * mix(b) over the external edges {a, b}
    and of mix(v) * mix(2**32 + crc32(label)) over the (vertex, label)
    pairs.  Neither the file order of edges and labels nor the internal ids
    matter.  Terms that share a factor are summed first, so the Python-level
    loop runs once per vertex and once per label.
    """
    hv = [_mix(e) for e in g.ext_ids]
    hw = [_mix((1 << 32) + zlib.crc32(label.encode("utf-8")))
          for label in g.attr_labels]

    def weighted(factors, vertex_lists):
        return sum(f * sum(map(hv.__getitem__, vs))
                   for f, vs in zip(factors, vertex_lists))

    # adjacency tuples count each edge from both ends
    return (weighted(hv, g.adj.values()) // 2 + weighted(hw, g.postings)) & _M64


def _graph_line(g: Graph) -> str:
    return f"GRAPH\t{g.n}\t{g.m}\t{graph_digest(g):016x}"


# --- serialization ---------------------------------------------------------


def _crc(lines: list[str]) -> str:
    return f"{zlib.crc32(chr(10).join(lines).encode('utf-8')):08x}"


def edge_rows(table: dict[tuple[int, int], int], ext: list[int]) -> list[str]:
    """One `a<TAB>b<TAB>trussness` row per edge, in external ids with a < b,
    sorted."""
    out = sorted((ext[u], ext[v], t) if ext[u] < ext[v] else (ext[v], ext[u], t)
                 for (u, v), t in table.items())
    return [f"{a}\t{b}\t{t}" for a, b, t in out]


def save_index(idx: ATIndex, g: Graph, path: str) -> None:
    ext = g.ext_ids
    lines = [f"{FORMAT_MAGIC}\t{FORMAT_VERSION}", _graph_line(g)]
    sections = [("STRUCT_E", idx.edge_truss)] + [
        (f"ATTR\t{g.attr_labels[w]}", idx.attr_edge_truss[w])
        for w in sorted(idx.attr_edge_truss, key=lambda w: g.attr_labels[w])]
    for name, table in sections:
        body = [f"SECTION\t{name}", *edge_rows(table, ext)]
        lines += body + [f"CRC\t{_crc(body)}"]

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_index(path: str, g: Graph) -> ATIndex:
    """Parse and checksum-verify an index file built from graph g."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CorruptIndexError("empty index file")
    header = lines[0].split("\t")
    if len(header) != 2 or header[0] != FORMAT_MAGIC:
        raise CorruptIndexError("bad magic")
    if header[1] != str(FORMAT_VERSION):
        raise VersionMismatchError(f"index format version {header[1]}")
    if len(lines) < 2 or not lines[1].startswith("GRAPH\t"):
        raise CorruptIndexError("missing GRAPH")
    if lines[1] != _graph_line(g):
        raise GraphMismatchError("index was built from a different graph")

    # split into CRC-delimited sections
    sections = []
    cur: list[str] = []
    for line in lines[2:]:
        if line.startswith("CRC\t"):
            if not cur or not cur[0].startswith("SECTION\t"):
                raise CorruptIndexError("checksum line outside a section")
            fields = line.split("\t")
            if len(fields) != 2:
                raise CorruptIndexError(f"malformed checksum line in {cur[0]}")
            if fields[1] != _crc(cur):
                raise ChecksumError(f"checksum mismatch in {cur[0]}")
            sections.append(cur)
            cur = []
        else:
            cur.append(line)
    if cur:
        raise CorruptIndexError("truncated section (missing CRC)")

    edge_truss: dict = {}
    attr_edge: dict = {}

    to_int = g.ext_to_int

    def read_edges(rows, table):
        for r in rows:
            a, b, t = r.split("\t")
            u, v = to_int[int(a)], to_int[int(b)]
            table[(u, v) if u < v else (v, u)] = int(t)

    try:
        for sec in sections:
            kind = sec[0].split("\t")
            rows = sec[1:]
            if kind[1] == "STRUCT_E":
                read_edges(rows, edge_truss)
            elif kind[1] == "ATTR":
                read_edges(rows, attr_edge.setdefault(g.attr_id(kind[2]), {}))
            else:
                raise CorruptIndexError(f"unknown section {kind[1]}")
    except (ValueError, IndexError, KeyError) as exc:
        raise CorruptIndexError(f"malformed row: {exc!r}") from None
    if (len(edge_truss), len(attr_edge)) != (g.m, len(g.attr_labels)):
        raise CorruptIndexError("index is missing sections or rows")
    return ATIndex(g.n, edge_truss, attr_edge)
