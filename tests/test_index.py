import itertools
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from atc.graph import Graph, UnknownAttributeError, project_on_attribute
from atc.index import (
    ChecksumError,
    CorruptIndexError,
    GraphMismatchError,
    NOT_IN_PROJECTION,
    VersionMismatchError,
    build_index,
    load_index,
    save_index,
)
from atc.truss import truss_decompose

from oracles import rand_graph


def k4_plus_tail():
    g = Graph.from_edges(list(itertools.combinations(range(4), 2)) + [(3, 4)])
    g.attach_attributes({v: ["all"] for v in range(5)})
    return g


class TestBuild:
    def test_universal_attribute_matches_structural(self):
        g = k4_plus_tail()
        idx = build_index(g)
        assert idx.attr_edge_truss[0] == idx.edge_truss

    def test_vertex_trussness_example(self):
        # q1 in a 4-truss: vertex trussness 4
        g = k4_plus_tail()
        idx = build_index(g)
        assert idx.structural_vertex(g.internal(0)) == 4
        assert idx.tau_max == 4

    def test_edgeless_graph_round_trip(self, tmp_path):
        # derived on load: tau_max 2 with no edges, isolated vertices 0
        g = Graph.from_edges([], extra_vertices=[0, 1])
        g.attach_attributes({0: ["w"]})
        path = str(tmp_path / "e.atidx")
        save_index(build_index(g), g, path)
        idx = load_index(path, g)
        assert idx.tau_max == 2
        assert [idx.structural_vertex(v) for v in range(2)] == [0, 0]

    def test_triangle_free_projection_all_two(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        g.attach_attributes({0: ["w"], 1: ["w"], 3: ["w"], 2: []})
        idx = build_index(g)
        w = g.attr_id("w")
        assert set(idx.attr_edge_truss[w].values()) <= {2}

    def test_not_in_projection_code(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        g.attach_attributes({0: ["w"], 1: ["w"], 2: ["z"]})
        idx = build_index(g)
        w, z = g.attr_id("w"), g.attr_id("z")
        i0, i1, i2 = g.internal(0), g.internal(1), g.internal(2)
        assert idx.attribute_edge(w, i0, i1) == 2
        assert idx.attribute_edge(w, i1, i2) == NOT_IN_PROJECTION
        assert idx.attribute_edge(z, i0, i2) == NOT_IN_PROJECTION
        with pytest.raises(UnknownAttributeError):
            idx.attribute_edge(99, i0, i1)

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_projection_recomputation_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(3, 15), 0.35, n_attrs=3)
        idx = build_index(g)
        for w in range(len(g.attr_labels)):
            et = truss_decompose(project_on_attribute(g, w))
            assert idx.attr_edge_truss[w] == et
            # projection dominance
            for e, t in et.items():
                assert t <= idx.edge_truss[e]

    def test_entry_count(self):
        rng = random.Random(9)
        g = rand_graph(rng, 15, 0.3, n_attrs=3)
        idx = build_index(g)
        expect = g.m + g.n
        for w in range(len(g.attr_labels)):
            proj = project_on_attribute(g, w)
            expect += proj.m
        assert idx.entry_count() == expect


class TestSerialization:
    def _roundtrip(self, g, tmp_path):
        idx = build_index(g)
        path = str(tmp_path / "g.atidx")
        save_index(idx, g, path)
        return idx, path

    def test_roundtrip_equality(self, tmp_path):
        g = rand_graph(random.Random(1), 18, 0.3, n_attrs=3)
        idx, path = self._roundtrip(g, tmp_path)
        assert load_index(path, g) == idx

    def test_save_is_deterministic(self, tmp_path):
        g = rand_graph(random.Random(2), 15, 0.3, n_attrs=3)
        idx = build_index(g)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        save_index(idx, g, p1)
        save_index(idx, g, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_probe_equality_after_reload(self, tmp_path):
        rng = random.Random(5)
        g = rand_graph(rng, 20, 0.3, n_attrs=4)
        idx, path = self._roundtrip(g, tmp_path)
        loaded = load_index(path, g)
        edges = list(g.edges())
        for _ in range(200):
            u, v = edges[rng.randrange(len(edges))]
            assert loaded.structural_edge(u, v) == idx.structural_edge(u, v)
            w = rng.randrange(len(g.attr_labels))
            assert loaded.attribute_edge(w, u, v) == idx.attribute_edge(w, u, v)
            x = rng.randrange(g.n)
            assert loaded.structural_vertex(x) == idx.structural_vertex(x)

    def test_truncated_file_corrupt(self, tmp_path):
        g = rand_graph(random.Random(6), 10, 0.4, n_attrs=2)
        idx, path = self._roundtrip(g, tmp_path)
        text = open(path).read()
        open(path, "w").write(text[: len(text) // 2])
        with pytest.raises((CorruptIndexError, ChecksumError)):
            load_index(path, g)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x"
        p.write_text("NOTANINDEX\t1\n")
        with pytest.raises(CorruptIndexError):
            load_index(str(p), None)

    def test_version_mismatch(self, tmp_path):
        g = rand_graph(random.Random(7), 8, 0.4, n_attrs=1)
        idx, path = self._roundtrip(g, tmp_path)
        lines = open(path).read().splitlines()
        lines[0] = "ATIDX\t999"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(VersionMismatchError):
            load_index(path, g)

    def test_checksum_failure(self, tmp_path):
        g = rand_graph(random.Random(8), 10, 0.4, n_attrs=2)
        idx, path = self._roundtrip(g, tmp_path)
        lines = open(path).read().splitlines()
        # tamper with one data row but keep the CRC line
        for i, line in enumerate(lines):
            parts = line.split("\t")
            if len(parts) >= 2 and parts[0] not in ("ATIDX", "GRAPH", "SECTION",
                                                    "CRC"):
                parts[-1] = str(int(parts[-1]) + 1)
                lines[i] = "\t".join(parts)
                break
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ChecksumError):
            load_index(path, g)

    def test_missing_section_corrupt(self, tmp_path):
        # cut the file after a whole section: every CRC still matches
        g = rand_graph(random.Random(9), 10, 0.4, n_attrs=2)
        idx, path = self._roundtrip(g, tmp_path)
        lines = open(path).read().splitlines()
        last_crc = max(i for i, line in enumerate(lines[:-1]) if line.startswith("CRC\t"))
        open(path, "w").write("\n".join(lines[:last_crc + 1]) + "\n")
        with pytest.raises(CorruptIndexError):
            load_index(path, g)


def square(edges=((0, 1), (1, 2), (2, 3), (0, 3)), table=None):
    g = Graph.from_edges(list(edges))
    g.attach_attributes(table or {0: ["x"], 1: ["x"], 2: ["x"], 3: ["y"]})
    return g


class TestGraphCheck:
    def _saved(self, tmp_path):
        g = square()
        path = str(tmp_path / "sq.atidx")
        save_index(build_index(g), g, path)
        return path

    def test_added_edge_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with pytest.raises(GraphMismatchError):
            load_index(path, square(edges=((0, 1), (1, 2), (2, 3), (0, 3), (1, 3))))

    def test_attribute_change_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        other = square(table={0: ["x"], 1: ["x"], 2: ["x"], 3: ["x"]})
        with pytest.raises(GraphMismatchError):
            load_index(path, other)
        renamed = square(table={0: ["x"], 1: ["x"], 2: ["x"], 3: ["z"]})
        with pytest.raises(GraphMismatchError):
            load_index(path, renamed)

    def test_reordered_equal_graph_loads(self, tmp_path):
        path = self._saved(tmp_path)
        # other edge order and endpoint order: other internal ids, same graph
        g = square(edges=((3, 2), (0, 3), (2, 1), (1, 0)),
                   table={3: ["y"], 2: ["x"], 1: ["x"], 0: ["x"]})
        assert g.ext_ids != square().ext_ids
        assert load_index(path, g) == build_index(g)


def crc_section(header, rows=()):
    """A section with a correct CRC line, computed here from the format's rule."""
    body = [header, *rows]
    return body + [f"CRC\t{zlib.crc32(chr(10).join(body).encode('utf-8')):08x}"]


class TestMalformedFile:
    """Each kind of damage that a CRC cannot catch is rejected by name."""

    @pytest.mark.parametrize("keep, body, message", [
        (0, [], "empty index file"),
        (1, [], "missing GRAPH"),
        (2, ["CRC\t00000000"], "outside a section"),
        (2, crc_section("SECTION\tBOGUS"), "unknown section BOGUS"),
        (2, crc_section("SECTION\tSTRUCT_E", ["0\t1"]), "malformed row"),
        # the checksum is right, but a CRC line holds exactly two fields
        (2, [f"{line}\tjunk" if line.startswith("CRC") else line
             for line in crc_section("SECTION\tSTRUCT_E", ["0\t1\t3"])],
         "malformed checksum line"),
    ])
    def test_rejected(self, tmp_path, keep, body, message):
        """The file keeps its first `keep` lines (magic, GRAPH), then `body`."""
        g = square()
        path = tmp_path / "sq.atidx"
        save_index(build_index(g), g, str(path))
        head = path.read_text().splitlines()[:keep]
        path.write_text("".join(line + "\n" for line in head + body))
        with pytest.raises(CorruptIndexError, match=message):
            load_index(str(path), g)
