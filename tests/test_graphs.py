import pytest

from extremal_lie.graphs import (FAMILY_MIN_N, BoundsViolation,
                                 build_family_graph, catalog,
                                 expected_catalog_size, graph_from_edges)


def test_family_graph_edge_counts():
    # chain + triangle chords for A/B/D, plain chain for C
    assert len(build_family_graph("C", 6).sorted_edges()) == 5
    assert len(build_family_graph("A", 5).sorted_edges()) == 5
    assert len(build_family_graph("B", 5).sorted_edges()) == 5
    assert len(build_family_graph("D", 5).sorted_edges()) == 6


def test_family_graph_shape():
    g = build_family_graph("D", 6)
    assert g.has_edge(1, 2) and g.has_edge(1, 3)
    assert g.has_edge(4, 6) and not g.has_edge(1, 6)
    b = build_family_graph("B", 6)
    assert b.has_edge(4, 6) and not b.has_edge(5, 6)


def test_bounds_violation():
    with pytest.raises(BoundsViolation):
        build_family_graph("D", 4)
    with pytest.raises(BoundsViolation):
        build_family_graph("B", 4)
    with pytest.raises(ValueError):
        build_family_graph("E", 6)


def test_expected_catalog_sizes():
    assert expected_catalog_size("A", 5) == 24
    assert expected_catalog_size("B", 5) == 36
    assert expected_catalog_size("B", 6) == 55
    assert expected_catalog_size("C", 6) == 21
    assert expected_catalog_size("D", 5) == 45
    assert expected_catalog_size("D", 6) == 66


@pytest.mark.parametrize("family,n", [("A", 5), ("B", 5), ("B", 6),
                                      ("C", 6), ("D", 5), ("D", 6)])
def test_catalog_matches_expected_size(family, n):
    entries = catalog(family, n)
    assert len(entries) == expected_catalog_size(family, n)
    labels = [e.text() for e in entries]
    assert len(set(labels)) == len(labels)
    for e in entries:
        assert all(1 <= i <= n for i in e.indices)


@pytest.mark.parametrize("family,n", [(f, n) for f, lo in FAMILY_MIN_N.items()
                                      for n in range(lo, 13)])
def test_catalog_is_tail_closed(family, n):
    """Every catalog label (k,) + tail has its tail among the labels, so
    each image is one bracket [x_k, image of the tail]."""
    labels = {e.indices for e in catalog(family, n)}
    assert all(lab[1:] in labels for lab in labels if len(lab) > 1)


def test_graph_from_edges():
    g = graph_from_edges(3, [(1, 2), (2, 3)])
    assert g.n == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 3) and not g.has_edge(1, 3)


@pytest.mark.parametrize("edges,message", [
    ([(0, 1)], "bad edge 0-1 for n=3"),
    ([(2, 4)], "bad edge 2-4 for n=3"),
    ([(2, 2)], "bad edge 2 for n=3"),
])
def test_bad_edges_are_named_as_i_j(edges, message):
    with pytest.raises(ValueError) as info:
        graph_from_edges(3, edges)
    assert str(info.value) == message
