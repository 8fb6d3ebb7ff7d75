"""Generator graphs and monomial catalogs.

Generators are numbered 1..n.  An edge {i, j} means the two generators do
*not* commute; a missing edge imposes the relation [x_i, x_j] = 0.

Four graph families are provided:

* family "C": the path 1-2-...-n,
* family "A": the path plus the chord {1, 3},
* family "D": the path plus the chords {1, 3} and {n-2, n},
* family "B": the path without {n-1, n}, plus {1, 3} and {n-2, n}.

For each family there is a catalog of monomials in the generators that
spans the corresponding Lie algebra; catalogs are built from compact
"arrow" index patterns (`arrow_up`, `arrow_down`, `arrow_up_zigzag`),
joined into one index sequence per monomial (`CatalogEntry`).

A monomial (i_k, ..., i_1) denotes the right-nested bracket
[x_{i_k}, [..., [x_{i_2}, x_{i_1}]]].
"""

from dataclasses import dataclass


class BoundsViolation(ValueError):
    """The requested n is below the minimum for the family or above
    what the command line takes, or a graph edge has an end outside
    1..n."""


FAMILY_MIN_N = {"A": 4, "B": 5, "C": 2, "D": 5}
#: names of the realization parameters each family takes, in order
FAMILY_PARAMS = {"A": (), "B": ("gamma",), "C": (), "D": ("alpha", "beta")}


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 1..n."""
    n: int
    edges: frozenset

    def __post_init__(self):
        for e in self.edges:
            ends = sorted(e)
            if len(ends) != 2 or not 1 <= ends[0] < ends[1] <= self.n:
                raise BoundsViolation(f"bad edge {'-'.join(map(str, ends))}"
                                      f" for n={self.n}")

    def has_edge(self, i, j):
        return frozenset((i, j)) in self.edges

    def sorted_edges(self):
        return sorted(tuple(sorted(e)) for e in self.edges)


def check_family_n(family, n):
    """Raise ValueError for an unknown family and BoundsViolation for an
    n below the family's minimum."""
    lo = FAMILY_MIN_N.get(family)
    if lo is None:
        raise ValueError(f"unknown family {family!r}")
    if n < lo:
        raise BoundsViolation(f"family {family} needs n >= {lo}, got {n}")


def graph_from_edges(n, edges):
    return SimpleGraph(n, frozenset(frozenset(e) for e in edges))


def build_family_graph(family, n):
    """The generator graph of the given family on 1..n."""
    check_family_n(family, n)
    path = [(i, i + 1) for i in range(1, n)]
    if family == "C":
        edges = path
    elif family == "A":
        edges = path + [(1, 3)]
    elif family == "D":
        edges = path + [(1, 3), (n - 2, n)]
    else:  # "B"
        edges = [e for e in path if e != (n - 1, n)] + [(1, 3), (n - 2, n)]
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# arrow notation
# ---------------------------------------------------------------------------

def arrow_up(i, j):
    """Indices i, i+1, ..., j (empty when j == i - 1)."""
    if j < i - 1:
        raise ValueError(f"bad ascending range {i}..{j}")
    return list(range(i, j + 1))


def arrow_down(j, i):
    """Indices j, j-1, ..., i (empty when j == i - 1)."""
    if j < i - 1:
        raise ValueError(f"bad descending range {j}..{i}")
    return list(range(j, i - 1, -1))


def arrow_up_zigzag(j, i):
    """The pattern j, j+1, j-1, j, j-2, j-1, ..., i+1, i+2, i.

    Starts one step up from j, then walks down in overlapping ascending
    pairs, ending at i.  Requires j >= i; for j == i it is just (i,).
    """
    if j < i:
        raise ValueError(f"bad zigzag range {j}..{i}")
    if j == i:
        return [i]
    out = [j, j + 1]
    for k in range(j - 1, i, -1):
        out.extend((k, k + 1))
    out.append(i)
    return out


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A catalog monomial: class label, parameters (k, m) where used, and
    the fully expanded index sequence."""
    label: str
    k: int
    m: int
    indices: tuple

    def text(self):
        idx = " ".join(str(i) for i in self.indices)
        return f"{self.label} {self.k} {self.m} : {idx}"


def _entry(label, k, m, *parts):
    seq = []
    for p in parts:
        seq.extend(p)
    return CatalogEntry(label, k, m, tuple(seq))


def _catalog_D(n):
    """The 17-class catalog for family D (size 2n^2 - n)."""
    # y1_{k,m} = x_{k v m}, n >= k >= m >= 1
    out = _catalog_C(n)
    # y2_{k,m} = x_{k ^ n-2} x_{n v m}, n-2 >= k > m >= 1
    for k in range(2, n - 1):
        for m in range(1, k):
            out.append(_entry("y2", k, m, arrow_up(k, n - 2), arrow_down(n, m)))
    # y3_{k,m} = x_{k v m+1} x_{m-1 zig 1}, n >= k >= m >= 3
    for k in range(3, n + 1):
        for m in range(3, k + 1):
            out.append(_entry("y3", k, m,
                              arrow_down(k, m + 1), arrow_up_zigzag(m - 1, 1)))
    # y4_{k,m} = x_{k ^ n-2} x_{n v m+1} x_{m-1 zig 1}, n-2 >= k >= m >= 3
    for k in range(3, n - 1):
        for m in range(3, k + 1):
            out.append(_entry("y4", k, m, arrow_up(k, n - 2),
                              arrow_down(n, m + 1), arrow_up_zigzag(m - 1, 1)))
    # y5_m = x_n x_{n-2 v m}, n-2 >= m >= 1
    for m in range(1, n - 1):
        out.append(_entry("y5", 0, m, [n], arrow_down(n - 2, m)))
    # y6_m = x_{n-1} x_n x_{n-2 v m}, n-2 >= m >= 1
    for m in range(1, n - 1):
        out.append(_entry("y6", 0, m, [n - 1, n], arrow_down(n - 2, m)))
    # y7_k = x_{k v 3} x_1, n >= k >= 3
    for k in range(3, n + 1):
        out.append(_entry("y7", k, 0, arrow_down(k, 3), [1]))
    # y8_k = x_{k ^ n-2} x_{n v 3} x_1, n-2 >= k >= 2
    for k in range(2, n - 1):
        out.append(_entry("y8", k, 0,
                          arrow_up(k, n - 2), arrow_down(n, 3), [1]))
    # y9_m = x_n x_{n-2 v m+1} x_{m-1 zig 1}, n-2 >= m >= 3
    for m in range(3, n - 1):
        out.append(_entry("y9", 0, m,
                          [n], arrow_down(n - 2, m + 1), arrow_up_zigzag(m - 1, 1)))
    # y10_m = x_{n-1} x_n x_{n-2 v m+1} x_{m-1 zig 1}, n-2 >= m >= 3
    for m in range(3, n - 1):
        out.append(_entry("y10", 0, m, [n - 1, n],
                          arrow_down(n - 2, m + 1), arrow_up_zigzag(m - 1, 1)))
    # singletons y11..y17
    out.append(_entry("y11", 0, 0, [1], arrow_up(3, n - 2), arrow_down(n, 1)))
    out.append(_entry("y12", 0, 0, [1], arrow_up(3, n - 2), arrow_down(n, 2)))
    out.append(_entry("y13", 0, 0, [n], arrow_down(n - 2, 3), [1]))
    out.append(_entry("y14", 0, 0, [n - 1, n], arrow_down(n - 2, 3), [1]))
    out.append(_entry("y15", 0, 0, [n - 2, n], arrow_up_zigzag(n - 3, 1)))
    out.append(_entry("y16", 0, 0, [n - 1, n - 2, n], arrow_up_zigzag(n - 3, 1)))
    out.append(_entry("y17", 0, 0, [n, n - 1, n - 2, n], arrow_up_zigzag(n - 3, 1)))
    return out


def _catalog_B(n):
    """Family B: the D catalog minus seven removal classes."""
    removed = []
    for e in _catalog_D(n):
        if e.label in ("y6", "y10", "y12", "y14", "y17"):
            continue
        if e.label == "y1" and (e.k, e.m) == (n, n - 1):
            continue
        if e.label == "y3" and (e.k, e.m) == (n, n):
            continue
        removed.append(e)
    return removed


def _catalog_A(n):
    """Family A: the y1, y3 and y7 classes of the D catalog."""
    return [e for e in _catalog_D(n) if e.label in ("y1", "y3", "y7")]


def _catalog_C(n):
    out = []
    for k in range(1, n + 1):
        for m in range(1, k + 1):
            out.append(_entry("y1", k, m, arrow_down(k, m)))
    return out


def catalog(family, n):
    """The spanning-monomial catalog for the family at rank n."""
    check_family_n(family, n)
    return {"A": _catalog_A, "B": _catalog_B, "C": _catalog_C,
            "D": _catalog_D}[family](n)


def expected_catalog_size(family, n):
    """Closed-form catalog sizes (= dimensions of the target algebras)."""
    return {"A": n * n - 1,
            "B": 2 * n * n - 3 * n + 1,
            "C": n * (n + 1) // 2,
            "D": 2 * n * n - n}[family]
