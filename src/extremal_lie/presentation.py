"""Graded nilpotent Lie algebras generated by extremal elements with all
extremal functionals set to zero.

Given a generator graph, :func:`build_L0` constructs the largest graded
Lie algebra generated by one element per vertex subject to

* [x_i, x_j] = 0 whenever {i, j} is not an edge,
* [x_i, [x_i, y]] = 0 for every generator i and every y  (extremality
  with the functional set to zero).

The construction is degree by degree: candidates for degree d+1 are the
formal products x_i * b over basis elements b of degree d.  Linear
relations are imposed from

* extremality instances [x_i, [x_i, c]] with c of degree d-1,
* Jacobi instances [x_i, [x_j, c]] - [x_j, [x_i, c]] - [[x_i, x_j], c],
  where the last term is zero for non-edges and is otherwise expanded
  through the bracket structure already established in lower degrees
  (recursing through the monomial witness of c); this is what forces
  antisymmetry and Jacobi consistency among higher-degree elements.

Every basis element is labelled by a bracket monomial in the generators
that witnesses it, and the algebra is held as its left multiplications
by the generators on that tail-closed monomial basis: every other
bracket follows from them by the comb recursion, which is the Jacobi
identity.  The relations of L(Gamma, 0) are homogeneous in every
generator, so the algebra knows the multidegree of each basis element,
and a bracket whose multidegree is that of no basis element is zero
(`GradedLieAlgebra._vanishes`).  The construction, the bracket and the
export skip every pair and relation row that this grading makes zero.
The rule is exact, so it moves no output: every relation row is
homogeneous, so the reduced row echelon form splits into blocks of one
multidegree and rewrites a candidate only in free columns of its own
multidegree, and packed multidegrees add as ints, so no nonzero bracket
is taken for zero.

The relations are sparse payload rows (``{column: payload}``, see
:mod:`extremal_lie.linalg`), and the exact echelon kernel
`linalg.echelon` selects the surviving candidates: the free columns of
the reduced row echelon form, which is unique, so the basis does not
depend on how the rows are eliminated.  A row touches only what it
holds: the left multiplications of a relation are its lower-degree
vectors re-indexed into the candidate columns, only the term
[[x_i, x_j], c] goes through the comb recursion, and
`linalg.echelon` reduces a row by the kept rows its entries meet (see
`build_L0`).  All the bracket machinery works on payloads;
FieldElements appear only at the API edge
(`GradedLieAlgebra.pair_bracket`, `structure_constants`, `element`
and `external`).
"""

from itertools import accumulate, islice

from . import linalg
from .extremal import bracket_form_value
from .fields import FieldElement


class TruncatedAtCap(RuntimeError):
    """The graded construction was still growing at the degree cap."""


def evaluate_monomial(bracket, generators, indices):
    """Evaluate the right-nested bracket monomial (i_k, ..., i_1), i.e.
    [x_{i_k}, [..., [x_{i_2}, x_{i_1}]]].

    `bracket` is a binary bracket function, `generators` a list whose
    entry g-1 is the element x_g.  A single index returns the generator
    itself.
    """
    if not indices:
        raise ValueError("empty monomial")
    acc = generators[indices[-1] - 1]
    for i in reversed(indices[:-1]):
        acc = bracket(generators[i - 1], acc)
    return acc


def _degree2_leftmult(graph, field):
    """[x_i, x_c] for all generators i, c: the degree-2 basis has one
    element per edge {i < j}, witness (i, j), at index n + its rank."""
    n = graph.n
    one = field.one.v
    minus_one = field.neg(one)
    edge_index = {e: n + idx for idx, e in enumerate(graph.sorted_edges())}
    lm = []
    for i in range(1, n + 1):
        cols = []
        for c in range(1, n + 1):
            col = {}
            if c != i and graph.has_edge(i, c):
                e = (min(i, c), max(i, c))
                col[edge_index[e]] = one if i < c else minus_one
            cols.append(col)
        lm.append(cols)
    return lm


class GradedLieAlgebra:
    """A graded Lie algebra built degree by degree, as structure
    constants on a basis of bracket monomials derived from the left
    multiplications by the generators.

    ``labels[b]`` is the monomial (i_k, ..., i_1) that basis element b
    stands for, [x_{i_k}, [..., [x_{i_2}, x_{i_1}]]], of the degree of
    its length.  The basis is tail-closed: every label of degree >= 2
    is (i,) + label' with label' the witness of a lower-degree basis
    element b', so b = [x_i, b'].  ``leftmult[k-1][b]`` is [x_k, b].
    Elements are sparse payload vectors ``{index: payload}`` over the
    concatenated graded basis (see :mod:`extremal_lie.linalg`;
    `element` converts FieldElement vectors, `external` gives them
    out).  `pair_bracket` and `structure_constants` return
    FieldElements.

    The bracket of two basis elements follows by the comb recursion
    through the label of the first,

        [[x_k, b'], c] = [x_k, [b', c]] - [b', [x_k, c]],

    which is the Jacobi identity.  `pair` memoises it in
    ``_pair_cache``, and a mirror [b, a] only once it is asked for.

    The relations are homogeneous in every generator, so the algebra is
    graded by multidegree, the count of each generator in a monomial,
    and [a, b] lies in the span of the basis elements of multidegree
    md(a) + md(b).  ``md[b]`` is the multidegree of basis element b
    packed into one int, the count of generator i in slot i - 1, and
    ``md_set`` holds the multidegrees of the basis.  A bracket whose
    multidegree is not in ``md_set`` is zero (`_vanishes`), and so is
    every bracket whose degree exceeds the top degree, the length of
    ``degrees``.
    """

    def __init__(self, graph, field, cap):
        n = graph.n
        edges = graph.sorted_edges()
        self.field = field
        self.graph = graph
        # a label is at most `cap` long, so a slot of the sum of two
        # labels counts at most 2 * cap and never carries
        width = (2 * cap).bit_length()
        self._unit = [1 << (width * i) for i in range(n)]
        self.labels, self.label_index = [], {}
        self.md, self.md_set = [], set()
        self.degrees = []
        self.leftmult = _degree2_leftmult(graph, field)
        self._pair_cache = {}
        self._append_degree([(i,) for i in range(1, n + 1)])
        self._append_degree(list(edges))

    @property
    def dim(self):
        return len(self.labels)

    def _append_degree(self, new_labels):
        """Add the next degree, once the left multiplications of the
        current top degree are known."""
        self.degrees.append(len(new_labels))
        unit = self._unit
        for lab in new_labels:
            m = sum(unit[i - 1] for i in lab)
            self.label_index[lab] = len(self.labels)
            self.labels.append(lab)
            self.md.append(m)
            self.md_set.add(m)

    def _vanishes(self, a, b):
        """Whether [a, b] is zero by multidegree: md(a) + md(b) is the
        multidegree of no basis element.  The rule is exact: every
        relation is homogeneous, so the reduced row echelon form that
        selects a degree splits into blocks of one multidegree each,
        and a candidate is rewritten only in free columns of its own
        multidegree.  Packed multidegrees add as ints, so a nonzero
        bracket always finds its multidegree in ``md_set``.  No slot of
        a sum carries (see `__init__`), so distinct multidegrees stay
        distinct, and a bracket past the top degree, which the comb
        recursion cannot expand, is always zeroed here."""
        return self.md[a] + self.md[b] not in self.md_set

    def left_mult(self, k, svec):
        """[x_k, v] for a sparse payload vector v."""
        neg, axpy = self.field.neg, self.field.axpy
        lm = self.leftmult[k - 1]
        out = {}
        for b, c in svec.items():
            axpy(out, neg(c), lm[b])
        return out

    def pair(self, a, b):
        """Sparse payload bracket of basis elements a, b, memoised.
        Callers must not modify the result.  A pair is computed only
        when neither it nor its mirror is memoised and it does not
        vanish (`_vanishes`); the mirror [b, a] is the negation of a
        memoised [a, b], made and memoised when it is first asked
        for."""
        cache = self._pair_cache
        cached = cache.get((a, b))
        if cached is not None:
            return cached
        if self._vanishes(a, b):
            return {}
        mirror = cache.get((b, a))
        if mirror is not None:
            neg = self.field.neg
            out = cache[a, b] = {c: neg(x) for c, x in mirror.items()}
            return out
        one = self.field.one.v
        lab = self.labels[a]
        if len(lab) == 1:
            out = self.leftmult[lab[0] - 1][b]
        else:
            # a = [x_k, a']: [[x_k,a'], b] = [x_k, [a',b]] - [a', [x_k,b]]
            k = lab[0]
            ap = self.label_index[lab[1:]]
            out = self.left_mult(k, self.pair(ap, b))
            self.field.axpy(out, one, self.bracket_with(
                ap, self.leftmult[k - 1][b]))
        cache[a, b] = out
        return out

    def bracket_with(self, a, svec):
        """[basis a, sparse payload vector]."""
        neg, axpy = self.field.neg, self.field.axpy
        out = {}
        for b, c in svec.items():
            axpy(out, neg(c), self.pair(a, b))
        return out

    def pair_bracket(self, a, b):
        """Bracket of basis elements a, b as {k: FieldElement}, nonzero
        entries only."""
        field = self.field
        return {k: FieldElement(field, v) for k, v in self.pair(a, b).items()}

    # -- basic element API -------------------------------------------------
    @property
    def n(self):
        return self.graph.n

    @property
    def top_degree(self):
        return len(self.degrees)

    @property
    def vector_dim(self):
        return self.dim

    def basis_element(self, idx):
        return {idx: self.field.one.v}

    def generator(self, i):
        return self.basis_element(i - 1)

    def generators(self):
        return [self.generator(i) for i in range(1, self.n + 1)]

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    # -- Lie context interface (see extremal_lie.extremal.LieContext) ------
    def element(self, x):
        """x as a sparse payload vector: a payload vector unchanged, a
        FieldElement vector of length `dim` converted."""
        if isinstance(x, dict):
            return x
        if len(x) != self.dim:
            raise ValueError(f"vector of length {len(x)} for an algebra "
                             f"of dimension {self.dim}")
        return linalg.sparse(self.field, x)

    def external(self, u):
        """u as a FieldElement vector."""
        return linalg.dense(self.field, self.element(u), self.dim)

    def bracket(self, u, v):
        field = self.field
        neg, mul, axpy = field.neg, field.mul, field.axpy
        sv = self.element(v)
        out = {}
        for i, ci in self.element(u).items():
            for j, cj in sv.items():
                if not self._vanishes(i, j):
                    axpy(out, neg(mul(ci, cj)), self.pair(i, j))
        return out

    def lincomb(self, terms):
        """sum c*u over the terms (c, u)."""
        field = self.field
        neg, axpy = field.neg, field.axpy
        acc = {}
        for c, u in terms:
            axpy(acc, neg(field(c).v), self.element(u))
        return acc

    def is_zero(self, u):
        return not self.element(u)

    def vector(self, u):
        """u as a new sparse payload vector, which the caller may
        modify."""
        return dict(self.element(u))

    def extremal_value(self, x, y):
        """f_x(y) by its definition (`extremal.bracket_form_value`)."""
        return bracket_form_value(self, x, y)

    # -- structure constants and export ------------------------------------
    def _live_pairs(self):
        """The pairs (i, j), i < j, in order, whose bracket does not vanish
        by multidegree (`_vanishes`).  The basis is ordered by degree
        and a multidegree of ``md_set`` has at most the top degree, so j
        runs to the end of degree top - deg(i) only."""
        md, live = self.md, self.md_set
        ends = [0, *accumulate(self.degrees)]
        top = self.top_degree
        for i, lab in enumerate(self.labels):
            mi = md[i]
            for j in range(i + 1, ends[top - len(lab)]):
                if mi + md[j] in live:
                    yield i, j

    def structure_constants(self):
        """{(i, j): {k: coeff}} for i < j with nonzero bracket."""
        table = {}
        for i, j in self._live_pairs():
            entries = self.pair_bracket(i, j)
            if entries:
                table[(i, j)] = entries
        return table

    def structure_constants_text(self):
        """Export: one line "i j k coeff" per nonzero c_{ij}^k (i < j,
        0-based indices, exact coefficient literal)."""
        fmt = self.field.format
        lines = []
        for i, j in self._live_pairs():
            entries = self.pair(i, j)
            for k in sorted(entries):
                lines.append(f"{i} {j} {k} {fmt(entries[k])}")
        return "\n".join(lines) + "\n"


def build_L0(graph, field, cap=None):
    """Construct the graded algebra for the given generator graph over the
    given field.  Raises TruncatedAtCap if the construction is still
    producing new basis elements at the degree cap (default 2n - 1).

    The candidates of the next degree are the products x_i * b over the
    basis elements b of the current top degree (m of them), at column
    (i - 1) * m + b.  While the relations of that degree are written,
    the candidates stand in for it: the left multiplication [x_i, b] is
    provisionally the candidate column (at index dim + column, past the
    basis) and brackets reach one degree further, so every relation is
    a sparse payload row over the candidates.  [x_i, v] for v in the top
    degree is then v's entries moved into block i of the candidates, so
    the extremality row [x_i, [x_i, c]] and the terms [x_i, [x_j, c]]
    and [x_j, [x_i, c]] of a Jacobi row, which lie in the disjoint
    blocks i and j, are written by re-indexing; only the edge term
    [[x_i, x_j], c] goes through the comb recursion.  While the
    rows are written, ``md_set`` also holds the candidates' multidegrees
    e_i + md(b), and a row that is exactly zero is left out: an
    extremality row with [x_i, c] = 0, and a Jacobi row whose
    multidegree e_i + e_j + md(c) is no candidate's or whose terms are
    all zero.  The reduced row echelon form is unique, so a zero row
    moves nothing.  `linalg.echelon` reduces the rows; most are one
    entry long (1 832 of D9's 2 253), and each such row kills its
    column without elimination.  Its free columns are the new basis
    elements, every provisional bracket is then rewritten in the new
    basis, and only the multidegrees of the free columns stay in
    ``md_set``; a memoised bracket whose multidegree left it is zero,
    and is dropped from the memo."""
    n = graph.n
    if cap is None:
        cap = 2 * n - 3 + 2
    L = GradedLieAlgebra(graph, field, cap)
    axpy, neg = field.axpy, field.neg
    one = field.one.v
    minus_one = neg(one)
    lm, cache, md, unit = L.leftmult, L._pair_cache, L.md, L._unit

    while L.degrees[-1] > 0:
        degree = L.top_degree              # current top established degree
        if degree >= cap:
            raise TruncatedAtCap(
                f"graded construction still growing at degree cap {cap}")
        m_cur = L.degrees[-1]
        new_start = L.dim
        cur_start = new_start - m_cur
        prev_start = cur_start - L.degrees[-2]
        ncand = n * m_cur
        # provisionally [x_i, b] is candidate column (i-1)*m_cur + b, at
        # index new_start + column, of multidegree e_i + md(b), and
        # brackets reach degree + 1
        for i in range(n):
            lm[i].extend({new_start + i * m_cur + b: one}
                         for b in range(m_cur))
        L.degrees.append(ncand)
        established = L.md_set
        L.md_set = established | {u + m for u in unit
                                  for m in md[cur_start:new_start]}
        memo_start = len(cache)

        # [x_i, v] for v in the current top degree is v re-indexed into
        # block i of the candidates: entry b moves by shift[i]; a
        # relation that is exactly zero is not written
        shift = [new_start + i * m_cur - cur_start for i in range(n)]
        relations = []
        # extremality relations first: [x_i, [x_i, c]]
        for i in range(n):
            s = shift[i]
            for c in range(prev_start, cur_start):
                if lm[i][c]:
                    relations.append({s + b: x for b, x in lm[i][c].items()})
        # Jacobi relations: [x_i,[x_j,c]] - [x_j,[x_i,c]] - [[x_i,x_j],c];
        # the first two terms lie in the disjoint blocks i and j, and the
        # last, -[c, [x_i,x_j]], is expanded through the witness of c
        live = L.md_set
        for i in range(1, n + 1):
            si = shift[i - 1]
            for j in range(i + 1, n + 1):
                sj = shift[j - 1]
                uij = unit[i - 1] + unit[j - 1]
                eidx = (L.label_index.get((i, j)) if graph.has_edge(i, j)
                        else None)
                for c in range(prev_start, cur_start):
                    if uij + md[c] not in live:
                        continue
                    row = {si + b: x for b, x in lm[j - 1][c].items()}
                    for b, x in lm[i - 1][c].items():
                        row[sj + b] = neg(x)
                    if eidx is not None:
                        axpy(row, minus_one, L.pair(c, eidx))
                    if row:
                        relations.append(row)
        L.degrees.pop()
        L.md_set = established
        red, pivots = linalg.echelon(field, relations)
        pivot_set = set(pivots)
        free_cols = [c for c in range(ncand) if new_start + c not in pivot_set]

        new_labels = []
        for col in free_cols:
            i = col // m_cur + 1
            b = col % m_cur
            new_labels.append((i,) + L.labels[cur_start + b])

        # candidate column index -> its coordinates in the new basis, whose
        # kk-th element (free column kk) gets index new_start + kk
        position = {new_start + col: new_start + kk
                    for kk, col in enumerate(free_cols)}
        col_coords = {col: {k: one} for col, k in position.items()}
        for row, pc in zip(red, pivots):
            col_coords[pc] = {position[c]: neg(x) for c, x in row.items()
                              if c != pc}
        # rewrite the provisional left multiplications, and the memoised
        # brackets of degree + 1, in the new basis; a memoised bracket
        # whose multidegree no new basis element has is zero, and
        # `_vanishes` answers for it from now on
        for i in range(n):
            for b in range(m_cur):
                lm[i][cur_start + b] = col_coords[new_start + i * m_cur + b]
        L._append_degree(new_labels)
        live = L.md_set
        for key, vec in list(islice(cache.items(), memo_start, None)):
            if md[key[0]] + md[key[1]] not in live:
                del cache[key]
            elif vec and next(iter(vec)) >= new_start:
                out = {}
                for c, x in vec.items():
                    axpy(out, neg(x), col_coords[c])
                cache[key] = out

    # drop the trailing zero degree (the top degree's left
    # multiplications, all zero, stay)
    L.degrees.pop()
    return L
