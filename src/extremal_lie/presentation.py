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

The relations are sparse payload rows (``{column: payload}``, see
:mod:`extremal_lie.linalg`), and the exact echelon kernel
`linalg.echelon` selects the surviving candidates: the free columns of
the reduced row echelon form, which is unique, so the basis does not
depend on how the rows are eliminated.  Every basis element is labelled
by a bracket monomial in the generators that witnesses it.  All the
bracket machinery works on payloads; FieldElements appear only at the
API edge (`GradedLieAlgebra.pair_bracket`, `structure_constants`,
`bracket` and the element vectors).
"""

from . import linalg
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


class GradedLieAlgebra:
    """A graded Lie algebra built degree by degree.

    Elements are coordinate vectors (lists of FieldElement) over the
    concatenated graded basis.  Basis labels are bracket monomials
    (i_k, ..., i_1) meaning [x_{i_k}, [..., [x_{i_2}, x_{i_1}]]];
    every label of degree >= 2 arises as (i,) + label' with label' the
    witness of a lower-degree basis element.

    Internally everything is a sparse payload vector {index: payload}
    (see :mod:`extremal_lie.linalg`) over absolute basis indices,
    combined through the field's ``axpy``: the left multiplications
    ``leftmult[d-1][i-1][b]`` = [x_i, basis element b of degree d], and
    the brackets of basis pairs, computed by the comb recursion through
    witnesses and memoised in ``_pair_cache``.  `pair_bracket`,
    `structure_constants` and `bracket` return FieldElements.
    """

    def __init__(self, graph, field):
        self.graph = graph
        self.field = field
        n = graph.n
        self.degrees = [n]
        self.labels = [(i,) for i in range(1, n + 1)]
        self.offsets = [0]
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.leftmult = []      # leftmult[d-1][i-1][b]: sparse, degree d+1
        self.truncated = False
        self._pair_cache = {}

        # degree 2: one basis element per edge {i < j}, witness (i, j)
        edges = graph.sorted_edges()
        self._append_degree(list(edges), self._degree2_leftmult(edges))

    # -- construction internals -------------------------------------------
    def _degree2_leftmult(self, edges):
        n = self.graph.n
        one = self.field.one.v
        minus_one = self.field.neg(one)
        edge_index = {e: n + idx for idx, e in enumerate(edges)}
        lm = []
        for i in range(1, n + 1):
            cols = []
            for c in range(1, n + 1):
                col = {}
                if c != i and self.graph.has_edge(i, c):
                    e = (min(i, c), max(i, c))
                    col[edge_index[e]] = one if i < c else minus_one
                cols.append(col)
            lm.append(cols)
        return lm

    def _append_degree(self, new_labels, lm_new):
        self.offsets.append(self.offsets[-1] + self.degrees[-1])
        self.degrees.append(len(new_labels))
        for lab in new_labels:
            self.label_index[lab] = len(self.labels)
            self.labels.append(lab)
        self.leftmult.append(lm_new)

    # -- basic element API -------------------------------------------------
    @property
    def n(self):
        return self.graph.n

    @property
    def dim(self):
        return len(self.labels)

    @property
    def top_degree(self):
        return len(self.degrees)

    def zero(self):
        return [self.field.zero] * self.dim

    def basis_element(self, idx):
        v = self.zero()
        v[idx] = self.field.one
        return v

    def generator(self, i):
        return self.basis_element(i - 1)

    def generators(self):
        return [self.generator(i) for i in range(1, self.n + 1)]

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def degree_of(self, idx):
        return len(self.labels[idx])

    def degree_slice(self, d):
        start = self.offsets[d - 1]
        return start, start + self.degrees[d - 1]

    # -- sparse payload bracket machinery ----------------------------------
    def _apply_gen_sparse(self, i, svec):
        """[x_i, v] for a sparse homogeneous payload vector v of degree
        d < top."""
        neg, axpy = self.field.neg, self.field.axpy
        out = {}
        for b, c in svec.items():
            d = self.degree_of(b)
            if d < self.top_degree:
                axpy(out, neg(c), self.leftmult[d - 1][i - 1][
                    b - self.offsets[d - 1]])
        return out

    def _pair(self, a, b):
        """Sparse payload bracket of basis elements a, b (zero beyond the
        top degree), memoised.  Callers must not modify the result."""
        key = (a, b)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        one = self.field.one.v
        da, db = self.degree_of(a), self.degree_of(b)
        if da + db > self.top_degree:
            out = {}
        elif da == 1:
            out = self._apply_gen_sparse(self.labels[a][0], {b: one})
        else:
            # a = [x_k, a']: [[x_k,a'], b] = [x_k, [a',b]] - [a', [x_k,b]]
            k = self.labels[a][0]
            ap = self.label_index[self.labels[a][1:]]
            out = self._apply_gen_sparse(k, self._pair(ap, b))
            self.field.axpy(out, one, self.sparse_bracket_with(
                ap, self._apply_gen_sparse(k, {b: one})))
        self._pair_cache[key] = out
        neg = self.field.neg
        self._pair_cache[(b, a)] = {c: neg(x) for c, x in out.items()}
        return out

    def sparse_bracket_with(self, a, svec):
        """[basis a, sparse payload vector]."""
        neg, axpy = self.field.neg, self.field.axpy
        out = {}
        for b, c in svec.items():
            axpy(out, neg(c), self._pair(a, b))
        return out

    def pair_bracket(self, a, b):
        """Bracket of basis elements a, b as {k: FieldElement}, nonzero
        entries only (empty beyond the top degree)."""
        field = self.field
        return {k: FieldElement(field, v) for k, v in self._pair(a, b).items()}

    # -- dense public bracket ----------------------------------------------
    def bracket(self, u, v):
        field = self.field
        neg, mul, axpy = field.neg, field.mul, field.axpy
        su, sv = linalg.sparse(field, u), linalg.sparse(field, v)
        out = {}
        for i, ci in su.items():
            for j, cj in sv.items():
                axpy(out, neg(mul(ci, cj)), self._pair(i, j))
        return linalg.dense(field, out, self.dim)

    # -- Lie context interface (see extremal_lie.extremal) -----------------
    def add(self, u, v):
        return linalg.vec_add(u, v)

    def lincomb(self, terms):
        """sum c*u over the terms (c, u)."""
        field = self.field
        neg, axpy = field.neg, field.axpy
        acc = {}
        for c, u in terms:
            axpy(acc, neg(field(c).v), linalg.sparse(field, u))
        return linalg.dense(field, acc, self.dim)

    def sub(self, u, v):
        return linalg.vec_sub(u, v)

    def scale(self, u, c):
        return linalg.vec_scale(u, c)

    def neg(self, u):
        return linalg.vec_neg(u)

    def is_zero(self, u):
        return linalg.vec_is_zero(u)

    def eq(self, u, v):
        return linalg.vec_eq(u, v)

    def flatten(self, u):
        return u

    def form(self, u, v):
        """The extremal form of L(Gamma, 0) is identically zero."""
        return self.field.zero

    # -- structure constants and export ------------------------------------
    def structure_constants(self):
        """{(i, j): {k: coeff}} for i < j with nonzero bracket."""
        table = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                entries = self.pair_bracket(i, j)
                if entries:
                    table[(i, j)] = entries
        return table

    def structure_constants_text(self):
        """Export: one line "i j k coeff" per nonzero c_{ij}^k (i < j,
        0-based indices, exact coefficient literal)."""
        fmt = self.field.format
        lines = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                entries = self._pair(i, j)
                for k in sorted(entries):
                    lines.append(f"{i} {j} {k} {fmt(entries[k])}")
        return "\n".join(lines) + "\n"


def build_L0(graph, field, cap=None):
    """Construct the graded algebra for the given generator graph over the
    given field.  Raises TruncatedAtCap if the construction is still
    producing new basis elements at the degree cap (default 2n - 1).

    The relations of each degree are sparse payload rows over the
    candidate columns (i - 1) * m + b, standing for x_i tensor the b-th
    basis element of the current top degree (m of them); `linalg.echelon`
    reduces them, and its free columns are the new basis elements."""
    n = graph.n
    if cap is None:
        cap = 2 * n - 3 + 2
    L = GradedLieAlgebra(graph, field)
    axpy, neg = field.axpy, field.neg
    one = field.one.v
    # axpy(row, c, w) sets row -= c*w: row += sign*w passes -sign
    signs = {1: neg(one), -1: one}

    while L.degrees[-1] > 0:
        degree = L.top_degree              # current top established degree
        if degree >= cap:
            raise TruncatedAtCap(
                f"graded construction still growing at degree cap {cap}")
        m_cur = L.degrees[-1]
        cur_start = L.offsets[-1]
        prev_start, prev_stop = L.degree_slice(degree - 1)
        ncand = n * m_cur

        def embed(i, svec, row, sign):
            """row += sign * (x_i tensor svec), svec sparse of degree d."""
            base = (i - 1) * m_cur - cur_start
            axpy(row, signs[sign], {base + b: c for b, c in svec.items()})

        def cand_expand(u, w, row, sign):
            """row += sign * [basis u, sparse w] where the total degree is
            degree+1, expanded through u's witness down to generators."""
            lab = L.labels[u]
            if len(lab) == 1:
                embed(lab[0], w, row, sign)
                return
            k = lab[0]
            up = L.label_index[lab[1:]]
            # [u, w] = [x_k, [u', w]] - [u', [x_k, w]]
            embed(k, L.sparse_bracket_with(up, w), row, sign)
            cand_expand(up, L._apply_gen_sparse(k, w), row, -sign)

        # gen_bracket[i-1][c - prev_start] = [x_i, basis c], c of degree
        # d-1, sparse in degree d
        gen_bracket = L.leftmult[degree - 2]

        relations = []
        # extremality relations first: [x_i, [x_i, c]]
        for i in range(1, n + 1):
            for c in range(prev_start, prev_stop):
                row = {}
                embed(i, gen_bracket[i - 1][c - prev_start], row, 1)
                relations.append(row)
        # Jacobi relations: [x_i,[x_j,c]] - [x_j,[x_i,c]] - [[x_i,x_j],c]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                edge = graph.has_edge(i, j)
                eidx = L.label_index.get((i, j)) if edge else None
                for c in range(prev_start, prev_stop):
                    row = {}
                    embed(i, gen_bracket[j - 1][c - prev_start], row, 1)
                    embed(j, gen_bracket[i - 1][c - prev_start], row, -1)
                    if edge:
                        # [[x_i,x_j],c] = -[c, [x_i,x_j]], expanded through
                        # the witness of c (nontrivial once deg c >= 2)
                        cand_expand(c, {eidx: one}, row, 1)
                    relations.append(row)
        red, pivots = linalg.echelon(field, relations)
        pivot_set = set(pivots)
        free_cols = [c for c in range(ncand) if c not in pivot_set]

        new_labels = []
        for col in free_cols:
            i = col // m_cur + 1
            b = col % m_cur
            new_labels.append((i,) + L.labels[cur_start + b])

        # column (x_i tensor b) of the candidates in the new basis, whose
        # kk-th element (free column kk) gets index new_start + kk
        new_start = cur_start + m_cur
        position = {col: new_start + kk for kk, col in enumerate(free_cols)}
        col_coords = {col: {k: one} for col, k in position.items()}
        for row, pc in zip(red, pivots):
            col_coords[pc] = {position[c]: neg(x) for c, x in row.items()
                              if c != pc}

        lm_new = []
        for i in range(1, n + 1):
            lm_new.append([col_coords[(i - 1) * m_cur + b]
                           for b in range(m_cur)])
        L._append_degree(new_labels, lm_new)

    # drop the trailing zero degree
    L.degrees.pop()
    L.offsets.pop()
    L.leftmult.pop()
    return L
