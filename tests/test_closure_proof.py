"""The family closure read from the catalog and the form
(`certify.catalog_closure`): the catalog images bound the closure's
dimension from below and the classical algebra of the realization's
traces or its family's standard form (`realizations.classical_algebra`)
from above.  The
closure's dimension is the catalog rank, and its context is that
classical algebra, on passing and failing points alike; generators
the classical bound refuses are refused.  No closure is grown:
`lie_closure` is only the reference these tests compare with.  A
matrix context grows the closure of its generators once, the first
time its basis is read, and a match reads none."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extremal_lie import linalg
from extremal_lie.certify import (catalog_closure, certify_family,
                                  match_algebras)
from extremal_lie.extremal import exp_ad, is_extremal
from extremal_lie.fields import DEFAULT_PRIME, PrimeField, QQ
from extremal_lie.graphs import expected_catalog_size
from extremal_lie.realizations import (ClassicalAlgebra, MatrixLieAlgebra,
                                       build_generators, classical_algebra,
                                       lie_closure)

F = PrimeField(DEFAULT_PRIME)
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def closures(monkeypatch):
    """The argument lists of every closure grown from here on: every
    `lie_closure` grows one with `linalg.bracket_closure`."""
    calls = []
    grow = linalg.bracket_closure
    monkeypatch.setattr(linalg, "bracket_closure",
                        lambda *a: calls.append(a) or grow(*a))
    return calls


def realization(family, n, field=F, params=()):
    """The generators of the family realization as payload rows."""
    mats, _ = build_generators(family, n, field,
                               tuple(field(p) for p in params))
    return MatrixLieAlgebra(field, len(mats[0]), mats).generators_list


def with_entry(m, i, j, value):
    """The payload rows m with entry (i, j) set to the payload value."""
    rows = [dict(row) for row in m]
    rows[i][j] = value
    return tuple(rows)


DIFFERENTIAL = ([("A", n, (), F) for n in (4, 5, 6, 7)]
                + [("C", n, (), F) for n in (4, 6, 8)]
                + [("B", n, (2,), F) for n in (5, 6, 7)]
                + [("D", n, (2, 3), F) for n in (5, 6, 7)]
                + [("A", 5, (), QQ), ("C", 6, (), QQ),
                   ("D", 5, (2, 3), QQ)])


@pytest.mark.parametrize("family,n,params,field", DIFFERENTIAL,
                         ids=lambda v: str(v))
def test_catalog_closure_is_lie_closure(family, n, params, field,
                                        closures):
    """The proved closure has `lie_closure`'s dimension, the catalog
    size, and every basis element of either closure lies in the span of
    the catalog images; no closure is grown to get it."""
    mats, _ = build_generators(family, n, field,
                               tuple(field(p) for p in params))
    closure, span = catalog_closure(family, field, mats)
    assert not closures and isinstance(closure, ClassicalAlgebra)
    grown = lie_closure(mats, field)
    assert not closures
    assert closure.dim == grown.dim == span.rank == expected_catalog_size(
        family, n)
    assert all(span.contains(grown.vector(b)) for b in grown.basis())
    assert all(span.contains(closure.vector(b)) for b in closure.basis())
    assert len(closures) == 1


CONTEXTS = [("A", 5, ()), ("C", 6, ()), ("B", 5, (1,)), ("D", 5, (2, 3))]


@pytest.mark.parametrize("family,n,params", CONTEXTS,
                         ids=[f"{f}{n}" for f, n, _ in CONTEXTS])
def test_a_matrix_context_grows_its_closure_once_on_first_read(
        family, n, params, closures):
    """A context made from generators grows nothing until its basis is
    read; its basis is then `linalg.bracket_closure` of the generators,
    element for element, and a second read grows nothing."""
    rows = realization(family, n, params=params)
    ref = MatrixLieAlgebra(F, len(rows[0]), rows)
    want = linalg.bracket_closure(F, ref.generators_list, ref.bracket,
                                  ref.vector, ref.vector_dim)
    ctx = MatrixLieAlgebra(F, len(rows[0]), rows)
    assert len(closures) == 1
    assert ctx.basis() == want and ctx.dim == len(want)
    assert ctx.basis() is ctx.basis() and len(closures) == 2


def test_a_context_of_generators_sweeps_its_closure():
    """`is_extremal` on a context made from the A5 generators sweeps the
    24 elements of their closure: each generator has a certificate of
    24 values, and x1 + x3 is refused."""
    rows = realization("A", 5)
    ctx = MatrixLieAlgebra(F, 5, rows)
    for g in rows:
        flag, cert = is_extremal(ctx, g)
        assert flag and len(cert.values) == 24
    assert is_extremal(ctx, ctx.lincomb([(1, rows[0]), (1, rows[2])])) == (
        False, None)


def test_passing_certify_family_grows_no_closure(closures):
    report = certify_family("D", 5, (2, 3), F)
    assert report.verdict == "pass" and report.dim == 45
    assert not closures


def test_a_match_of_lie_closure_sides_grows_no_closure(closures):
    """A5 against a conjugate and B5 gamma 1 against gamma 2, every side
    made by `lie_closure`: a match reads no basis, so it grows none."""
    mats, _ = build_generators("A", 5, F)
    alg = lie_closure(mats, F)
    conj = [exp_ad(alg, F(3), mats[0], g) for g in mats]
    conj = [exp_ad(alg, F(-2), mats[2], g) for g in conj]
    cert = match_algebras(alg, mats, lie_closure(conj, F), conj, "A")
    assert cert.verdict == "pass"
    b1, b2 = (build_generators("B", 5, F, (F(g),))[0] for g in (1, 2))
    cert = match_algebras(lie_closure(b1, F), b1, lie_closure(b2, F), b2, "B")
    assert cert.verdict == "pass"
    assert not closures


def test_failing_realization_reports_its_true_dimension(closures):
    """D5 (1,3) over QQ leaves the open conditions' generic locus: its
    catalog images span 34 of 45 dimensions, so the closure is a proper
    subalgebra of o(G), and the report's dimension is the catalog rank,
    with no closure grown (`lie_closure` finds 34 too, see
    `test_catalog_rank_is_the_grown_dimension_on_failing_points`).  The
    digest is the report's from when the closure was still grown."""
    report = certify_family("D", 5, (1, 3), QQ)
    assert not closures
    assert report.verdict == "fail"
    assert (report.dim, report.catalog_rank, report.dim_expected) == (
        34, 34, 45)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "6b999667e0bbe629796bee077a3b08934879cc0c3983f9a82e5701a1a72ff4ca")


@pytest.mark.parametrize("family,n,params,want", [
    ("A", 5, (), 24), ("C", 6, (), 21), ("B", 5, (1,), 36),
    ("D", 5, (2, 3), 45)], ids=lambda v: str(v))
def test_classical_dim_of_the_realizations(family, n, params, want):
    rows = realization(family, n, params=params)
    assert classical_algebra(family, F, rows).dim == want


def _perturbed_generator():
    rows = list(realization("D", 5, params=(2, 3)))
    # x_1 + E_00: X^T G + G X gains G_05 at (0, 5)
    rows[0] = with_entry(rows[0], 0, 0, rows[0][0].get(0, 0) + 1)
    return "D", rows


def _traceful_generator():
    rows = list(realization("A", 5))
    rows[2] = with_entry(rows[2], 4, 4, 1)
    return "A", rows


def _form_as(family, source, n, params=()):
    """The generators of `source`'s realization at rank n, checked as
    those of `family`."""
    return family, realization(source, n, params=params)


@pytest.mark.parametrize("case", [
    _perturbed_generator, _traceful_generator,
    lambda: _form_as("D", "C", 6), lambda: _form_as("C", "D", 6, (2, 3)),
    lambda: _form_as("B", "D", 5, (2, 3)),
    lambda: _form_as("D", "B", 5, (1,))],
    ids=["generator-leaves-o(G)", "A-generator-with-trace",
         "alternating-Gram-as-D", "symmetric-Gram-as-C", "D5-as-B",
         "B5-as-D"])
def test_classical_dim_refuses_bad_input(case):
    """Each case fails exactly one of the checks: X^T G + G X = 0 for
    the family's standard form G, the trace, or the parity of N.  C6's
    generators preserve an alternating form, not D's symmetric one on
    F^6, and D6's a symmetric one, not C's alternating one on F^12; D5
    acts on F^10, where B has no form, and B5 on F^9, where D has
    none."""
    family, rows = case()
    assert classical_algebra(family, F, rows) is None


def test_a_refused_bound_raises(closures):
    """The catalog images of the perturbed D5 generators are still 45
    independent elements, but no o(G) holds the perturbed generator,
    so the closure is refused, with the check named, and none grown."""
    family, rows = _perturbed_generator()
    with pytest.raises(ValueError, match="^D5: no classical algebra holds "
                       "the generators"):
        catalog_closure(family, F, rows)
    assert not closures


def test_a_bound_above_the_catalog_size_raises(closures):
    """A5's first four generators checked as A4's: they lie in sl_5, of
    dimension 24, but A4's catalog has 15 monomials, so the classical
    algebra bounds the closure by 24 only, and the closure is refused.
    D5's generators checked against the B5 catalog act on F^10, where B
    has no form, so no classical algebra holds them."""
    rows = realization("A", 5)[:4]
    assert classical_algebra("A", F, rows).dim == 24
    with pytest.raises(ValueError, match="^A4: the classical algebra has "
                       "dimension 24, not the catalog size 15$"):
        catalog_closure("A", F, rows)
    with pytest.raises(ValueError, match="^B5: no classical algebra holds "
                       "the generators"):
        catalog_closure("B", F, realization("D", 5, params=(2, 3)))
    assert not closures


def test_the_bound_is_checked_under_python_O():
    """`python -O` strips assert statements; the perturbed generator is
    still refused."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_closure_proof as t\n"
        "from extremal_lie import certify\n"
        "family, rows = t._perturbed_generator()\n"
        "try:\n"
        "    certify.catalog_closure(family, t.F, rows)\n"
        "except ValueError as exc:\n"
        "    print(sys.flags.optimize, exc)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-O", "-c", script,
                          str(Path(__file__).parent)],
                         capture_output=True, text=True, env=env,
                         timeout=300, check=True).stdout
    assert out.startswith("1 D5: no classical algebra holds the generators")


def _failing_points():
    """Every (alpha, beta) of D5 and D6 over GF(7) whose catalog rank
    is below the catalog size (34 of 45, 50 of 66; the others of the
    49 pass or are refused), then D5 (1,3) and D6 (1,3) over QQ, as
    (n, field, params)."""
    gf7 = PrimeField(7)
    points = [(5, gf7, (1, 3)), (5, gf7, (2, 1)), (5, gf7, (3, 1)),
              (5, gf7, (4, 1)), (5, gf7, (6, 3)), (6, gf7, (1, 3)),
              (6, gf7, (3, 1)), (6, gf7, (6, 1)), (6, gf7, (6, 3))]
    return points + [(5, QQ, (1, 3)), (6, QQ, (1, 3))]


@pytest.mark.parametrize("n,field,params", _failing_points(),
                         ids=lambda v: str(v))
def test_catalog_rank_is_the_grown_dimension_on_failing_points(
        n, field, params):
    """Where the catalog rank is below the catalog size, the closure
    `lie_closure` grows has that rank as its dimension (the filtration
    lemma quoted at `catalog_closure`), and the classical algebra's
    extremality rule gives the `is_extremal` sweep's flags over the
    grown basis."""
    mats, _ = build_generators("D", n, field,
                               tuple(field(p) for p in params))
    classical, span = catalog_closure("D", field, mats)
    assert span.rank < expected_catalog_size("D", n)
    grown = lie_closure(mats, field)
    assert span.rank == grown.dim
    assert [classical.extremal(g) for g in grown.generators_list] == [
        is_extremal(grown, g)[0] for g in grown.generators_list]
