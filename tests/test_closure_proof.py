"""The family closure read from the catalog and the form
(`certify.catalog_closure`): the catalog images bound the closure's
dimension from below and the classical algebra of the realization's
traces or form (`realizations.classical_algebra`) from above.  The
closure's dimension is the catalog rank, and its context is that
classical algebra, on passing and failing points alike; generators
the classical bound refuses are refused.  No closure is grown:
`lie_closure` is only the reference these tests compare with."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extremal_lie import linalg
from extremal_lie.certify import catalog_closure, certify_family
from extremal_lie.extremal import is_extremal
from extremal_lie.fields import DEFAULT_PRIME, PrimeField, QQ
from extremal_lie.graphs import expected_catalog_size
from extremal_lie.realizations import (BilinearForm, ClassicalAlgebra,
                                       MatrixLieAlgebra, build_generators,
                                       classical_algebra, lie_closure,
                                       orthogonal_form_even)

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
    """(rows, extra): the generators as payload rows, and the extra
    `build_generators` returns with them."""
    mats, extra = build_generators(family, n, field,
                                   tuple(field(p) for p in params))
    rows = MatrixLieAlgebra(field, len(mats[0]), [], mats).generators_list
    return rows, extra


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
    mats, extra = build_generators(family, n, field,
                                   tuple(field(p) for p in params))
    closure, span = catalog_closure(family, n, field, mats, extra)
    assert not closures and isinstance(closure, ClassicalAlgebra)
    grown = lie_closure(mats, field)
    assert len(closures) == 1
    assert closure.dim == grown.dim == span.rank == expected_catalog_size(
        family, n)
    assert all(span.contains(grown.vector(b)) for b in grown.basis())
    assert all(span.contains(closure.vector(b)) for b in closure.basis())


def test_passing_certify_family_grows_no_closure(closures):
    report = certify_family("D", 5, (2, 3), F)
    assert report.verdict == "pass" and report.dim == 45
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
    rows, extra = realization(family, n, params=params)
    assert classical_algebra(family, F, rows, extra).dim == want


def _perturbed_generator():
    rows, extra = realization("D", 5, params=(2, 3))
    # x_1 + E_00: X^T G + G X gains G_05 at (0, 5)
    rows = list(rows)
    rows[0] = with_entry(rows[0], 0, 0, rows[0][0].get(0, 0) + 1)
    return "D", rows, extra


def _traceful_generator():
    rows, extra = realization("A", 5)
    rows = list(rows)
    rows[2] = with_entry(rows[2], 4, 4, 1)
    return "A", rows, extra


def _form_as(family, source, params=()):
    """The generators and form of `source`'s realization at n = 6,
    checked as those of `family`."""
    rows, extra = realization(source, 6, params=params)
    return family, rows, extra


def _zero_form():
    rows, extra = realization("D", 5, params=(2, 3))
    return "D", rows, (BilinearForm(F, 10, {}),) + extra[1:]


def _form_of_another_size():
    rows, extra = realization("D", 5, params=(2, 3))
    return "D", rows, (orthogonal_form_even(F, 4),) + extra[1:]


@pytest.mark.parametrize("case", [
    _perturbed_generator, _traceful_generator,
    lambda: _form_as("D", "C"), lambda: _form_as("C", "D", (2, 3)),
    _zero_form, _form_of_another_size],
    ids=["generator-leaves-o(G)", "A-generator-with-trace",
         "alternating-Gram-as-D", "symmetric-Gram-as-C", "zero-Gram",
         "Gram-of-another-size"])
def test_classical_dim_refuses_bad_input(case):
    """Each case fails exactly one of the checks: X^T G + G X = 0, the
    trace, the symmetry of G (the C form is a non-degenerate invariant
    alternating form, so only its symmetry is wrong for D, and the D
    form's only fault for C is that it is not alternating), the rank
    of G (the zero form is symmetric and every X preserves it), and the
    size of G."""
    family, rows, extra = case()
    assert classical_algebra(family, F, rows, extra) is None


def test_a_refused_bound_raises(closures):
    """The catalog images of the perturbed D5 generators are still 45
    independent elements, but no o(G) holds the perturbed generator,
    so the closure is refused, with the check named, and none grown."""
    family, rows, extra = _perturbed_generator()
    with pytest.raises(ValueError, match="^D5: no classical algebra holds "
                       "the generators"):
        catalog_closure(family, 5, F, rows, extra)
    assert not closures


def test_a_bound_above_the_catalog_size_raises(closures):
    """D5's generators checked against the B5 catalog: the 36 images are
    independent, as many as B5's catalog has, but the form bounds the
    closure by 45 only, so the closure is refused."""
    rows, extra = realization("D", 5, params=(2, 3))
    assert classical_algebra("B", F, rows, extra).dim == 45
    with pytest.raises(ValueError, match="^B5: the classical algebra has "
                       "dimension 45, not the catalog size 36$"):
        catalog_closure("B", 5, F, rows, extra)
    assert not closures


def test_the_bound_is_checked_under_python_O():
    """`python -O` strips assert statements; the perturbed generator is
    still refused."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_closure_proof as t\n"
        "from extremal_lie import certify\n"
        "family, rows, extra = t._perturbed_generator()\n"
        "try:\n"
        "    certify.catalog_closure(family, 5, t.F, rows, extra)\n"
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
    mats, extra = build_generators("D", n, field,
                                   tuple(field(p) for p in params))
    classical, span = catalog_closure("D", n, field, mats, extra)
    assert span.rank < expected_catalog_size("D", n)
    grown = lie_closure(mats, field)
    assert span.rank == grown.dim
    assert [classical.extremal(g) for g in grown.generators_list] == [
        is_extremal(grown, g)[0] for g in grown.generators_list]
