"""The classical algebra that holds a realization's closure
(`realizations.classical_algebra`): sl_N, o(G) or sp(G), the closure's
one Lie context.  Its extremality rule must agree with the
`is_extremal` sweep and refuse what it does not cover, its samples
(`certify._random_element` of it) must lie in the closure and take
exactly `dim` draws of the sampling stream, and its fixed form scale
must give the extremal functional of every generator, so that a wrong
scale fails a report.  No run grows a closure."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from extremal_lie import linalg, realizations
from extremal_lie.certify import (IDENTITY_SAMPLES, _random_element,
                                  catalog_closure, certify_family)
from extremal_lie.cli import main
from extremal_lie.extremal import is_extremal
from extremal_lie.fields import DEFAULT_PRIME, PrimeField, QQ
from extremal_lie.linalg import Rows
from extremal_lie.realizations import (ClassicalAlgebra, MatrixLieAlgebra,
                                       basis_vector, build_generators,
                                       siegel)

F = PrimeField(DEFAULT_PRIME)
SRC = Path(__file__).resolve().parent.parent / "src"
PARAMS = {"A": (), "C": (), "B": (2,), "D": (2, 3)}


def proved(family, n, field=F):
    """(closure, span) of the family realization, which must take the
    proof path: the closure is its `ClassicalAlgebra`."""
    params = tuple(field(p) for p in PARAMS[family])
    mats, _ = build_generators(family, n, field, params)
    closure, span = catalog_closure(family, field, mats)
    assert isinstance(closure, ClassicalAlgebra)
    return closure, span


def units(size, *entries):
    """The size x size payload rows with a 1 at each 0-based (i, j)."""
    rows = [{} for _ in range(size)]
    for i, j in entries:
        rows[i][j] = 1
    return Rows(rows)


def gl(size):
    """gl_N as a context: the basis E_ij, no generators."""
    return MatrixLieAlgebra(F, size, [units(size, (i, j))
                                      for i in range(size)
                                      for j in range(size)], [])


def d5_siegel(*pairs):
    """The sum of the Siegel elements T_{e_i, e_j} of D5's hyperbolic
    form, one for each 0-based pair (i, j): e_1..e_5 span a totally
    isotropic subspace, so orthogonal pairs give x^2 = 0 of rank 2 per
    pair."""
    closure = proved("D", 5)[0]
    form = build_generators("D", 5, F, (F(2), F(3)))[1][0]
    e = lambda i: basis_vector(F, 10, i)
    return closure.lincomb([(1, closure.element(siegel(form, e(i), e(j))))
                            for i, j in pairs])


def e13_e24_in_o():
    """E_13 + E_24 in gl_10: square-zero of rank 2, outside D5's o(G)."""
    return gl(10), proved("D", 5)[0], units(10, (0, 2), (1, 3))


def e13_e24_in_sp():
    """E_13 + E_24 in C4's sp(G): square-zero of rank 2, and in sp(G),
    where only rank 1 is extremal."""
    closure = proved("C", 4)[0]
    return closure, closure, units(4, (0, 2), (1, 3))


def e11():
    """E_11 in gl_4: rank 1, but not square-zero."""
    return gl(4), proved("A", 4)[0], units(4, (0, 0))


def siegel_in_o():
    closure = proved("D", 5)[0]
    return closure, closure, d5_siegel((0, 1))


def two_siegels_in_o():
    """T_{e1,e2} + T_{e3,e4}: square-zero of rank 4 in o(G)."""
    closure = proved("D", 5)[0]
    return closure, closure, d5_siegel((0, 1), (2, 3))


def generator(family, n, k):
    def case():
        closure = proved(family, n)[0]
        return closure, closure, closure.generators_list[k]
    return case


RULE_CASES = {
    "E13+E24-outside-o(G)": (e13_e24_in_o, False),
    "E13+E24-in-sp(G)": (e13_e24_in_sp, False),
    "E11-not-square-zero": (e11, False),
    "Siegel-element-of-o(G)": (siegel_in_o, True),
    "two-orthogonal-Siegel-elements": (two_siegels_in_o, False),
    "A5-transvection": (generator("A", 5, 2), True),
    "C6-transvection": (generator("C", 6, 1), True),
    "B5-generator": (generator("B", 5, 4), True),
}


@pytest.mark.parametrize("name", list(RULE_CASES))
def test_the_rule_agrees_with_the_sweep(name):
    """Each case fails exactly one of the rule's tests or passes all:
    the x^2 = 0 test (E11), the rank test (rank 4, and rank 2 in
    sp(G)) and the o(G) membership test (E13+E24 in gl_10).  The sweep
    runs in the algebra the case names: gl_N for an element outside
    the classical algebra, else the proved closure."""
    case, want = RULE_CASES[name]
    ctx, classical, x = case()
    assert is_extremal(ctx, x)[0] is want
    assert classical.extremal(x) is want


def test_the_rule_refuses_under_python_O():
    """`python -O` strips assert statements; the rule still refuses
    the elements it does not cover and proves a generator."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_classical as t\n"
        "flags = [c.extremal(x) for _, c, x in\n"
        "         (t.e13_e24_in_o(), t.e13_e24_in_sp(), t.e11(),\n"
        "          t.two_siegels_in_o(), t.siegel_in_o())]\n"
        "print(sys.flags.optimize, *map(int, flags))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-O", "-c", script,
                          str(Path(__file__).parent)],
                         capture_output=True, text=True, env=env,
                         timeout=300, check=True).stdout.split()
    assert list(map(int, out)) == [1, 0, 0, 0, 0, 1]


POINTS = ([("A", n) for n in range(4, 9)] + [("C", n) for n in (4, 6, 8)]
          + [("B", n) for n in range(5, 9)] + [("D", n) for n in range(5, 9)])


@pytest.mark.parametrize("field", [F, QQ], ids=["GF(p)", "QQ"])
@pytest.mark.parametrize("family,n", POINTS, ids=lambda v: str(v))
def test_samples_lie_in_the_closure(family, n, field):
    """20 draws each lie in the catalog span, which is the closure, and
    in the classical algebra."""
    closure, span = proved(family, n, field)
    rng = random.Random(n)
    for _ in range(20):
        x = _random_element(closure, rng)
        assert closure.holds(x)
        assert span.contains(closure.vector(x))


def _product(field, a, b):
    """The payload rows of the matrix product ab."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = field.add(acc.get(j, field.zero.v), field.mul(x, y))
        out.append({j: v for j, v in acc.items() if not field.is_zero(v)})
    return out


@pytest.mark.parametrize("field", [F, QQ], ids=["GF(p)", "QQ"])
@pytest.mark.parametrize("family,n", POINTS, ids=lambda v: str(v))
def test_a_sample_is_dim_draws_of_randint(family, n, field):
    """A draw takes exactly `dim` randint(-3, 3) values, and they are
    its free entries, row by row: the entries of a traceless matrix
    but the last diagonal one (A), or the entries A_ij, i < j (B, D)
    or i <= j (C), of G X = A, antisymmetric or symmetric."""
    classical = proved(family, n, field)[0]
    size = classical.ambient_dim
    rng, ref = random.Random(7), random.Random(7)
    x = _random_element(classical, rng)
    values = iter([field.coerce(ref.randint(-3, 3))
                   for _ in range(classical.dim)])
    assert rng.random() == ref.random()
    a = x if family == "A" else _product(field, classical.gram, x)
    for i in range(size):
        for j in range({"A": 0, "C": i}.get(family, i + 1), size):
            if family == "A" and i == j == size - 1:
                continue
            assert a[i].get(j, field.zero.v) == next(values)
    assert next(values, None) is None


@pytest.mark.parametrize("family,n,field", [
    ("A", 5, F), ("C", 6, F), ("B", 5, F), ("D", 5, F), ("D", 5, QQ)],
    ids=["A5", "C6", "B5", "D5", "D5-QQ"])
def test_the_proved_form_scale_is_the_calibrated_one(family, n, field):
    """The context's form, c * trace(ab) with c = -2 (A, C) or -1 (B, D),
    is the extremal functional of every generator x on every standard
    basis element b: form(x, b) = f_x(b), not all zero."""
    closure = proved(family, n, field)[0]
    pairs = [(x, b) for x in closure.generators_list
             for b in closure.basis()]
    values = [closure.form(x, b) for x, b in pairs]
    assert values == [closure.extremal_value(x, b) for x, b in pairs]
    assert any(not v.is_zero() for v in values)


def test_a_negated_form_scale_fails_the_report(monkeypatch):
    """With the B/D constant negated, f = +trace(ab), every identity
    but form(x, y) = f_x(y) still holds, as each is linear in the form
    on both sides; that check fails the premet tally, and the verdict."""
    monkeypatch.setitem(realizations.FORM_SCALE, "D", 1)
    report = certify_family("D", 5, (2, 3), F)
    assert report.verdict == "fail"
    assert report.identities["premet"]["passed"] < IDENTITY_SAMPLES
    assert report.identities["Q3a"]["passed"] == IDENTITY_SAMPLES
    assert (report.dim, report.catalog_rank) == (45, 45)


@pytest.fixture
def proof_only(monkeypatch):
    """Fail on a grown closure or a context made over a basis."""
    def refuse(*args):
        raise AssertionError("a grown closure on a certify run")

    init = MatrixLieAlgebra.__init__

    def init_without_basis(self, field, ambient_dim, basis, generators):
        assert not basis, "a context made over a basis"
        init(self, field, ambient_dim, basis, generators)

    monkeypatch.setattr(MatrixLieAlgebra, "__init__", init_without_basis)
    monkeypatch.setattr(linalg, "bracket_closure", refuse)


@pytest.mark.parametrize("family,n", [("A", 5), ("C", 6), ("B", 5),
                                      ("D", 5)], ids=["A5", "C6", "B5", "D5"])
def test_a_passing_run_calibrates_no_form(family, n, proof_only, capsys):
    """`certify_family` and `extremal-lie realize` pass on the classical
    algebra alone: no grown closure and no context over a catalog
    basis."""
    params = tuple(F(p) for p in PARAMS[family])
    assert certify_family(family, n, params, F).verdict == "pass"
    names = {"B": ("--gamma",), "D": ("--alpha", "--beta")}.get(family, ())
    argv = ["realize", "--family", family, "--n", str(n),
            "--field", "gf", str(DEFAULT_PRIME)]
    for name, value in zip(names, PARAMS[family]):
        argv += [name, str(value)]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("pass\n")
