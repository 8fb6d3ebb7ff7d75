"""Cross-field differential tests: reduction mod p as an oracle.

Reduction mod p is a ring map from the rationals whose denominators are
prime to p onto GF(p).  The realizations and the presentation are built
from integer data by field operations alone, so for the same integer
parameters every value over GF(p) is the reduction of the one over Q:
the form values psi of the raw generators, and the dimension of
L(Gamma, 0), whose relations have integer coefficients.  D takes the
same special-vector root on both sides: the coordinate B(t, v_3) that Q
chose is passed to GF(p) through `force_special_c`.  A point GF(p)
refuses, its open conditions failing mod p, is skipped.
"""

import pytest

from extremal_lie.certify import psi
from extremal_lie.fields import PrimeField, QQ
from extremal_lie.graphs import FAMILY_MIN_N, build_family_graph
from extremal_lie.presentation import build_L0
from extremal_lie.realizations import (InvalidParameters, MatrixLieAlgebra,
                                       build_generators,
                                       derive_special_vector, generators_D)

PRIMES = (7, 11, 13, 2147483629)

#: A, B and C at n = 4-7 (C at even n only), D at odd n
POINTS = ([("A", n, ()) for n in range(4, 8)]
          + [("B", n, (g,)) for n in range(5, 8) for g in (1, 2)]
          + [("C", n, ()) for n in (4, 6)]
          + [("D", n, ab) for n in (5, 7) for ab in ((2, 3), (4, 8))])


def _raw_psi(family, n, field, params, special_c=None):
    """psi of the raw generators, read in a generators-only context."""
    params = tuple(field(x) for x in params)
    if family == "D":
        mats, _ = generators_D(n, field, *params, force_special_c=special_c)
    else:
        mats, _ = build_generators(family, n, field, params)
    return psi(family, MatrixLieAlgebra(field, len(mats[0]), [], mats),
               mats).values


def _special_c(n, params):
    """B(t, v_3) of the special vector t that D chooses over Q."""
    alpha, beta = (QQ(x) for x in params)
    t = derive_special_vector(n, beta, QQ, alpha)
    _, (form, lines) = generators_D(n, QQ, alpha, beta)
    return form.apply(t, lines[2][1])


@pytest.mark.parametrize("family,n,params", POINTS,
                         ids=[f"{f}{n}-{p}" for f, n, p in POINTS])
def test_psi_over_gf_p_is_psi_over_q_reduced(family, n, params):
    special_c = _special_c(n, params) if family == "D" else None
    over_q = _raw_psi(family, n, QQ, params, special_c)
    checked = 0
    for p in PRIMES:
        gf = PrimeField(p)
        try:
            over_p = _raw_psi(family, n, gf, params, None if special_c is None
                              else gf.coerce(special_c.v))
        except InvalidParameters:
            continue
        assert [v.v for v in over_p] == [gf.coerce(v.v) for v in over_q], p
        checked += 1
    assert checked >= len(PRIMES) - 1


def test_d7_4_8_is_refused_at_p_13():
    """The skip is real: lambda * (2 - beta + lambda * beta) = 1 holds
    mod 13 at D7 (4,8), which Q accepts."""
    gf = PrimeField(13)
    with pytest.raises(InvalidParameters):
        _raw_psi("D", 7, gf, (4, 8), gf.coerce(_special_c(7, (4, 8)).v))


GRAPHS = [(f, n) for f in "ABCD" for n in range(FAMILY_MIN_N[f], 7)]


@pytest.mark.parametrize("family,n", GRAPHS,
                         ids=[f"{f}{n}" for f, n in GRAPHS])
def test_presentation_dimension_is_the_same_over_gf_p_and_q(family, n):
    graph = build_family_graph(family, n)
    over_q = build_L0(graph, QQ)
    for p in PRIMES:
        over_p = build_L0(graph, PrimeField(p))
        assert (over_p.dim, over_p.degrees) == (over_q.dim, over_q.degrees), p
