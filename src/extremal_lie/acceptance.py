"""Desk-scale acceptance suite.

Ten numbered criteria exercise the full pipeline end to end: abstract
presentations, matrix realizations, graph and catalog checks, identity
sampling, pair classification, the exponential action law, triangle
normalisation, isomorphism matching, and the parameter solvers.  Each
criterion returns a small result dict; `run_all` executes them in order
and is the single entry point used by both the command-line `selftest`
and the test suite.

All computation is exact; randomness is driven by a single seeded
generator so every run with the same seed is bit-identical.  A
realization's closure is its classical algebra (`certify.catalog_closure`);
the conjugated matches and the B parameter round trips use matrix
contexts made from generators, which grow their closure on the first
read of a basis, and read none.
"""

import random
import time

from . import certify, linalg
from .extremal import (check_premet, classify_pair, exp_ad, fixtriangle,
                       is_extremal, extremal_form_value,
                       subalgebra_closure_dim, triangle_open)
from .fields import DEFAULT_PRIME, PrimeField, QQ
from .graphs import build_family_graph, expected_catalog_size
from .presentation import build_L0, evaluate_monomial
from .realizations import (MatrixLieAlgebra, basis_vector, build_generators,
                           classify_siegel_pair, classify_transvection_pair,
                           exp_siegel_action, orthogonal_form_even,
                           orthogonal_form_odd, siegel, symplectic_form,
                           symplectic_transvection, transvection)

#: the realization cases shared by criteria 2, 3 and 4
REALIZATION_CASES = (
    ("C", 6, (), 21),
    ("A", 5, (), 24),
    ("B", 5, (1,), 36),
    ("B", 6, (1,), 55),
    ("D", 5, (2, 3), 45),
    ("D", 6, (2, 3), 66),
)


def _field():
    return PrimeField(DEFAULT_PRIME)


def _closure(shared, family, n, params):
    """(closure, generators, catalog span): `certify.catalog_closure`,
    built once per realization."""
    key = (family, n, params)
    if key not in shared:
        F = shared["field"]
        mats, _ = build_generators(family, n, F, tuple(F(p) for p in params))
        alg, span = certify.catalog_closure(family, F, mats)
        shared[key] = (alg, alg.generators_list, span)
    return shared[key]


def _result(number, name, passed, detail, t0):
    return {"criterion": number, "name": name,
            "passed": bool(passed), "detail": detail,
            "seconds": round(time.time() - t0, 1)}


def criterion_1(rng, shared):
    """Abstract presentation dimensions over the rationals."""
    t0 = time.time()
    cases = (("D", 5, 45), ("B", 5, 36), ("A", 5, 24),
             ("C", 4, 10), ("C", 6, 21))
    got = []
    for family, n, want in cases:
        L = build_L0(build_family_graph(family, n), QQ)
        got.append((family, n, L.dim, want))
    passed = all(d == w for _, _, d, w in got)
    detail = ", ".join(f"{f}{n}:{d}/{w}" for f, n, d, w in got)
    return _result(1, "presentation dimensions", passed, detail, t0)


def criterion_2(rng, shared):
    """Matrix realization closure dimensions over GF(p)."""
    t0 = time.time()
    got = []
    for family, n, params, want in REALIZATION_CASES:
        _, _, span = _closure(shared, family, n, params)
        got.append((family, n, span.rank, want))
    passed = all(d == w for _, _, d, w in got)
    detail = ", ".join(f"{f}{n}:{d}/{w}" for f, n, d, w in got)
    return _result(2, "realization dimensions", passed, detail, t0)


def criterion_3(rng, shared):
    """Commutation pattern equals the family graph; every generator is
    extremal with a full certificate."""
    t0 = time.time()
    bad = []
    for family, n, params, _ in REALIZATION_CASES:
        alg, mats, _ = _closure(shared, family, n, params)
        certs = [is_extremal(alg, g) for g in mats]
        ok, witnesses = certify.graph_realization_check(
            alg, mats, build_family_graph(family, n),
            [flag for flag, _ in certs])
        if not ok:
            bad.append(f"{family}{n}: {witnesses}")
        for i, (flag, cert) in enumerate(certs, start=1):
            if not flag or cert is None or len(cert.values) != alg.dim:
                bad.append(f"{family}{n}: generator {i} certificate")
    detail = "; ".join(bad) if bad else f"{len(REALIZATION_CASES)} cases"
    return _result(3, "graph realization", not bad, detail, t0)


def criterion_4(rng, shared):
    """Catalog images have full rank and span 100 random monomials."""
    t0 = time.time()
    bad = []
    for family, n, params, _ in REALIZATION_CASES:
        alg, mats, span = _closure(shared, family, n, params)
        want = expected_catalog_size(family, n)
        if span.rank != want:
            bad.append(f"{family}{n}: rank {span.rank} != {want}")
        for _ in range(100):
            k = rng.randint(1, 2 * n - 3)
            idx = tuple([rng.randint(1, n) for _ in range(k)])
            img = evaluate_monomial(alg.bracket, mats, idx)
            if not span.contains(alg.vector(img)):
                bad.append(f"{family}{n}: monomial {idx} outside span")
                break
    detail = "; ".join(bad) if bad else "all ranks exact, 600 samples"
    return _result(4, "catalog basis", not bad, detail, t0)


def criterion_5(rng, shared):
    """100 sampled instances each of P1, P2, P5, AS and SM in the
    special linear (sl_5) and even orthogonal (o_10) realizations."""
    t0 = time.time()
    counts = {k: 0 for k in ("P1", "P2", "P5", "AS", "SM")}
    tried = 0
    for family, n, params in (("A", 5, ()), ("D", 5, (2, 3))):
        alg, mats, _ = _closure(shared, family, n, params)
        for _ in range(100):
            x = mats[rng.randrange(n)]
            y = certify._random_element(alg, rng)
            z = certify._random_element(alg, rng)
            flags = check_premet(alg, x, y, z)
            tried += 1
            for k, v in flags.items():
                counts[k] += v
    passed = all(v == tried for v in counts.values())
    detail = ", ".join(f"{k}:{v}/{tried}" for k, v in counts.items())
    return _result(5, "form identities", passed, detail, t0)


def _random_transvection(rng, F, dim):
    while True:
        x = [F(rng.randint(-4, 4)) for _ in range(dim)]
        h = [F(rng.randint(-4, 4)) for _ in range(dim)]
        j = next((i for i, c in enumerate(x) if not c.is_zero()), None)
        if j is None:
            continue
        c = linalg.dot(h, x) / x[j]
        h = [hi - c if i == j else hi for i, hi in enumerate(h)]
        if any(not hi.is_zero() for hi in h):
            return x, h


def _siegel_line_pool(F, dim, k):
    e = lambda i: basis_vector(F, dim, i - 1)
    f = lambda i: basis_vector(F, dim, k + i - 1)
    pool = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            pool.append((e(i), e(j)))
            pool.append((f(i), f(j)))
            pool.append((e(i), f(j)))
            pool.append((e(j), f(i)))
    return pool


def _random_siegel_line(rng, form, pool):
    line = pool[rng.randrange(len(pool))]
    for _ in range(rng.randint(1, 3)):
        by = pool[rng.randrange(len(pool))]
        t = form.field(rng.randint(-3, 3))
        line = exp_siegel_action(form, t, by, line)
    return line


def criterion_6(rng, shared):
    """Geometric and algebraic pair classifications agree; the
    symplectic algebra has no Heisenberg pairs; the crossing-line
    construction yields Heisenberg pairs in both orthogonal types."""
    t0 = time.time()
    F = shared["field"]
    bad = []

    sl5, _, _ = _closure(shared, "A", 5, ())
    for _ in range(200):
        x, h = _random_transvection(rng, F, 5)
        y, k = _random_transvection(rng, F, 5)
        geo = classify_transvection_pair(x, h, y, k)
        alg = classify_pair(sl5, transvection(x, h), transvection(y, k))
        if geo != alg:
            bad.append(f"transvection pair: {geo} vs {alg}")
            break

    o10, _, _ = _closure(shared, "D", 5, (2, 3))
    form10 = orthogonal_form_even(F, 5)
    pool10 = _siegel_line_pool(F, 10, 5)
    for _ in range(200):
        l1 = _random_siegel_line(rng, form10, pool10)
        l2 = _random_siegel_line(rng, form10, pool10)
        geo = classify_siegel_pair(form10, l1, l2)
        alg = classify_pair(o10, siegel(form10, *l1), siegel(form10, *l2))
        if geo != alg:
            bad.append(f"siegel pair: {geo} vs {alg}")
            break

    sp6, _, _ = _closure(shared, "C", 6, ())
    form6 = symplectic_form(F, 3)
    heis = 0
    for _ in range(200):
        ys = []
        while len(ys) < 2:
            y = [F(rng.randint(-4, 4)) for _ in range(6)]
            if any(not c.is_zero() for c in y):
                ys.append(y)
        kind = classify_pair(sp6, symplectic_transvection(form6, ys[0]),
                             symplectic_transvection(form6, ys[1]))
        heis += kind == "Heisenberg"
    if heis:
        bad.append(f"symplectic Heisenberg pairs: {heis}")

    # two isotropic lines meeting nothing, with exactly one perpendicular
    # point: <e1,e2> and <e3,f1> give a Heisenberg pair
    o9, _, _ = _closure(shared, "B", 5, (1,))
    for label, ctx, formx, dim, k in (("o10", o10, form10, 10, 5),
                                      ("o9", o9, orthogonal_form_odd(F, 4),
                                       9, 4)):
        l1 = (basis_vector(F, dim, 0), basis_vector(F, dim, 1))
        l2 = (basis_vector(F, dim, 2), basis_vector(F, dim, k))
        geo = classify_siegel_pair(formx, l1, l2)
        alg = classify_pair(ctx, siegel(formx, *l1), siegel(formx, *l2))
        if geo != "Heisenberg" or alg != "Heisenberg":
            bad.append(f"{label} crossing lines: {geo}/{alg}")

    detail = "; ".join(bad) if bad else "600 pairs, 2 constructions"
    return _result(6, "pair classification", not bad, detail, t0)


def criterion_7(rng, shared):
    """exp(t ad T_{u,v}) T_{w,x} = T_{w + t T w, x + t T x} on 100
    random instances."""
    t0 = time.time()
    F = shared["field"]
    o10, _, _ = _closure(shared, "D", 5, (2, 3))
    form = orthogonal_form_even(F, 5)
    pool = _siegel_line_pool(F, 10, 5)
    passed = 0
    for _ in range(100):
        uv = _random_siegel_line(rng, form, pool)
        wx = _random_siegel_line(rng, form, pool)
        t = F(rng.randint(-5, 5))
        lhs = exp_ad(o10, t, siegel(form, *uv), siegel(form, *wx))
        rhs = siegel(form, *exp_siegel_action(form, t, uv, wx))
        passed += lhs == o10.element(rhs)
    return _result(7, "exponential action law", passed == 100,
                   f"{passed}/100", t0)


def criterion_8(rng, shared):
    """Triangle normalisation contract on 50 random triples in sl_5,
    plus the pipeline instance with its recorded shift s = alpha/4."""
    t0 = time.time()
    F = shared["field"]
    sl5, _, _ = _closure(shared, "A", 5, ())
    done = 0
    bad = []
    while done < 50:
        mats = [transvection(*_random_transvection(rng, F, 5))
                for _ in range(3)]
        x, y, z = mats
        fxy = extremal_form_value(sl5, x, y)
        fyz = extremal_form_value(sl5, y, z)
        fxz = extremal_form_value(sl5, x, z)
        fxyz = extremal_form_value(sl5, x, sl5.bracket(y, z))
        if fxy.is_zero() or fyz.is_zero():
            continue
        if not triangle_open(fxy, fxz, fyz, fxyz):
            continue
        # the product of targets must differ from f(x,y) f(x',z) f(y,z)
        # by a square; choosing that product itself keeps every scaling
        # radicand a perfect square, so no field extension is needed
        fxzh = fxz - fxyz * fxyz / (2 * fxy * fyz)
        targets = (fxy * fxzh * fyz, F(1), F(1))
        before = subalgebra_closure_dim(sl5, [x, y, z])
        xt, yt, zt, _ = fixtriangle(sl5, x, y, z, targets)
        quad = (extremal_form_value(sl5, xt, yt),
                extremal_form_value(sl5, xt, zt),
                extremal_form_value(sl5, yt, zt),
                extremal_form_value(sl5, xt, sl5.bracket(yt, zt)))
        if quad != (targets[0], targets[1], targets[2], F(0)):
            bad.append(f"quadruple {tuple(str(q) for q in quad)}")
            break
        if subalgebra_closure_dim(sl5, [xt, yt, zt]) != before:
            bad.append("closure dimension changed")
            break
        done += 1

    # the D5 triangle needs a root outside GF(p): over a scaled context
    # the root is adjoined and the shift stays in GF(p)
    alpha = F(2)
    o10, mats, _ = _closure(shared, "D", 5, (2, 3))
    ctx = certify.ScaledContext(o10)
    _, _, _, s = fixtriangle(
        ctx, mats[0], mats[1], mats[2], (F(-8), F(1), F(2)),
        sqrt=lambda c: ctx.root(c, "criterion 8"))
    if s != alpha / 4:
        bad.append(f"pipeline shift {s} != alpha/4")

    detail = "; ".join(bad) if bad else f"{done} triples, shift alpha/4"
    return _result(8, "triangle normalisation", not bad, detail, t0)


def criterion_9(rng, shared):
    """Isomorphism matching: two parameter pairs in each of the two
    parametrised families, and conjugated copies of the others."""
    t0 = time.time()
    F = shared["field"]
    bad = []

    for family, n, p1, p2 in (("D", 5, (2, 3), (4, 8)),
                              ("B", 6, (1,), (2,))):
        a1, g1, _ = _closure(shared, family, n, p1)
        a2, g2, _ = _closure(shared, family, n, p2)
        try:
            cert = certify.match_algebras(a1, g1, a2, g2, family)
            if cert.verdict != "pass" or cert.pairs_checked != \
                    cert.dim * (cert.dim - 1) // 2:
                bad.append(f"{family}{n}: {cert.verdict}")
        except certify.CertifyError as exc:
            bad.append(f"{family}{n}: {exc}")

    for family, n in (("A", 5), ("C", 6)):
        a1, g1, _ = _closure(shared, family, n, ())
        conj = [exp_ad(a1, F(3), g1[0], g) for g in g1]
        conj = [exp_ad(a1, F(-2), g1[2], g) for g in conj]
        N = a1.ambient_dim
        try:
            cert = certify.match_algebras(
                MatrixLieAlgebra(F, N, g1), g1,
                MatrixLieAlgebra(F, N, conj), conj, family)
            if cert.verdict != "pass":
                bad.append(f"{family}{n} conjugated: {cert.verdict}")
        except certify.CertifyError as exc:
            bad.append(f"{family}{n} conjugated: {exc}")

    detail = "; ".join(bad) if bad else "4 certificates"
    return _result(9, "isomorphism matching", not bad, detail, t0)


def criterion_10(rng, shared):
    """Parameter solver round trips and the special branch."""
    t0 = time.time()
    F = shared["field"]
    bad = []

    for gamma in (1, 2, 3):
        mats, _ = build_generators("B", 6, F, (F(gamma),))
        ctx, g = certify.normalize_generators(
            "B", MatrixLieAlgebra(F, len(mats[0]), mats), mats)
        f_long = certify.psi("B", ctx, g).values[-1]
        got = certify.solve_param_B(f_long, 6)
        if got != ctx.field(gamma):
            bad.append(f"B(6;{gamma}) -> {got}")

    for alpha, beta in ((2, 3), (4, 8)):
        for n in (5, 6):
            alg, mats, _ = _closure(shared, "D", n, (alpha, beta))
            ctx, g = certify.normalize_generators("D", alg, mats)
            vec = certify.psi("D", ctx, g)
            cands = certify.solve_params_D(
                vec.values[-1], vec.values[n - 4], n)
            if not cands:
                bad.append(f"D({n};{alpha},{beta}): no candidates")
                continue
            try:
                certify._rebuild_model(ctx.field, vec, F)
            except certify.CertifyError as exc:
                bad.append(f"D({n};{alpha},{beta}): {exc}")

    # special branch: odd n with f_long = 8 forces alpha = 0
    f_short = F(4)
    got = certify.solve_params_D(F(8), f_short, 5)
    want_beta = -1 - f_short * f_short / 16
    if got != [(F(0), want_beta)]:
        bad.append(f"special branch: {[(str(a), str(b)) for a, b in got]}")

    detail = "; ".join(bad) if bad else "3 + 4 round trips, special branch"
    return _result(10, "parameter solvers", not bad, detail, t0)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
            criterion_5, criterion_6, criterion_7, criterion_8,
            criterion_9, criterion_10)


def run_all(seed=0):
    """Run the acceptance criteria in order; returns the list of result
    dicts."""
    rng = random.Random(seed)
    shared = {"field": _field()}
    return [fn(rng, shared) for fn in CRITERIA]
