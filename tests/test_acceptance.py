"""The ten acceptance criteria, one test (and one pass/fail line) each.

The whole suite runs once through `extremal_lie.acceptance.run_all`
with a fixed seed; each test then reports and asserts its criterion and
its exact detail string at seed 0, so a change that alters what a
criterion counts or names shows here.  Run
`pytest -v tests/test_acceptance.py` for the per-criterion lines.  A
second run checks that the criteria grow no closure.
"""

import pytest

from extremal_lie import acceptance, certify, linalg, realizations
from extremal_lie.acceptance import CRITERIA, run_all

#: the detail string of each criterion under run_all(seed=0)
DETAILS = {
    1: "D5:45/45, B5:36/36, A5:24/24, C4:10/10, C6:21/21",
    2: "C6:21/21, A5:24/24, B5:36/36, B6:55/55, D5:45/45, D6:66/66",
    3: "6 cases",
    4: "all ranks exact, 600 samples",
    5: "P1:200/200, P2:200/200, P5:200/200, AS:200/200, SM:200/200",
    6: "600 pairs, 2 constructions",
    7: "100/100",
    8: "50 triples, shift alpha/4",
    9: "4 certificates",
    10: "3 + 4 round trips, special branch",
}


@pytest.fixture(scope="module")
def results():
    out = {r["criterion"]: r for r in run_all(seed=0)}
    assert len(out) == len(CRITERIA)
    return out


def _check(results, number):
    r = results[number]
    status = "pass" if r["passed"] else "FAIL"
    print(f"criterion {number} ({r['name']}): {status} -- {r['detail']} "
          f"[{r['seconds']}s]")
    assert r["passed"], f"criterion {number}: {r['detail']}"
    assert r["detail"] == DETAILS[number]


def test_criterion_01_presentation_dimensions(results):
    _check(results, 1)


def test_criterion_02_realization_dimensions(results):
    _check(results, 2)


def test_criterion_03_graph_realization(results):
    _check(results, 3)


def test_criterion_04_catalog_basis(results):
    _check(results, 4)


def test_criterion_05_form_identities(results):
    _check(results, 5)


def test_criterion_06_pair_classification(results):
    _check(results, 6)


def test_criterion_07_exponential_action_law(results):
    _check(results, 7)


def test_criterion_08_triangle_normalisation(results):
    _check(results, 8)


def test_criterion_09_isomorphism_matching(results):
    _check(results, 9)


def test_criterion_10_parameter_solvers(results):
    _check(results, 10)


def test_run_all_grows_no_closure(monkeypatch):
    """Every realization the criteria share is proved by
    `certify.catalog_closure` from its catalog and its form, so no
    closure is grown (`linalg.bracket_closure`, under `lie_closure`),
    and `lie_closure` is not imported back into the suite."""
    def refuse(*args):
        raise AssertionError("a closure grown")

    monkeypatch.setattr(linalg, "bracket_closure", refuse)
    monkeypatch.setattr(realizations, "lie_closure", refuse)
    for module in (certify, acceptance):
        assert not hasattr(module, "lie_closure")
    assert all(r["passed"] for r in run_all(seed=0))
