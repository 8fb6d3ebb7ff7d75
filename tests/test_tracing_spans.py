"""The benchmark's tracer (perfbench/tracing.py) wraps package entry
points by name, and a name that no longer resolves only shows up as a
per-layer metric stuck at zero.  These checks keep the tracer's view of
the package whole: every span it names resolves to a callable, except
`certify._verify_table`, which the package no longer has, and a match
runs through the spans of its stages.  The tracer file is only read."""

import importlib.util
from pathlib import Path

import extremal_lie as lib

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: spans the tracer names that the package no longer has
KNOWN_MISSING = ["certify.verify_table"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_span_resolves_in_the_package():
    found = {name: tracing._resolve(module, path)
             for name, (module, path) in tracing.SPANS.items()}
    assert [name for name, hit in found.items() if hit is None] == \
        KNOWN_MISSING
    assert all(callable(hit[2]) for hit in found.values() if hit)


def test_a_match_runs_through_the_traced_stages():
    """Normalisation, form values, the triangle fix and its shift, and
    the model rebuild of a B5 gamma 1 vs 2 match are each a traced call
    of the package, not inlined away."""
    field = lib.PrimeField(lib.DEFAULT_PRIME)
    sides = []
    for gamma in (1, 2):
        mats, _ = lib.build_generators("B", 5, field, (field(gamma),))
        sides += [lib.lie_closure(mats, field), mats]
    tracer = tracing.Tracer()
    with tracer.installed():
        cert = lib.match_algebras(*sides, "B")
    assert cert.verdict == "pass"
    assert tracer.missing == ["certify._verify_table"]
    names = {span[3] for span in tracer.spans}
    assert {"certify.match_algebras", "certify.normalize_generators",
            "certify.psi", "certify.rebuild_model", "extremal.fixtriangle",
            "extremal.exp_ad", "extremal.extremal_form_value",
            "linalg.mat_bracket"} <= names
