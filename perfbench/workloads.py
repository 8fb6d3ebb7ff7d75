"""The benchmark's three workloads: seeded job lists and output checks.

A workload is a fixed list of jobs run one after another (a closed loop
with one client).  The seed only chooses among inputs of equal cost, so
timings from different seeds are comparable:

* ``present-qq``: graded presentations over the rationals.  The
  presentation has no parameters, so the seed changes nothing here.
* ``certify-gfp``: ``certify_family`` over GF(p); the seed is the
  sampling seed of the spanning and identity samples.
* ``match-gfp2``: isomorphism matching that ends over GF(p^2); the seed
  picks the conjugation scalars of the A5 job and the gamma pair of the
  B5 job from pools whose entries all cost the same.

Every job's output is checked for every seed.  Its digest must also
equal the one stored in ``reference.json`` at the default seed, and at
every seed for a workload whose inputs do not depend on the seed.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("present-qq", "certify-gfp", "match-gfp2")
# workloads whose inputs are the same for every seed
SEEDLESS = ("present-qq",)
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Conjugation scalars (s1, s2) of the A5 job: side 2 is side 1 moved by
# exp(s1 ad x1) and then exp(s2 ad x3).  Every pair ends over one
# quadratic extension of GF(p) at the same cost to within 0.3% of the
# field operations.  Entry 0 is criterion 9's pair.
A_SCALARS = ((3, -2), (2, 5), (-4, 7), (6, -5))

# (gamma1, gamma2) of the B5 job.  Every pair ends over one quadratic
# extension of GF(p), and every pair costs the same field operations to
# within 0.2%.  Entry 0 is the gamma pair criterion 9 matches at n = 6.
B_GAMMAS = ((1, 2), (1, 3), (1, 4), (1, 6))


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclasses.dataclass
class Job:
    """One timed library call and the check of its output.

    ``run()`` is the timed part.  ``check(output)`` raises CheckFailed
    on a wrong output and otherwise returns the text whose sha256 is
    compared with the reference at the default seed."""
    id: str
    run: object
    check: object


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _present(lib, family, n):
    def run():
        alg = lib.build_L0(lib.build_family_graph(family, n), lib.QQ)
        return alg.dim, alg.structure_constants_text()

    def check(out):
        dim, text = out
        want = lib.expected_catalog_size(family, n)
        _expect(dim == want, f"dim {dim}, expected {want}")
        return text

    return Job(f"{family}{n}", run, check)


def _certify(lib, field, family, n, params, seed):
    def run():
        return lib.certify_family(family, n, params, field, seed=seed)

    def check(report):
        want = lib.expected_catalog_size(family, n)
        _expect(report.verdict == "pass", f"verdict {report.verdict}")
        _expect(report.dim == report.dim_expected == want,
                f"dim {report.dim}, expected {want}")
        _expect(report.catalog_rank == want,
                f"catalog rank {report.catalog_rank}, expected {want}")
        return report.to_json()

    return Job(f"{family}{n}", run, check)


def _check_match(lib, family, n):
    def check(cert):
        want = lib.expected_catalog_size(family, n)
        _expect(cert.verdict == "pass", f"verdict {cert.verdict}")
        _expect(cert.dim == want, f"dim {cert.dim}, expected {want}")
        _expect(cert.pairs_checked == want * (want - 1) // 2,
                f"{cert.pairs_checked} pairs checked for dim {want}")
        return json.dumps(dataclasses.asdict(cert), sort_keys=True)
    return check


def _match_conjugated(lib, field, family, n, s1, s2):
    def run():
        gens, _ = lib.build_generators(family, n, field)
        alg = lib.lie_closure(gens, field)
        conj = [lib.exp_ad(alg, s1, gens[0], g) for g in gens]
        conj = [lib.exp_ad(alg, s2, gens[2], g) for g in conj]
        return lib.match_algebras(alg, gens, lib.lie_closure(conj, field),
                                  conj, family)

    return Job(f"{family}{n}-conj", run, _check_match(lib, family, n))


def _match_params(lib, field, family, n, params1, params2):
    def run():
        gens1, _ = lib.build_generators(family, n, field, params1)
        gens2, _ = lib.build_generators(family, n, field, params2)
        return lib.match_algebras(lib.lie_closure(gens1, field), gens1,
                                  lib.lie_closure(gens2, field), gens2,
                                  family)

    return Job(f"{family}{n}", run, _check_match(lib, family, n))


def make_jobs(workload, seed, lib, field, tiny=False):
    """The job list of `workload` for `seed`, built with the imported
    package `lib` over the prime field `field`.  `tiny` gives a shorter
    list with the same shape, for the harness's own test; for
    match-gfp2 it keeps the B5 job, the cheapest one that rebuilds a
    standard model (B needs n >= 5)."""
    if workload == "present-qq":
        cases = ((("D", 5), ("A", 4)) if tiny
                 else (("D", 9), ("B", 9), ("A", 10)))
        return [_present(lib, family, n) for family, n in cases]
    if workload == "certify-gfp":
        cases = ((("A", 4, ()),) if tiny
                 else (("A", 5, ()), ("C", 6, ()), ("B", 5, (1,)),
                       ("D", 5, (2, 3))))
        return [_certify(lib, field, family, n,
                         tuple(field(p) for p in params), seed)
                for family, n, params in cases]
    if workload == "match-gfp2":
        s1, s2 = (field(s) for s in A_SCALARS[seed % len(A_SCALARS)])
        g1, g2 = B_GAMMAS[seed % len(B_GAMMAS)]
        return [_match_conjugated(lib, field, "A", 4 if tiny else 5, s1, s2),
                _match_params(lib, field, "B", 5, (field(g1),), (field(g2),))]
    raise ValueError(f"unknown workload {workload!r}")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_output(workload, job, output, seed, reference):
    """Run the job's own check and, at the default seed or for a
    seedless workload, compare the digest of its output with the
    reference."""
    text = job.check(output)
    if seed != DEFAULT_SEED and workload not in SEEDLESS:
        return
    key = f"{workload}/{job.id}"
    want = reference.get(key)
    _expect(want is not None, f"no reference digest for {key}")
    got = digest(text)
    _expect(got == want, f"digest {got[:12]} differs from reference "
                         f"{want[:12]}")
