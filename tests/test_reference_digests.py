"""The seed-0 outputs of the benchmark's present-qq, certify-gfp and
match-gfp2 jobs must match the sha256 digests in perfbench/reference.json:
structure-constant tables, certification reports and match certificates
stay bit-identical.  The benchmark files are only read."""

import importlib.util
from pathlib import Path

import pytest

import extremal_lie as lib

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
FIELD = lib.PrimeField(lib.DEFAULT_PRIME)
CASES = [pytest.param(name, job, id=f"{name}/{job.id}")
         for name in ("present-qq", "certify-gfp", "match-gfp2")
         for job in workloads.make_jobs(name, workloads.DEFAULT_SEED, lib,
                                        FIELD)]


@pytest.mark.parametrize("workload,job", CASES)
def test_reference_digest(workload, job):
    workloads.check_output(workload, job, job.run(), workloads.DEFAULT_SEED,
                           workloads.load_reference())
