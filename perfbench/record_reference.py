"""Record the default-seed output digests into reference.json.

    python3 perfbench/record_reference.py

Runs every job of every workload (and of their tiny variants used by
the harness's test) at the default seed, applies each job's own check
and stores the sha256 of its output.  It then runs the match-gfp2 jobs
at every other pool entry and fails unless each ends over exactly one
quadratic extension of GF(p), at a cost close to the default seed's.
Rerun it only when a change is meant to alter the library's output.
"""

import json
import sys
import time

import run
import workloads


def timed_outputs(workload, seed, tiny=False):
    _, jobs = run.setup(workload, seed, tiny)
    for job in jobs:
        t0 = time.perf_counter()
        output = job.run()
        yield job, output, time.perf_counter() - t0


def main():
    reference = {}
    for tiny in (False, True):
        for workload in workloads.WORKLOADS:
            for job, output, dt in timed_outputs(
                    workload, workloads.DEFAULT_SEED, tiny):
                key = f"{workload}/{job.id}"
                reference[key] = workloads.digest(job.check(output))
                print(f"{key:<24} {dt:8.3f} s  {reference[key][:16]}")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")

    ok = True
    pool = max(len(workloads.A_SCALARS), len(workloads.B_GAMMAS))
    for seed in range(pool):
        for job, cert, dt in timed_outputs("match-gfp2", seed):
            job.check(cert)
            lifts = cert.field.count("(rt ")
            ok &= lifts == 1
            print(f"seed {seed} {job.id:<8} {dt:8.3f} s  {cert.field}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
