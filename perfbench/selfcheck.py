#!/usr/bin/env python3
"""Self-checks of the benchmark itself (see README.md).

    python3 perfbench/selfcheck.py [--seed 11] [--seconds 4] [--workload W]

For every workload (or the one named) this runs perfbench/run.py four
times from the current directory, the root of a checkout:

  1. and 2. seed S, untraced, twice: both must pass every answer check and
     report identical count metrics (round trips, wire bytes, stored bytes);
  3. seed S + 1, untraced: a second seed must pass every answer check;
  4. seed S, traced: answers, round trips, wire bytes and store rows must
     match the untraced run of the same seed, and the span file must not
     contain any tag-map name (both checked inside the run, which reports
     correct=false otherwise).

The count metrics come from each op list's first pass, so a short
--seconds is enough. Exits 1 when any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

COUNT_METRICS = ("round_trips_per_read", "round_trips_per_write",
                 "wire_bytes_per_read", "wire_bytes_per_write",
                 "stored_bytes_per_xml_byte")
WORKLOADS = ("doc_fetch", "corpus_agg", "mutate_disk")
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args()

    failures = []

    def check(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in [args.workload] if args.workload else WORKLOADS:
        first = run(workload, args.seed, args.seconds, 0)
        second = run(workload, args.seed, args.seconds, 0)
        other = run(workload, args.seed + 1, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        for name, result in (("seed %d run 1" % args.seed, first),
                             ("seed %d run 2" % args.seed, second),
                             ("seed %d" % (args.seed + 1), other),
                             ("seed %d traced" % args.seed, traced)):
            check(result is not None and result["correct"] and
                  result["failed"] == 0,
                  "%s: %s passes every answer check" % (workload, name))
        if first is None or second is None:
            continue
        for metric in COUNT_METRICS:
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            check(a == b, "%s: %s repeats for one seed (%r, %r)" %
                  (workload, metric, a, b))
    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
