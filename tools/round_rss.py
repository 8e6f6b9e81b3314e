"""Peak memory of a fixed number of rounds of one benchmark workload.

    PYTHONPATH=src:benchmark python3 tools/round_rss.py --workload scan --seed 1 --rounds 300

A timed benchmark run keeps one per-operation record (``run.Sample``) for
every operation it runs, so a faster program records more of them in the
same seconds, and its ``peak_rss_mib`` reads higher for that alone. This
tool fixes the work instead of the time: it sets the workload up once, as
``benchmark/run.py`` does (same hash seed, same generator), runs exactly
``--rounds`` whole rounds through the benchmark's own ``run.run_round``,
keeping their records as a timed run keeps them, and checks every answer.
It imports ``benchmark/`` read-only and prints one JSON line: the rounds,
the sample count, the failed operations, the peak RSS after set-up and
the peak RSS at the end, in MiB, as ``benchmark/run.py`` reads it.
"""
from __future__ import annotations

import argparse
import gc
import json

import run
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=300)
    args = parser.parse_args()
    run.pin_hash_seed()
    gc.collect()
    env = WORKLOADS[args.workload](args.seed)
    setup_rss = run.peak_rss_mib()
    try:
        rounds = [run.run_round(env) for _ in range(args.rounds)]
    finally:
        run.close(env)
    samples = [s for r in rounds for s in r]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "samples": len(samples),
                      "failed": sum(s.raised or s.wrong for s in samples),
                      "setup_peak_rss_mib": setup_rss,
                      "peak_rss_mib": run.peak_rss_mib()}))


if __name__ == "__main__":
    main()
