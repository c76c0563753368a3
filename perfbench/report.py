"""Run every workload untraced, each in a fresh process, and print one table.

    python3 perfbench/report.py --seed 0 --seconds 45

Prints wall_s, setup_s, peak_rss_mb and failed_frac with their units for
each workload; exits non-zero if any pass of any workload failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    print(f"{'workload':<16} {'wall_s':>10} {'setup_s':>10} "
          f"{'peak_rss_mb':>12} {'failed_frac':>12}")
    all_correct = True
    for workload in run.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        m = result["metrics"]
        all_correct &= result["correct"]
        print(f"{workload:<16} {m['wall_s']['value']:>8.3f} s "
              f"{m['setup_s']['value']:>8.3f} s "
              f"{m['peak_rss_mb']['value']:>9.1f} MB "
              f"{result['failed'] / result['attempted']:>12.3f}")
    print(f"seed {args.seed}, {args.seconds:g} s per workload; "
          f"failed_frac = failed passes / attempted passes")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
