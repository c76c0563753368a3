"""Regenerate the reference bundles the benchmark checks every pass against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/seed-<n>/<scenario>/summary.json`` for every
scenario and each seed in ``SEEDS``. Run it only at a commit whose scenario
outputs are known good: a later run that drifts beyond a scenario's declared
tolerances of these files counts as a failed pass.
"""

from __future__ import annotations

import shutil
import tempfile

import run

SEEDS = (0, 1)


def main():
    run.cap_threads()
    scenarios, _ = run.setup(0)
    work_dir = run.make_work_dir()
    try:
        for seed in SEEDS:
            for name in scenarios.SCENARIOS:
                out_dir = tempfile.mkdtemp(dir=work_dir)
                summary = scenarios.run_scenario({"scenario": name, "seed": seed},
                                                 out_dir=out_dir)
                if not summary["pass"]:
                    raise SystemExit(f"{name} seed {seed} fails its checks")
                target = run.REFERENCE_DIR / f"seed-{seed}" / name
                target.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(f"{out_dir}/summary.json", target / "summary.json")
                print(target / "summary.json")
    finally:
        shutil.rmtree(work_dir)


if __name__ == "__main__":
    main()
