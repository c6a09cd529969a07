"""Repeat the benchmark over several seeds and record a BENCH_<label>.json.

    python3 perfbench/baseline.py --label baseline --seeds 1-10
    python3 perfbench/baseline.py --label try --seeds 1-5 --workloads train_pipeline

For every workload it runs ``run.py`` once per seed, untraced, then once
traced at the first seed.  Per end-to-end metric it records every value,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the bound in BENCHMARK.json.  The
machine info and the per-layer metrics of the traced run go in as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    report = {"label": args.label, "seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, seconds, 0))
            line = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed={seed} failed={runs[-1]['failed']} {line}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bounds.get(name), "values": values}
            print(f"  {name}: median={median:.6g} spread={summary[name]['spread']:.4f} "
                  f"bound={bounds.get(name)}", flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                 "end_to_end": summary}
        details = [json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text()) for seed in seeds]
        if "loss_digest" in details[0]:
            entry["loss_digest"] = {seed: d["loss_digest"] for seed, d in zip(seeds, details)}
        traced = run(workload, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry

    report["machine"] = details[0]["machine"]
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
