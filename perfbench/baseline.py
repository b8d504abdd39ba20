"""Run every workload on several seeds and record the results as a baseline.

    python3 perfbench/baseline.py [--out FILE]

Each run is ``run.py`` in a fresh interpreter, with the run length from
BENCHMARK.json: per workload, SEEDS runs with tracing off (seeds 1..10) and
TRACE_RUNS with tracing on, all with seed 1 so that their counts can be
compared.  The output file (default perfbench/baseline.json) holds, per
workload, every value of every metric, the median and quartiles of the
end-to-end metrics with their spread (quartile distance over median), and
for each per-layer count named in EXACT_COUNTS whether it repeated exactly.
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
SEEDS = range(1, 11)
TRACE_RUNS = 2
# computed counts that must repeat exactly between runs of one commit
EXACT_COUNTS = ("stepper.advance.calls", "elliptic.apply_operator.calls",
                "mesh.write_snapshot.bytes", "engine.output_bytes")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(next(ln for ln in lines if ln.startswith("machine "))[len("machine "):])
    return machine, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    machine = None
    report = {"run_seconds": seconds, "exact_counts": list(EXACT_COUNTS), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        entry = {"why": w["why"], "seeds": list(SEEDS), "trace_seeds": [1] * TRACE_RUNS,
                 "correct": True, "attempted": 0, "failed": 0,
                 "end_to_end": {}, "per_layer": {}}
        runs = [(seed, 0) for seed in entry["seeds"]]
        runs += [(seed, 1) for seed in entry["trace_seeds"]]
        for seed, trace in runs:
            machine, result = run_once(name, seed, seconds, trace)
            print(f"{name} seed {seed} trace {trace}: {json.dumps(result)}", flush=True)
            entry["correct"] &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            section = entry["per_layer" if trace else "end_to_end"]
            for metric, m in result["metrics"].items():
                section.setdefault(metric, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        for metric in entry["end_to_end"].values():
            metric.update(summarize(metric["values"]))
        for metric_name, metric in entry["per_layer"].items():
            metric["median"] = statistics.median(metric["values"])
            if metric_name in EXACT_COUNTS:
                metric["repeats_exactly"] = len(set(metric["values"])) == 1
        report["workloads"][name] = entry
    report["machine"] = machine
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for name, entry in report["workloads"].items():
        spreads = ", ".join(f"{k} {v['median']:.4g} {v['unit']} (spread {v['spread']:.3f})"
                            for k, v in entry["end_to_end"].items())
        print(f"{name}: error_rate {entry['error_rate']:.4f}; {spreads}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
