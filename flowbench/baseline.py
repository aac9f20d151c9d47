"""Record one point of the benchmark's trajectory.

Runs every workload of ``BENCHMARK.json`` once per seed 1..10
(untraced) and once more traced, then writes each end-to-end metric's
median and quartiles, the spread the acceptance rule uses
(inter-quartile range over the median), the work counters of every
run and the traced per-layer ledger::

    python3 flowbench/baseline.py \\
        --json flowbench/results/baseline.json --md flowbench/results/baseline.md

Runs are sequential, in one process each, as the benchmark is run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Seeds of the untraced runs, and of the one traced run per workload.
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int, out: str) -> Dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", out,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-4000:]}")
    with open(out) as handle:
        record = json.load(handle)
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def summarise(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", required=True, metavar="PATH")
    parser.add_argument("--md", required=True, metavar="PATH")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    doc: Dict = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    os.makedirs(os.path.join(ROOT, ".flowbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".flowbench")) as tmp:
        for name in names:
            runs = []
            for seed in SEEDS:
                record = run_once(name, seed, seconds, 0, os.path.join(tmp, "r.json"))
                runs.append(record)
                print(name, seed, record["result"]["correct"], flush=True)
            traced = run_once(name, TRACE_SEED, seconds, 1, os.path.join(tmp, "t.json"))
            doc.setdefault("host", runs[0]["host"])
            metrics = {
                m["name"]: dict(
                    summarise([r["result"]["metrics"][m["name"]]["value"] for r in runs]),
                    unit=m["unit"],
                )
                for m in bench["end_to_end"]
            }
            doc["workloads"][name] = {
                "correct": all(r["result"]["correct"] for r in runs + [traced]),
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "e2e": metrics,
                "work_counters": {str(r["seed"]): r["work_counters"] for r in runs},
                "calibration_s": [r["host"]["calibration_s"] for r in runs],
                "layers": {
                    k: v["value"] for k, v in traced["result"]["metrics"].items()
                },
                "layers_seed": TRACE_SEED,
            }

    with open(args.json, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(args.md, "w") as handle:
        handle.write(markdown(doc, bench))
    return 0


def markdown(doc: Dict, bench: Dict) -> str:
    names = list(doc["workloads"])
    host = doc["host"]
    lines = [
        "# Benchmark trajectory point",
        "",
        f"Host: python {host['python']}, numpy {host['numpy']}, scipy "
        f"{host['scipy']}, {host['nproc']} CPUs, calibration kernel "
        f"{host['calibration_s'] * 1e3:.0f} ms.  {len(doc['seeds'])} seeds "
        f"({doc['seeds'][0]}..{doc['seeds'][-1]}), {doc['run_seconds']} s per run.",
        "",
        "## End-to-end (median [q1, q3], spread = IQR / median)",
        "",
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for m in bench["end_to_end"]:
        cells = []
        for name in names:
            s = doc["workloads"][name]["e2e"][m["name"]]
            cells.append(
                f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] ({s['spread']:.3f})"
            )
        lines.append(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "Operations: "
        + ", ".join(
            f"{n} {doc['workloads'][n]['attempted'] - doc['workloads'][n]['failed']}"
            f"/{doc['workloads'][n]['attempted']} correct"
            for n in names
        ),
        "",
        "## Per-layer ledger (one traced run per workload, mean per operation)",
        "",
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for m in bench["per_layer"]:
        cells = [f"{doc['workloads'][n]['layers'][m['name']]:.4g}" for n in names]
        lines.append(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
