"""Every metric of every workload, with units and sample counts, in one table.

Runs ``run.py`` for each workload, untraced and then traced, one run at a
time, and prints one line per metric: the end-to-end and per-layer
metrics, the latencies under their workload-specific names (p50, p90 where
at least 100 samples exist), and the share of failed operations.

Usage, from the repository root:

    python3 bench/report.py [--seed 0] [--seconds 30]

Exit status 1 if any run fails or reports a failed operation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} --trace {trace}: exit {done.returncode}\n"
                      f"{done.stderr}", file=sys.stderr)
                status = 1
                continue
            path = OUT_DIR / f"{workload}-seed{args.seed}-trace{trace}.json"
            report = json.loads(path.read_text())
            lines = [(name, m["value"], m["unit"], m["samples"])
                     for name, m in report["metrics"].items()]
            for name, entry in report.get("named", {}).items():
                for stat in ("p50", "p90"):
                    if stat in entry:
                        lines.append((f"{name}.{stat}", entry[stat], entry["unit"],
                                      entry["samples"]))
            lines.append(("failed_share", report["failed_share"], "share",
                          report["attempted"]))
            for name, value, unit, samples in lines:
                print(f"{workload:13s} {name:36s} {value:>18.6f} {unit:6s} "
                      f"samples={samples}")
            if report["failed"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
