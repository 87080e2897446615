"""Set-up probe: a fresh process imports lrdcp and builds one workload's inputs.

``run.py`` starts it several times per run and times each from process
start to the line it prints, which carries the seconds spent importing
lrdcp (with the benchmark's modules) and building the inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import json
import shutil
import sys
import time


def main():
    start = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, workdir).prepare()
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": ready - imported}),
          flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
