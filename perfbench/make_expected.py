"""Write ``perfbench/expected/<name>.csv`` for each ``tests/data`` scenario without a golden.

The ``cli_scenarios`` workload compares those CLI outputs against these
files within 1e-12 per numeric cell.  Run from the root of a checkout,
only when the expected results themselves are meant to change::

    python3 perfbench/make_expected.py
"""

import os

import workloads

if __name__ == "__main__":
    os.makedirs(workloads.EXPECTED, exist_ok=True)
    for file in sorted(f for f in os.listdir(workloads.DATA) if f.endswith(".json")):
        name = file[:-5]
        if os.path.exists(os.path.join(workloads.GOLDEN, name + ".csv")):
            continue
        code, out = workloads.cli_call(workloads.scenario_argv(file))()
        if code != 0:
            raise SystemExit(f"{file}: exit code {code}")
        with open(os.path.join(workloads.EXPECTED, name + ".csv"), "w", newline="\n") as handle:
            handle.write(out)
        print(f"wrote {name}.csv")
