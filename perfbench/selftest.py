"""Self-test of the benchmark itself, not of lamb.

    python3 perfbench/selftest.py

For every workload it checks that:

1. a corrupted output counts as a failed operation: one block runs with one
   operation's stdout altered in a single digit and another's exit code
   changed, and exactly those two are failed, with success_rate (that is,
   1 - error_rate) lowered by 2/attempted and the result marked incorrect;
2. two traced runs with the same seed, in separate processes, give
   identical counters.

Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import run


def change_digit(code, out, err):
    """Change the first digit past the middle: the JSON stays valid, a value is wrong."""
    k = next(i for i in range(len(out) // 2, len(out)) if out[i].isdigit())
    return code, out[:k] + str(int(out[k]) % 9 + 1) + out[k + 1:], err


def exit_two(code, out, err):
    return 2, out, err


def corrupting(corruptions: dict):
    """A run_op that alters the k-th operation's result by corruptions[k]."""
    original = run.run_op
    counter = itertools.count()

    def run_op(cli, argv):
        code, out, err, ns = original(cli, argv)
        k = next(counter)
        if k in corruptions:
            code, out, err = corruptions[k](code, out, err)
        return code, out, err, ns
    return run_op


def check(condition: bool, message: str) -> None:
    print(("PASS " if condition else "FAIL ") + message)
    if not condition:
        sys.exit(1)


def corrupted_outputs_fail(name: str) -> None:
    cli, workload = run.load_workload(name)
    original = run.run_op
    run.run_op = corrupting({3: change_digit, 5: exit_two})
    run.MIN_DOCS = 1  # one block is enough here
    try:
        with run.work_dir(workload):
            metrics, _, attempted, failed, problems = run.end_to_end(cli, workload, 1, 0)
    finally:
        run.run_op = original
    check(failed == 2 and len(problems) == 2,
          f"{name}: 2 corrupted of {attempted} operations counted as failed ({failed}): {problems}")
    check(metrics["success_rate"] == 1 - 2 / attempted,
          f"{name}: success_rate {metrics['success_rate']:.4f} = 1 - 2/{attempted}")


def traced_counters(name: str, seed: int) -> dict:
    import spans  # needs lamb, which load_workload has put on the path

    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    check(result["correct"] and result["failed"] == 0, f"{name}: traced run seed {seed} is correct")
    return {k: result["metrics"][k]["value"] for k in spans.DETERMINISTIC}


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        corrupted_outputs_fail(w["name"])
    for w in spec["workloads"]:
        first, second = traced_counters(w["name"], 7), traced_counters(w["name"], 7)
        check(first == second, f"{w['name']}: counters repeat with the same seed: {first}")


if __name__ == "__main__":
    main()
