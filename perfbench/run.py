"""The lamb benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload lex-mixed --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Run from the repository root; lamb is imported from ``src/`` next to this
directory and nowhere else.  Each operation is one in-process
``lamb.cli.run(argv)`` on a generated document, with stdout and stderr
captured; the next document starts only after the previous one returns, on
one thread.  Every output is checked against a reference outside the timed
region.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from spans recorded around lamb's functions (see spans.py).
The last line of stdout is one JSON object; metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_DOCS = 100      # so p90 has at least ten samples beyond it
MAX_WALL_S = 150    # stop starting blocks here, whatever --seconds says
SETUP_REPS = 50     # spec/grammar loads timed after each block for setup_s


def _load_lamb():
    """Import lamb from ROOT/src; exit non-zero, printing no result, if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lamb.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lamb from {src}: {exc}")
    if not Path(lamb.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: lamb was imported from {lamb.cli.__file__}, not from {src}")
    return lamb.cli


def run_op(cli, argv):
    """One timed ``cli.run``: (exit code or exception, stdout, stderr, ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = exc
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _failure(doc, code, out, err) -> str | None:
    if isinstance(code, Exception):
        return "raised " + "".join(traceback.format_exception(code))
    if code != 0:
        return f"exit code {code}"
    if err:
        return f"stderr {err[:120]!r}"
    return doc.check(out)


def run_docs(cli, docs, results: list) -> None:
    """Run each document once, appending (ns, chars, failure or None)."""
    for doc in docs:
        Path("input.txt").write_text(doc.text, encoding="utf-8")
        gc.collect()
        code, out, err, ns = run_op(cli, [*doc.argv, "--input", "input.txt"])
        results.append((ns, len(doc.text), _failure(doc, code, out, err)))


def _block(workload, seed: int, index: int):
    return workload.block(random.Random(f"{seed}:{workload.name}:{index}"))


def _time_setup(workload, times: list) -> None:
    for _ in range(SETUP_REPS):
        start = time.perf_counter_ns()
        workload.setup()
        times.append(time.perf_counter_ns() - start)


def end_to_end(cli, workload, seed: int, seconds: float):
    """Untraced closed loop over whole blocks until `seconds` and MIN_DOCS are reached.

    A warm-up block and warm-up set-ups run first; their outputs are checked
    and counted as attempted, but not timed.  Set-up is timed a few times
    after every block, so a short slow spell of the machine cannot move its
    median.
    """
    problems = [workload.selfcheck(random.Random(f"{seed}:{workload.name}:selfcheck"))]
    warmup: list = []
    run_docs(cli, _block(workload, seed, -1), warmup)
    _time_setup(workload, [])
    results: list = []
    setup_ns: list = []
    start = time.perf_counter()
    for index in itertools.count():
        run_docs(cli, _block(workload, seed, index), results)
        _time_setup(workload, setup_ns)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(results) >= MIN_DOCS) or elapsed >= MAX_WALL_S:
            break
    ns = [r[0] for r in results]
    deciles = statistics.quantiles(ns, n=10, method="inclusive")
    chars = sum(r[1] for r in results)
    results += warmup
    failed = sum(r[2] is not None for r in results)
    metrics = {
        "setup_s": statistics.median(setup_ns) * 1e-9,
        "latency_p50_s": deciles[4] * 1e-9,
        "latency_p90_s": deciles[8] * 1e-9,
        "throughput_chars_per_s": chars / (sum(ns) * 1e-9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - failed / len(results),
    }
    notes = {"latency_p50_s": f"{len(ns)} documents", "latency_p90_s": f"{len(ns)} documents",
             "setup_s": f"median of {len(setup_ns)}",
             "throughput_chars_per_s": f"{len(ns)} documents"}
    problems += [r[2] for r in results]
    return metrics, notes, len(results), failed, [p for p in problems if p]


def per_layer(cli, workload, seed: int, seconds: float):
    """Alternate untraced and traced passes over block 0 until `seconds` (two pairs at least).

    Counters come from the first traced pass and must repeat in every later
    one; times are medians over the traced passes.
    """
    import spans

    problems = [workload.selfcheck(random.Random(f"{seed}:{workload.name}:selfcheck"))]
    docs = _block(workload, seed, 0)
    plain: list = []
    traced: list = []
    passes = []

    def traced_pass(tracer):
        with tracer.installed():
            run_docs(cli, docs, traced)

    start = time.perf_counter()
    for index in itertools.count():
        if index >= 2 and time.perf_counter() - start >= min(seconds, MAX_WALL_S):
            break
        tracer = spans.Tracer()
        if index % 2:  # alternate which side goes first
            traced_pass(tracer)
            run_docs(cli, docs, plain)
        else:
            run_docs(cli, docs, plain)
            traced_pass(tracer)
        passes.append(tracer.layer_totals())
    metrics = {}
    for name, first in passes[0].items():
        if isinstance(first, int):
            metrics[name] = first
            if any(p[name] != first for p in passes):
                problems.append(f"{name} differs between traced passes of the same documents")
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    metrics["trace.overhead_ratio"] = (statistics.median(r[0] for r in traced)
                                       / statistics.median(r[0] for r in plain))
    notes = {"trace.overhead_ratio": f"{len(passes)} pass pairs of {len(docs)} documents"}
    results = plain + traced
    problems += [r[2] for r in results]
    return metrics, notes, len(results), sum(r[2] is not None for r in results), [p for p in problems if p]


@contextlib.contextmanager
def work_dir(workload):
    """Run inside a fresh directory holding the workload's spec and grammar files."""
    work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    back = os.getcwd()
    try:
        os.chdir(work)
        for name, text in workload.files.items():
            Path(name).write_text(text, encoding="utf-8")
        yield
    finally:
        os.chdir(back)
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def load_workload(name: str):
    """(lamb.cli, the named workload); imports lamb first, see _load_lamb."""
    cli = _load_lamb()
    from workloads import WORKLOADS

    return cli, WORKLOADS[name]()


def _run_workload(args, spec) -> None:
    cli, workload = load_workload(args.workload)
    with work_dir(workload):
        measure = per_layer if args.trace else end_to_end
        metrics, notes, attempted, failed, problems = measure(cli, workload, args.seed, args.seconds)
    for problem in problems[:5]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, {failed} failed")
    for m in declared:
        value = metrics[m["name"]]
        shown = f"{value:>16.6g}" if isinstance(value, float) else f"{value:>16}"
        print(f"  {m['name']:<30} {shown} {m['unit']:<8} {notes.get(m['name'], '')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))


def _run_all(args, spec) -> None:
    """Each workload in its own process; the last line maps workload to result."""
    results = {}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        results[w["name"]] = json.loads(last)
    print(json.dumps(results))


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so that set and dict layouts, and with them
        # the speed of lamb's code, do not change from one process to the next.
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="lamb benchmark")
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    (_run_all if args.workload == "all" else _run_workload)(args, spec)


if __name__ == "__main__":
    main()
