"""qlogic benchmark: run one workload for one seed and print its metrics.

usage (from the root of a qlogic checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads: battery-stream, lattice-eval, dimension-sweep, cli-cold.  Each
runs closed-loop with one client in a fresh child process, with BLAS pinned
to one thread and qlogic imported from the checkout's ``src``.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed, with
``--trace 1`` its per-layer metrics.  The last stdout line is the JSON result;
the exit code is 0 only when every operation gave the verdict its
construction fixes.  Spans and scratch files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

WORKLOADS = ("battery-stream", "lattice-eval", "dimension-sweep", "cli-cold")
SETUP_BEFORE, SETUP_AFTER = 3, 4
DEADLINE_S = 175.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child(root: str, env: dict, args: list[str], started: float) -> dict:
    """Run child.py in its own session, so that on timeout the whole process
    group (the CLI runs of cli-cold included) is killed and reaped."""
    script = os.path.join(root, "perfbench", "child.py")
    with subprocess.Popen([sys.executable, script, *args], cwd=root, env=env,
                          stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(
                timeout=max(10.0, DEADLINE_S - (perf_counter() - started)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, args)
    return json.loads(out.strip().splitlines()[-1])


def declared(root: str, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    started = perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qlogic", "__init__.py")):
        return fail("src/qlogic not found: run from the root of a qlogic checkout")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        return fail("BENCHMARK.json not found")
    trace = args.trace == "1"
    units = declared(root, trace)
    env = {**os.environ, **PINNED, "PYTHONPATH": os.path.join(root, "src")}
    out_dir = os.path.join(root, ".perfbench_out", f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    common = [args.workload, str(args.seed), out_dir]
    def setups(count: int) -> list[float]:
        return [child(root, env, ["setup", *common], started)["setup_s"]
                for _ in range(0 if trace else count)]

    try:
        # Set-up probes on both sides of the timed run, so that their median
        # spans the run rather than one moment of the host's speed.
        setup_samples = setups(SETUP_BEFORE)
        result = child(root, env, ["run", *common, str(args.seconds), args.trace], started)
        setup_samples += setups(SETUP_AFTER)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return fail(f"workload process did not finish: {exc}")
    finally:
        shutil.rmtree(os.path.join(out_dir, "scenario"), ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"environment {json.dumps(result['env'], sort_keys=True)}")
    if trace:
        values = result["metrics"]
        print(f"traced pass {result['traced_wall_s']:.3f} s, untraced "
              f"{result['untraced_wall_s']:.3f} s over the same {result['ops']} operations")
        print("namespaces rebound per function: " + ", ".join(
            f"{name} {count}" for name, count in result["rebound"].items()))
    else:
        latency = result["latency"]
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": result["ops_per_s"],
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"setup_s samples (CPU s) {[round(s, 4) for s in setup_samples]}")
        print(f"latency_tail_ms is p{latency['tail_percentile']:.2f}: "
              f"{latency['tail_beyond']} of {latency['n']} samples beyond it")
    failed = len(result["failures"])
    print(f"error_rate {failed / max(1, result['attempted']):.6f} ratio "
          f"({failed} failed of {result['attempted']} attempted)")
    for failure in result["failures"][:10]:
        print(f"  failed: {failure}")
    if result["probes"]:
        print(f"known defect: {result['violations']} of {result['probes']} non-finite-scenario "
              "runs exited 1 with an uncaught LinAlgError; the CLI contract says 2")
    if set(values) != set(units):
        return fail(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    correct = failed == 0 and result["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
