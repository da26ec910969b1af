"""One workload in its own process: a set-up probe, a timed run or a traced run.

usage:
  python3 perfbench/child.py setup WORKLOAD SEED OUT_DIR
  python3 perfbench/child.py run WORKLOAD SEED OUT_DIR SECONDS TRACE

``run.py`` starts this process with PYTHONPATH pointing at the checkout's
``src`` and BLAS pinned to one thread.  The last stdout line is a JSON object.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

# dimension-sweep runs under an address-space cap, so that a memory blow-up
# raises MemoryError (a failed operation) instead of drawing the OOM killer.
SWEEP_ADDRESS_SPACE = 3 << 30
WARMUP_OPS = 24
SUITES = ("lattice-laws", "commutator-routes", "determinateness", "measurement")
PROBE_REPEATS = 3
SAMPLING_FUNCTIONS = (
    "haar_unitary", "observable_from_eigenbasis", "random_observable", "random_density",
    "random_vector_state", "state_supported_in", "random_determinate_family",
    "random_agreeing_pair", "measuring_process_for", "cnot_process",
)


class Tally:
    """Outcomes of the operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.margins: dict[str, float] = {}
        self.probes = 0
        self.violations = 0

    def execute(self, op) -> None:
        """Run, time and check one operation.

        A known-defect probe counts only as a probe and, when the defect
        shows, as a violation; it enters ``attempted`` and ``failed`` only
        when it deviates in some other way.
        """
        start = op.cpu_seconds()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 -- a raise is a failed operation
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return
        elapsed = op.cpu_seconds() - start
        if op.probe:
            self.probes += 1
            if op.known_defect(out):
                self.violations += 1
                return
        try:
            problem = op.check(out)
            margins = op.margins(out)
        except Exception as exc:  # noqa: BLE001 -- unreadable output fails the op
            problem, margins = f"check raised {type(exc).__name__}: {exc}", {}
        if problem:
            self._fail(op, problem)
            return
        if op.probe:
            return
        self.attempted += 1
        self.latencies.append(elapsed)
        for key, value in margins.items():
            self.margins[key] = max(self.margins.get(key, 0.0), value)

    def _fail(self, op, problem: str) -> None:
        self.attempted += 1
        self.failures.append(f"{op.label}: {problem}")


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def inputs(workload: str, seed: int, out_dir: str):
    """The seeded inputs that exist before the timed loop starts.

    Returns the generator later rounds are drawn from and the first round,
    or, for cli-cold, writes the scenario files and returns the one round of
    commands every timed round repeats.
    """
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    if workload == "cli-cold":
        directory = scenario_dir(out_dir)
        workloads.write_documents(directory, workloads.cli_documents(rng))
        return rng, workloads.cli_round(directory)
    return rng, workloads.WORKLOADS[workload](rng)


class SamplingTimer:
    """Time spent inside ``qlogic.sampling`` calls, outermost calls only.

    The workloads call the sampling functions through the module
    (``sampling.haar_unitary``), so rebinding the module's attributes sees
    every call the benchmark makes.
    """

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0
        self._undo = []

    def __enter__(self):
        from qlogic import sampling

        for name in SAMPLING_FUNCTIONS:
            original = getattr(sampling, name)
            setattr(sampling, name, self._wrap(original))
            self._undo.append((sampling, name, original))
        return self

    def __exit__(self, *exc):
        for module, name, original in self._undo:
            setattr(module, name, original)

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            self._depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += perf_counter() - start
        return timed


def warmup_ops(workload: str, seed: int) -> list:
    """Operations on inputs of their own, run before any timing."""
    import numpy as np

    import workloads

    rng = np.random.default_rng([seed, 1])
    if workload == "dimension-sweep":
        return workloads.sweep_round(rng, ((4, "generic"), (4, "block")))
    return workloads.WORKLOADS[workload](rng)[:WARMUP_OPS]


def scenario_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "scenario")


def timed_loop(first: list, next_round, rounds: int) -> tuple[Tally, float]:
    """A fixed number of rounds, so the sample count does not depend on the
    program's speed.  ``next_round`` builds each later round before it
    starts; only running the rounds counts toward the wall time."""
    tally = Tally()
    wall = 0.0
    ops = first
    for done in range(rounds):
        if done:
            ops = next_round()
        start = perf_counter()
        for op in ops:
            tally.execute(op)
        wall += perf_counter() - start
    return tally, wall


def one_pass(ops: list, tracer=None) -> tuple[Tally, float]:
    tally = Tally()
    start = perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        tally.execute(op)
    return tally, perf_counter() - start


def latency_summary(latencies: list[float], percentile: float) -> dict:
    """Median, and the nearest-rank ``percentile`` as the tail."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        return {"n": 0}
    tail_index = max(0, math.ceil(n * percentile / 100.0) - 1)
    return {
        "n": n,
        "p50_ms": 1e3 * statistics.median(ordered),
        "tail_ms": 1e3 * ordered[tail_index],
        "tail_percentile": percentile,
        "tail_beyond": n - 1 - tail_index,
    }


def run(workload: str, seed: int, out_dir: str, seconds: float) -> dict:
    import workloads

    rng, first = inputs(workload, seed, out_dir)
    warm = Tally()
    if workload == "cli-cold":
        # The first round fixes each command's reference stdout; every timed
        # round reruns the same commands in fresh interpreters.
        for op in first:
            warm.execute(op)

        def next_round():
            return first
    else:
        for op in warmup_ops(workload, seed):
            warm.execute(op)

        def next_round():
            # New inputs every round: no operation replays an earlier one.
            return workloads.WORKLOADS[workload](rng)
    # Set-up objects are never garbage; keep collections to the program's own.
    gc.freeze()
    tally, wall = timed_loop(first, next_round, workloads.rounds(workload, seconds))
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return {
        "attempted": warm.attempted + tally.attempted,
        "failures": warm.failures + tally.failures,
        "ops": len(tally.latencies),
        "ops_per_s": len(tally.latencies) / wall,
        "latency": latency_summary(tally.latencies, workloads.TAIL_PERCENTILE[workload]),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "probes": tally.probes,
        "violations": tally.violations,
    }


# ---------------------------------------------------------------------------
# traced run


def _median_ms(samples: list[float]) -> float:
    return 1e3 * statistics.median(samples)


def import_probes() -> dict[str, float]:
    """``-X importtime`` of the CLI's imports, and a bare ``import numpy`` floor."""
    totals, batteries, floor = [], [], []
    for _ in range(PROBE_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qlogic.cli"],
                              capture_output=True, text=True, timeout=60, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if match:
                cumulative[(match.group(3), len(match.group(2)))] = int(match.group(1))
        top = sum(us for (name, depth), us in cumulative.items()
                  if depth == 1 and name.split(".")[0] == "qlogic")
        totals.append(top / 1e6)
        batteries.append(max(us for (name, _), us in cumulative.items()
                             if name == "qlogic.batteries") / 1e6)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], timeout=60, check=True)
        floor.append(perf_counter() - start)
    return {
        "cli.import_ms": _median_ms(totals),
        "cli.import.batteries_ms": _median_ms(batteries),
        "cli.numpy_floor_ms": _median_ms(floor),
    }


def suite_times(failures: list[str]) -> dict[str, float]:
    """The acceptance-budgeted suites at their recorded seed, untraced."""
    from qlogic.batteries import run_suite

    times = {}
    for name in SUITES:
        result = run_suite(name)
        if not result.passed:
            failures.append(f"suite {name} failed")
        times[f"batteries.run_suite.{name}.s"] = result.elapsed_s
    return times


def traced(workload: str, seed: int, out_dir: str) -> dict:
    import numpy as np

    import workloads
    from tracer import SPAN_NAMES, Tracer, layer_totals, merge_traces

    spans_dir = os.path.join(out_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    with SamplingTimer() as sampling_time:
        _, first = inputs(workload, seed, out_dir)
    if workload == "cli-cold":
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
        plain_ops = first
        warm, _ = one_pass(plain_ops)
        reference, ref_wall = one_pass(plain_ops)
        traced_ops = workloads.cli_round(scenario_dir(out_dir), shim, spans_dir)
        for op, plain in zip(traced_ops, plain_ops):
            op.reference = plain.reference  # the shim must print what the CLI prints
        tally, traced_wall = one_pass(traced_ops)
        counters, totals = merge_traces(
            [os.path.join(spans_dir, f"cmd{i}.jsonl") for i in range(len(traced_ops))])
    else:
        warm, _ = one_pass(warmup_ops(workload, seed))
        reference, ref_wall = one_pass(first)
        # The first round again: same inputs, no cached state.
        fresh = workloads.WORKLOADS[workload](np.random.default_rng(seed))
        tracer = Tracer()
        tracer.install()
        try:
            tally, traced_wall = one_pass(fresh, tracer)
        finally:
            tracer.restore()
        tracer.write(os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl"))
        counters, totals = tracer.counters(), layer_totals(tracer.spans)

    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s

    def ratio(count, name):
        calls = totals.get(name, (0, 0.0))[0]
        return count / calls if calls else 0.0

    failures = warm.failures + reference.failures + tally.failures
    metrics.update({
        "linalg.solution_basis.max_rows": counters["max_rows"],
        "linalg.solution_basis.gflop_computed": counters["gflop"],
        "projectors.ortho.cache_hit_ratio": ratio(counters["ortho_hits"], "projectors.ortho"),
        "algebras.algebra_from_generators.repeat_ratio":
            ratio(counters["algebra_repeats"], "algebras.algebra_from_generators"),
        "commutators.route_gap_margin": tally.margins.get("route_gap_margin", 0.0),
        "states.residual_margin": tally.margins.get("residual_margin", 0.0),
        "sampling.setup_s": sampling_time.seconds,
        "cli.main.self_s": totals.get("cli.main", (0, 0.0))[1],
        "cli.contract_violations": tally.violations,
        "trace.overhead_s": traced_wall - ref_wall,
    })
    metrics.update(import_probes())
    metrics.update(suite_times(failures))
    return {
        "attempted": warm.attempted + reference.attempted + tally.attempted + len(SUITES),
        "failures": failures,
        "ops": len(tally.latencies),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": ref_wall,
        "probes": tally.probes,
        "violations": tally.violations,
        "rebound": counters["rebound"],
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    mode, workload, seed, out_dir = argv[0], argv[1], int(argv[2]), argv[3]
    if workload == "dimension-sweep":
        resource.setrlimit(resource.RLIMIT_AS, (SWEEP_ADDRESS_SPACE, SWEEP_ADDRESS_SPACE))
    if mode == "setup":
        # CPU time, like the latencies: on a shared host the wall time of an
        # import measures the host's scheduling more than the program.
        start = process_time()
        import workloads  # noqa: F401 -- imports qlogic, part of set-up
        inputs(workload, seed, out_dir)
        result = {"setup_s": process_time() - start}
    elif argv[5] == "1":
        result = traced(workload, seed, out_dir)
    else:
        result = run(workload, seed, out_dir, float(argv[4]))
    result["env"] = environment(seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
