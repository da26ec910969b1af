"""Outside-in tracer for the qlogic layers.

The qlogic modules import each other's functions by name (``from .linalg
import opnorm``), so patching only the defining module would miss most calls.
``Tracer.install`` rebinds every traced function in every ``qlogic.*``
namespace that holds it, records one span per call in memory, and
``Tracer.restore`` puts the originals back.  Nothing inside the package is
edited.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from time import perf_counter

import numpy as np

# Public functions wrapped per layer, named as they appear in metric names.
TRACED = {
    "linalg": ("opnorm", "solution_basis", "kernel_basis", "range_basis", "hermitian_eig"),
    "projectors": ("meet", "meet_all", "join", "join_all", "ortho",
                   "common_null_space_projector"),
    "algebras": ("algebra_from_generators", "commutant", "center",
                 "minimal_central_projections"),
    "commutators": ("com_observables", "com_kernel", "com_family"),
    "observables": ("spectral_decompose", "heisenberg"),
    "propositions": ("parse", "truth_value"),
    "states": ("cyclic_projector", "equality_projector", "determinateness_battery",
               "equality_battery", "DensityState.from_matrix"),
    "measurement": ("measurement_battery", "povm_of_process", "measures_in_state",
                    "weakly_measures", "satisfies_bsf"),
    "scenario": ("load_scenario",),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)


def svd_gflop(rows: int, unknowns: int) -> float:
    """Computed cost of the economy SVD ``solution_basis`` runs on a system.

    Golub & Van Loan's R-SVD count for Sigma, U1 and V is 6 m n^2 + 20 n^3
    real flops; complex arithmetic costs four real flops per operation.  The
    system is padded to at least ``unknowns`` rows before factoring.
    """
    if rows == 0:
        return 0.0
    m, n = max(rows, unknowns), unknowns
    return 4.0 * (6.0 * m * n * n + 20.0 * n ** 3) / 1e9


class Tracer:
    """Spans and counters for one traced pass.

    A span is ``(span_id, parent_id, op_id, name, start, end)``; the parent is
    the innermost traced call still running, -1 at the top level.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op_id = -1
        self.max_rows = 0
        self.gflop = 0.0
        self.algebra_keys: set[str] = set()
        self.algebra_repeats = 0
        self.ortho_hits = 0
        self.rebound: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, self.op_id, name, start, end))

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span_id, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span_id, parent, name, start)

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            span_id, parent = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start)

        return traced

    # -- counters observed at the call boundary -------------------------------

    def _observe_solution_basis(self, args, kwargs) -> None:
        system = args[0] if args else kwargs["system"]
        unknowns = args[1] if len(args) > 1 else kwargs["unknowns"]
        rows = int(np.shape(system)[0])
        self.max_rows = max(self.max_rows, rows)
        self.gflop += svd_gflop(rows, int(unknowns))

    def _observe_algebra(self, args, kwargs) -> None:
        generators = args[0] if args else kwargs["generators"]
        dim = args[1] if len(args) > 1 else kwargs["dim"]
        digest = hashlib.sha1(str(int(dim)).encode())
        for g in generators:
            digest.update(np.ascontiguousarray(g, dtype=complex).tobytes())
        key = digest.hexdigest()
        if key in self.algebra_keys:
            self.algebra_repeats += 1
        self.algebra_keys.add(key)

    def _observe_ortho(self, args, kwargs) -> None:
        # Projector caches its orthocomplement; a set cache means a hit.
        if getattr(args[0], "_complement", None) is not None:
            self.ortho_hits += 1

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded ``qlogic`` namespace."""
        observers = {
            "linalg.solution_basis": self._observe_solution_basis,
            "algebras.algebra_from_generators": self._observe_algebra,
            "projectors.ortho": self._observe_ortho,
        }
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "qlogic" or n.startswith("qlogic.")) and m is not None]
        for layer, names in TRACED.items():
            module = sys.modules[f"qlogic.{layer}"]
            for name in names:
                full = f"{layer}.{name}"
                if "." in name:
                    self._install_classmethod(module, name, full)
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(full, original, observers.get(full))
                count = 0
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._undo.append((namespace, attr, original))
                            count += 1
                self.rebound[full] = count

    def _install_classmethod(self, module, dotted: str, full: str) -> None:
        class_name, method = dotted.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        setattr(cls, method, classmethod(self._wrap(full, raw.__func__)))
        self._undo.append((cls, method, raw))
        self.rebound[full] = 1

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the counters, then one span per line, after the traced pass."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.counters()) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def counters(self) -> dict:
        return {
            "max_rows": self.max_rows,
            "gflop": self.gflop,
            "algebra_repeats": self.algebra_repeats,
            "ortho_hits": self.ortho_hits,
            "rebound": self.rebound,
        }


def merge_traces(paths: list[str]) -> tuple[dict, dict[str, list[float]]]:
    """Counters and per-name [calls, self seconds] over trace files written by
    separate processes (one per CLI command)."""
    merged = {"max_rows": 0, "gflop": 0.0, "algebra_repeats": 0, "ortho_hits": 0}
    totals: dict[str, list[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            counters = json.loads(handle.readline())
            spans = [tuple(json.loads(line)) for line in handle]
        merged["rebound"] = counters["rebound"]
        merged["max_rows"] = max(merged["max_rows"], counters["max_rows"])
        for key in ("gflop", "algebra_repeats", "ortho_hits"):
            merged[key] += counters[key]
        for name, (calls, self_s) in layer_totals(spans).items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    return merged, totals


def layer_totals(spans) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds].

    Self time is the span's duration minus the durations of its direct
    children; calls nest synchronously, so children never overlap.
    """
    child_time: dict[int, float] = {}
    for span_id, parent, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, list[float]] = {}
    for span_id, _, _, name, start, end in spans:
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time.get(span_id, 0.0)
    return totals
