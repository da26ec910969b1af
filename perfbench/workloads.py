"""The benchmark's four workloads.

Each workload turns a seed into rounds of operations.  The structure of a
round (instance styles, dimensions, multiplicities, order) is fixed; the seed
only draws frames, eigenvalues and states, so two seeds stress the same mix.
Every operation carries the verdict its construction fixes, and ``check``
compares the program's output against it.  qlogic receives only the
generated inputs.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import qlogic
from qlogic import sampling

TOL = qlogic.DEFAULT_TOL.assert_tol


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the output is the one the construction fixes
    and a description of the difference otherwise.  ``margins`` reports
    route gaps and passing residuals as multiples of ``assert_tol``.
    ``probe`` marks a known-defect probe that is counted apart from the
    operations (see ``CliOp``).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    margins: Callable[[object], dict[str, float]] = field(default=lambda out: {})
    probe: bool = False

    @staticmethod
    def cpu_seconds() -> float:
        """The clock operation latency is read from: CPU time of this process.

        The work is single-threaded (BLAS is pinned to one thread) and does no
        I/O, so CPU time is the wall time the operation would take on an idle
        core.  On a shared virtual machine, wall time also counts the
        milliseconds the host takes the core away, which would make the tail
        of sub-millisecond operations measure the host.
        """
        return time.process_time()


def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _below(p: np.ndarray, q: np.ndarray) -> bool:
    """Range of the projector p inside the range of q: q p = p."""
    return _opnorm(q @ p - p) <= TOL


def _sector(dim: int, size: int) -> np.ndarray:
    s = np.zeros((dim, dim), dtype=complex)
    s[:size, :size] = np.eye(size)
    return s


def _clauses(report, expected: bool, verdict: bool) -> str | None:
    values = set(report.clauses.values())
    if verdict != expected or values != {expected}:
        return f"expected every clause {expected}, got {report.clauses}"
    return None


def _residual_margin(report) -> dict[str, float]:
    passing = [abs(report.residuals[k]) for k, ok in report.clauses.items() if ok]
    return {"residual_margin": max(passing) / TOL} if passing else {}


def _schedule(entries: list) -> list:
    """A fixed interleaving, identical for every seed."""
    order = np.random.default_rng(12345).permutation(len(entries))
    return [entries[i] for i in order]


# ---------------------------------------------------------------------------
# battery-stream: the three batteries over the builtin suites' instance styles


def _det_op(label, xs, state, expected):
    return Op(label, lambda: qlogic.determinateness_battery(xs, state),
              lambda r: _clauses(r, expected, r.determinate), _residual_margin)


def _eq_op(label, x, y, state, expected):
    return Op(label, lambda: qlogic.equality_battery(x, y, state),
              lambda r: _clauses(r, expected, r.equal), _residual_margin)


def _meas_op(label, process, observable, state, expected):
    return Op(label, lambda: qlogic.measurement_battery(process, observable, state),
              lambda r: _clauses(r, expected, r.measures))


def _renamed(x, name):
    return qlogic.Observable(name, x.matrix, x.spectrum, x.eigenprojectors, x.tol)


# Spectral structure (multiplicities, sector sizes, state ranks) is a fixed
# function of the dimension; the seed draws only frames, eigenvalues and
# states.  Random multiplicities would change the size of the generated
# algebra, and with it the cost of an operation, from seed to seed.
_VALUE_POOL = np.arange(-12, 13)


def _values(rng, count: int) -> list[float]:
    return sorted(float(v) for v in rng.choice(_VALUE_POOL, size=count, replace=False))


def _composition(dim: int, parts: int, shift: int = 0) -> list[int]:
    base, extra = divmod(dim, parts)
    sizes = [base + (1 if i < extra else 0) for i in range(parts)]
    return sizes[shift % parts:] + sizes[:shift % parts]


def _observable(name: str, dim: int, rng, parts: int | None = None, frame=None, shift=0):
    """An observable with ``parts`` eigenvalues of balanced multiplicity."""
    parts = min(dim, 3) if parts is None else parts
    frame = sampling.haar_unitary(dim, rng) if frame is None else frame
    return sampling.observable_from_eigenbasis(
        name, frame, _values(rng, parts), _composition(dim, parts, shift))


def _generic(dim, count, rng, parts=None):
    return [_observable(f"X{k + 1}", dim, rng, parts) for k in range(count)]


def _commuting(dim, count, rng):
    frame = sampling.haar_unitary(dim, rng)
    return [_observable(f"X{k + 1}", dim, rng, frame=frame, shift=k) for k in range(count)]


def _block_family(dim: int, count: int, rng):
    """Members share a frame on the sector (the first dim // 2 coordinates)
    and have independent frames on the rest; every member is nondegenerate,
    so the family commutes exactly on the sector and nowhere else."""
    half = dim // 2
    shared = sampling.haar_unitary(half, rng)
    family = []
    for k in range(count):
        frame = np.zeros((dim, dim), dtype=complex)
        frame[:half, :half] = shared
        frame[half:, half:] = sampling.haar_unitary(dim - half, rng)
        values = rng.permutation(_values(rng, dim))
        family.append(qlogic.spectral_decompose(
            f"X{k + 1}", (frame * values) @ frame.conj().T))
    return family


def _agreeing_pair(dim: int, rng):
    """Equal on the sector (the first dim // 2 coordinates), unequal elsewhere.

    All eigenvalues are distinct, and the two tails share none."""
    half = dim // 2
    values = rng.choice(_VALUE_POOL, size=2 * dim - half, replace=False).astype(float)
    shared = sampling.haar_unitary(half, rng)
    pair = []
    for name, tail in (("X", values[half:dim]), ("Y", values[dim:])):
        frame = np.zeros((dim, dim), dtype=complex)
        frame[:half, :half] = shared
        frame[half:, half:] = sampling.haar_unitary(dim - half, rng)
        diagonal = np.concatenate([values[:half], tail])
        pair.append(qlogic.spectral_decompose(name, (frame * diagonal) @ frame.conj().T))
    return pair


def _sector_state(dim: int, rng):
    return sampling.state_supported_in(qlogic.Projector(np.eye(dim)[:, :dim // 2]), rng)


def _mixed(dim: int, rng):
    return sampling.random_density(dim, rng, rank=(dim + 1) // 2)


def _full(dim: int, rng):
    return sampling.random_density(dim, rng, rank=dim)


def _battery_op(kind: str, d: int, rng) -> Op:
    s = sampling
    count = 2 + d % 2
    label = f"{kind} d={d}"
    if kind == "det-commuting":
        return _det_op(label, _commuting(d, count, rng), _mixed(d, rng), True)
    if kind == "det-block-sector":
        return _det_op(label, _block_family(d, count, rng), _sector_state(d, rng), True)
    if kind == "det-block-fullrank":
        return _det_op(label, _block_family(d, count, rng), _full(d, rng), False)
    if kind == "det-generic":
        return _det_op(label, _generic(d, count, rng), _mixed(d, rng), False)
    if kind == "eq-agreeing-sector":
        return _eq_op(label, *_agreeing_pair(d, rng), _sector_state(d, rng), True)
    if kind == "eq-agreeing-fullrank":
        return _eq_op(label, *_agreeing_pair(d, rng), _full(d, rng), False)
    if kind == "eq-renamed":
        x = _observable("X", d, rng)
        return _eq_op(label, x, _renamed(x, "Y"), s.random_vector_state(d, rng), True)
    if kind == "eq-generic":
        return _eq_op(label, *_generic(d, 2, rng), _mixed(d, rng), False)
    if kind == "meas-process-for":
        a = _observable("A", d, rng)
        return _meas_op(label, s.measuring_process_for(a), a,
                        s.random_vector_state(d, rng), True)
    if kind == "meas-other-observable":
        a, b = _generic(d, 2, rng)
        return _meas_op(label, s.measuring_process_for(a), b,
                        s.random_vector_state(d, rng), False)
    if kind == "meas-cnot-z":
        z = qlogic.spectral_decompose("Z", np.diag([1.0, -1.0]).astype(complex))
        return _meas_op(kind, s.cnot_process(), z, s.random_vector_state(2, rng), True)
    if kind == "meas-cnot-x-up":
        x = qlogic.spectral_decompose("X", np.array([[0, 1], [1, 0]], dtype=complex))
        up = qlogic.DensityState.from_vector(np.array([1.0, 0.0], dtype=complex))
        return _meas_op(kind, s.cnot_process(), x, up, False)
    raise ValueError(kind)


_SMALL, _SECTOR = range(2, 8), range(4, 8)
BATTERY_KINDS = (
    ("det-commuting", _SMALL), ("det-block-sector", _SECTOR),
    ("det-block-fullrank", _SECTOR), ("det-generic", _SMALL),
    ("eq-agreeing-sector", _SECTOR), ("eq-agreeing-fullrank", _SECTOR),
    ("eq-renamed", _SMALL), ("eq-generic", _SMALL),
    ("meas-process-for", _SMALL), ("meas-other-observable", _SMALL),
    ("meas-cnot-z", (2,)), ("meas-cnot-x-up", (2,)),
)
_BATTERY_ROUND = _schedule([(k, d) for k, dims in BATTERY_KINDS for d in dims])


def battery_round(rng) -> list[Op]:
    return [_battery_op(kind, d, rng) for kind, d in _BATTERY_ROUND]


# ---------------------------------------------------------------------------
# lattice-eval: propositions and projector families, no com(...) atoms


def _lattice_registry(dim: int, rng):
    """Two commuting observables in one Haar frame U, two generic ones, a state.

    Truth values over C1, C2 are diagonal in U, so their probabilities follow
    from boolean algebra on the diagonal.  G1 and G2 have independent Haar
    frames, so their spectral subspaces are in general position.
    """
    frame = sampling.haar_unitary(dim, rng)
    obs, diag, ranks = {}, {}, {}
    for shift, name in enumerate(("C1", "C2")):
        obs[name] = _observable(name, dim, rng, frame=frame, shift=shift)
        diag[name] = np.repeat(obs[name].spectrum, _composition(dim, min(dim, 3), shift))
    for name in ("G1", "G2"):
        obs[name] = _observable(name, dim, rng)
        ranks[name] = (obs[name].spectrum, np.cumsum(_composition(dim, min(dim, 3))))
    state = _mixed(dim, rng)
    weights = np.real(np.diagonal(frame.conj().T @ state.matrix @ frame))
    return qlogic.ObservableRegistry(list(obs.values())), state, diag, ranks, weights


def _query_op(dim: int, registry, state, cases) -> Op:
    """One query: every proposition of ``cases`` against one registry and state.

    Each case is (source, expected rank or None, expected probability or None).
    """
    def run():
        out = []
        for source, _, _ in cases:
            projector = qlogic.truth_value(qlogic.parse(source), registry)
            out.append((projector, qlogic.projector_probability(projector, state)))
        return out

    def check(out):
        for (source, rank, probability), (projector, p) in zip(cases, out):
            if rank is not None and projector.rank != rank:
                return f"{source}: rank {projector.rank}, expected {rank}"
            if probability is not None and abs(p - probability) > TOL:
                return f"{source}: probability {p!r}, expected {probability!r}"
        return None

    return Op(f"query d={dim}", run, check)


def _lattice_query(dim: int, rng) -> Op:
    registry, state, diag, ranks, weights = _lattice_registry(dim, rng)
    c1, c2 = diag["C1"], diag["C2"]
    t = float(rng.choice(c1))
    v = float(rng.choice(c2))

    def prob(mask):
        return float(np.sum(weights[mask]))

    def cut(name):
        values, cumulative = ranks[name]
        k = int(rng.integers(0, len(values) - 1))
        return values[k], int(cumulative[k])

    s1, r1 = cut("G1")
    s2, r2 = cut("G2")
    g = float(rng.choice(ranks["G1"][0]))
    both, either = max(0, r1 + r2 - dim), min(dim, r1 + r2)
    agree = int(np.count_nonzero(c1 == c2))
    cases = [
        (f"C1 <= {t:g}", None, prob(c1 <= t)),
        (f"C2 == {v:g}", None, prob(c2 == v)),
        ("C1 = C2", agree, prob(c1 == c2)),
        (f"not C1 <= {t:g} and C2 == {v:g}", None, prob((c1 > t) & (c2 == v))),
        (f"C1 <= {t:g} or C2 == {v:g}", None, prob((c1 <= t) | (c2 == v))),
        (f"G1 <= {s1:g} and G2 <= {s2:g}", both, None),
        (f"G1 <= {s1:g} or G2 <= {s2:g}", either, None),
        (f"not (G1 <= {s1:g} and G2 <= {s2:g})", dim - both, None),
        (f"G1 == {g:g} or not G1 == {g:g}", dim, 1.0),
        (f"G1 == {g:g} and not G1 == {g:g}", 0, 0.0),
        (f"C1 = C2 and G1 <= {s1:g}", max(0, agree + r1 - dim), None),
    ]
    return _query_op(dim, registry, state, cases)


def _com_family_op(dim: int, count: int, rng) -> Op:
    """A family commuting on a coordinate sector, generic on its complement.

    Inside the sector every member is a coordinate projector, so the whole
    sector lies under com(F).  On the m-dimensional complement the members
    are Haar subspaces of ranks r_i, in general position, so the meet for
    a sign map s has rank max(0, sum_i r_i^s - (k - 1) m) and those meets
    are mutually orthogonal.
    """
    sector = dim // 3
    m = dim - sector
    frame = sampling.haar_unitary(dim, rng)
    ranks = [int(rng.integers(1, m)) for _ in range(count)]
    family = []
    for r in ranks:
        chosen = frame[:, :sector][:, rng.random(sector) < 0.5]
        generic = frame[:, sector:] @ sampling.haar_unitary(m, rng)[:, :r]
        family.append(qlogic.Projector(np.hstack([chosen, generic]), dim=dim))
    expected = sector
    for signs in np.ndindex(*([2] * count)):
        dims = [r if s else m - r for r, s in zip(ranks, signs)]
        expected += max(0, sum(dims) - (count - 1) * m)

    def check(out):
        lattice, kernel = out
        if lattice.rank != expected or kernel.rank != expected:
            return f"com ranks {lattice.rank}/{kernel.rank}, expected {expected}"
        if _opnorm(lattice.matrix - kernel.matrix) > TOL:
            return "com_family and com_kernel disagree"
        return None

    return Op(f"com-family d={dim} k={count}",
              lambda: (qlogic.com_family(family), qlogic.com_kernel(family)), check,
              lambda out: {"route_gap_margin": _opnorm(out[0].matrix - out[1].matrix) / TOL})


def lattice_round(rng) -> list[Op]:
    ops = []
    for dim in range(2, 9):
        ops += [_lattice_query(dim, rng), _com_family_op(dim, 2, rng),
                _com_family_op(dim, 3, rng)]
    return _schedule(ops)


# ---------------------------------------------------------------------------
# dimension-sweep: few large instances, one big algebra per call


# Generic pairs are nondegenerate, so each generates the full matrix algebra
# and every build is the d^4-row case; a generic pair at d = 12 takes about
# 10 s per instance on a 2-vCPU machine, too long for one round.  Seven
# instances make 21 operations.
_SWEEP_ROUND = ((12, "block"), (8, "generic"), (10, "block"), (10, "generic"),
                (8, "block"), (9, "generic"), (9, "block"))


def _sweep_ops(dim: int, style: str, rng) -> list[Op]:
    """Generic pair with a full-rank state (not determinate), or a block family
    with a state in its commuting sector (determinate)."""
    label = f"{style} d={dim}"
    if style == "generic":
        xs = _generic(dim, 2, rng, parts=dim)
        state = _full(dim, rng)

        def com_ok(p):
            return None if p.rank < dim else "generic pair has com = 1"

        def cyclic_ok(p):
            return None if p.rank == dim else f"cyclic rank {p.rank} < {dim} for a full-rank state"
    else:
        xs = _block_family(dim, 2, rng)
        state = _sector_state(dim, rng)
        sector = _sector(dim, dim // 2)

        def com_ok(p):
            return None if _below(sector, p.matrix) and p.rank < dim else \
                f"com rank {p.rank} does not sit between the sector and 1"

        def cyclic_ok(p):
            return None if _below(p.matrix, sector) else "cyclic subspace leaves the sector"
    determinate = style == "block"
    return [
        Op(f"com_observables {label}", lambda: qlogic.com_observables(xs), com_ok),
        Op(f"cyclic_projector {label}", lambda: qlogic.cyclic_projector(xs, state), cyclic_ok),
        _det_op(f"determinateness {label}", xs, state, determinate),
    ]


def sweep_round(rng, plan=_SWEEP_ROUND) -> list[Op]:
    return [op for dim, style in plan for op in _sweep_ops(dim, style, rng)]


# ---------------------------------------------------------------------------
# cli-cold: one cold interpreter per command against a benchmark-owned scenario


def _complex_json(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def cli_documents(rng) -> dict[str, str]:
    """Scenario texts: the d = 4 scenario, malformed JSON, and a NaN entry.

    A, B are a block family and X, Y an agreeing pair; at d = 4 both commute
    or agree on the first two coordinates, where the state ``sector`` lives.
    """
    (a, b), sector = sampling.random_determinate_family(4, 2, rng)
    x, y, _ = sampling.random_agreeing_pair(4, rng)
    meter = sampling.random_observable("M", 4, rng)
    process = sampling.measuring_process_for(meter)
    document = {
        "dimension": 4,
        "seed": int(rng.integers(0, 2 ** 31)),
        "observables": {name: {"matrix": _complex_json(o.matrix)}
                        for name, o in (("A", a), ("B", b), ("X", x), ("Y", y), ("M", meter))},
        "states": {
            "sector": {"matrix": _complex_json(sector.matrix)},
            "full": {"matrix": _complex_json(sampling.random_density(4, rng, rank=4).matrix)},
            "psi": {"matrix": _complex_json(sampling.random_vector_state(4, rng).matrix)},
        },
        "propositions": {
            "taut": f"X <= {x.spectrum[0]:g} or not X <= {x.spectrum[0]:g}",
            "q": f"A <= {a.spectrum[0]:g} and not B <= {b.spectrum[-1]:g}",
            "eqxy": "X = Y",
        },
        "processes": {"proc": {
            "dimK": process.dim_k,
            "sigma": {"matrix": _complex_json(process.probe.matrix)},
            "U": _complex_json(process.unitary),
            "M": _complex_json(process.meter.matrix),
        }},
    }
    nonfinite = json.loads(json.dumps(document))
    nonfinite["observables"]["A"]["matrix"][1][1][0] = float("nan")
    return {
        "scenario.json": json.dumps(document),
        "broken.json": json.dumps(document)[:120],
        "nonfinite.json": json.dumps(nonfinite),
    }


# (arguments with {dir} for the scenario directory, exit code, JSON fields the
# report must hold).  Thirteen commands are timed.  The last entry is the
# known-defect probe: a NaN matrix entry must exit 2 by the CLI contract.
CLI_COMMANDS = (
    (["eval", "{dir}/scenario.json", "q", "--json"], 0, {"command": "eval"}),
    (["eval", "{dir}/scenario.json", "eqxy", "--json"], 0, {"command": "eval"}),
    (["prob", "{dir}/scenario.json", "taut", "full", "--json"], 0,
     {"probability": 1.0, "holds": True}),
    (["prob", "{dir}/scenario.json", "eqxy", "sector", "--json"], 0, {"holds": True}),
    (["check", "{dir}/scenario.json", "determinate", "A", "B", "sector", "--json"], 0,
     {"determinate": True}),
    (["check", "{dir}/scenario.json", "determinate", "A", "B", "full", "--json"], 1,
     {"determinate": False}),
    (["check", "{dir}/scenario.json", "equal", "X", "Y", "sector", "--json"], 0,
     {"equal": True}),
    (["check", "{dir}/scenario.json", "equal", "X", "Y", "full", "--json"], 1,
     {"equal": False}),
    (["jointdist", "{dir}/scenario.json", "A", "B", "sector", "--json"], 0,
     {"determinate": True}),
    (["measure", "{dir}/scenario.json", "proc", "M", "psi", "--json"], 0, {"measures": True}),
    (["prob", "{dir}/scenario.json", "q", "sector", "--json"], 0, {"command": "prob"}),
    (["prob", "{dir}/broken.json", "taut", "full"], 2, None),
    (["prob", "{dir}/scenario.json", "nosuch", "full"], 2, None),
    (["prob", "{dir}/nonfinite.json", "taut", "full"], 2, None),
)
PROBE_INDEX = len(CLI_COMMANDS) - 1


class CliOp(Op):
    """A cold ``python -m qlogic.cli`` run (or the tracing shim).

    The first run of a command fixes its reference stdout; every later run
    must match it byte for byte and exit with the contractual code.  The
    non-finite probe is known to exit 1 with an uncaught LinAlgError; that
    exact outcome is reported as a contract violation, not as a failed
    operation, and any other deviation fails.
    """

    def __init__(self, index: int, directory: str, prefix: list[str]):
        arguments, self.code, self.fields = CLI_COMMANDS[index]
        self.argv = [a.replace("{dir}", directory) for a in arguments]
        self.command = prefix + self.argv
        self.reference: bytes | None = None
        super().__init__(f"cli {' '.join(arguments[:1] + arguments[2:])}",
                         self._run, self._check, probe=index == PROBE_INDEX)

    @staticmethod
    def cpu_seconds() -> float:
        """CPU time of finished child processes: the CLI run's own CPU time."""
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def _run(self):
        return subprocess.run(self.command, capture_output=True, timeout=120)

    def _check(self, done) -> str | None:
        if self.reference is None:
            self.reference = done.stdout
        if done.stdout != self.reference:
            return "stdout differs from the first run"
        if done.returncode != self.code or b"Traceback" in done.stderr:
            return f"exit {done.returncode}, expected {self.code}: {done.stderr[-200:]!r}"
        if self.fields:
            report = json.loads(done.stdout)
            wrong = {k: report.get(k) for k, v in self.fields.items() if report.get(k) != v}
            if wrong:
                return f"report fields {wrong}, expected {self.fields}"
        return None

    def known_defect(self, done) -> bool:
        return self.probe and done.returncode == 1 and b"LinAlgError" in done.stderr


def cli_round(directory: str, shim: str | None = None,
              spans_dir: str | None = None) -> list[CliOp]:
    """One round of commands, run plainly or through the tracing shim, which
    writes the spans of command i to ``spans_dir/cmd<i>.jsonl``."""
    def prefix(i):
        if shim is None:
            return [sys.executable, "-m", "qlogic.cli"]
        return [sys.executable, shim, os.path.join(spans_dir, f"cmd{i}.jsonl"), "--"]

    return [CliOp(i, directory, prefix(i)) for i in range(len(CLI_COMMANDS))]


def write_documents(directory: str, documents: dict[str, str]) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, text in documents.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# registry


# The in-process workloads: a seed's generator -> one round of operations.
WORKLOADS = {
    "battery-stream": battery_round,
    "lattice-eval": lattice_round,
    "dimension-sweep": sweep_round,
}

# Seconds one round takes on the machine the benchmark was written on (a
# 2-vCPU virtual machine), commands of cli-cold included.  A run's round
# count is a fixed function of --seconds, never of the program's speed, so
# every run of a workload has the same operations and the same number of
# latency samples on both sides of a comparison.  At least two rounds, so
# the tail has samples of every class.
ROUND_SECONDS = {
    "battery-stream": 2.1,
    "lattice-eval": 0.033,
    "dimension-sweep": 11.5,
    "cli-cold": 3.9,
}


def rounds(workload: str, seconds: float) -> int:
    return max(2, round(seconds / ROUND_SECONDS[workload]))


# The percentile latency_tail_ms reads, per workload (nearest rank).  Each
# sits inside a band of slow operations of similar cost, not at a gap
# between two bands, so the tail is a statistic of many like samples.  At
# --seconds 20 the three workloads with few samples per run (540, 42 and 65)
# keep ten or more samples beyond it.  lattice-eval has 12726: its largest
# are host pauses, not qlogic, so its tail is p95, the middle of the 9.5% of
# samples that are the queries at d = 7 and 8.
TAIL_PERCENTILE = {
    "battery-stream": 97.3,
    "lattice-eval": 95.0,
    "dimension-sweep": 76.0,
    "cli-cold": 80.7,
}
