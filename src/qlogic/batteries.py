"""Seeded property suites covering every structural claim the package makes.

Each suite draws its instances from a fixed seed, runs the relevant
cross-checked computation, and reports one line per claim.  The acceptance
tests and the command-line `battery` command both run these functions, so
the numbers printed there are the numbers tested here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .commutators import com_family, com_kernel, com_pair, threshold_family
from .errors import FamilyTooLargeError, QLogicError, UnknownNameError
from .linalg import opnorm
from .measurement import (
    apply_outcome_function,
    global_measurement_check,
    measurement_battery,
    naimark_process,
    simultaneous_measurability,
    spanning_state_sample,
)
from .observables import BorelSet, Observable, spectral_decompose
from .projectors import (
    Projector,
    commutes,
    join,
    join_all,
    leq,
    meet,
    ortho,
)
from .propositions import (
    EqConst,
    Leq,
    Not,
    ObservableRegistry,
    is_classical_tautology,
    parse_skeleton,
    skeleton_variables,
    tautology_transfer_check,
)
from .sampling import (
    cnot_process,
    haar_unitary,
    measuring_process_for,
    random_agreeing_pair,
    random_commuting_observables,
    random_density,
    random_determinate_family,
    random_measuring_process,
    random_observable,
    random_povm,
    random_projector,
    random_subprojector,
    random_vector_state,
    rng_from_seed,
)
from .states import (
    DensityState,
    common_eigenvector_projector,
    determinateness_battery,
    equality_battery,
    equality_projector,
    equivalence_relation_check,
    projector_probability,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

DEFAULT_SEED = 7


@dataclass
class CheckLine:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    seed: int
    elapsed_s: float
    checks: list[CheckLine] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "checks": [{"label": c.label, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
        }


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def _gap(p: Projector, q: Projector) -> float:
    return opnorm(p.matrix - q.matrix)


@dataclass
class _Tally:
    """What one check line has seen over its sampled instances.

    ``see`` keeps the worst residual and ``score`` counts hits.  ``attempt``
    runs one instance: a QLogicError it raises is counted against this line
    (and any ``also`` lines), and the first one is named in the detail.  A
    line passes when the worst residual is within its limit, every scored
    instance hit, and no instance raised.
    """

    worst: float = 0.0
    hits: int = 0
    total: int = 0
    raised: int = 0
    first_raised: str = ""

    def see(self, *residuals: float) -> None:
        self.worst = max(self.worst, *residuals)

    def score(self, hit: bool) -> None:
        self.total += 1
        self.hits += bool(hit)

    @contextmanager
    def attempt(self, instance: int, *also: _Tally) -> Iterator[None]:
        try:
            yield
        except QLogicError as exc:
            for tally in (self, *also):
                tally.raised += 1
                if not tally.first_raised:
                    tally.first_raised = f"first instance {instance}: {type(exc).__name__}: {exc}"

    def _line(self, label: str, detail: str, limit: float = float("inf")) -> CheckLine:
        passed = self.worst <= limit and self.hits == self.total and not self.raised
        if self.raised:
            detail += f"; {self.raised} raised, {self.first_raised}"
        return CheckLine(label, passed, detail)

    def residual_line(self, label: str, limit: float, measure: str = "max residual",
                      extra: str = "") -> CheckLine:
        return self._line(label, f"{measure} {_fmt(self.worst)}{extra}", limit)

    def ratio_line(self, label: str) -> CheckLine:
        return self._line(label, f"{self.hits}/{self.total}")

    def count_line(self, label: str, noun: str) -> CheckLine:
        return self._line(label, f"{self.raised} {noun}")


# ---------------------------------------------------------------------------
# lattice laws


def _block_diagonal_projector(blocks: list[np.ndarray], tol: ToleranceConfig) -> Projector:
    dim = sum(b.shape[0] for b in blocks)
    matrix = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        matrix[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return Projector.from_matrix(matrix, tol)


def _family_commuting_with(dim: int, count: int, rng: np.random.Generator,
                           tol: ToleranceConfig) -> tuple[Projector, list[Projector]]:
    """A block-scalar Q and a family of block-diagonal projectors in Q's
    frame: every member commutes with Q, members need not commute pairwise."""
    d1 = int(rng.integers(1, dim))
    d2 = dim - d1
    frame = haar_unitary(dim, rng)
    q_matrix = np.zeros((dim, dim), dtype=complex)
    q_matrix[:d1, :d1] = np.eye(d1)
    q = Projector.from_matrix(frame @ q_matrix @ frame.conj().T, tol)
    family = []
    for _ in range(count):
        block = _block_diagonal_projector(
            [random_projector(d1, rng, tol=tol).matrix,
             random_projector(d2, rng, tol=tol).matrix], tol)
        family.append(Projector.from_matrix(frame @ block.matrix @ frame.conj().T, tol))
    return q, family


def _suite_lattice_laws(rng: np.random.Generator, tol: ToleranceConfig) -> list[CheckLine]:
    order, de_morgan, orthomodular, decomposition, six_forms, family_law = (
        _Tally() for _ in range(6))
    double_ortho_ok = True
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        p = random_projector(dim, rng, tol=tol)
        q = random_projector(dim, rng, tol=tol)
        r = random_projector(dim, rng, tol=tol)

        sub = random_subprojector(q, rng)
        lhs = ortho(q)
        rhs = ortho(sub)
        order.see(opnorm(rhs.matrix @ lhs.matrix - lhs.matrix))

        double_ortho_ok = double_ortho_ok and (ortho(ortho(p)) is p)

        de_morgan.see(
            _gap(join(p, ortho(p)), Projector.identity(dim, tol)),
            _gap(meet(p, ortho(p)), Projector.zero(dim, tol)),
            _gap(ortho(join(p, q)), meet(ortho(p), ortho(q))),
            _gap(ortho(meet(p, q)), join(ortho(p), ortho(q))),
        )

        below = meet(q, r)
        rebuilt = join(below, meet(ortho(below), q))
        orthomodular.see(_gap(rebuilt, q))

        residual = _gap(join(meet(p, q), meet(p, ortho(q))), p)
        commuting = commutes(p, q)
        decomposition.see(residual if commuting else 0.0)
        decomposition.score(commuting == (residual <= tol.assert_tol))

        qq, (p1, p2) = _family_commuting_with(dim, 2, rng, tol)
        identities = [
            (meet(qq, join(p1, p2)), join(meet(qq, p1), meet(qq, p2))),
            (join(qq, meet(p1, p2)), meet(join(qq, p1), join(qq, p2))),
            (meet(p1, join(p2, qq)), join(meet(p1, p2), meet(p1, qq))),
            (join(p1, meet(p2, qq)), meet(join(p1, p2), join(p1, qq))),
            (meet(p2, join(p1, qq)), join(meet(p2, p1), meet(p2, qq))),
            (join(p2, meet(p1, qq)), meet(join(p2, p1), join(p2, qq))),
        ]
        six_forms.see(*(_gap(a, b) for a, b in identities))

        k = int(rng.integers(2, 5))
        qq, family = _family_commuting_with(dim, k, rng, tol)
        lhs = meet(qq, join_all(family, dim=dim))
        rhs = join_all([meet(qq, f) for f in family], dim=dim)
        family_law.see(_gap(lhs, rhs))

    z_up = Projector.from_matrix(np.diag([1.0, 0.0]).astype(complex), tol)
    x_up = Projector.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), tol)
    x_down = ortho(x_up)
    violation = _gap(meet(z_up, join(x_up, x_down)),
                     join(meet(z_up, x_up), meet(z_up, x_down)))

    a = tol.assert_tol
    return [
        order.residual_line("complement reverses order on 500 constructed pairs", a),
        CheckLine("double complement returns the original object", double_ortho_ok),
        de_morgan.residual_line("complement join/meet and De Morgan identities", a),
        orthomodular.residual_line("orthomodular law on constructed comparable pairs", a),
        decomposition.residual_line("commutes iff P = (P^Q) v (P^Q')", a),
        six_forms.residual_line("six distributivity forms with a doubly commuting element", a),
        family_law.residual_line("family distributivity over joins", a),
        CheckLine("Pauli distributivity counterexample violates by > 0.1",
                  violation > 0.1, f"violation {_fmt(violation)}"),
    ]


# ---------------------------------------------------------------------------
# commutator routes


def _block_projector_family(dim: int, count: int, rng: np.random.Generator,
                            tol: ToleranceConfig) -> list[Projector]:
    """Shared eigenbasis on the first block, independent bases on the second."""
    d1 = int(rng.integers(1, dim))
    d2 = dim - d1
    shared = haar_unitary(d1, rng)
    family = []
    for _ in range(count):
        bits = rng.integers(0, 2, size=d1).astype(float)
        top = (shared * bits) @ shared.conj().T
        bottom = random_projector(d2, rng, tol=tol).matrix
        family.append(_block_diagonal_projector([top, bottom], tol))
    return family


def _suite_commutator_routes(rng: np.random.Generator, tol: ToleranceConfig) -> list[CheckLine]:
    routes, pairwise = _Tally(), _Tally()
    for i in range(200):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(2, 4))
        if i % 2 == 0:
            family = [random_projector(dim, rng, tol=tol) for _ in range(count)]
        else:
            family = _block_projector_family(dim, count, rng, tol)
        with routes.attempt(i, pairwise):
            a = com_family(family)
            routes.see(_gap(a, com_kernel(family)))
            if count == 2:
                pairwise.see(_gap(a, com_pair(family[0], family[1])))

    monotone = True
    for i in range(100):
        dim = int(rng.integers(2, 7))
        if i % 2 == 0:
            family = [random_projector(dim, rng, tol=tol) for _ in range(3)]
        else:
            family = _block_projector_family(dim, 3, rng, tol)
        whole = com_family(family)
        part = com_family(family[:2])
        monotone = monotone and leq(whole, part)

    a = tol.assert_tol
    return [
        routes.residual_line("sign-map join equals kernel route on 200 families", a, "max gap"),
        pairwise.residual_line("pairwise formula agrees on two-element families", a, "max gap"),
        CheckLine("commutator shrinks under family growth on 100 nested families",
                  monotone),
    ]


# ---------------------------------------------------------------------------
# spectral identities


def _suite_spectral_identities(rng: np.random.Generator,
                               tol: ToleranceConfig) -> list[CheckLine]:
    threshold, tail, window, point = _Tally(), _Tally(), _Tally(), _Tally()
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        x = random_observable("X", dim, rng, tol=tol)
        spectrum = x.spectrum
        delta = x.delta()
        cuts = [spectrum[0] - 1.0, spectrum[-1] + 1.0,
                float(rng.choice(spectrum)),
                float(rng.choice(spectrum)) + 0.5 * delta]
        for t in cuts:
            threshold.see(_gap(x.threshold(t), x.spectral_projector(BorelSet.up_to(t))))
            tail.see(_gap(ortho(x.threshold(t)), x.spectral_projector(BorelSet.above(t))))
        lo, hi = sorted(rng.uniform(spectrum[0] - 1.0, spectrum[-1] + 1.0, size=2))
        if hi - lo > x.snap_width:
            window.see(_gap(meet(x.threshold(hi), ortho(x.threshold(lo))),
                            x.spectral_projector(BorelSet.left_open(lo, hi))))
        v = float(rng.choice(spectrum))
        singleton = x.spectral_projector(BorelSet.point(v))
        point.see(
            _gap(singleton, x.eigenprojector_at(v)),
            _gap(singleton, meet(x.threshold(v + delta), ortho(x.threshold(v - delta)))),
        )

    a = tol.assert_tol
    return [
        threshold.residual_line("threshold equals the (-inf, x] spectral projector", a),
        tail.residual_line("complement of threshold equals the (x, inf) projector", a),
        window.residual_line("half-open window equals the threshold difference", a),
        point.residual_line("singleton projector via the half-gap window", a),
    ]


# ---------------------------------------------------------------------------
# com expansion


def _mixed_observable_family(dim: int, count: int, style: int, rng: np.random.Generator,
                             tol: ToleranceConfig) -> list[Observable]:
    if style == 0:
        return [random_observable(f"X{i + 1}", dim, rng, tol=tol) for i in range(count)]
    if style == 1:
        return random_commuting_observables(dim, count, rng, tol)
    family, _ = random_determinate_family(max(dim, 4), count, rng, tol)
    return family


def _suite_com_expansion(rng: np.random.Generator, tol: ToleranceConfig) -> list[CheckLine]:
    expansion = _Tally()
    biggest_grid = 0
    for i in range(50):
        dim = int(rng.integers(3, 7))
        count = 2 if i % 2 == 0 else 3
        xs = _mixed_observable_family(dim, count, i % 3, rng, tol)
        grid = 1
        for x in xs:
            grid *= len(x.spectrum)
        with expansion.attempt(i):
            if grid > 4096:
                raise FamilyTooLargeError(f"atom grid {grid} exceeds 4096")
            biggest_grid = max(biggest_grid, grid)
            span = common_eigenvector_projector(xs, "determinate")
            expansion.see(_gap(span, com_kernel(threshold_family(xs))))
    return [
        expansion.residual_line("join-of-meets expansion equals the commutator on 50 families",
                                tol.assert_tol, "max gap",
                                f", largest atom grid {biggest_grid}"),
    ]


# ---------------------------------------------------------------------------
# determinateness


def _suite_determinateness(rng: np.random.Generator, tol: ToleranceConfig) -> list[CheckLine]:
    coherence, commuting, block_positive, block_negative, born = (_Tally() for _ in range(5))
    for i in range(300):
        style = i % 4
        with coherence.attempt(i):
            if style == 0:
                dim = int(rng.integers(3, 7))
                count = int(rng.integers(2, 4))
                xs = random_commuting_observables(dim, count, rng, tol)
                state = random_density(dim, rng, tol=tol)
                report = determinateness_battery(xs, state)
                commuting.score(report.holds)
                if report.distribution is not None:
                    for values, mass in report.distribution.sorted_items():
                        atom = np.eye(dim, dtype=complex)
                        for x, v in zip(xs, values):
                            atom = atom @ x.eigenprojector_at(v).matrix
                        born.see(abs(mass - float(np.real(np.trace(atom @ state.matrix)))))
            elif style == 1:
                dim = int(rng.integers(4, 7))
                xs, state = random_determinate_family(dim, int(rng.integers(2, 4)), rng, tol)
                block_positive.score(determinateness_battery(xs, state).holds)
            elif style == 2:
                dim = int(rng.integers(4, 7))
                xs, _ = random_determinate_family(dim, int(rng.integers(2, 4)), rng, tol)
                state = random_density(dim, rng, rank=dim, tol=tol)
                report = determinateness_battery(xs, state)
                block_negative.score(not any(report.clauses.values()))
            else:
                dim = int(rng.integers(2, 6))
                xs = [random_observable(f"X{k + 1}", dim, rng, tol=tol)
                      for k in range(int(rng.integers(2, 4)))]
                state = random_density(dim, rng, tol=tol)
                determinateness_battery(xs, state)

    sigma_z = spectral_decompose("Z", np.diag([1.0, -1.0]).astype(complex), tol)
    sigma_x = spectral_decompose("X", np.array([[0, 1], [1, 0]], dtype=complex), tol)
    pauli = determinateness_battery(
        [sigma_z, sigma_x], DensityState.maximally_mixed(2, tol))
    pauli_all_false = not any(pauli.clauses.values())

    return [
        coherence.count_line("clause coherence across 300 sampled instances", "incoherent"),
        commuting.ratio_line("commuting families all determinate"),
        block_positive.ratio_line("sector-supported states determinate for block families"),
        block_negative.ratio_line("full-rank states fail every clause for block families"),
        CheckLine("Pauli pair with mixed state fails every clause", pauli_all_false),
        born.residual_line("constructed joint measure matches Born atom masses",
                           tol.assert_tol, "max gap"),
    ]


# ---------------------------------------------------------------------------
# equality


def _renamed(x: Observable, name: str) -> Observable:
    return Observable(name, x.matrix, x.spectrum, x.eigenprojectors, x.tol)


def _suite_equality(rng: np.random.Generator, tol: ToleranceConfig) -> list[CheckLine]:
    routes = _Tally()
    for i in range(200):
        dim = int(rng.integers(2, 7))
        with routes.attempt(i):
            if i % 3 == 0:
                x = random_observable("X", dim, rng, tol=tol)
                y = _renamed(x, "Y")
            elif i % 3 == 1:
                x = random_observable("X", dim, rng, tol=tol)
                y = random_observable("Y", dim, rng, tol=tol)
            else:
                x, y, _ = random_agreeing_pair(max(dim, 4), rng, tol)
            equality_projector(x, y)

    coherence, positives, negatives = _Tally(), _Tally(), _Tally()
    for i in range(300):
        style = i % 4
        with coherence.attempt(i):
            if style == 0:
                x, y, state = random_agreeing_pair(int(rng.integers(4, 7)), rng, tol)
                positives.score(equality_battery(x, y, state).holds)
            elif style == 1:
                dim = int(rng.integers(2, 6))
                x = random_observable("X", dim, rng, tol=tol)
                state = random_vector_state(dim, rng, tol)
                positives.score(equality_battery(x, _renamed(x, "Y"), state).holds)
            else:
                if style == 2:
                    dim = int(rng.integers(2, 6))
                    x = random_observable("X", dim, rng, tol=tol)
                    y = random_observable("Y", dim, rng, tol=tol)
                    state = random_density(dim, rng, tol=tol)
                else:
                    x, y, _ = random_agreeing_pair(int(rng.integers(4, 7)), rng, tol)
                    state = random_density(x.dim, rng, rank=x.dim, tol=tol)
                report = equality_battery(x, y, state)
                if not report.holds:
                    negatives.score(not any(report.clauses.values()))

    z = np.diag([1.0, -1.0]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    first = spectral_decompose("ZL", np.kron(z, eye2), tol)
    second = spectral_decompose("ZR", np.kron(eye2, z), tol)
    bell_vector = np.zeros(4, dtype=complex)
    bell_vector[0] = bell_vector[3] = 1.0 / np.sqrt(2.0)
    bell = DensityState.from_vector(bell_vector, tol)
    q = equality_projector(first, second)
    bell_probability = projector_probability(q, bell)
    expected_span = np.zeros((4, 4), dtype=complex)
    expected_span[0, 0] = expected_span[3, 3] = 1.0
    bell_ok = abs(1.0 - bell_probability) <= 1e-10 and _gap(
        q, Projector.from_matrix(expected_span, tol)) <= tol.assert_tol

    return [
        routes.count_line("threshold-kernel and cross-term routes agree on 200 pairs",
                          "disagreements"),
        coherence.count_line("clause coherence across 300 sampled instances", "incoherent"),
        positives.ratio_line("agreeing pairs equal in sector states"),
        negatives.ratio_line("unequal instances fail every clause"),
        CheckLine("Bell state satisfies left = right with probability 1 (1e-10)",
                  bell_ok, f"probability deficit {_fmt(abs(1.0 - bell_probability))}"),
    ]


# ---------------------------------------------------------------------------
# equivalence relation


def _suite_equivalence_relation(rng: np.random.Generator,
                                tol: ToleranceConfig) -> list[CheckLine]:
    reflexive = _Tally()
    symmetric = True
    transitive = True
    for i in range(200):
        dim = int(rng.integers(2, 7))
        if i % 3 == 0:
            x = random_observable("X", dim, rng, tol=tol)
            y = _renamed(x, "Y")
            z = random_observable("Z", dim, rng, tol=tol)
        elif i % 3 == 1:
            x, y, z = random_commuting_observables(dim, 3, rng, tol)
        else:
            x = random_observable("X", dim, rng, tol=tol)
            y = random_observable("Y", dim, rng, tol=tol)
            z = random_observable("Z", dim, rng, tol=tol)
        report = equivalence_relation_check(x, y, z)
        reflexive.see(report.reflexive_residual)
        symmetric = symmetric and report.symmetric_exact
        transitive = transitive and report.transitive
    return [
        reflexive.residual_line("self equality is the identity to 1e-10", 1e-10),
        CheckLine("equality projector is bitwise symmetric", symmetric),
        CheckLine("transitivity as a lattice inequality on 200 triples", transitive),
    ]


# ---------------------------------------------------------------------------
# common eigenvectors


def _suite_common_eigenvectors(rng: np.random.Generator,
                               tol: ToleranceConfig) -> list[CheckLine]:
    determinate = _Tally()
    for i in range(100):
        dim = int(rng.integers(3, 7))
        count = 2 if i % 2 == 0 else 3
        xs = _mixed_observable_family(dim, count, i % 3, rng, tol)
        with determinate.attempt(i):
            span = common_eigenvector_projector(xs, "determinate")
            determinate.see(_gap(span, com_kernel(threshold_family(xs))))

    equal = _Tally()
    for i in range(100):
        dim = int(rng.integers(2, 7))
        with equal.attempt(i):
            if i % 3 == 0:
                x = random_observable("X", dim, rng, tol=tol)
                y = _renamed(x, "Y")
            elif i % 3 == 1:
                x, y, _ = random_agreeing_pair(max(dim, 4), rng, tol)
            else:
                x = random_observable("X", dim, rng, tol=tol)
                y = random_observable("Y", dim, rng, tol=tol)
            span = common_eigenvector_projector([x, y], "equal")
            equal.see(_gap(span, equality_projector(x, y)))

    a = tol.assert_tol
    return [
        determinate.residual_line("joint eigenspace span equals the commutator on 100 families",
                                  a, "max gap"),
        equal.residual_line(
            "matching eigenspace span equals the equality projector on 100 pairs", a, "max gap"),
    ]


# ---------------------------------------------------------------------------
# tautology transfer


_TAUTOLOGIES = (
    "a or not a",
    "not (a and not a)",
    "(a and b) or not a or not b",
    "(not a or b) or (not b or a)",
    "not (a or b) or a or b",
    "not (a and (not a or b)) or b",
    "(a and b) or (a and not b) or not a",
    "(a or b) or (not a and not b)",
    "not a or not b or (a and b)",
    "(a and b and c) or not a or not b or not c",
    "(a or not b) or (b or not c) or (c or not a)",
    "not ((not a or b) and (not b or c)) or not a or c",
)


def _random_atom(name: str, registry_entry: Observable, rng: np.random.Generator):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        cut = float(rng.choice(registry_entry.spectrum))
        return Leq(name, cut)
    if kind == 1:
        value = float(rng.choice(registry_entry.spectrum))
        return EqConst(name, value)
    cut = float(rng.choice(registry_entry.spectrum)) - 0.25
    return Not(Leq(name, cut))


def _suite_tautology_transfer(rng: np.random.Generator,
                              tol: ToleranceConfig) -> list[CheckLine]:
    oracle_ok = all(is_classical_tautology(parse_skeleton(s)) for s in _TAUTOLOGIES)
    non_tautology = not is_classical_tautology(parse_skeleton("a or b"))

    transfer = _Tally()
    for source in _TAUTOLOGIES:
        skeleton = parse_skeleton(source)
        variables = skeleton_variables(skeleton)
        for j in range(20):
            dim = int(rng.integers(2, 5))
            if j % 2 == 0:
                pool = [random_observable(f"O{k + 1}", dim, rng, tol=tol) for k in range(3)]
            else:
                pool = random_commuting_observables(dim, 3, rng, tol)
                pool = [_renamed(x, f"O{k + 1}") for k, x in enumerate(pool)]
            registry = ObservableRegistry(pool)
            assignment = {}
            for v in variables:
                pick = pool[int(rng.integers(0, len(pool)))]
                assignment[v] = _random_atom(pick.name, pick, rng)
            transfer.score(tautology_transfer_check(skeleton, assignment, registry).passed)
    return [
        CheckLine("truth-table oracle certifies the 12 fixtures", oracle_ok),
        CheckLine("truth-table oracle rejects a non-tautology", non_tautology),
        transfer.ratio_line("commutator below the truth value in all instantiations"),
    ]


# ---------------------------------------------------------------------------
# measurement


def _suite_measurement(rng: np.random.Generator, tol: ToleranceConfig) -> list[CheckLine]:
    cnot = cnot_process(tol)
    sigma_z = spectral_decompose("Z", np.diag([1.0, -1.0]).astype(complex), tol)
    sigma_x = spectral_decompose("X", np.array([[0, 1], [1, 0]], dtype=complex), tol)

    cnot_z = _Tally()
    for _ in range(50):
        state = random_vector_state(2, rng, tol)
        cnot_z.score(measurement_battery(cnot, sigma_z, state).holds)

    up = DensityState.from_vector(np.array([1.0, 0.0], dtype=complex), tol)
    x_report = measurement_battery(cnot, sigma_x, up)
    x_all_false = not any(x_report.clauses.values())

    coherence, pushforward = _Tally(), _Tally()
    for i in range(100):
        with coherence.attempt(i):
            if i % 3 == 0:
                dim = int(rng.integers(2, 4))
                a = random_observable("A", dim, rng, tol=tol)
                process = measuring_process_for(a)
                state = random_vector_state(dim, rng, tol)
                measurement_battery(process, a, state)
            elif i % 3 == 1:
                dim_h = int(rng.integers(2, 4))
                dim_k = int(rng.integers(2, 4))
                process = random_measuring_process(dim_h, dim_k, rng, tol)
                a = random_observable("A", dim_h, rng, tol=tol)
                state = random_density(dim_h, rng, tol=tol)
                measurement_battery(process, a, state)
            else:
                dim = int(rng.integers(2, 4))
                a = random_observable("A", dim, rng, n_values=dim, tol=tol)
                process = measuring_process_for(a)
                squared = apply_outcome_function(process, lambda v: v * v)
                base = process.povm
                pushed = squared.povm
                for value in squared.meter.spectrum:
                    expected = sum(
                        (base.element(m) for m in base.outcomes
                         if abs(float(m) ** 2 - value) <= squared.meter.snap_width),
                        np.zeros((dim, dim), dtype=complex))
                    pushforward.see(opnorm(pushed.element(value) - expected))
                state = random_vector_state(dim, rng, tol)
                measurement_battery(squared, a.apply_function(lambda v: v * v), state)

    all_states = _Tally()
    for i in range(20):
        dim = int(rng.integers(2, 4))
        a = random_observable("A", dim, rng, tol=tol)
        if i % 2 == 0:
            process = measuring_process_for(a)
        else:
            process = random_measuring_process(dim, int(rng.integers(2, 4)), rng, tol)
        with all_states.attempt(i):
            report = global_measurement_check(process, a, spanning_state_sample(dim, tol))
            all_states.score(report.holds == (i % 2 == 0))

    naimark = _Tally()
    for i in range(100):
        dim = int(rng.integers(2, 5))
        outcomes = int(rng.integers(2, 5))
        povm = random_povm(dim, outcomes, rng, tol)
        with naimark.attempt(i):
            induced = naimark_process(povm).povm
            for label, element in zip(povm.outcomes, povm.elements):
                naimark.see(opnorm(induced.element(float(label)) - element))

    witness = _Tally()
    for i in range(50):
        dim = int(rng.integers(4, 6))
        (first, second), state = random_determinate_family(dim, 2, rng, tol)
        with witness.attempt(i):
            report = simultaneous_measurability(first, second, state)
            witness.score(report.determinate and report.passed)

    return [
        cnot_z.ratio_line("CNOT model measures Z in 50 random states"),
        CheckLine("CNOT model fails X in |0> with every clause false", x_all_false),
        coherence.count_line("predicate coherence across 100 sampled models", "incoherent"),
        pushforward.residual_line("outcome pushforward matches the relabeled statistics",
                                  tol.assert_tol, "max gap"),
        all_states.ratio_line(
            "all-states measurement iff the statistics are spectral (20 models)"),
        naimark.residual_line("probe dilation reproduces 100 random statistics maps",
                              tol.assert_tol, "max gap"),
        witness.ratio_line("joint witness succeeds on 50 determinate pairs"),
    ]


# ---------------------------------------------------------------------------
# cli determinism


_CLI_SCENARIO = {
    "dimension": 2,
    "observables": {
        "Z": {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
        "X": {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
        "N": {"matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    },
    "states": {
        "up": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
        "mixed": {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    },
    "propositions": {
        "p": "Z <= 0 or not Z <= 0",
        "q": "Z <= 0 and X <= 0",
    },
    "seed": 7,
}


def _run_cli(arguments: list[str], cwd: str) -> subprocess.CompletedProcess:
    package_root = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "qlogic.cli", *arguments],
                          capture_output=True, cwd=cwd, env=env, timeout=120)


# (label, arguments, expected exit code, whether a rerun must print the same
# bytes, detail format); SCENARIO and BROKEN name the two files written below.
_CLI_CASES = (
    ("probability reports byte-identical across runs",
     ["prob", "SCENARIO", "p", "up", "--json"], 0, True, "exit {exit}, {size} bytes"),
    ("evaluation reports byte-identical across runs",
     ["eval", "SCENARIO", "q", "--json"], 0, True, "exit {exit}"),
    ("failed determinateness check exits 1 with stable output",
     ["check", "SCENARIO", "determinate", "Z", "X", "mixed", "--json"], 1, True, "exit {exit}"),
    ("passing determinateness check exits 0",
     ["check", "SCENARIO", "determinate", "Z", "N", "up"], 0, False, "exit {exit}"),
    ("malformed scenario exits 2", ["prob", "BROKEN", "p", "up"], 2, False, "exit {exit}"),
    ("unknown proposition name exits 2",
     ["prob", "SCENARIO", "nosuch", "up"], 2, False, "exit {exit}"),
)


def _suite_cli_determinism(rng: np.random.Generator,
                           tol: ToleranceConfig) -> list[CheckLine]:
    checks: list[CheckLine] = []
    with tempfile.TemporaryDirectory() as workdir:
        files = {"SCENARIO": os.path.join(workdir, "scenario.json"),
                 "BROKEN": os.path.join(workdir, "broken.json")}
        with open(files["SCENARIO"], "w", encoding="utf-8") as handle:
            json.dump(_CLI_SCENARIO, handle)
        with open(files["BROKEN"], "w", encoding="utf-8") as handle:
            handle.write('{"dimension": 2,')

        for label, arguments, expected_exit, rerun, detail in _CLI_CASES:
            arguments = [files.get(arg, arg) for arg in arguments]
            first = _run_cli(arguments, workdir)
            stable = not rerun or first.stdout == _run_cli(arguments, workdir).stdout
            checks.append(CheckLine(
                label, first.returncode == expected_exit and stable,
                detail.format(exit=first.returncode, size=len(first.stdout))))
    return checks


# ---------------------------------------------------------------------------
# registry


BUILTIN_SUITES = {
    "lattice-laws": _suite_lattice_laws,
    "commutator-routes": _suite_commutator_routes,
    "spectral-identities": _suite_spectral_identities,
    "com-expansion": _suite_com_expansion,
    "determinateness": _suite_determinateness,
    "equality": _suite_equality,
    "equivalence-relation": _suite_equivalence_relation,
    "common-eigenvectors": _suite_common_eigenvectors,
    "tautology-transfer": _suite_tautology_transfer,
    "measurement": _suite_measurement,
    "cli-determinism": _suite_cli_determinism,
}


def run_suite(name: str, seed: int | None = None,
              tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Run one named suite under a recorded seed."""
    try:
        suite = BUILTIN_SUITES[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown suite {name!r}; available: {', '.join(sorted(BUILTIN_SUITES))}"
        ) from None
    actual_seed = DEFAULT_SEED if seed is None else seed
    started = time.perf_counter()
    checks = suite(rng_from_seed(actual_seed), tol)
    elapsed = time.perf_counter() - started
    return SuiteResult(name, actual_seed, elapsed, checks)


def run_all(seed: int | None = None, tol: ToleranceConfig = DEFAULT_TOL) -> list[SuiteResult]:
    return [run_suite(name, seed, tol) for name in BUILTIN_SUITES]
