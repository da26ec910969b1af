"""Command-line front end over scenario files and the builtin check suites.

Numbers are printed at 12 significant digits through one canonicalization
path: handlers put raw floats in their reports, and ``main`` applies
``_canon_tree`` to every JSON report, so the report of a run is
byte-identical across repeated invocations with the same scenario and seed.  Exit codes: 0 when every
assertion passes, 1 when a checked assertion fails (any other QLogicError
included), 2 for an ``InputError`` or an unreadable file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

import numpy as np

from .batteries import SuiteResult, run_all, run_suite
from .errors import InputError, QLogicError, ScenarioParseError, UnknownNameError
from .measurement import measurement_battery, output_distribution
from .propositions import is_contextually_wellformed, is_standard, truth_value
from .scenario import Scenario, load_scenario
from .states import (
    JointDistribution,
    determinateness_battery,
    equality_battery,
    probability,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig


def _canon(value: float) -> float:
    """Round to 12 significant digits; the one float path for all reports."""
    return float(f"{float(value):.12g}")


def _canon_tree(value):
    """A report with every float in it canonicalized; tuples are not walked."""
    if isinstance(value, dict):
        return {k: _canon_tree(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canon_tree(v) for v in value]
    if isinstance(value, float):
        return _canon(value)
    return value


def _matrix_json(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[[z.real, z.imag] for z in map(complex, row)] for row in np.asarray(matrix)]


def _atoms_json(distribution: JointDistribution) -> list[dict]:
    return [{"values": list(values), "mass": mass}
            for values, mass in distribution.sorted_items()]


def _lookup(section: dict, name: str, kind: str):
    try:
        return section[name]
    except KeyError:
        raise UnknownNameError(f"no {kind} named {name!r}") from None


def _family_and_state(scenario: Scenario, names: Sequence[str], command: str):
    """The observables named first and the state named last on the command line."""
    if len(names) < 2:
        raise UnknownNameError(f"{command} needs at least one observable and a state")
    state = _lookup(scenario.states, names[-1], "state")
    return [_lookup(scenario.observables, n, "observable") for n in names[:-1]], state


# ---------------------------------------------------------------------------
# commands: each returns (JSON report, text lines, exit code) for main to print


def _cmd_eval(args, tol: ToleranceConfig):
    scenario = load_scenario(args.scenario, tol)
    node = _lookup(scenario.propositions, args.proposition, "proposition")
    projector = truth_value(node, scenario.registry)
    standard = is_standard(node, scenario.registry)
    contextual = {
        state_name: is_contextually_wellformed(node, scenario.registry, state)
        for state_name, state in sorted(scenario.states.items())
    }
    report = {
        "command": "eval",
        "proposition": args.proposition,
        "source": scenario.proposition_sources[args.proposition],
        "dimension": scenario.dimension,
        "rank": projector.rank,
        "projector": _matrix_json(projector.matrix),
        "standard": standard,
        "contextually_wellformed": contextual,
    }
    lines = [
        f"proposition {args.proposition}: {report['source']}",
        f"truth projector rank {projector.rank} of {scenario.dimension}",
        f"standard: {standard}",
    ]
    lines += [f"contextually well-formed in {name}: {flag}"
              for name, flag in sorted(contextual.items())]
    return report, lines, 0


def _cmd_prob(args, tol: ToleranceConfig):
    scenario = load_scenario(args.scenario, tol)
    node = _lookup(scenario.propositions, args.proposition, "proposition")
    state = _lookup(scenario.states, args.state, "state")
    value = probability(node, state, scenario.registry)
    report = {
        "command": "prob",
        "proposition": args.proposition,
        "state": args.state,
        "probability": value,
        "holds": value >= 1.0 - tol.assert_tol,
    }
    return report, [f"Pr{{{args.proposition} | {args.state}}} = {value:.12g}"], 0


def _cmd_check(args, tol: ToleranceConfig):
    scenario = load_scenario(args.scenario, tol)
    observables, state = _family_and_state(scenario, args.names, "check")
    names, state_name = args.names[:-1], args.names[-1]
    if args.kind == "determinate":
        result = determinateness_battery(observables, state)
        rank_key = "com_rank"
        lines = [f"determinate({', '.join(names)}) in {state_name}: {result.holds}",
                 f"commutator projection rank {result.projector.rank} of {scenario.dimension}"]
    else:
        if len(observables) != 2:
            raise UnknownNameError("equality check needs exactly two observables and a state")
        result = equality_battery(observables[0], observables[1], state)
        rank_key = "projector_rank"
        lines = [f"{names[0]} = {names[1]} in {state_name}: {result.holds}"]
    # The verdict's key is the kind itself: "determinate" or "equal".
    report = {
        "command": "check",
        "kind": args.kind,
        "observables": list(names),
        "state": state_name,
        rank_key: result.projector.rank,
        "clauses": dict(sorted(result.clauses.items())),
        "residuals": dict(sorted(result.residuals.items())),
        args.kind: result.holds,
    }
    if result.distribution is not None:
        report["distribution"] = _atoms_json(result.distribution)
    lines += [f"  {k}: {v}" for k, v in sorted(result.clauses.items())]
    return report, lines, 0 if result.holds else 1


def _cmd_jointdist(args, tol: ToleranceConfig):
    scenario = load_scenario(args.scenario, tol)
    observables, state = _family_and_state(scenario, args.names, "jointdist")
    names, state_name = args.names[:-1], args.names[-1]
    distribution = determinateness_battery(observables, state).distribution
    report = {
        "command": "jointdist",
        "observables": list(names),
        "state": state_name,
        "determinate": distribution is not None,
    }
    if distribution is None:
        return report, [f"no joint distribution: {', '.join(names)} "
                        f"not simultaneously determinate in {state_name}"], 1
    report["atoms"] = _atoms_json(distribution)
    lines = ["  ".join(f"{n:>8}" for n in names) + "      mass"]
    for atom in report["atoms"]:
        row = "  ".join(f"{v:8.5g}" for v in atom["values"])
        lines.append(f"{row}  {atom['mass']:.12g}")
    return report, lines, 0


def _cmd_measure(args, tol: ToleranceConfig):
    scenario = load_scenario(args.scenario, tol)
    process = _lookup(scenario.processes, args.process, "process")
    observable = _lookup(scenario.observables, args.observable, "observable")
    state = _lookup(scenario.states, args.state, "state")
    result = measurement_battery(process, observable, state)
    distribution = output_distribution(process, state)
    report = {
        "command": "measure",
        "process": args.process,
        "observable": args.observable,
        "state": args.state,
        "clauses": dict(sorted(result.clauses.items())),
        "measures": result.holds,
        "output_distribution": {f"{k:.12g}": v for k, v in sorted(distribution.items())},
    }
    lines = [f"{args.process} measures {args.observable} in {args.state}: {result.holds}"]
    lines += [f"  {k}: {v}" for k, v in sorted(result.clauses.items())]
    lines += ["output distribution:"]
    lines += [f"  {k} -> {v:.12g}" for k, v in sorted(report["output_distribution"].items(),
                                                      key=lambda kv: float(kv[0]))]
    return report, lines, 0


def _suite_lines(result: SuiteResult) -> list[str]:
    status = "PASSED" if result.passed else "FAILED"
    lines = [f"suite {result.suite} (seed {result.seed}) {status} "
             f"in {result.elapsed_s:.2f}s"]
    for check in result.checks:
        mark = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        lines.append(f"  [{mark}] {check.label}{detail}")
    return lines


def _cmd_battery(args, tol: ToleranceConfig):
    target = args.target
    suite_name = args.suite
    seed = args.seed
    if os.path.exists(target):
        scenario = load_scenario(target, tol)
        if seed is None:
            seed = scenario.seed
        if suite_name is None:
            raise UnknownNameError("battery with a scenario file also needs a suite name")
    elif suite_name is None:
        suite_name = target
    else:
        raise ScenarioParseError(target, "no such scenario file")

    if suite_name == "all":
        results = run_all(seed, tol)
    else:
        results = [run_suite(suite_name, seed, tol)]
    report = {
        "command": "battery",
        "suites": [r.summary() for r in results],
        "passed": all(r.passed for r in results),
    }
    lines = [line for r in results for line in _suite_lines(r)]
    return report, lines, 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlogic",
        description="Evaluate quantum-logical propositions, relation checks, "
                    "measurement models, and property suites over scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--tol", type=float, default=None,
                       help="override the assertion tolerance")

    p_eval = sub.add_parser("eval", help="truth-value projector of a proposition")
    p_eval.add_argument("scenario")
    p_eval.add_argument("proposition")
    common(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_prob = sub.add_parser("prob", help="Born probability of a proposition in a state")
    p_prob.add_argument("scenario")
    p_prob.add_argument("proposition")
    p_prob.add_argument("state")
    common(p_prob)
    p_prob.set_defaults(handler=_cmd_prob)

    p_check = sub.add_parser("check", help="determinateness or equality battery")
    p_check.add_argument("scenario")
    p_check.add_argument("kind", choices=("determinate", "equal"))
    p_check.add_argument("names", nargs="+",
                         help="observable names followed by the state name")
    common(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_joint = sub.add_parser("jointdist", help="joint spectral distribution in a state")
    p_joint.add_argument("scenario")
    p_joint.add_argument("names", nargs="+",
                         help="observable names followed by the state name")
    common(p_joint)
    p_joint.set_defaults(handler=_cmd_jointdist)

    p_measure = sub.add_parser("measure", help="measurement predicate battery")
    p_measure.add_argument("scenario")
    p_measure.add_argument("process")
    p_measure.add_argument("observable")
    p_measure.add_argument("state")
    common(p_measure)
    p_measure.set_defaults(handler=_cmd_measure)

    p_battery = sub.add_parser("battery", help="run builtin property suites")
    p_battery.add_argument("target",
                           help="suite name, 'all', or a scenario file providing a seed")
    p_battery.add_argument("suite", nargs="?", default=None,
                           help="suite name when a scenario file is given")
    p_battery.add_argument("--seed", type=int, default=None)
    common(p_battery)
    p_battery.set_defaults(handler=_cmd_battery)
    return parser


def _resolve_tolerances(args) -> ToleranceConfig:
    tol = DEFAULT_TOL
    env_value = os.environ.get("QLOGIC_TOL")
    if env_value is not None:
        tol = tol.with_assert_tol(float(env_value))
    if getattr(args, "tol", None) is not None:
        tol = tol.with_assert_tol(args.tol)
    return tol


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        tol = _resolve_tolerances(args)
    except ValueError as exc:
        print(f"error: invalid tolerance: {exc}", file=sys.stderr)
        return 2
    try:
        report, lines, code = args.handler(args, tol)
        print(json.dumps(_canon_tree(report), sort_keys=True, indent=2) if args.json
              else "\n".join(lines))
        return code
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QLogicError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
