"""Scenario files: named observables, states, propositions, and processes.

A scenario is a JSON document that fixes one Hilbert space dimension and
names the objects the command-line front end works with.  Complex numbers
are written as two-element [re, im] arrays, matrices as nested row-major
arrays of those pairs, and states either as density matrices or as unit
vectors.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FactorizationError,
    PropositionSyntaxError,
    QLogicError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .measurement import MeasuringProcess
from .observables import Observable, spectral_decompose
from .propositions import ObservableRegistry, parse
from .states import DensityState
from .tolerances import DEFAULT_TOL, ToleranceConfig

_TOP_LEVEL_KEYS = {"dimension", "observables", "states", "propositions", "processes", "seed"}


@dataclass
class Scenario:
    """A validated scenario document."""

    dimension: int
    observables: dict[str, Observable]
    states: dict[str, DensityState]
    propositions: dict[str, object]
    proposition_sources: dict[str, str]
    processes: dict[str, MeasuringProcess]
    seed: int | None
    tol: ToleranceConfig
    registry: ObservableRegistry = field(init=False)

    def __post_init__(self) -> None:
        self.registry = ObservableRegistry(self.observables)


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ScenarioParseError(path, message)


def _as_real(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, "expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    _expect(math.isfinite(number), path, "expected a finite number")
    return number


def _as_complex(value, path: str) -> complex:
    _expect(isinstance(value, (list, tuple)) and len(value) == 2,
            path, "expected a two-element [re, im] array")
    re, im = value
    return complex(_as_real(re, f"{path}[0]"), _as_real(im, f"{path}[1]"))


def _as_vector(value, path: str) -> np.ndarray:
    _expect(isinstance(value, list) and value, path, "expected a non-empty array")
    return np.array([_as_complex(entry, f"{path}[{i}]")
                     for i, entry in enumerate(value)], dtype=complex)


def _as_matrix(value, path: str) -> np.ndarray:
    _expect(isinstance(value, list) and value, path, "expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        parsed = _as_vector(row, f"{path}[{i}]")
        if width is None:
            width = parsed.shape[0]
        _expect(parsed.shape[0] == width, f"{path}[{i}]",
                f"row has {parsed.shape[0]} entries, expected {width}")
        rows.append(parsed)
    return np.array(rows, dtype=complex)


@contextmanager
def _invalid_at(path: str, errors: tuple[type[Exception], ...] = (QLogicError,)):
    """Report ``errors`` at ``path`` as invalid input, but not a failed factorization."""
    try:
        yield
    except (ScenarioValidationError, ScenarioParseError, FactorizationError):
        raise
    except errors as exc:
        raise ScenarioValidationError(path, str(exc)) from exc


def _state_from_spec(spec, path: str, dim: int, tol: ToleranceConfig) -> DensityState:
    _expect(isinstance(spec, dict), path, "expected an object")
    _expect(set(spec) in ({"matrix"}, {"vector"}), path,
            "expected exactly one of 'matrix' or 'vector'")
    with _invalid_at(path, (QLogicError, ValueError)):
        if "vector" in spec:
            vector = _as_vector(spec["vector"], f"{path}.vector")
            if vector.shape[0] != dim:
                raise ScenarioValidationError(
                    path, f"vector has dimension {vector.shape[0]}, expected {dim}")
            return DensityState.from_vector(vector, tol)
        matrix = _as_matrix(spec["matrix"], f"{path}.matrix")
        if matrix.shape != (dim, dim):
            raise ScenarioValidationError(
                path, f"matrix has shape {matrix.shape}, expected ({dim}, {dim})")
        return DensityState.from_matrix(matrix, tol)


def load_scenario(path: str, tol: ToleranceConfig = DEFAULT_TOL) -> Scenario:
    """Read, parse, and validate a scenario document."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ScenarioParseError(path, f"cannot read file: {exc}") from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            path, f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_document(document, tol)


def scenario_from_document(document, tol: ToleranceConfig = DEFAULT_TOL) -> Scenario:
    _expect(isinstance(document, dict), "$", "top level must be an object")
    unknown = set(document) - _TOP_LEVEL_KEYS
    _expect(not unknown, "$", f"unknown keys: {sorted(unknown)}")
    _expect("dimension" in document, "$.dimension", "missing required key")
    dim = document["dimension"]
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
            "$.dimension", "expected a positive integer")

    seed = document.get("seed")
    if seed is not None:
        _expect(isinstance(seed, int) and not isinstance(seed, bool),
                "$.seed", "expected an integer")

    observables: dict[str, Observable] = {}
    for name, spec in _named_section(document, "observables").items():
        obs_path = f"$.observables.{name}"
        _expect(isinstance(spec, dict) and set(spec) == {"matrix"},
                obs_path, "expected an object with a single 'matrix' key")
        matrix = _as_matrix(spec["matrix"], f"{obs_path}.matrix")
        if matrix.shape != (dim, dim):
            raise ScenarioValidationError(
                obs_path, f"matrix has shape {matrix.shape}, expected ({dim}, {dim})")
        with _invalid_at(obs_path):
            observables[name] = spectral_decompose(name, matrix, tol)

    states: dict[str, DensityState] = {}
    for name, spec in _named_section(document, "states").items():
        states[name] = _state_from_spec(spec, f"$.states.{name}", dim, tol)

    propositions: dict[str, object] = {}
    sources: dict[str, str] = {}
    for name, source in _named_section(document, "propositions").items():
        _expect(isinstance(source, str), f"$.propositions.{name}", "expected a string")
        try:
            propositions[name] = parse(source)
        except PropositionSyntaxError as exc:
            raise ScenarioParseError(f"$.propositions.{name}", str(exc)) from exc
        sources[name] = source

    processes: dict[str, MeasuringProcess] = {}
    for name, spec in _named_section(document, "processes").items():
        processes[name] = _process_from_spec(spec, f"$.processes.{name}", name, dim, tol)

    return Scenario(dimension=dim, observables=observables, states=states,
                    propositions=propositions, proposition_sources=sources,
                    processes=processes, seed=seed, tol=tol)


def _named_section(document, key: str) -> dict:
    section = document.get(key, {})
    _expect(isinstance(section, dict), f"$.{key}", "expected an object of named entries")
    for name in section:
        _expect(isinstance(name, str) and name, f"$.{key}", "entry names must be non-empty")
    return section


def _process_from_spec(spec, path: str, name: str, dim: int,
                       tol: ToleranceConfig) -> MeasuringProcess:
    _expect(isinstance(spec, dict), path, "expected an object")
    required = {"dimK", "sigma", "U", "M"}
    _expect(set(spec) == required, path,
            f"expected exactly the keys {sorted(required)}")
    dim_k = spec["dimK"]
    _expect(isinstance(dim_k, int) and not isinstance(dim_k, bool) and dim_k >= 1,
            f"{path}.dimK", "expected a positive integer")
    sigma = _state_from_spec(spec["sigma"], f"{path}.sigma", dim_k, tol)
    unitary = _as_matrix(spec["U"], f"{path}.U")
    meter_matrix = _as_matrix(spec["M"], f"{path}.M")
    if meter_matrix.shape != (dim_k, dim_k):
        raise ScenarioValidationError(
            f"{path}.M", f"matrix has shape {meter_matrix.shape}, expected ({dim_k}, {dim_k})")
    with _invalid_at(f"{path}.M"):
        meter = spectral_decompose(f"{name}.M", meter_matrix, tol)
    with _invalid_at(path):
        return MeasuringProcess(dim, sigma, unitary, meter, tol=tol)
