"""Shared fixtures: deterministic generators, standard matrices and observables,
scenario files."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from qlogic import DEFAULT_TOL
from qlogic.observables import spectral_decompose
from qlogic.projectors import Projector
from qlogic.sampling import rng_from_seed

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def diag_obs(name, *values):
    """The diagonal observable with the given eigenvalues."""
    return spectral_decompose(name, np.diag(np.array(values, dtype=float)).astype(complex))


def z_up():
    """The ray of the sigma_z eigenvalue +1."""
    return Projector.from_matrix(np.diag([1.0, 0.0]).astype(complex))


def x_plus():
    """The ray of the sigma_x eigenvalue +1, transverse to ``z_up``."""
    return Projector.from_matrix((np.eye(2) + SIGMA_X) / 2.0)


def pairs(matrix):
    """Serialize a matrix into the nested [re, im] form scenario files use."""
    return [[[float(entry.real), float(entry.imag)] for entry in row]
            for row in np.asarray(matrix, dtype=complex)]


def vector_pairs(vector):
    return [[float(entry.real), float(entry.imag)]
            for entry in np.asarray(vector, dtype=complex)]


# Children that run under a 1 GiB address-space limit they set on themselves
# and print a verdict, then their CPU seconds (single-threaded BLAS).
_ONE_GIB = textwrap.dedent("""
    import resource
    import time
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
    from qlogic.sampling import random_density, random_observable, rng_from_seed
""")


def _run_under_one_gib(source):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", source], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    verdict, seconds = result.stdout.splitlines()
    return verdict, float(seconds)


@pytest.fixture
def tol():
    return DEFAULT_TOL


@pytest.fixture
def pauli_z():
    return spectral_decompose("Z", SIGMA_Z)


@pytest.fixture
def pauli_x():
    return spectral_decompose("X", SIGMA_X)


@pytest.fixture
def rng():
    # One fixed stream per test keeps failures reproducible without
    # coupling tests to each other's draw order.
    return rng_from_seed(91240)


@pytest.fixture
def qubit_document():
    """A small two-level scenario exercising every section of the format."""
    return {
        "dimension": 2,
        "seed": 11,
        "observables": {
            "Z": {"matrix": pairs(SIGMA_Z)},
            "X": {"matrix": pairs(SIGMA_X)},
            "Z2": {"matrix": pairs(SIGMA_Z)},
        },
        "states": {
            "up": {"vector": vector_pairs([1.0, 0.0])},
            "plus": {"vector": vector_pairs([2 ** -0.5, 2 ** -0.5])},
            "mixed": {"matrix": pairs(np.eye(2) / 2.0)},
        },
        "propositions": {
            "zpos": "Z == 1",
            "zlow": "Z <= 0",
            "compatible": "com(Z, X)",
            "same": "Z = Z2",
            "either": "Z == 1 or Z == -1",
        },
        "processes": {
            "pointer": {
                "dimK": 2,
                "sigma": {"vector": vector_pairs([1.0, 0.0])},
                "U": pairs(CNOT),
                "M": pairs(SIGMA_Z),
            },
        },
    }


@pytest.fixture
def scenario_file(tmp_path, qubit_document):
    """Write the qubit scenario to disk and return its path as a string."""
    path = tmp_path / "qubit.json"
    path.write_text(json.dumps(qubit_document))
    return str(path)


@pytest.fixture
def write_scenario(tmp_path):
    """Factory writing an arbitrary document to a fresh file."""
    counter = {"n": 0}

    def write(document):
        counter["n"] += 1
        path = tmp_path / f"scenario_{counter['n']}.json"
        path.write_text(json.dumps(document))
        return str(path)

    return write
