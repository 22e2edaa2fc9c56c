"""The package's public surface: one list of names, built from the
submodules, and identity equality for the types that hold arrays."""

import copy

import numpy as np
import pytest

import openext
from openext import coupling, decomposition, errors, extension, hamiltonian, model, numerics, simulate


def test_all_is_the_union_of_the_submodule_lists():
    names = openext.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(openext, name) is not None, name
    for module in (errors, numerics, model, extension, decomposition, coupling, hamiltonian, simulate):
        assert set(module.__all__) <= set(names), module.__name__


def _array_holders():
    """One instance of each type that stores an ndarray or a Subspace."""
    omega = np.diag([0.0, 3.0, 1.0, 2.0]).astype(complex)
    omega[0, 2] = omega[0, 3] = omega[2, 0] = omega[3, 0] = 1.0
    system = model.ConservativeSystem(2, 2, omega)
    measure = model.PointMeasure(1, [1.0], [[[1.0]]])
    spec = hamiltonian.LatticeSpec(1, 1, 2, 1.0, 1.0, ((1.0, 0.0),))
    parts = decomposition.coupled_parts(system)
    return {
        "Subspace": numerics.Subspace(2, np.eye(2)),
        "ConservativeSystem": system,
        "PointMeasure": measure,
        "OpenSystem": model.OpenSystem(1, np.eye(1), measure),
        "KernelSamples": extension.kernel_eval(system, [0.0, 1.0]),
        "CoupledParts": parts,
        "StringDecomposition": decomposition.string_decomposition(system),
        "ChannelSet": coupling.channels(system),
        "SInvariantDecomposition": coupling.canonical_decomposition(system),
        "DecouplingReport": coupling.decoupling_report(system, parts.h1c),
        "QuadraticHamiltonian": hamiltonian.QuadraticHamiltonian(np.ones(2), np.eye(2)),
        "LatticeSpec": spec,
        "LatticeHamiltonian": hamiltonian.lattice_system(spec)[1],
        "FrozenReport": hamiltonian.frozen_report(spec),
        "Trajectory": simulate.Trajectory([0.0, 1.0], np.zeros((2, 2))),
    }


@pytest.mark.parametrize("name", list(_array_holders()))
def test_types_that_hold_arrays_compare_by_identity(name):
    x = _array_holders()[name]
    assert type(x).__name__ == name
    assert x == x
    assert x != copy.copy(x)
    assert hash(x) == hash(x)
