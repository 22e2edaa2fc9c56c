"""The package's public surface: one list of names, built from the submodules."""

import openext
from openext import coupling, decomposition, errors, extension, hamiltonian, model, numerics, simulate


def test_all_is_the_union_of_the_submodule_lists():
    names = openext.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(openext, name) is not None, name
    for module in (errors, numerics, model, extension, decomposition, coupling, hamiltonian, simulate):
        assert set(module.__all__) <= set(names), module.__name__
