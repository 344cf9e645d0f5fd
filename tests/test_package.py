"""The package namespace: `import rdl` loads no submodule (tests/test_cli.py
probes that in a fresh process), and each public name resolves on first
lookup to its submodule's object."""

from __future__ import annotations

import importlib

import pytest

import rdl

# Every name the package re-exported when `import rdl` loaded all of it.
_NAMES = {
    "model_spaces": ["Euclidean", "GeometryError", "HalfPlane", "Hyperbolic", "ModelManifold",
                     "RotSymSurface", "builtin_profile", "space_from_json"],
    "heat_kernels": ["KernelError", "KernelEval", "gaussian_bound_constant", "kernel_for",
                     "radial_fokker_planck", "zero_two_defect"],
    "sde_sim": ["SimConfig", "kaimanovich_tail_limit", "simulate_halfplane", "simulate_radial"],
    "estimators": ["AsymptoticReport", "Ensemble", "drift_subadditive_limit", "entropy_quadrature",
                   "entropy_rate", "inequality_report"],
    "busemann": ["furstenberg_check", "k_functional_and_equality"],
    "gromov": ["AdmissibleExtension", "FinitePointedSpace", "chain_glue", "feasible",
               "gromov_distance", "net_from_manifold"],
}
_SUBMODULES = [*_NAMES, "cli"]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _NAMES.items() for n in names])
def test_each_exported_name_resolves_to_its_submodules_object(module, name):
    home = getattr(importlib.import_module(f"rdl.{module}"), name)
    assert getattr(rdl, name) is home
    scope = {}
    exec(f"from rdl import {name}", scope)
    assert scope[name] is home
    assert name in dir(rdl)


@pytest.mark.parametrize("module", _SUBMODULES)
def test_each_submodule_resolves_as_an_attribute(module):
    assert getattr(rdl, module) is importlib.import_module(f"rdl.{module}")
    assert module in dir(rdl)


def test_star_import_binds_every_exported_name():
    scope = {}
    exec("from rdl import *", scope)
    assert {n for names in _NAMES.values() for n in names} <= set(scope)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'rdl' has no attribute 'no_such_name'"):
        rdl.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from rdl import no_such_name", {})
