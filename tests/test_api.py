"""The package's public surface: ``covgraph.__all__`` is the contract."""

from __future__ import annotations

import importlib

import covgraph

MODULES = ("anticlique", "bell", "circle", "families", "graphs", "linalg")


def test_package_exports_exactly_the_module_surfaces():
    surfaces = [importlib.import_module(f"covgraph.{name}").__all__ for name in MODULES]
    assert sorted(covgraph.__all__) == sorted(set().union(*surfaces))
    assert len(set(covgraph.__all__)) == len(covgraph.__all__)
    for name in covgraph.__all__:
        assert getattr(covgraph, name) is not None
