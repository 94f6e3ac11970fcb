"""The package namespace: each library module's public names, declared once."""
from __future__ import annotations

import spacings
from spacings import asymptotics, cli, exact, model, moments, simulate, verify

LIBRARY = (model, exact, moments, asymptotics, simulate)


def test_package_reexports_each_module_all():
    declared = [name for module in LIBRARY for name in module.__all__]
    assert spacings.__all__ == [*declared, "__version__"]
    assert len(set(spacings.__all__)) == len(spacings.__all__)
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(spacings, name) is getattr(module, name), name


def test_cli_and_verify_stay_out_of_the_namespace():
    for module in (cli, verify):
        for name in module.__all__:
            assert name not in spacings.__all__
            assert not hasattr(spacings, name), name
