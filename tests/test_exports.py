"""Every public export of every ``repro`` module resolves, once.

Importing :mod:`repro.core` alone does not catch a stale re-export in a
package that ``repro.core`` does not import from, so this walks every
module.  ``repro.__main__`` is skipped: importing it runs the CLI.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"
)


def exporting_modules():
    names = ["repro", *MODULES]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", exporting_modules())
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
    repeated = sorted({entry for entry in exported if exported.count(entry) > 1})
    assert repeated == [], f"{name}.__all__ repeats {repeated}"
