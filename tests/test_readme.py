"""The README names package helpers as `module.name`; each such name must
exist, so that the docs cannot keep naming a helper that moved or went."""

import importlib
import pkgutil
import re
from pathlib import Path

import coupled_labels

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(coupled_labels.__path__)}


def _named():
    """(module, name) of every backticked span of README.md that starts with
    ``<package module>.<name>``; a file name such as ``harness.py`` is not one."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    found = [re.match(r"(\w+)\.(\w+)", span) for span in spans]
    return sorted({m.groups() for m in found
                   if m and m[1] in MODULES and m[2] != "py"})


def test_readme_names_some_package_helpers():
    assert len(_named()) >= 20


def test_every_named_helper_is_defined_there():
    # `harness.checked` would resolve if harness imported datamodel's
    # `checked`, so a named function or class must come from that module
    wrong = []
    for module, name in _named():
        mod = importlib.import_module(f"coupled_labels.{module}")
        home = getattr(getattr(mod, name, None), "__module__", mod.__name__)
        if not hasattr(mod, name) or home != mod.__name__:
            wrong.append(f"{module}.{name}")
    assert wrong == []
