"""The package's public surface: every exported name resolves, and the
README names only settings that exist."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import celltrack
from celltrack.cli import _SECTIONS

MODULES = ["celltrack"] + [
    f"celltrack.{info.name}" for info in pkgutil.iter_modules(celltrack.__path__)
]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_readme_config_keys_are_fields():
    pattern = rf"\b({'|'.join(_SECTIONS)})\.(\w+)"
    keys = set(re.findall(pattern, README.read_text(encoding="utf-8")))
    assert keys, "README names no config keys"
    unknown = sorted(
        f"{section}.{name}"
        for section, name in keys
        if name not in {f.name for f in dataclasses.fields(_SECTIONS[section])}
    )
    assert unknown == []
