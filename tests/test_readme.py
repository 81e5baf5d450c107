"""README.md names only what exists: every module-qualified name in its
inline code, and every name its examples import, resolves."""

import importlib
import re
from pathlib import Path

import pytest

import gatesynth

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = ("blocksynth", "cli", "compiler", "gates", "kak", "matcore", "serialize", "zzsynth")
# What README, scripts/ and perfbench/ import from the package root.
ROOT_NAMES = {"synthesize", "upper_bound", "kak_decompose", "efficient_as_cnot",
              "zz_interaction", "LocalPair"}


def qualified_names(text: str) -> list[str]:
    """Each distinct `<module>.<name>[.<attr>]` (optionally `gatesynth.`-prefixed)
    inside an inline code span, fenced blocks left out, in order of appearance."""
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    pattern = re.compile(rf"(?<![\w.])(?:gatesynth\.)?(?:{'|'.join(MODULES)})\.\w+(?:\.\w+)?")
    found = (m.group(0) for span in re.findall(r"`([^`]+)`", prose)
             for m in pattern.finditer(span))
    return list(dict.fromkeys(name.removeprefix("gatesynth.") for name in found))


def import_lines(text: str) -> list[tuple[str, list[str]]]:
    """(module, names) of each `from gatesynth[.<module>] import ...` line."""
    return [(module, [n.strip() for n in names.split(",")])
            for module, names in re.findall(r"^from (gatesynth(?:\.\w+)?) import (.+)$",
                                            text, flags=re.M)]


NAMES = qualified_names(README)


def test_readme_names_some_module_members():
    # Guards the parser: a pattern that matched nothing would pass every case below.
    assert {"zzsynth.choose_unit", "matcore.merge_locals", "cli.main"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_qualified_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"gatesynth.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"README names {name}, but {attr} is not there"
        obj = getattr(obj, attr)


def test_example_imports_resolve():
    lines = import_lines(README)
    assert ("gatesynth", ["synthesize", "upper_bound", "kak_decompose"]) in lines
    for module, names in lines:
        imported = importlib.import_module(module)
        missing = [n for n in names if not hasattr(imported, n)]
        assert not missing, f"from {module} import {', '.join(missing)} fails"


def test_package_root_binds_only_what_callers_import():
    public = {name for name, value in vars(gatesynth).items()
              if not name.startswith("_") and type(value) is not type(gatesynth)}
    assert public == ROOT_NAMES
