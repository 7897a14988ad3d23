"""The package's export surface: each name of ``unitycert.__all__`` is the
object its submodule defines, whether read as an attribute, listed by
``dir`` or bound by a star import."""

import importlib
from pathlib import Path

import pytest

import unitycert as uc

SUBMODULES = ("cli", "identities", "maxent", "measures", "momatrix", "polycore")


def defining_module(name):
    """The one submodule that holds ``name`` and, if the object names a
    unitycert module as its home, is that module (an alias such as
    ``Rational = Fraction`` names none)."""
    owners = []
    for module_name in SUBMODULES:
        module = importlib.import_module(f"unitycert.{module_name}")
        if not hasattr(module, name):
            continue
        home = str(getattr(getattr(module, name), "__module__", None))
        if home == module.__name__ or not home.startswith("unitycert."):
            owners.append(module)
    assert len(owners) == 1, (name, owners)
    return owners[0]


def test_all_is_sorted_without_repeats():
    assert uc.__all__ == sorted(set(uc.__all__))
    assert len(uc.__all__) == 49


@pytest.mark.parametrize("name", uc.__all__)
def test_export_is_the_object_its_module_defines(name):
    module = defining_module(name)
    assert getattr(uc, name) is getattr(module, name)
    assert getattr(uc, module.__name__.rpartition(".")[2]) is module


def test_dir_lists_exports_and_submodules():
    listed = dir(uc)
    assert listed == sorted(listed)
    assert set(uc.__all__) | set(SUBMODULES) <= set(listed)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from unitycert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == uc.__all__
    assert all(namespace[name] is getattr(uc, name) for name in uc.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'unitycert' has no attribute 'no_such_name'$"):
        uc.no_such_name
    assert not hasattr(uc, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from unitycert import no_such_name", {})


def readme_python_blocks():
    """The source of each ``python`` block of the README."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks, block = [], None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block is not None:
                blocks.append("\n".join(block))
            block = [] if line == "```python" else None
        elif block is not None:
            block.append(line)
    return blocks


def test_readme_quick_tour_runs():
    blocks = readme_python_blocks()
    assert blocks and "christoffel_form" in blocks[0]
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {})
