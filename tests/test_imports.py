"""Every module-level import in the zonalpd package is used by its module,
and the package surface is one table that loads nothing until it is read."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zonalpd

MODULES = sorted(Path(zonalpd.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that the module
    never reads.  A name read anywhere in the module counts as used, as does
    a string in a module-level assignment: `__all__` and the table of names
    a PEP 562 `__getattr__` serves."""
    tree = ast.parse(source)
    bound = {}
    # module-level statements, including those under `if TYPE_CHECKING:`
    body = list(tree.body)
    for node in body:
        if isinstance(node, ast.If):
            body.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = (
        "import math\nimport re as regex\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import numpy as np\n"
        "from os import path, sep\n__all__ = ['sep']\n"
        "def f(x: 'int') -> int:\n    return regex.sub('a', 'b', x)\n"
    )
    assert sorted(unused_imports(source)) == ["math (line 1)", "np (line 5)", "path (line 6)"]


def test_import_loads_no_submodule():
    """`import zonalpd` in a fresh interpreter loads no zonalpd submodule,
    no mpmath and no numpy."""
    src = str(Path(zonalpd.__file__).resolve().parents[1])
    probe = ("import sys, zonalpd; print(sorted(m for m in sys.modules "
             "if m.startswith(('zonalpd.', 'mpmath', 'numpy'))))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("name", [n for n in zonalpd.__all__ if n != "__version__"])
def test_package_name_is_its_module_name(name):
    """Every package name is the object its module defines and lists in
    that module's `__all__`."""
    module = importlib.import_module(f"zonalpd.{zonalpd._MODULE_OF[name]}")
    assert name in module.__all__
    assert getattr(zonalpd, name) is getattr(module, name)


def test_cli_reaches_the_certificate_rules_only_through_the_reader_and_route():
    """`zonalpd.cli` names neither the sign rule `_sign_for` nor the exact
    expansion `_power_terms`: `--verify` reads signs through
    `CoefficientReport.from_json_dict` and the route through `_route`."""
    import zonalpd.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text())
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    named |= {a.asname or a.name for n in ast.walk(tree)
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert not {"_sign_for", "_power_terms"} & (named | set(vars(cli)))


def test_front_modules_import_no_arithmetic_at_module_level():
    """`cli`, `spaces`, `kernels` and `energy` import none of mpmath,
    `transform`, `jacobi` and `posdef` at module level (also under an `if`):
    they import them in the functions that run the mpf arithmetic, so a
    discrete energy, `--version` and `--help` load none of them."""
    heavy = {"mpmath", "transform", "jacobi", "posdef"}
    found = []
    for name in ("cli", "spaces", "kernels", "energy"):
        body = list(ast.parse((Path(zonalpd.__file__).parent / f"{name}.py").read_text()).body)
        for node in body:
            if isinstance(node, (ast.If, ast.Try)):
                body.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # the module, and the names, which `from . import x` makes modules
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                found += [f"{name}: {n} (line {node.lineno})" for n in names
                          if heavy & set(n.split("."))]
    assert found == []
