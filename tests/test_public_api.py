"""The package's outer surface: exported names, the console script and the
README's library and CLI examples."""

import contextlib
import importlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import norlund
from norlund import cli, expr

ROOT = Path(__file__).resolve().parent.parent

# The modules whose __all__ the package re-exports whole.
EXPORTED = ("errors", "inequalities", "integrals", "operators", "series")
EXPR_ALIASES = {"evaluate_expr": expr.evaluate, "format_expr": expr.format, "parse_expr": expr.parse}


@pytest.mark.parametrize("module", EXPORTED + ("expr", "cli"))
def test_every_module_name_in_all_resolves(module):
    mod = importlib.import_module(f"norlund.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"norlund.{module}.__all__ names missing {name!r}"


def test_package_exports_its_modules_all_plus_the_expr_aliases():
    expected = [name for module in EXPORTED
                for name in importlib.import_module(f"norlund.{module}").__all__]
    expected += list(EXPR_ALIASES)
    assert len(set(norlund.__all__)) == len(norlund.__all__)
    assert sorted(norlund.__all__) == sorted(expected)
    for module in EXPORTED:
        mod = importlib.import_module(f"norlund.{module}")
        for name in mod.__all__:
            assert getattr(norlund, name) is getattr(mod, name)
    for alias, fn in EXPR_ALIASES.items():
        assert getattr(norlund, alias) is fn


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from norlund import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(norlund.__all__)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_resolves_to_cli_main():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as source:
        target = tomllib.load(source)["project"]["scripts"]["norlund"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["1.1111111111111112", "IntegralMode.TELESCOPED"]
    assert lines[2].startswith("(SeriesResult(")


def test_readme_cli_examples_print_strict_json_alike_in_one_process():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("norlund ")]
    assert len(commands) == 6, "expected the README's six CLI examples"

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    outputs = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "norlund", *argv[1:], "--json"], capture_output=True, text=True
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        json.loads(proc.stdout, parse_constant=reject)
        outputs.append(proc.stdout)
    # The same commands one after another through one main: no state
    # carries from one command to the next.
    for argv, expected in zip(commands, outputs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv[1:], "--json"])
        assert (code, out.getvalue()) == (0, expected), argv
