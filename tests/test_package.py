"""The package's public names: each is its defining module's object, imported on first use."""

import ast
import os
import pkgutil
import subprocess
import sys
from datetime import date
from importlib import import_module
from pathlib import Path

import pytest

import litminer

SRC = str(Path(litminer.__file__).resolve().parent.parent)


def test_all_is_the_table_of_public_names():
    table = [name for names in litminer._PUBLIC_NAMES.values() for name in names]
    assert len(set(table)) == len(table)
    assert litminer.__all__ == ["ConfigError", "LitminerError", "__version__", *sorted(table)]


def test_every_public_name_is_its_defining_modules_object():
    for module_name, names in litminer._PUBLIC_NAMES.items():
        module = import_module(f"litminer.{module_name}")
        for name in names:
            value = getattr(litminer, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'litminer' has no attribute 'no_such_name'"):
        litminer.no_such_name
    with pytest.raises(ImportError):
        from litminer import no_such_name  # noqa: F401


def test_import_loads_no_submodule_until_a_name_is_used():
    program = """
import sys
import litminer
def loaded():
    return sorted(m for m in sys.modules if m.startswith("litminer."))
assert loaded() == [], loaded()
litminer.fisher_one_sided
assert loaded() == ["litminer.stats"], loaded()
for name in ("index", "mining", "stats", "epmc", "storage", "tokenizer"):
    assert getattr(litminer, name) is sys.modules["litminer." + name], name
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, encoding="utf-8", timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_every_error_class_states_its_exit_status():
    """Each exception litminer or one of its modules defines is a LitminerError.

    Each but LitminerError itself keeps a ValueError or RuntimeError base, so
    callers' except clauses still match; ConfigError alone has exit status 2.
    """
    errors = {}
    names = [f"litminer.{info.name}" for info in pkgutil.iter_modules(litminer.__path__)]
    for module in [litminer, *map(import_module, names)]:
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, BaseException):
                if value.__module__ == module.__name__:
                    errors[value.__name__] = value
    assert {"ConfigError", "CorpusFormatError", "LitminerError", "TransportError"} <= set(errors)
    for name, error in errors.items():
        assert issubclass(error, litminer.LitminerError), name
        assert error.exit_code in (1, 2), name
        if error is not litminer.LitminerError:
            assert issubclass(error, (ValueError, RuntimeError)), name
    assert {name for name, error in errors.items() if error.exit_code == 2} == {"ConfigError"}


def test_no_except_clause_swallows_every_error():
    """Only a litminer error fails one term; any other error reaches ``main`` as itself.

    So an except clause that catches everything (bare, ``Exception`` or
    ``BaseException``) must end in a bare ``raise``, as a cleanup does.
    """
    catch_all = {"Exception", "BaseException"}
    found = []
    for path in sorted(Path(litminer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            everything = any(
                c is None or (isinstance(c, ast.Name) and c.id in catch_all) for c in caught
            )
            last = node.body[-1]
            if everything and not (isinstance(last, ast.Raise) and last.exc is None):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_each_check_of_bad_input_raises_config_error(tmp_path, monkeypatch):
    """Library callers get a ConfigError, a ValueError, from the check that finds bad input."""
    assert import_module("litminer.mining").ConfigError is litminer.ConfigError
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:abc")
    monkeypatch.setenv("no_proxy", "")
    path = tmp_path / "client.json"
    path.write_text('{"timeout": -1}', encoding="utf-8")
    day = date(2001, 1, 1)
    refusals = [
        lambda: litminer.DateRange(day, date(2000, 1, 1)),
        lambda: litminer.MinerConfig("!!!", ("alpha",), litminer.DateRange(day, day)),
        lambda: litminer.ClientConfig(timeout=-1),
        lambda: litminer.ClientConfig.from_file(path),
        lambda: litminer.ClientConfig().with_env_overrides({"LITMINER_TIMEOUT": "soon"}),
        lambda: litminer.epmc.check_proxy("http://example.org/search"),
    ]
    for refuse in refusals:
        with pytest.raises(litminer.ConfigError):
            refuse()
