"""The package's public names: each is its defining module's object, imported on first use."""

import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import litminer

SRC = str(Path(litminer.__file__).resolve().parent.parent)


def test_all_is_the_table_of_public_names():
    table = [name for names in litminer._PUBLIC_NAMES.values() for name in names]
    assert len(set(table)) == len(table)
    assert litminer.__all__ == ["LitminerError", "__version__", *sorted(table)]


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
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_every_error_class_states_its_exit_status():
    """Each exception a litminer module defines is a LitminerError, with status 1 or 2.

    Each keeps its ValueError or RuntimeError base, so callers' except clauses
    still match; only the command line's own UsageError has neither.
    """
    errors = {}
    for info in pkgutil.iter_modules(litminer.__path__):
        module = import_module(f"litminer.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, BaseException):
                if value.__module__ == module.__name__:
                    errors[value.__name__] = value
    assert {"CorpusFormatError", "TransportError", "UsageError"} <= set(errors)
    for name, error in errors.items():
        assert issubclass(error, litminer.LitminerError), name
        assert error.exit_code in (1, 2), name
        assert issubclass(error, (ValueError, RuntimeError)) or name == "UsageError", name
    assert {name for name, error in errors.items() if error.exit_code == 2} == {
        "ConfigError",
        "UsageError",
    }
