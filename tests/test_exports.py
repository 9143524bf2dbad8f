"""The package's export list: every public name it imports, each importable."""

import types

import phasekey


def test_entries_are_sorted_names_then_the_version():
    names = phasekey.__all__
    assert names[-1] == "__version__"
    assert names[:-1] == sorted(set(names[:-1]))


def test_every_entry_resolves_and_is_neither_a_module_nor_private():
    for name in phasekey.__all__:
        value = getattr(phasekey, name)
        assert not isinstance(value, types.ModuleType), name
        assert name == "__version__" or not name.startswith("_"), name


def test_star_import_gives_exactly_the_export_list():
    namespace = {}
    exec("from phasekey import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(phasekey.__all__)


def test_every_public_attribute_that_is_not_a_module_is_listed():
    # importing submodules (cli, checks) binds them on the package; they are modules
    import phasekey.cli  # noqa: F401

    public = {name for name, value in vars(phasekey).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(phasekey.__all__) - {"__version__"}
