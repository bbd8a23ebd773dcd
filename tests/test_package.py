"""The package root's public names: ``__all__`` lists exactly what it binds."""

import types

import braidtiles


def test_every_listed_name_imports_from_the_root():
    for name in braidtiles.__all__:
        namespace: dict = {}
        exec(f"from braidtiles import {name}", namespace)
        assert namespace[name] is getattr(braidtiles, name)


def test_all_is_sorted_without_duplicates():
    assert braidtiles.__all__ == sorted(set(braidtiles.__all__))


def test_every_public_binding_is_listed():
    public = {
        name for name, value in vars(braidtiles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(braidtiles.__all__)
