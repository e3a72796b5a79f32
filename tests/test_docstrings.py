"""Every class and function that `molcool` exports has a docstring of its own.

A class's docstring counts only when it is set in its own body: one
inherited from a base class does not describe it, and the `Name(...)`
signature that `dataclasses` writes in place of a missing one says
nothing its fields do not.
"""

import inspect

import molcool


def own_docstring(obj):
    doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
    if not doc or (inspect.isclass(obj) and doc.startswith(f"{obj.__name__}(")):
        return None
    return doc


def test_every_exported_class_and_function_has_its_own_docstring():
    exported = [getattr(molcool, name) for name in molcool.__all__]
    documented = [obj for obj in exported if inspect.isclass(obj) or inspect.isfunction(obj)]
    assert len(documented) > 40
    missing = [obj.__name__ for obj in documented if own_docstring(obj) is None]
    assert missing == []
