"""The error classes: one per kind of fault, each raised by the package."""

import ast
import inspect
from pathlib import Path

import cges
from cges import errors
from cges.errors import CGESError

ERROR_CLASSES = {
    name: cls
    for name, cls in vars(errors).items()
    if inspect.isclass(cls) and cls.__module__ == errors.__name__
}


def raised_names():
    """Names of the classes some ``raise`` statement under src/cges names."""
    names = set()
    for path in Path(cges.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised_by_name():
    # a class that no module raises names no fault a caller can meet
    assert set(ERROR_CLASSES) - {"CGESError"} - raised_names() == set()


def test_every_error_class_is_a_library_error():
    assert all(issubclass(cls, CGESError) for cls in ERROR_CLASSES.values())
