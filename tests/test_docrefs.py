"""Every cross-reference in the library's docstrings and comments names an object.

A reference is a ``:func:``, ``:meth:``, ``:class:``, ``:mod:`` or
``:attr:`` role.  Its target, without a leading ``~`` or ``uncloneq.``,
is resolved in the package module its first part names, or else in the
module it is written in, or on a class defined there.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import uncloneq

_MODULES = {m.name for m in pkgutil.iter_modules(uncloneq.__path__)}
_REFERENCE = re.compile(r":(?:func|meth|class|mod|attr):`([^`]*)`")


def _resolves(module: str, target: str) -> bool:
    first, *rest = target.removeprefix("~").removeprefix("uncloneq.").split(".")
    if first in _MODULES:
        obj = importlib.import_module(f"uncloneq.{first}")
    else:
        mod = importlib.import_module(f"uncloneq.{module}")
        classes = [c for _, c in inspect.getmembers(mod, inspect.isclass)
                   if c.__module__ == mod.__name__]
        owners = [mod] + classes
        obj = next((getattr(o, first) for o in owners if hasattr(o, first)), None)
    for part in rest:
        obj = getattr(obj, part, None)
    return obj is not None


def test_every_docstring_reference_resolves():
    unresolved, seen = [], 0
    for path in sorted(Path(uncloneq.__file__).parent.glob("*.py")):
        text = path.read_text()
        for match in _REFERENCE.finditer(text):
            seen += 1
            if not _resolves(path.stem, match.group(1)):
                line = text.count("\n", 0, match.start()) + 1
                unresolved.append(f"{path.name}:{line}: {match.group(0)}")
        # a role whose target the pattern cannot read would escape the check
        assert len(re.findall(r":(?:func|meth|class|mod|attr):", text)) == len(
            _REFERENCE.findall(text)
        ), path.name
    assert seen, "no references found"
    assert not unresolved, unresolved
