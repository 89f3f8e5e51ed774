"""The benchmark's traced run patches library functions by name; every
name it lists must exist, or the traced run breaks on a rename.

``bench/tracer.py`` is read as source (``runpy``), not imported as a
package, and nothing is patched here.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _missing(module, path):
    """None when ``path`` resolves in ``nliealg.<module>`` the way the
    tracer patches it (a method on its own class), else the dotted name."""
    owner = importlib.import_module(f"nliealg.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if isinstance(owner, type):
        found = attr in owner.__dict__
    else:
        found = owner is not None and callable(getattr(owner, attr, None))
    return None if found else f"{module}.{path}"


def test_every_traced_name_resolves():
    tracer = runpy.run_path(str(TRACER))
    names = tracer["SPANS"] + tracer["COUNTERS"]
    assert len(names) > 50
    assert [m for m in (_missing(module, path) for module, path, _ in names) if m] == []
