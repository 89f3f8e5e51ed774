"""The package surface is lazy, and ``nlie`` imports only what the invoked
command runs.

What a fresh process loads is checked in a subprocess, since this one
already holds every module of the package.
"""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import nliealg
from nliealg import reynolds as reynolds_module

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nliealg.__file__)))

# runs each argv of sys.argv[1] through main in turn and prints, per argv,
# the exit code, the output and the nliealg modules loaded by then
RUNS = """
import contextlib, io, json, sys
from nliealg.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), sorted(name for name in sys.modules if name.split(".")[0] == "nliealg")

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""

HEAVY = ("cohomology", "deformation", "constructions", "ns", "nijenhuis", "reynolds")


def fresh_python(code, *args):
    """The stdout of ``python -c code args`` in a new process on this ``nliealg``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_each_command_loads_only_the_modules_it_runs(docs):
    """``--help`` loads the package, ``cli`` and ``errors`` only; ``check
    filippov`` none of the operator modules; ``cohomology`` still answers
    with the published table of lie3/family1.  A top-level import added to
    the path of either fails here."""
    argvs = [
        ["--help"],
        ["check", "filippov", "--algebra", docs["g.json"]],
        ["cohomology", "--algebra", docs["g.json"], "--reynolds", docs["r1.json"], "--max-degree", "3", "--json"],
    ]
    (help_code, usage, at_help), (code, verdict, at_check), (cx_code, report, _) = json.loads(
        fresh_python(RUNS, json.dumps(argvs)))
    assert help_code == 0 and usage.startswith("usage: nlie")
    assert at_help == ["nliealg", "nliealg.cli", "nliealg.errors"]
    assert code == 0 and verdict == "PASS filippov\n"
    assert [name for name in at_check if name.split(".")[-1] in HEAVY] == []
    assert cx_code == 0
    rows = json.loads(report)["artifacts"][0]["rows"]
    assert [(r["degree"], r["cocycles"], r["coboundaries"], r["dimension"]) for r in rows] == [
        (0, 2, 0, 2), (1, 6, 1, 5), (2, 13, 3, 10), (3, 34, 14, 20)]


def test_a_module_resolves_as_an_attribute_of_the_bare_package():
    loaded = fresh_python("import sys, nliealg; print('nliealg.reynolds' in sys.modules, "
                          "nliealg.reynolds.check_reynolds.__module__)")
    assert loaded == "False nliealg.reynolds\n"


def test_star_import_binds_every_export_to_the_object_of_its_module():
    namespace = {}
    exec("from nliealg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nliealg.__all__)
    for name, obj in namespace.items():
        assert vars(import_module(obj.__module__))[name] is obj


def test_dir_lists_every_export_and_an_unknown_name_is_an_attribute_error():
    assert set(nliealg.__all__) <= set(dir(nliealg))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nliealg.no_such_name
    assert not hasattr(nliealg, "no_such_module")


def test_an_export_is_looked_up_on_each_access(monkeypatch):
    """Nothing is cached in the package: a patched function is what the
    package gives while the patch lasts, and the original after."""
    original = reynolds_module.check_reynolds

    def patched(algebra, op):
        return original(algebra, op)

    with monkeypatch.context() as patch:
        patch.setattr(reynolds_module, "check_reynolds", patched)
        assert nliealg.check_reynolds is patched
    assert nliealg.check_reynolds is original
