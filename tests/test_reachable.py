"""Every function defined in the package is reached from the command line,
or is on ALLOWED with the reason it exists without a command that calls it.

A subprocess runs ``cli.main`` under ``sys.setprofile`` over a call of
every subcommand, so no import, cache or binding made by another test hides
a function that only a fresh process would run.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import arborist

# Reached by no command, on purpose.
ALLOWED = {
    # names the benchmark calls (ROADMAP's list of what it must keep working)
    "critorbit.numerator_recursion": "the benchmark times the recursion on its own",
    "critorbit.AdjustedOrbit.d_values": "the benchmark's stage replay reads the D_i as Fractions",
    "dynamics.QuadMap.c": "the benchmark's condition stage reads c as a Fraction",
    "search.load_rows": "the benchmark reads a results file back as a list",
    "verdict._prime_3_mod_4_in": "the benchmark times the prime-witness search on its own",
    "_bigmul.uses_gmp": "CI's probe that products above the cutoff go through libgmp",
    # _replace and unpickling build a checked record through _make; no
    # command does either in its own process
    "errors.checked.<locals>._make": "the record hook that _replace and unpickling run",
}
# the binding to libgmp and its self-test, reached only where libgmp loads
GMP_ONLY = {
    "_bigmul._gmp.<locals>.gmp_mul",
    "_bigmul._gmp.<locals>.gmp_sqr",
    "_bigmul._agrees",
    "_bigmul._filled",
}

SCRIPT = r"""
import contextlib, io, json, os, sys

reached = set()


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        args = ",".join(code.co_varnames[: code.co_argcount])
        reached.add((module, code.co_firstlineno, code.co_name, args))


sys.setprofile(profile)
from arborist import _bigmul
from arborist.cli import main

rows, pgm, csv = (os.path.join(sys.argv[1], name) for name in ("rows.jsonl", "j.pgm", "j.csv"))
long_r = "7" * 5000
commands = [
    # r_12 has 20k bits: products past the GMP cutoff
    ["verify", "--family", "2", "--a", "13/29", "--depth", "12"],
    # one orbit per valuation law: r even and odd at p = 2, in each family
    ["orbit", "--family", "1", "--a", "26/29"],
    ["orbit", "--family", "1", "--a", "13/29"],
    ["orbit", "--family", "2", "--a", "2/29"],
    ["orbit", "--family", "2", "--a", "13/29"],
    ["independence", "--values", "2,3,6"],
    ["independence", "--values", "3/4,12/25,5/9", "--oracle"],
    ["search", "--height", "4", "--depth", "6", "--out", rows],
    ["search", "--height", "5", "--depth", "6", "--out", rows, "--workers", "2"],
    ["search", "--height", "5", "--depth", "6", "--out", rows],
    ["report", "--in", rows],
    ["julia", "--c=-1", "--a", "0", "--points", "20", "--out", pgm],
    ["julia", "--c=-1", "--a", "0", "--points", "20", "--csv", "--out", csv]
    + ["--bounds", "-1e-3", "1", "0", "1"],
    # refusals: too deep, and a rational past the int/str digit limit
    ["verify", "--family", "1", "--a", "1/3", "--depth", "40"],
    ["verify", "--family", "1", "--a", "1/" + long_r],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in commands]
sys.setprofile(None)
print(json.dumps({"codes": codes, "gmp": _bigmul.uses_gmp(), "reached": sorted(reached)}))
"""


def defined_functions():
    """{(module, first line, name, arguments): label} of every function and
    lambda in the package, the label being the module and qualified name;
    comprehensions run inside the function that holds them, so they are
    left out.  The arguments tell apart two lambdas on one line."""
    found = {}

    def walk(module, code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            name = const.co_name
            if name.startswith("<") and name != "<lambda>":
                walk(module, const, prefix)
                continue
            qualname = prefix + name
            function = const.co_flags & inspect.CO_NEWLOCALS  # not a class body
            if function:
                args = ",".join(const.co_varnames[: const.co_argcount])
                key = (module.__name__, const.co_firstlineno, name, args)
                found[key] = f"{module.__name__.removeprefix('arborist.')}.{qualname}"
            walk(module, const, qualname + (".<locals>." if function else "."))

    for path in sorted(Path(arborist.__file__).parent.glob("*.py")):
        if path.stem == "__main__":  # runs main() on import; it holds no function
            continue
        name = "arborist" if path.stem == "__init__" else f"arborist.{path.stem}"
        module = importlib.import_module(name)
        walk(module, module.__spec__.loader.get_code(name), "")
    return found


def test_every_function_is_reached_from_the_cli_or_allowed(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(arborist.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 13 + [2, 2]
    reached = {tuple(key) for key in result["reached"]}
    allowed = set(ALLOWED) | (set() if result["gmp"] else GMP_ONLY)
    functions = defined_functions()
    unreached = [
        f"{label} (line {key[1]})"
        for key, label in functions.items()
        if key not in reached and label not in allowed
    ]
    assert unreached == []
    # every allowed name exists, and no command reaches it
    assert set(ALLOWED) <= set(functions.values())
    assert {functions[key] for key in reached & functions.keys()} & set(ALLOWED) == set()
