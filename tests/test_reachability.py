"""Every function in ``src/conetorsion`` is entered by some command.

One fresh interpreter runs every subcommand on the sheared T^2, ``torsion``
on the unit T^4, a ``--cutoff 10`` run (``CutoffInsufficientError``), a
``truncated`` run without ``--epsilon`` (``ConfigError``), ``verify`` and
``dump-olver`` under ``sys.setprofile``.  Exempt are the callables the
benchmark tracer wraps (``TARGETS``, read as ``test_tracer_targets.py``
reads it), the benchmark worker's ``load_config`` and error-only paths.  A
function no command enters is a test reference, which belongs in
``tests/reference_oracles.py``, or dead.

No module imports another module's underscore-prefixed name either: what two
modules share is public in the module that owns it.  Nor does any code write
or read a private attribute of an object other than ``self``: engines are
built by their callers and passed to their readers, never patched from
outside, and their readers read what the engine makes public.  Only a
constructor writes an object's state, save the window cache of
``CrossSection``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_tracer_targets import _targets

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conetorsion"
EXEMPT = {("config", "load_config"), ("torsion", "model_det_ratios.<locals>.entry_error")}
EYE4 = [[float(i == j) for j in range(4)] for i in range(4)]
SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

entered = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(sys.argv[1]):
        entered.add((Path(frame.f_code.co_filename).stem, frame.f_code.co_qualname))

sys.setprofile(profile)
from conetorsion import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
sys.setprofile(None)
print(json.dumps([codes, sorted(entered)]))
"""


def _defined(node, module: str, prefix: str = ""):
    """(module, qualified name) of every def under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield module, prefix + child.name
            yield from _defined(child, module, f"{prefix}{child.name}.<locals>.")
        else:
            suffix = f"{child.name}." if isinstance(child, ast.ClassDef) else ""
            yield from _defined(child, module, prefix + suffix)


def test_every_function_is_entered_by_a_command(tmp_path):
    sheared, t4 = tmp_path / "sheared.json", tmp_path / "t4.json"
    for path, basis in ((sheared, [[1, 0.37], [0, 1]]), (t4, EYE4)):
        block = {"family": "flat_torus", "dim_n": len(basis), "lattice_basis": basis}
        path.write_text(json.dumps({"schema": 1, "cross_section": block}))
    out = ["--out", str(tmp_path / "report")]
    runs = [[cmd, "--config", str(sheared), *extra, *out] for cmd, extra in [
        ("torsion", []), ("truncated", ["--epsilon", "0.25"]), ("anomaly", []), ("scaling", ["--mu", "2,4"]),
        ("dump-spectrum", []), ("dump-zeta", []), ("torsion", ["--cutoff", "10"]), ("truncated", []),
    ]]
    runs += [["torsion", "--config", str(t4), *out], ["verify"], ["dump-olver", "--order", "6", *out]]
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PACKAGE), json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    codes, entered = json.loads(run.stdout)
    assert codes == [0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0]
    defined = {d for path in PACKAGE.glob("*.py") for d in _defined(ast.parse(path.read_text()), path.stem)}
    targets = {(layer, name) for layer, names in _targets().items() for name in names}
    unreached = sorted(defined - {tuple(e) for e in entered} - targets - EXEMPT)
    assert unreached == [], f"defined in src/conetorsion but entered by no command: {unreached}"


def test_no_module_imports_another_modules_private_name():
    """A name with one leading underscore belongs to its module: a constant or
    helper that two modules need is public in the module that owns it."""
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("conetorsion")):
                names = [a.name for a in node.names]
                private += [f"{path.stem}: {n}" for n in names if n.startswith("_") and not n.endswith("__")]
    assert private == [], f"private names imported across src/conetorsion modules: {private}"


def _outside_writes(tree: ast.AST) -> list[str]:
    """``<name>._<attr>`` stores and ``setattr``/``__setattr__`` calls on a
    private attribute, where ``<name>`` is not ``self``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            owner, attr = node.value, node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("setattr", "__setattr__")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            owner, attr = node.args[0], node.args[1].value
        else:
            continue
        if attr.startswith("_") and not (isinstance(owner, ast.Name) and owner.id == "self"):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_no_engine_is_patched_from_outside():
    """An object's private state is written by its own methods alone: a
    caller builds an engine (a Mellin split, a first-order oracle) with
    everything it serves and passes it on, and no code stores a private
    attribute on another object, nor patches one after construction."""
    patched = []
    for path in sorted(PACKAGE.glob("*.py")):
        patched += [f"{path.stem}: {w}" for w in _outside_writes(ast.parse(path.read_text()))]
    assert patched == [], f"private attributes written from outside their object: {patched}"


# methods other than a constructor that may write their object's state
LATE_WRITERS = {
    # the window cache: a cross-section enumerates a window when one is first
    # asked for, and a larger window serves every smaller one after it
    ("crosssection", "CrossSection._cached_levels"),
}


def _late_writes(tree: ast.AST, module: str) -> list[str]:
    """Stores to ``self.<attr>`` or ``self.<attr>[...]`` (and ``setattr`` or
    ``object.__setattr__`` on ``self``) in a method other than ``__init__``
    and ``__post_init__``, nested functions counted with their method."""
    found = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name in ("__init__", "__post_init__"):
                continue
            if (module, f"{cls.name}.{method.name}") in LATE_WRITERS or not method.args.args:
                continue
            me = method.args.args[0].arg
            for node in ast.walk(method):
                if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    owner = target.value if isinstance(target, ast.Attribute) else None
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("setattr", "__setattr__")
                    and node.args
                ):
                    owner = node.args[0]
                else:
                    continue
                if isinstance(owner, ast.Name) and owner.id == me:
                    found.append(f"{cls.name}.{method.name} line {node.lineno}: {ast.unparse(node)}")
    return found


def test_only_a_constructor_writes_an_objects_state():
    """An engine computes its tables when it is built, so what a reader gets
    does not depend on which reader asked first: no method of a class in
    ``src/conetorsion`` but its constructor stores an attribute of ``self``
    or an entry of one, save the named ``LATE_WRITERS``."""
    late = []
    for path in sorted(PACKAGE.glob("*.py")):
        late += [f"{path.stem}: {w}" for w in _late_writes(ast.parse(path.read_text()), path.stem)]
    assert late == [], f"state written after construction: {late}"


def _outside_reads(tree: ast.AST) -> list[str]:
    """``<owner>._<attr>`` loads, dunders excepted, where ``<owner>`` is not
    ``self``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        attr, owner = node.attr, node.value
        dunder = attr.startswith("__") and attr.endswith("__")
        if attr.startswith("_") and not dunder and not (isinstance(owner, ast.Name) and owner.id == "self"):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_no_code_reads_another_objects_private_attribute():
    """An engine's readers read its public tables: no code in
    ``src/conetorsion`` loads a private attribute of an object other than
    ``self``."""
    read = []
    for path in sorted(PACKAGE.glob("*.py")):
        read += [f"{path.stem}: {r}" for r in _outside_reads(ast.parse(path.read_text()))]
    assert read == [], f"private attributes read from outside their object: {read}"


# TARGETS names that only the benchmark tracer calls: scalar twins of the
# batched routines the commands run (ROADMAP items 6 and 7)
TRACER_ONLY = {
    ("bessel", "bracket_pair"),
    ("bessel", "modified_bessel"),
    ("firstorder", "first_order_shifted"),
    ("torsion", "gy_det_ratio_oracle"),
    ("torsion", "model_det_ratio"),
    ("zeta", "MellinSplit.a_value"),
}


def test_the_targets_exemption_hides_only_the_tracer_only_twins(tmp_path, monkeypatch):
    """The reachability run exempts every ``TARGETS`` name, so a command that
    stopped calling one would pass it silently: the names it leaves unentered
    are exactly the tracer-only twins.  Reads the profiling run of
    :func:`test_every_function_is_entered_by_a_command`."""
    runs = []
    real_run = subprocess.run

    def recording_run(*args, **kwargs):
        runs.append(real_run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(subprocess, "run", recording_run)
    test_every_function_is_entered_by_a_command(tmp_path)
    _, entered = json.loads(runs[-1].stdout)
    targets = {(layer, name) for layer, names in _targets().items() for name in names}
    assert targets - {tuple(e) for e in entered} == TRACER_ONLY
