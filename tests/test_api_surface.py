"""Every name and every parameter of src/vecproc earns a caller.

Each top-level function or class of a vecproc module, and each public
method of a top-level class, must be referenced from src/ or perfbench/
outside its own definition; tests do not count as callers. A reference is
an identifier in code (a name or an attribute) or a string that is a dotted
identifier, such as a perfbench span target. A method is referenced only as
an attribute or as a part after the first of a dotted string, so a bare
name with the same leaf (a parameter, a local alias) is not its caller.
PAPER_CONTENT lists exactly the results of the paper that no subcommand
reaches yet: a name leaves it once one does, or once it is deleted.

Each defaulted parameter of those functions and methods must be passed, by
keyword or by position, by some call in src/ or perfbench/ outside its own
definition, the callee matched by its leaf name; a knob only tests set is a
constant. PAPER_CONTENT, nested closures and cli.main(argv) are exempt.
"""

from __future__ import annotations

import ast
import math
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vecproc"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")

PAPER_CONTENT = frozenset({
    "generate_span_class",
    "generate_smooth_output_class",
    "taylor_remainder_check",
    "max_packing_size",
    "FunctionClass.validate_membership",
    "sup_norm",
    "symmetrization_probability_check",
    "equicontinuity_curve",
    "random_orthonormal_basis",
})

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _definitions(tree):
    """(qualified name, node) of every name the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(identifier, line, as attribute) of every reference in one module;
    the parts after the first of a dotted string count as attributes."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings
              and _DOTTED.fullmatch(node.value)):
            for i, part in enumerate(node.value.split(".")):
                yield part, node.lineno, i > 0


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced():
    """Qualified names of the definitions nothing outside tests refers to."""
    refs = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            if not path.name.startswith("test_"):
                for name, line, attr in _references(_parse(path)):
                    refs.setdefault(name, []).append((path, line, attr))
    missing = []
    for module in sorted(SRC.glob("*.py")):
        for qualname, node in _definitions(_parse(module)):
            own = range(node.lineno, node.end_lineno + 1)
            owner, _, leaf = qualname.rpartition(".")
            if all((path == module and line in own) or (owner and not attr)
                   for path, line, attr in refs.get(leaf, ())):
                missing.append(f"{module.stem}.{qualname}")
    return missing


def test_every_src_name_has_a_caller():
    missing = [name for name in unreferenced()
               if name.partition(".")[2] not in PAPER_CONTENT]
    assert missing == [], f"no caller outside tests: {missing}"


def test_paper_content_names_exist():
    # every exempt name is defined and still has no caller, so with the
    # test above PAPER_CONTENT is exactly the set of uncalled names
    defined = {qualname for module in SRC.glob("*.py")
               for qualname, _ in _definitions(_parse(module))}
    assert PAPER_CONTENT <= defined, sorted(PAPER_CONTENT - defined)
    uncalled = {name.partition(".")[2] for name in unreferenced()}
    assert PAPER_CONTENT <= uncalled, \
        f"exempt but called: {sorted(PAPER_CONTENT - uncalled)}"


def _defaulted(node, method):
    """(name, call position) of every defaulted parameter of a function
    node; a method's positions do not count self or cls, and a keyword-only
    parameter has none."""
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    bound = method and not static
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    out = [(arg.arg, i - bound) for i, arg in enumerate(positional)
           if i >= first]
    out += [(arg.arg, None) for arg, default in
            zip(node.args.kwonlyargs, node.args.kw_defaults) if default]
    return out


def _calls(tree):
    """(callee leaf, line, positional count, keyword names) of every call;
    a call with *args passes every position."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            leaf = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            yield leaf, node.lineno, count, {k.arg for k in node.keywords}


def unset_parameters():
    """module.qualname.parameter of every defaulted parameter no call in
    src/ or perfbench/ outside its own definition passes."""
    calls = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            if not path.name.startswith("test_"):
                for leaf, line, count, names in _calls(_parse(path)):
                    calls.setdefault(leaf, []).append((path, line, count, names))
    missing = []
    for module in sorted(SRC.glob("*.py")):
        for qualname, node in _definitions(_parse(module)):
            if (not isinstance(node, ast.FunctionDef) or qualname in PAPER_CONTENT
                    or f"{module.stem}.{qualname}" == "cli.main"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            leaf = qualname.rpartition(".")[2]
            for name, position in _defaulted(node, "." in qualname):
                passed = any(
                    name in names or (position is not None and position < count)
                    for path, line, count, names in calls.get(leaf, ())
                    if not (path == module and line in own))
                if not passed:
                    missing.append(f"{module.stem}.{qualname}.{name}")
    return missing


def test_every_parameter_has_a_caller():
    missing = unset_parameters()
    assert missing == [], f"no caller outside tests sets: {missing}"


def unread_flags():
    """dest of every command-line flag cli.py never reads as args.<dest>."""
    tree = _parse(SRC / "cli.py")
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    missing = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            keywords = {k.arg: k.value for k in node.keywords}
            action = keywords.get("action")
            if isinstance(action, ast.Constant) and action.value in (
                    "help", "version"):
                continue              # argparse acts on these itself
            dest = keywords.get("dest")
            dest = (dest.value if dest is not None else
                    node.args[0].value.lstrip("-").replace("-", "_"))
            if dest not in read:
                missing.append(dest)
    return missing


def test_every_flag_is_read():
    missing = unread_flags()
    assert missing == [], f"flags cli.py never reads: {missing}"
