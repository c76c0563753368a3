"""No definition in src/lmcflab that nothing in src/lmcflab refers to, and
no import that its module, or its function, never reads.

An AST scan collects every top-level function, class and constant and every
method (dunder methods aside: Python calls them itself) of the package. A
definition counts as referred to when a load-context name, an attribute or
a ``from`` import anywhere in the package carries its name. The unreferenced
ones must be exactly the allowlist below, each kept for the reason given.
A module-level import counts as read when a load-context name in its own
module carries the name it binds, and an import in a function body when one
in that function (nested functions included) does; the unread ones must be
exactly their own allowlist.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lmcflab"

ALLOWED = {
    "__init__.__version__": "the package version, read by users",
    "scenarios.CRITERION_SCENARIOS": "maps each acceptance criterion to its "
                                     "scenario for the acceptance tests",
    "geometry.arc_gradient": "perfbench times it as a stage and pins its self time",
    "flow.parabolic_rescale": "the parabolic scaling of a trajectory, kept for "
                              "the scaling-equivariance property tests",
    "drift.project_out": "the projection Pi_tau, kept for the idempotence "
                         "property test",
    "flow.to_rescaled": "the shrinker-scale flow; tests check its velocity "
                        "identity",
    "flowheat.angle_caloric_residual": "the caloric identity of theta, checked "
                                       "by tests",
    "flowheat.evolve_B": "the evolution identity of the B-field, checked by tests",
    "flowheat.select_s1": "the choice of s1 by the separation margin, checked "
                          "by tests",
    "flow.load_trajectory": "reads the file that `lmcflab simulate` writes",
    "fixtures.make_smoothed_pair": "the near-plane-pair product flow, on which "
                                   "tests check the caloric fields and the "
                                   "block-streamed planes",
    "geometry.exactness_primitive": "the single-curve primitive; perfbench "
                                    "times it as a stage, and tests take it as "
                                    "the per-state reference",
}

IMPORTS_ALLOWED = {
    "flowheat.laplacian": "perfbench/test_perfbench.py pins that the tracer "
                          "rebinds flowheat.laplacian",
}


def unreferenced_definitions(src=SRC):
    """Qualified names (module.name, module.Class.method) nothing refers to."""
    defs, refs = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defs.update((f"{path.stem}.{node.name}.{sub.name}", sub.name)
                            for sub in node.body
                            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (sub.name.startswith("__") and sub.name.endswith("__")))
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defs.update((f"{path.stem}.{t.id}", t.id)
                        for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return {qualified for qualified, name in defs.items() if name not in refs}


def test_every_unreferenced_definition_is_allowlisted():
    dead = unreferenced_definitions()
    unexpected = sorted(dead - set(ALLOWED))
    stale = sorted(set(ALLOWED) - dead)
    assert not unexpected, f"nothing in src refers to {unexpected}: delete them"
    assert not stale, (f"allowlisted but gone or referred to in src: {stale}; "
                       f"drop them from ALLOWED")


def imported_names(body):
    """The names that the imports among the statements body bind, in nested
    blocks too but not in nested functions or classes."""
    bound = set()
    for node in body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                bound |= imported_names(getattr(node, block, []))
    return bound


def loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_imports(src=SRC):
    """module.name of every module-level import binding its module never
    reads, and module.function.name of every import in a function body
    binding that function never reads."""
    unread = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        unread.update(f"{path.stem}.{name}"
                      for name in imported_names(tree.body) - loaded_names(tree))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unread.update(f"{path.stem}.{fn.name}.{name}"
                              for name in imported_names(fn.body) - loaded_names(fn))
    return unread


def test_function_body_imports_are_scanned(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    if os:\n"
        "        import re\n"
        "    def g():\n"
        "        import sys\n"
        "        return loads\n"
        "    return g\n")
    assert unread_imports(tmp_path) == {"mod.f.dumps", "mod.f.re", "mod.g.sys"}


def test_every_unread_import_is_allowlisted():
    unread = unread_imports()
    unexpected = sorted(unread - set(IMPORTS_ALLOWED))
    stale = sorted(set(IMPORTS_ALLOWED) - unread)
    assert not unexpected, f"imported but never read: {unexpected}: delete them"
    assert not stale, (f"allowlisted but gone or read: {stale}; "
                       f"drop them from IMPORTS_ALLOWED")
