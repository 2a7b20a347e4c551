"""`src/weylglue` holds the construction and its CLI: every public top-level
function or class is reached from ``cli.main`` or is named kept API.

Reachability is read from the source by AST: a definition is reached when
a reached definition, or a module's import-time code, reads its name (an
assignment or annotation target is no use), directly or through a relative
import (``from .m import f``, ``from . import m`` with ``m.f``).  A reached
class counts with all its methods.  Test oracles live in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

import weylglue

SRC = Path(weylglue.__file__).parent

#: Public names no CLI path reaches that stay in the package: the chart's
#: curvature API, the gluing and orientation steps planned items read, the
#: interaction fit the acceptance tests use, and the closed form's public
#: entry points (ROADMAP item 2), the bracket and its constant C.
KEPT_API = {
    ("curvature", "christoffel"), ("curvature", "riemann"), ("curvature", "ricci"),
    ("curvature", "scalar"), ("curvature", "weyl"), ("curvature", "weyl_density"),
    ("gluing", "GluedChart"), ("gluing", "invert_pullback"),
    ("duality", "reverse_orientation"), ("duality", "derdzinski_frame"),
    ("energy", "extract_interaction_coefficient"),
    ("energy", "leading_bracket"), ("energy", "constant_C"),
}


def _scan():
    """(definitions, names reached) over the modules of the package."""
    defs, imports, body = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        imports[mod], body[mod] = {}, []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (node.module, alias.name)
            else:
                body[mod].append(node)

    def resolve(mod, name):
        while (mod, name) not in defs:
            if name not in imports.get(mod, {}):
                return None
            mod, name = imports[mod][name]
            if mod is None:  # ``from . import name``: a module
                return None
        return mod, name

    def named(mod, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports[mod].get(sub.value.id)
                if target is not None and target[0] is None:
                    yield resolve(target[1], sub.attr)

    reached, todo = set(), [("cli", "main"), *KEPT_API]
    for mod, nodes in body.items():
        for node in nodes:
            todo.extend(named(mod, node))
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        todo.extend(named(key[0], defs[key]))
    return defs, reached


def test_every_public_definition_is_reached_or_kept_api():
    defs, reached = _scan()
    assert set(KEPT_API) <= set(defs), "a kept API name is no longer defined"
    unreached = sorted(f"{mod}.{name}" for mod, name in defs
                       if not name.startswith("_") and (mod, name) not in reached)
    assert not unreached, (f"{len(unreached)} public definitions reached neither "
                           f"from cli.main nor from KEPT_API: {unreached}")
