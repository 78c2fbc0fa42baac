"""Every public top-level function and class in ``src/biharm`` has a caller there.

References are read from the syntax tree (names and attribute accesses), so a
name that only a docstring, a comment or an export string mentions is
orphaned.  A definition's references to itself do not count.
"""

import ast
import pathlib

import biharm

SRC = pathlib.Path(biharm.__file__).parent

# public names that only tests or the benchmark tracer call, with the reason
EXEMPT = {
    "adaptive_simpson": "tracer target; the reference quadrature of the model tests",
    "moser_field": "tracer target; the full-mesh reference of moser_sums in the tests",
    "nehari_energy_identity_gap": "test reference for the Nehari identity",
    "nehari_sign_scan": "test reference for the Nehari projection",
    "gradient_action": "test reference for the solver gradients",
    "exp_critical_config": "test shorthand for the built-in problem",
}


def _definitions_and_references():
    """(public top-level defs, {name: set of the defs or statements that reference it})."""
    defs, refs = set(), {}
    for path in sorted(SRC.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            owner = (path.name, getattr(stmt, "name", i))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                defs.add(stmt.name)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, set()).add(owner)
    return defs, refs


def test_no_orphaned_public_code():
    defs, refs = _definitions_and_references()
    orphans = {name for name in defs
               if not any(owner[1] != name for owner in refs.get(name, ()))}
    assert orphans - set(EXEMPT) == set()
    # an exemption lapses once its name is called from src/ or deleted
    assert set(EXEMPT) <= orphans
