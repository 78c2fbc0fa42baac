"""Every public top-level function and class in ``src/biharm`` has a caller there.

References are read from the syntax tree (names and attribute accesses), so a
name that only a docstring, a comment or an export string mentions is
orphaned.  A definition's references to itself do not count.
"""

import ast
import pathlib

import biharm

SRC = pathlib.Path(biharm.__file__).parent

# public names that only the benchmark tracer (perfbench/tracing.py::_targets) and
# the tests call, with the reason; test-only references live in tests/oracles.py
EXEMPT = {
    "adaptive_simpson": "tracer target model.adaptive_simpson; the reference quadrature "
                        "of the model tests",
    "moser_field": "tracer target sequences.moser_field; the full-mesh reference of "
                   "moser_sums in the tests",
    "minimize_pohozaev": "tracer target solvers.minimize; criterion 5's Pohozaev reference",
    "evaluate_all": "tracer target functionals.evaluate_all; the dict of I, G, N and "
                    "their integrals that the tests build references on",
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
