"""Every public name in the package has a caller outside the tests.

A public top-level function or class of src/sgtorus counts as used when
src/, scripts/ or perfbench/ name it (a name, an attribute, or a string
such as a getattr or patch target) outside its own definition; the
package __init__ re-exports are not callers.  A public method counts as
used when some `.name` attribute access reaches it.  The match is by
name only, so a method that shares its name with another (say `copy`)
is not caught.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sgtorus"

# public names kept without a caller outside the tests, with the reason
ALLOWED = {
    "shear_map": "input of the pushforward and factorization tests",
    "compose_maps": "input of the pushforward and factorization tests",
    "write_series": "the polar-run --series format, read by read_series",
    "solve_periodic_lma": "waits for the solved dP*/dt (ROADMAP item 3)",
}


def modules():
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def references():
    """(path, line, name, is_attribute) of every name, attribute and
    string constant."""
    paths = modules() + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    refs = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr, True))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((path, node.lineno, node.value, False))
    return refs


def public_definitions():
    """(path, node, qualified name, is_method) of each public definition."""
    out = []
    for path in modules():
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out.append((path, node, node.name, False))
            if isinstance(node, ast.ClassDef):
                out.extend((path, m, f"{node.name}.{m.name}", True)
                           for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_"))
    return out


def unused():
    """Qualified names of the public definitions that nothing references."""
    refs = references()
    found = []
    for path, node, qualname, is_method in public_definitions():
        used = any(name == node.name and (attribute or not is_method)
                   and not (rpath == path
                            and node.lineno <= line <= node.end_lineno)
                   for rpath, line, name, attribute in refs)
        if not used:
            found.append(qualname)
    return found


def test_every_public_name_has_a_caller():
    # an allowed name that gains a caller, or is deleted, leaves the list
    assert sorted(set(unused()) ^ set(ALLOWED)) == []
