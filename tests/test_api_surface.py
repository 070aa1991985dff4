"""Every public name in the package has a caller outside the tests.

A public top-level function or class of src/sgtorus counts as used when
src/, scripts/ or perfbench/ name it (a name, an attribute, or a string
such as a getattr or patch target) outside its own definition; the
package __init__ re-exports are not callers.  A public method counts as
used when some `.name` attribute access reaches it.  The match is by
name only, so a method that shares its name with another (say `copy`)
is not caught.  The same walk over the source also fails on an
optional parameter that no caller sets, on an import that nothing in
its file reads, and on a stored attribute (a dataclass field or a
`self.x =` assignment) that no attribute load reads.  A `self.x` load
reads x only of its own class, its bases and its subclasses; any other
load still matches by name, so a field whose name some other object
reads (say `grid`) is not caught.
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
    "solve_periodic_lma": "waits for the solved dP*/dt (ROADMAP item 6)",
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


# optional parameters kept although no call outside the tests sets them,
# with the reason
UNSET_ALLOWED = {
    "cg(callback)": "perfbench/spans.py injects it to count CG iterations",
    "main(argv)": "the tests drive the CLI in-process through it",
    "holder_fits(min_points)": "the oracle tests fit with fewer shells",
    "shear_map(sigma)": "shear_map is on ALLOWED; its tests vary sigma",
    "solve_periodic_lma(tol)": "solve_periodic_lma is on ALLOWED",
}


def _functions(body, in_class=None):
    """(node, qualified name, names that call it, positional parameters
    a caller fills) of every function in body, nested ones included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, node.name)
        elif isinstance(node, ast.FunctionDef):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            if in_class and not static:
                params = params[1:]  # self or cls
            callers = {node.name}
            if in_class and node.name == "__init__":
                callers.add(in_class)
            qualname = f"{in_class}.{node.name}" if in_class else node.name
            yield node, qualname, callers, params
            yield from _functions(node.body)


def optional_parameters():
    """(path, node, qualified name, callers, parameter, position) of each
    parameter with a default; position is its index among the positional
    parameters a caller fills, None for a keyword-only one."""
    out = []
    for path in modules():
        for node, qualname, callers, params in _functions(
                ast.parse(path.read_text()).body):
            args = node.args
            positional = args.posonlyargs + args.args
            for a in positional[len(positional) - len(args.defaults):]:
                out.append((path, node, qualname, callers, a.arg,
                            params.index(a.arg) if a.arg in params else None))
            out.extend((path, node, qualname, callers, a.arg, None)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None)
    return out


def calls():
    """(path, line, called name, positional count, keyword names) of every
    call; starred arguments and **kwargs set nothing by name."""
    paths = modules() + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name is None:
                continue
            positional = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional += 1
            out.append((path, node.lineno, name, positional,
                        {kw.arg for kw in node.keywords if kw.arg}))
    return out


def unset():
    """`name(parameter)` of each optional parameter that no call outside
    its own function sets, by keyword or by position."""
    found = []
    all_calls = calls()
    for path, node, qualname, callers, param, position in \
            optional_parameters():
        set_somewhere = any(
            name in callers
            and (param in keywords
                 or (position is not None and positional > position))
            and not (cpath == path
                     and node.lineno <= line <= node.end_lineno)
            for cpath, line, name, positional, keywords in all_calls)
        if not set_somewhere:
            found.append(f"{qualname}({param})")
    return found


def test_every_optional_parameter_is_set_by_a_caller():
    # a parameter only its default reaches is a constant; an allowed one
    # that gains a caller, or is deleted, leaves the list
    assert sorted(set(unset()) ^ set(UNSET_ALLOWED)) == []


def unused_imports():
    """`path: name` of each name an import binds that nothing else in its
    file reads, in src/sgtorus (but its __init__ re-exports), scripts/
    and tests/."""
    paths = modules() + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "tests").glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found.extend(f"{path.relative_to(ROOT)}: {name}"
                     for name in bound if name not in read)
    return found


def test_every_import_is_used():
    assert unused_imports() == []


# stored attributes kept although nothing outside the tests reads them,
# with the reason
STORED_ALLOWED = {
    "JohnNormalization.containment_ok":
        "the sandwich certificate B_1 in T^-1(S) in B_2 that the tests assert",
    "JohnNormalization.outer_ok": "its outer half, asserted by the tests",
    "JohnNormalization.inner_ok": "its inner half, asserted by the tests",
}


def stored_attributes():
    """`Class.attribute` of every dataclass field and every `self.x = ...`
    assignment of a class in src/sgtorus."""
    out = []
    for path in modules():
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [node.target.id for node in cls.body
                     if isinstance(node, ast.AnnAssign)
                     and isinstance(node.target, ast.Name)]
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    names.append(node.attr)
            out.extend(f"{cls.name}.{name}" for name in dict.fromkeys(names))
    return out


def _attribute_loads(tree):
    """(bases, self loads, other loads) of a module: the base names and
    the `self.x` loads of each top-level class, and every other
    attribute load."""
    bases, self_loads, loads = {}, {}, set()
    for top in tree.body:
        cls = top.name if isinstance(top, ast.ClassDef) else None
        if cls:
            bases[cls] = {b.id if isinstance(b, ast.Name) else b.attr
                          for b in top.bases
                          if isinstance(b, (ast.Name, ast.Attribute))}
            self_loads[cls] = set()
        for node in ast.walk(top):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            if cls and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                self_loads[cls].add(node.attr)
            else:
                loads.add(node.attr)
    return bases, self_loads, loads


def unread_attributes():
    """Stored attributes that no attribute load in src/, scripts/ or
    perfbench/ reaches.  A `self.x` load reads x of its own class, its
    bases and its subclasses only; any other load matches by name."""
    paths = modules() + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    bases, self_loads, loaded = {}, {}, set()
    for path in paths:
        b, s, loads = _attribute_loads(ast.parse(path.read_text()))
        bases.update(b)
        for name, attrs in s.items():
            self_loads.setdefault(name, set()).update(attrs)
        loaded |= loads

    def ancestors(name):
        out = set()
        for base in bases.get(name, ()):
            out |= {base} | ancestors(base)
        return out

    def related(name):
        return ({name} | ancestors(name)
                | {c for c in bases if name in ancestors(c)})

    found = []
    for qualname in stored_attributes():
        cls, attr = qualname.split(".")
        if attr not in loaded and not any(attr in self_loads.get(c, ())
                                          for c in related(cls)):
            found.append(qualname)
    return found


def test_every_stored_attribute_is_read():
    # a result field nothing reads costs its computation on every call;
    # an allowed one that gains a reader, or is deleted, leaves the list
    assert sorted(set(unread_attributes()) ^ set(STORED_ALLOWED)) == []


# the modules that still build a TorusField: the density presets and the
# density files of the CLI, which wraps a file's values to match them
TORUS_FIELD_MAKERS = {"presets.py", "cli.py"}


def test_torus_field_is_built_only_by_the_density_presets():
    """perfbench/reference.py reads two_mode_density(grid).values and
    passes that field to solve_ma_periodic without a grid, and
    scripts/ma_scaling.py does the same with two_bump_density, so the
    presets keep returning a TorusField, and cli._resolve_density wraps a
    density file's values to match them.  Every other module works on
    plain arrays; ROADMAP item 12 removes the rest once the benchmark no
    longer reads the presets' fields."""
    found = [f"{path.name}:{node.lineno}"
             for path in modules() if path.name not in TORUS_FIELD_MAKERS
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and (node.func.id if isinstance(node.func, ast.Name)
                  else getattr(node.func, "attr", None)) == "TorusField"]
    assert found == []
