"""The public surface: every public top-level name serves the CLI or a criterion.

A reference closure over the package source starts from ``cli.py``, from
``tests/test_acceptance.py`` and from the code each module runs on import.
A reached definition reaches every module-level name its source mentions:
in its own module, through an import, or as ``module.attribute``.  An
import inside a function, as ``cli.py`` makes one in each command, counts
like a module-level one.  A class is reached whole for that closure.  The
only public names it may leave unreached are the parser inverses kept as
round-trip oracles.

A public method or property of a public class is reached when ``cli.py``,
the acceptance suite, a reached definition or a reached member reads it as
an attribute, by name.  A reached class's fields and private methods count
as read with it.  Only the inverse of the codon table parser may stay
unreached.

The settings inventory lists every value a caller may leave out or pass
through: each parameter with a default, each ``*``/``**`` parameter and
each field with a default of a dataclass or named tuple.  A new knob shows
up as a diff here.
"""

import ast
from pathlib import Path

import observement

PACKAGE = Path(observement.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# Inverses of the fixture and kinship parsers: only tests call them.
ROUND_TRIP_ORACLES = {"core.format_system_file", "familytree.format_kinship_file"}

# The inverse of ``CodonTable.from_text``: only tests call it.
ROUND_TRIP_MEMBERS = {"genetics.CodonTable.to_text"}

# Each is set to more than one value by the CLI or a criterion, or is a
# dataclass field whose default is its empty value.
SETTINGS = {
    "complexity.relative_complexity(canonical=)",
    "core.ObjectSystem.relations",
    "core.ObjectSystem.arities",
    "core.ObservationSystem.relations",
    "core.ObservationSystem.arities",
    "core.ObservationAlgorithm.relation_pairing",
    "familytree.KinshipGraph.parent_arcs",
    "familytree.KinshipGraph.partner_edges",
    "familytree.KinshipGraph.labels",
    "genetics.translate_frame(table=)",
    "genetics.translate_gene(table=)",
    "graphs.Graph.__init__(edges=)",
    "graphs.Digraph.__init__(arcs=)",
    "graphs.from_edge_list(directed=)",
    "graphs.from_adjacency_list(directed=)",
    "graphs.from_adjacency_matrix(directed=)",
    "motifs.MotifPattern.tokens",
    "motifs.match_motif(anchored=)",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def _defined_names(statement):
    if isinstance(statement, ast.Assign):
        return [node.id for target in statement.targets for node in ast.walk(target)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    if isinstance(statement, ast.AnnAssign):
        return [statement.target.id] if isinstance(statement.target, ast.Name) else []
    return [statement.name]


def _package_module(node):
    """The package module an import names ('' for the package itself), or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "observement":
        return node.module.partition(".")[2]
    return None


def _import_table(tree, modules):
    """Local name -> a module name (str) or an imported (module, name) pair."""
    table = {}
    for node in ast.walk(tree):
        source = _package_module(node) if isinstance(node, ast.ImportFrom) else None
        if source is None:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            is_module = source == "" and alias.name in modules
            table[local] = alias.name if is_module else (source or "__init__", alias.name)
    return table


class Package:
    def __init__(self):
        self.trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
        modules = set(self.trees)
        self.imports = {m: _import_table(t, modules) for m, t in self.trees.items()}
        self.definitions = {
            m: {name: statement for statement in t.body if isinstance(statement, DEFINITIONS)
                for name in _defined_names(statement)}
            for m, t in self.trees.items()
        }

    def resolve(self, module, name):
        """The (module, name) that defines ``name`` as seen from ``module``, or None."""
        while True:
            if name in self.definitions[module]:
                return module, name
            target = self.imports[module].get(name)
            if not isinstance(target, tuple) or target[0] not in self.trees:
                return None
            module, name = target

    def references(self, node, module, imports):
        """Every package definition that ``node``'s source mentions."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found = None
                if sub.id in self.definitions[module]:
                    found = module, sub.id
                elif isinstance(imports.get(sub.id), tuple):
                    found = self.resolve(*imports[sub.id])
                if found:
                    yield found
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports.get(sub.value.id)
                if isinstance(target, str) and target in self.trees:
                    found = self.resolve(target, sub.attr)
                    if found:
                        yield found

    def reached(self):
        # Every definition of the CLI, and the code each module runs on import.
        frontier = [("cli", name) for name in self.definitions["cli"]]
        for module, tree in self.trees.items():
            for statement in tree.body:
                if not isinstance(statement, DEFINITIONS):
                    frontier += self.references(statement, module, self.imports[module])
        acceptance = ast.parse(ACCEPTANCE.read_text())
        frontier += self.references(
            acceptance, "__init__", _import_table(acceptance, set(self.trees)))
        seen = set()
        while frontier:
            key = frontier.pop()
            if key in seen:
                continue
            seen.add(key)
            module, name = key
            statement = self.definitions[module][name]
            frontier += self.references(statement, module, self.imports[module])
        return seen

    def members(self):
        """Public method or property of a public class -> its definition."""
        return {
            f"{module}.{cls.name}.{member.name}": member
            for module, tree in self.trees.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for member in cls.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        }

    def reached_members(self):
        members = self.members()
        sources = [self.trees["cli"], ast.parse(ACCEPTANCE.read_text())]
        for tree in self.trees.values():
            sources += [s for s in tree.body if not isinstance(s, DEFINITIONS)]
        public = set(members.values())
        for module, name in self.reached():
            statement = self.definitions[module][name]
            if isinstance(statement, ast.ClassDef):
                # Fields and private methods come with the class; public members wait.
                sources += [s for s in statement.body if s not in public]
            else:
                sources.append(statement)
        seen, read = set(), set()
        while sources:
            read |= {sub.attr for sub in ast.walk(sources.pop())
                     if isinstance(sub, ast.Attribute)}
            for key, member in members.items():
                if key not in seen and member.name in read:
                    seen.add(key)
                    sources.append(member)
        return seen

    def public(self):
        return {
            (module, name)
            for module, names in self.definitions.items() if module != "__init__"
            for name in names if not name.startswith("_")
        }


def test_only_the_round_trip_oracles_are_unreached():
    package = Package()
    unreached = package.public() - package.reached()
    assert {f"{module}.{name}" for module, name in unreached} == ROUND_TRIP_ORACLES



def test_only_the_round_trip_member_is_unreached():
    package = Package()
    assert set(package.members()) - package.reached_members() == ROUND_TRIP_MEMBERS


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def test_every_dataclass_checks_or_copies_its_input():
    # A dataclass that only holds its fields is a wrapper: the plain value, a
    # tuple or a named tuple serves instead.
    classes = [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)]
    bare = [f"{module}.{node.name}" for module, node in classes
            if not any(isinstance(s, ast.FunctionDef) and s.name == "__post_init__"
                       for s in node.body)]
    assert classes
    assert bare == []


def _settings(node, prefix):
    """The settable values defined under ``node``, named under ``prefix``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            name = prefix + child.name
            if (_is_dataclass(child)
                    or any(ast.unparse(b).endswith("NamedTuple") for b in child.bases)):
                yield from (f"{name}.{field.target.id}" for field in child.body
                            if isinstance(field, ast.AnnAssign) and field.value is not None)
            yield from _settings(child, name + ".")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, args = prefix + child.name, child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{name}({a.arg}=)" for a in defaulted)
            for star, arg in (("*", args.vararg), ("**", args.kwarg)):
                if arg:
                    yield f"{name}({star}{arg.arg})"
            yield from _settings(child, name + ".")
        else:
            yield from _settings(child, prefix)


def test_settings_inventory_is_the_allowlist():
    found = [setting for path in sorted(PACKAGE.glob("*.py"))
             for setting in _settings(ast.parse(path.read_text()), path.stem + ".")]
    assert sorted(found) == sorted(SETTINGS)
