"""Spans around the program's public functions, installed from outside the package.

Every public function of the eight modules is replaced, in each module
namespace that binds it, by a wrapper that records a span: job index, name,
parent name, duration and self time (duration minus the time of the spans
it directly contains).  Dataclass ``__post_init__`` methods are wrapped too,
as the build/validate layer of their module.  Spans stay in memory until the
run ends.  Work counts are derived from each call's arguments and result, so
no library file changes to report them.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from math import comb, factorial

MODULES = ("cli", "core", "strings", "genetics", "motifs", "graphs", "familytree", "complexity")

# Spans named after the layer they stand for rather than the function.
BUILD_SPAN = {"core": "core.build", "graphs": "graphs.build", "familytree": "familytree.validate"}

SEARCH = ("motifs.count_network_motifs", "motifs.motif_significance", "graphs.is_subgraph",
          "graphs.are_isomorphic", "complexity.canonical_string")
FORMAT = ("graphs.format_graph_file", "graphs.format_matrix_text", "graphs.format_adjacency_text",
          "graphs.encode_graph6", "motifs.format_motif", "core.format_system_file")
# Conversion helpers count toward whichever layer called them.
HELPERS = ("graphs.to_edge_list", "graphs.to_adjacency_list", "graphs.to_adjacency_matrix")


def category(name: str, parent: str | None) -> str:
    if name in HELPERS:
        return category(parent, None) if parent else "format"
    if name in SEARCH:
        return "search"
    if name in FORMAT:
        return "format"
    leaf = name.rsplit(".", 1)[-1]
    if leaf.startswith(("parse_", "read_", "from_", "decode_")):
        return "parse"
    if leaf in ("build", "validate"):
        return "build"
    return "evaluate"


def _counts(name: str, args, kwargs, result, program) -> dict:
    """Nominal work of one call, from its arguments and result."""
    if name == "core.find_translation":
        alg_a, obs_b = args[0], args[4]
        return {"translation_space": len(obs_b.observations) ** len(alg_a.image()),
                "found": int(result.found)}
    if name == "core.verify_representation":
        system, algorithm = args[0], args[2]
        return {"tuples": sum(len(system.objects) ** system.arities[r]
                              for r in algorithm.relation_pairing)}
    if name == "motifs.count_network_motifs":
        return {"subsets": comb(args[0].n, args[1])}
    if name == "motifs.motif_significance":
        g, rewires = args[0], args[2]
        edges = len(g.edges if hasattr(g, "edges") else g.arcs)
        per_edge = program["motifs"].REWIRE_ATTEMPTS_PER_EDGE
        return {"rewire_attempts": rewires * per_edge * edges if rewires > 0 and edges > 1 else 0}
    if name in ("graphs.is_subgraph", "graphs.are_isomorphic"):
        return {"found": int(result is not None)}
    if name == "complexity.canonical_string":
        return {"permutations": factorial(args[0].n) if kwargs.get("canonical", True) else 0}
    if name == "strings.membership":
        return {"symbols": len(args[1])}
    if name == "strings.generate":
        return {"generated": len(result)}
    if name == "genetics.translate_gene":
        return {"codons": len(args[0]) // 3}
    return {}


class Tracer:
    """Records spans while installed; ``job`` tags each span with the running job."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn, program):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                try:
                    counts = _counts(name, args, kwargs, result, program)
                except (AttributeError, TypeError, IndexError):
                    counts = {}
                spans.append((self.job, name, parent, duration, duration - frame[1], counts))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "observement") -> None:
        program = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = list(program.values()) + [importlib.import_module(package)]
        for mod_name, module in program.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(mod_name, value, program)
                elif _defined_function(value, module):
                    wrapper = self._wrap(f"{mod_name}.{attr}", value, program)
                    for space in namespaces:
                        for bound, target in list(vars(space).items()):
                            if target is value:
                                self._set(space, bound, wrapper)

    def _wrap_class(self, mod_name: str, cls, program) -> None:
        if dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls):
            span = BUILD_SPAN.get(mod_name, f"{mod_name}.build")
            self._set(cls, "__post_init__", self._wrap(span, vars(cls)["__post_init__"], program))
        for attr, value in list(vars(cls).items()):
            if isinstance(value, classmethod) and not attr.startswith("_"):
                wrapped = self._wrap(f"{mod_name}.{cls.__name__}.{attr}", value.__func__, program)
                self._set(cls, attr, classmethod(wrapped))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _defined_function(value, module) -> bool:
    """A plain function of ``module``, or a cache wrapper around one."""
    target = value if inspect.isfunction(value) else getattr(value, "__wrapped__", None)
    return inspect.isfunction(target) and target.__module__ == module.__name__
