"""Finite observement systems and mechanical checks of their defining conditions.

An observement system couples a finite set of objects (with named relations)
to a finite set of observation values (with named relations) through one or
more observation algorithms.  Because everything is finite and explicit, the
three defining conditions are decidable mechanically:

* representation: the algorithm's mapping is a homomorphism, meaning each
  object relation holds on a tuple exactly when the paired observation
  relation holds on the mapped tuple (both directions of the biconditional).
  It is decided row by row: for each prefix of a tuple, the objects that
  complete it in the object relation must be exactly those whose values
  complete its image in the observation relation.  The work and the listing
  go one failing row at a time, not one failing tuple at a time;
* existence: at least one of the supplied algorithms satisfies representation;
* uniqueness: for every ordered pair of valid algorithms there is a
  translation function between their observation values that commutes with
  both mappings and preserves the paired relations.  Commuting forces the
  function on the first algorithm's image, so uniqueness is decided by
  construction, not by search.  Translations both ways mean equal fibres,
  a transitive relation, so each valid algorithm is compared with the first.

A system meeting all three conditions classifies as strong; one that passes
representation and existence but lacks some translation is weak.  Numeric
measurement is the special case where observation values happen to be
numbers.

All types here are immutable values and all operations are pure functions,
so concurrent use needs no coordination.  Both universes keep each relation
only as rows, each a set of last members keyed by its prefix, grouped once and
never changed after; a tuple set is built only if a caller reads it.  The
fixture reader works one section at a time: each relation block is grouped
straight into its rows as its lines are split, each member added to its
row's set, and line numbers are counted only for the line an error names.
"""

from __future__ import annotations

import collections
import collections.abc
import enum
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from ._shared import ascii_int
from .errors import ObservementError

_SECTION_KEYWORDS = frozenset({"OBJECTS", "OBSERVATIONS", "RELATION", "MAP", "PAIR"})


class SystemDefinitionError(ObservementError):
    """A malformed fixture file, or a system or algorithm that breaks its invariants."""


def _group(tuples, arity: int, rows) -> None:
    """Add each tuple's last member to its prefix's set in ``rows``, a defaultdict.

    Arities 2 and 3 unpack each tuple, which checks its length, and key it
    by its first member or its first two.  Other tuples check ``len`` and
    key by the prefix tuple, ``()`` at arity 1.  A tuple of another length
    raises ValueError.
    """
    if arity == 2:
        for a, b in tuples:
            rows[a].add(b)
    elif arity == 3:
        for a, b, c in tuples:
            rows[a, b].add(c)
    else:
        for t in tuples:
            if len(t) != arity:
                raise ValueError(t)
            rows[tuple(t[:-1])].add(t[-1])


def _grouped(relations: dict, arities: dict):
    """Yield (name, arity, rows) per relation of a direct build, in order: the
    arity declared, else the first tuple's length.  All lengths are read only
    to name a fault, and an arity declared for no relation is refused last."""
    for name, tuples in relations.items():
        tuples, declared = list(map(tuple, tuples)), arities.get(name)
        arity = declared if declared is not None else len(tuples[0]) if tuples else None
        rows = collections.defaultdict(set)
        try:
            if arity is None or arity < 1:
                raise ValueError(arity)
            _group(tuples, arity, rows)
        except ValueError:
            seen = sorted(set(map(len, tuples)))
            arity = seen[0] if seen else declared
            fault = (f"mixes arities {seen}" if len(seen) > 1
                     else "is empty; declare its arity explicitly" if arity is None
                     else f"declared with arity {declared} but holds {arity}-tuples"
                     if declared not in (None, arity) else None)
            if fault:
                raise SystemDefinitionError(f"relation {name!r} {fault}") from None
        yield name, arity, rows
    for name in arities:
        if name not in relations:
            raise SystemDefinitionError(f"arity declared for unknown relation {name!r}")


def _store(system, members, grouped):
    """Check one universe and store its rows as ``system``'s fields.

    ``grouped`` yields (name, arity, rows), rows as ``_group`` leaves them:
    each set is kept as it was built, not copied, and only binary rows are
    keyed again, by the 1-tuple of their first member.  Which member is
    undeclared is worked out only when ``issuperset`` finds one.  Returns
    ``system``.
    """
    field_name = "objects" if isinstance(system, ObjectSystem) else "observations"
    kind, members = field_name[:-1], frozenset(members)
    for m in members:
        if not isinstance(m, str) or not m:
            raise SystemDefinitionError(f"{kind} identifiers must be non-empty strings, got {m!r}")
    relations, arities = {}, {}
    for name, arity, rows in grouped:
        if arity < 1:
            raise SystemDefinitionError(f"relation {name!r} must have arity >= 1")
        rows = {(p,): row for p, row in rows.items()} if arity == 2 else dict(rows)
        if not (members.issuperset(itertools.chain.from_iterable(rows))
                and all(map(members.issuperset, rows.values()))):
            # The least by repr, so the member named does not depend on set order.
            undeclared = frozenset().union(*rows, *rows.values()) - members
            raise SystemDefinitionError(
                f"relation {name!r} references {min(undeclared, key=repr)!r}, "
                f"not a declared {kind}")
        relations[name], arities[name] = rows, arity
    # The only stored form of the relations, shared by every check: never mutate it.
    vars(system).update({field_name: members, "relations": _Relations(relations),
                         "arities": arities, "_rows": relations})
    return system


class _Relations(collections.abc.Mapping):
    """A system's relations, read-only: a relation's tuple set is built from its
    rows when first read, then kept.  ``in``, ``len`` and iteration read names only."""

    def __init__(self, rows: dict):
        self._rows, self._sets = rows, {}

    def __getitem__(self, name):
        if name not in self._sets:
            rows = self._rows[name]
            self._sets[name] = frozenset(p + (x,) for p, row in rows.items() for x in row)
        return self._sets[name]

    def __contains__(self, name):
        return name in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    def __eq__(self, other):
        # Equal rows are equal relations, so no tuple set is built to compare.
        if isinstance(other, _Relations):
            return self._rows == other._rows
        return super().__eq__(other)

    def __repr__(self):
        return repr(dict(self.items()))


@dataclass(frozen=True)
class ObjectSystem:
    """A finite set of object identifiers with named, fixed-arity relations."""

    objects: frozenset
    relations: dict = field(default_factory=dict)
    arities: dict = field(default_factory=dict)

    def __post_init__(self):
        _store(self, self.objects, _grouped(self.relations, self.arities))


@dataclass(frozen=True)
class ObservationSystem:
    """A finite set of observation values with named, fixed-arity relations."""

    observations: frozenset
    relations: dict = field(default_factory=dict)
    arities: dict = field(default_factory=dict)

    def __post_init__(self):
        _store(self, self.observations, _grouped(self.relations, self.arities))


@dataclass(frozen=True)
class ObservationAlgorithm:
    """A named total mapping from objects to observations.

    ``relation_pairing`` says which observation relation mirrors each object
    relation; it must cover every object relation exactly once.
    """

    name: str
    mapping: dict
    relation_pairing: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        object.__setattr__(self, "relation_pairing", dict(self.relation_pairing))

    def image(self) -> frozenset:
        """Observation values this algorithm can actually produce."""
        return frozenset(self.mapping.values())


class Counterexample(NamedTuple):
    relation: str
    members: tuple
    direction: str  # "forward": tuple related, images not; "backward": images related, tuple not

    def __str__(self):
        arrow = "=>" if self.direction == "forward" else "<="
        return f"{self.relation}({', '.join(self.members)}) fails {arrow}"


class HomomorphismReport(NamedTuple):
    """Outcome of the representation check; holds iff no counterexamples."""

    counterexamples: tuple

    @property
    def holds(self) -> bool:
        return not self.counterexamples


class TranslationWitness(NamedTuple):
    """A function table between observation values, or absence of one.

    ``mapping is None`` means no translation exists: the only candidate map,
    the one the two algorithms force, is not a function.
    """

    mapping: dict | None

    @property
    def found(self) -> bool:
        return self.mapping is not None


class Classification(enum.Enum):
    STRONG = "Strong"
    WEAK = "Weak"
    NOT_OBSERVEMENT = "NotObservement"


def _check_algorithm(system: ObjectSystem, observations: ObservationSystem,
                     algorithm: ObservationAlgorithm) -> None:
    missing = sorted(system.objects - set(algorithm.mapping))
    if missing:
        raise SystemDefinitionError(
            f"algorithm {algorithm.name!r} is not total: no observation for {missing}"
        )
    stray = sorted(set(algorithm.mapping) - system.objects)
    if stray:
        raise SystemDefinitionError(
            f"algorithm {algorithm.name!r} maps unknown objects {stray}"
        )
    bad_values = sorted({v for v in algorithm.mapping.values() if v not in observations.observations})
    if bad_values:
        raise SystemDefinitionError(
            f"algorithm {algorithm.name!r} maps into unknown observations {bad_values}"
        )
    if set(algorithm.relation_pairing) != set(system.relations):
        raise SystemDefinitionError(
            f"algorithm {algorithm.name!r} must pair every object relation exactly once; "
            f"expected {sorted(system.relations)}, got {sorted(algorithm.relation_pairing)}"
        )
    for r_name, p_name in algorithm.relation_pairing.items():
        if p_name not in observations.relations:
            raise SystemDefinitionError(
                f"algorithm {algorithm.name!r} pairs {r_name!r} with unknown relation {p_name!r}"
            )
        if system.arities[r_name] != observations.arities[p_name]:
            raise SystemDefinitionError(
                f"paired relations {r_name!r}/{p_name!r} disagree on arity "
                f"({system.arities[r_name]} vs {observations.arities[p_name]})"
            )


def _failures(system: ObjectSystem, observations: ObservationSystem,
              algorithm: ObservationAlgorithm):
    """Yield (relation, prefix, row, allowed) for each prefix whose row differs
    from the row allowed for it: row - allowed fails forward, allowed - row
    backward.

    Relations come in sorted order, prefixes within one relation unsorted,
    each once.  A prefix with no row can fail only backward, and lies in the
    product of the fibres of some key of the allowed rows; those products
    are disjoint, so how many of their prefixes have no row is their total
    size, a sum of products of fibre sizes, less the prefixes with a row
    whose image is such a key.  The products are walked only when that count
    is not zero.  The rows are compared lazily, so a caller that needs only
    the verdict stops at the first failure.
    """
    _check_algorithm(system, observations, algorithm)
    h = algorithm.mapping.__getitem__
    fibres: dict = {v: [] for v in observations.observations}
    for x in system.objects:
        fibres[h(x)].append(x)
    empty = frozenset()
    for r_name in sorted(algorithm.relation_pairing):
        rows = system._rows[r_name]
        observed = observations._rows[algorithm.relation_pairing[r_name]].items()
        allowed = {key: ok for key, values in observed
                   if (ok := frozenset().union(*map(fibres.__getitem__, values)))}
        covered = 0  # prefixes with a row whose image has an allowed row
        for prefix, row in rows.items():
            ok = allowed.get(tuple(map(h, prefix)), empty)
            covered += bool(ok)
            if row != ok:
                yield r_name, prefix, row, ok
        preimages = sum(math.prod(len(fibres[v]) for v in key) for key in allowed)
        if covered < preimages:
            for key, ok in allowed.items():
                products = itertools.product(*map(fibres.__getitem__, key))
                for prefix in itertools.filterfalse(rows.__contains__, products):
                    yield r_name, prefix, empty, ok


def verify_representation(system: ObjectSystem, observations: ObservationSystem,
                          algorithm: ObservationAlgorithm) -> HomomorphismReport:
    """Check the representation condition for one algorithm, exhaustively.

    The check compares rows.  The row of an object prefix P, a (k-1)-tuple, is
    the set of objects x with P + (x,) in ``r``; the row allowed for P is the
    set of x with h(P + (x,)) in the paired relation ``p``: the union of the
    fibres h^-1(v) over the values v in the row of h(P) in ``p``.
    Representation holds iff the two rows agree for every P; where they
    differ, row - allowed fails forward and allowed - row fails backward.  Only
    a prefix with a non-empty row or a non-empty allowed row can differ: the
    first kind are the keys of the system's rows, the second lie in the
    product of fibres of some prefix of ``p``'s rows, walked only when a
    count in closed form says some of them have no row.  So the cost is
    O(|r| + |p|) set work plus the failing prefixes, never |objects|^k.  Both
    universes' rows are grouped once, when they are read, and shared by every
    algorithm.  Counterexamples come out sorted by relation, then tuple, the
    order of a walk over the product of the sorted object set: the failing
    prefixes are sorted by (relation, prefix), then each one's failing
    members, and each counterexample is built once, in that order.
    """
    failures = sorted(_failures(system, observations, algorithm), key=operator.itemgetter(0, 1))
    return HomomorphismReport(tuple([
        Counterexample(r_name, prefix + (x,), "forward" if x in row else "backward")
        for r_name, prefix, row, ok in failures for x in sorted(row ^ ok)]))


def _represents(system: ObjectSystem, observations: ObservationSystem,
                algorithm: ObservationAlgorithm) -> bool:
    """Whether ``algorithm`` passes representation; a malformed one does not."""
    try:
        return next(_failures(system, observations, algorithm), None) is None
    except SystemDefinitionError:
        return False


def verify_existence(algorithms: Iterable[ObservationAlgorithm], system: ObjectSystem,
                     observations: ObservationSystem) -> bool:
    """True iff at least one listed algorithm passes the representation check.

    Malformed algorithms count as failing rather than raising, so an empty or
    entirely broken list simply yields False.
    """
    return any(_represents(system, observations, alg) for alg in algorithms)


def _forced_translation(alg_a: ObservationAlgorithm, alg_b: ObservationAlgorithm) -> dict | None:
    """The only map f with f(alg_a(x)) == alg_b(x) for every object, or None.

    It exists iff ``alg_b`` is constant on every fibre of ``alg_a``; keys come
    out in sorted order.
    """
    f: dict = {}
    for x, value in alg_a.mapping.items():
        if f.setdefault(value, alg_b.mapping[x]) != alg_b.mapping[x]:
            return None
    return dict(sorted(f.items()))


def find_translation(alg_a: ObservationAlgorithm, alg_b: ObservationAlgorithm,
                     system: ObjectSystem, obs_a: ObservationSystem,
                     obs_b: ObservationSystem) -> TranslationWitness:
    """The translation from ``alg_a``'s observations to ``alg_b``'s, if one exists.

    A translation must satisfy f(alg_a(x)) = alg_b(x) for every object, which
    fixes f on the whole image of ``alg_a``: it exists iff ``alg_b`` is
    constant on every fibre of ``alg_a``.  Paired relations need no separate
    check, because for valid algorithms alg_a(t) is in p_a iff t is in r iff
    alg_b(t) is in p_b.  So a missing witness is a proof of absence.
    """
    for alg, obs in ((alg_a, obs_a), (alg_b, obs_b)):
        if next(_failures(system, obs, alg), None) is not None:
            raise SystemDefinitionError(
                f"algorithm {alg.name!r} fails the representation condition; "
                "translations are only defined between valid algorithms"
            )
    return TranslationWitness(_forced_translation(alg_a, alg_b))


def classify(system: ObjectSystem, observation_systems: Sequence[ObservationSystem],
             algorithms: Sequence[ObservationAlgorithm]) -> Classification:
    """Classify a system as Strong, Weak, or NotObservement.

    ``algorithms[i]`` is read against ``observation_systems[i]``.  The verdict
    depends only on set contents, never on the ordering of objects,
    observations, or the algorithm list.  Translations both ways exist iff
    two algorithms have equal fibres, which is transitive, so comparing each
    valid algorithm with the first, both ways, decides every ordered pair:
    2(m - 1) forced maps, not m(m - 1).
    """
    if len(observation_systems) != len(algorithms):
        raise SystemDefinitionError(
            f"{len(algorithms)} algorithms but {len(observation_systems)} observation systems"
        )
    valid = [alg for alg, obs in zip(algorithms, observation_systems)
             if _represents(system, obs, alg)]
    if not valid:
        return Classification.NOT_OBSERVEMENT
    first = valid[0]
    for alg in valid[1:]:
        if _forced_translation(first, alg) is None or _forced_translation(alg, first) is None:
            return Classification.WEAK
    return Classification.STRONG


# ---------------------------------------------------------------------------
# Fixture file format
#
# Plain text, whitespace-separated tokens, '#' comment lines.  Sections:
#   OBJECTS                  one or more lines of object identifiers
#   OBSERVATIONS             one or more lines of observation identifiers
#   RELATION <name>/<arity>  one tuple per line; attaches to whichever of
#                            OBJECTS / OBSERVATIONS appeared most recently
#   MAP <algorithm-name>     lines of "object observation" pairs
#   PAIR                     lines of "object-relation observation-relation";
#                            attaches to the most recent MAP
# ---------------------------------------------------------------------------


class SystemFixture(NamedTuple):
    system: ObjectSystem
    observations: ObservationSystem
    algorithms: tuple


# The words that the MAP and PAIR data-line messages differ by: the expected
# line shape, what the first token names, and what it cannot be twice.
_PAIR_LINE_WORDS = {
    "MAP": ("object observation", "object", "mapped"),
    "PAIR": ("object-relation observation-relation", "relation", "paired"),
}

# A section header or a comment line, after the "\n" put before each of the
# fixture's lines, so the scan skips to line starts.  ``\s`` takes the same
# blanks as ``str.split``, and ``str.splitlines`` leaves no "\n" in a line.
# The lookahead holds the first letter of each keyword and "#", so a data
# line is most often refused by one class test after its leading blanks.
_MARK = re.compile(rf"\n[^\S\n]*(?=[{''.join(sorted({k[0] for k in _SECTION_KEYWORDS}))}#])"
                   rf"(?:({'|'.join(sorted(_SECTION_KEYWORDS))})(?!\S)|#)")


def parse_system_file(text: str) -> SystemFixture:
    """Parse the fixture file format into a system, observations, and algorithms.

    The text is read a section at a time.  It is split into lines once, and
    one scan of those lines finds the section headers and comment lines; the
    data lines between two of them are read as one block, and a relation's
    blocks are grouped straight into its rows.  Both universes are built
    from those rows by the routine a direct build uses.  Line numbers are
    counted only where a line is refused, so the first bad line in file
    order is the one named.
    """
    # One (members, relations) record per universe, each relation as its
    # (name, arity, rows), and one (name, mapping, pairing) per algorithm.
    # ``section`` is (header, what its data lines fill): the member list, the
    # relation's record, or the algorithm's mapping or pairing dict.
    universes = {"OBJECTS": ([], []), "OBSERVATIONS": ([], [])}
    algorithms: list[tuple] = []
    section = universe = None  # universe: the record that RELATION attaches to
    lines = text.splitlines()
    joined = "\n" + "\n".join(lines)
    index = offset = start = 0  # the mark's line and its offset; the block's first line
    for mark in _MARK.finditer(joined):
        index += joined.count("\n", offset, mark.start())
        offset = mark.start()
        _read_block(section, lines, start, index)
        start = index + 1
        head = mark[1]
        if head is None:  # a comment line
            continue
        lineno, tokens = index + 1, lines[index].split()
        if head in ("OBJECTS", "OBSERVATIONS", "PAIR"):
            if len(tokens) > 1:
                raise SystemDefinitionError(f"line {lineno}: {head} takes no arguments")
            if head != "PAIR":
                universe = universes[head]
                section = (head, universe[0])
            elif not algorithms:
                raise SystemDefinitionError(f"line {lineno}: PAIR before any MAP section")
            else:
                section = (head, algorithms[-1][2])
        elif head == "RELATION":
            if len(tokens) != 2 or "/" not in tokens[1]:
                raise SystemDefinitionError(f"line {lineno}: expected RELATION <name>/<arity>")
            name, _, arity_text = tokens[1].rpartition("/")
            if not name:
                raise SystemDefinitionError(f"line {lineno}: relation name is empty")
            try:
                arity = ascii_int(arity_text)
            except ValueError:
                raise SystemDefinitionError(f"line {lineno}: bad arity {arity_text!r}") from None
            if universe is None:
                raise SystemDefinitionError(
                    f"line {lineno}: RELATION before any OBJECTS or OBSERVATIONS section"
                )
            relations = universe[1]
            if any(name == known for known, _, _ in relations):
                raise SystemDefinitionError(f"line {lineno}: duplicate relation {name!r}")
            relations.append((name, arity, collections.defaultdict(set)))
            section = (head, relations[-1])
        else:  # MAP
            if len(tokens) != 2:
                raise SystemDefinitionError(f"line {lineno}: expected MAP <algorithm-name>")
            if any(name == tokens[1] for name, _, _ in algorithms):
                raise SystemDefinitionError(f"line {lineno}: duplicate algorithm {tokens[1]!r}")
            algorithms.append((tokens[1], {}, {}))
            section = (head, algorithms[-1][1])
    _read_block(section, lines, start, len(lines))
    del lines  # not held while the universes and algorithms are checked
    system = _store(ObjectSystem.__new__(ObjectSystem), *universes["OBJECTS"])
    obs_system = _store(ObservationSystem.__new__(ObservationSystem), *universes["OBSERVATIONS"])
    algs = tuple(ObservationAlgorithm(*a) for a in algorithms)
    for alg in algs:
        for obj, value in alg.mapping.items():
            if obj not in system.objects:
                raise SystemDefinitionError(f"MAP {alg.name}: unknown object {obj!r}")
            if value not in obs_system.observations:
                raise SystemDefinitionError(f"MAP {alg.name}: unknown observation {value!r}")
        for r_name, p_name in alg.relation_pairing.items():
            if r_name not in system.relations:
                raise SystemDefinitionError(
                    f"PAIR in {alg.name}: unknown object relation {r_name!r}"
                )
            if p_name not in obs_system.relations:
                raise SystemDefinitionError(
                    f"PAIR in {alg.name}: unknown observation relation {p_name!r}"
                )
    return SystemFixture(system, obs_system, algs)


def _read_block(section, lines: list, start: int, stop: int) -> None:
    """Add ``lines[start:stop]``, which hold no header or comment line, to ``section``.

    A relation block is grouped into the relation's rows as its lines are
    split, by ``_group``, whose grouping is the arity check; member lines are
    split and kept in order.  A MAP or PAIR block is walked line by line, each
    line checked for shape and repeat as it is added, so the first bad line is
    the one named, as is the first non-blank line of data before any section.
    """
    kind, target = section or (None, None)
    block = lines[start:stop]
    if kind == "RELATION":
        name, arity, rows = target
        try:
            return _group(filter(None, map(str.split, block)), arity, rows)
        except ValueError:  # a line of another length: name the first
            lineno, tokens = next((lineno, tokens) for lineno, tokens
                                  in enumerate(map(str.split, block), start + 1)
                                  if tokens and len(tokens) != arity)
        raise SystemDefinitionError(
            f"line {lineno}: relation {name!r} has arity {arity}, got {len(tokens)} tokens")
    if kind in ("OBJECTS", "OBSERVATIONS"):
        target.extend(itertools.chain.from_iterable(map(str.split, block)))
        return
    if kind is None:
        for lineno, line in enumerate(block, start + 1):
            if line.split():
                raise SystemDefinitionError(f"line {lineno}: data before any section header")
        return
    shape, noun, verb = _PAIR_LINE_WORDS[kind]
    for lineno, tokens in enumerate(map(str.split, block), start + 1):
        if len(tokens) != 2 or tokens[0] in target:
            if not tokens:
                continue
            if len(tokens) != 2:
                raise SystemDefinitionError(f"line {lineno}: expected '{shape}'")
            raise SystemDefinitionError(f"line {lineno}: {noun} {tokens[0]!r} {verb} twice")
        target[tokens[0]] = tokens[1]


def _check_token(token: str, what: str) -> str:
    if not token or token != token.strip() or any(c.isspace() for c in token):
        raise SystemDefinitionError(f"{what} {token!r} cannot be written as a file token")
    if token.startswith("#"):
        raise SystemDefinitionError(f"{what} {token!r} would start a line read as a comment")
    if token in _SECTION_KEYWORDS:
        raise SystemDefinitionError(f"{what} {token!r} collides with a section keyword")
    return token


def format_system_file(fixture: SystemFixture) -> str:
    """Serialize a fixture in canonical order; parse_system_file inverts this."""
    lines: list[str] = []
    system, observations = fixture.system, fixture.observations
    for header, members, universe in (("OBJECTS", system.objects, system),
                                      ("OBSERVATIONS", observations.observations, observations)):
        lines.append(header)
        lines += (_check_token(m, "identifier") for m in sorted(members))
        for name in sorted(universe.relations):
            _check_token(name, "relation name")
            if "/" in name:
                raise SystemDefinitionError(f"relation name {name!r} may not contain '/'")
            lines.append(f"RELATION {name}/{universe.arities[name]}")
            lines += (" ".join(_check_token(x, "identifier") for x in t)
                      for t in sorted(universe.relations[name]))
    for alg in fixture.algorithms:
        lines.append(f"MAP {_check_token(alg.name, 'algorithm name')}")
        for obj in sorted(alg.mapping):
            lines.append(f"{_check_token(obj, 'identifier')} "
                         f"{_check_token(alg.mapping[obj], 'identifier')}")
        if alg.relation_pairing:
            lines.append("PAIR")
            for r_name in sorted(alg.relation_pairing):
                lines.append(f"{_check_token(r_name, 'relation name')} "
                             f"{_check_token(alg.relation_pairing[r_name], 'relation name')}")
    return "\n".join(lines) + "\n"
