import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from click.testing import CliRunner

from observement import core
from observement.cli import cli
from observement.core import (
    Classification,
    ObjectSystem,
    ObservationAlgorithm,
    ObservationSystem,
    SystemDefinitionError,
    SystemFixture,
)


def _brute_is_translation(f, alg_a, alg_b, system, obs_a, obs_b):
    for x in system.objects:
        if f[alg_a.mapping[x]] != alg_b.mapping[x]:
            return False
    for r_name in system.relations:
        p_a = obs_a.relations[alg_a.relation_pairing[r_name]]
        p_b = obs_b.relations[alg_b.relation_pairing[r_name]]
        for members in itertools.product(system.objects, repeat=system.arities[r_name]):
            image_a = tuple(alg_a.mapping[x] for x in members)
            image_b = tuple(f[alg_a.mapping[x]] for x in members)
            if (image_a in p_a) != (image_b in p_b):
                return False
    return True


def brute_force_translation(alg_a, alg_b, system, obs_a, obs_b):
    """Reference search: every function from alg_a's image into obs_b, in
    lexicographic order over sorted identifiers; the first translation wins."""
    domain = sorted(alg_a.image())
    for values in itertools.product(sorted(obs_b.observations), repeat=len(domain)):
        f = dict(zip(domain, values))
        if _brute_is_translation(f, alg_a, alg_b, system, obs_a, obs_b):
            return f
    return None


def brute_force_classify(system, observation_systems, algorithms):
    valid = [
        (alg, obs) for alg, obs in zip(algorithms, observation_systems)
        if core.verify_representation(system, obs, alg).holds
    ]
    if not valid:
        return Classification.NOT_OBSERVEMENT
    for (alg_a, obs_a), (alg_b, obs_b) in itertools.permutations(valid, 2):
        if brute_force_translation(alg_a, alg_b, system, obs_a, obs_b) is None:
            return Classification.WEAK
    return Classification.STRONG


def oracle_corpus():
    """Every map from n <= 4 objects into m <= 3 values, over two relations.

    ``r`` is either empty (every map valid) or the weak order "not lighter"
    with objects tied in blocks of two.  Each map h observes into its own
    system whose relation is h(r), so h is valid iff it never merges objects
    across blocks; both valid and invalid maps occur.
    """
    for n in range(1, 5):
        objects = [f"o{i}" for i in range(n)]
        tied = {(objects[i], objects[j]) for i in range(n) for j in range(n) if i // 2 >= j // 2}
        for relation in (set(), tied):
            system = ObjectSystem(frozenset(objects), {"r": relation}, {"r": 2})
            for m in range(1, 4):
                values = [f"v{k}" for k in range(m)]
                algorithms = []
                for index, image in enumerate(itertools.product(values, repeat=n)):
                    mapping = dict(zip(objects, image))
                    obs = ObservationSystem(
                        frozenset(values),
                        {"p": {(mapping[x], mapping[y]) for x, y in relation}},
                        {"p": 2},
                    )
                    algorithms.append((ObservationAlgorithm(f"h{index}", mapping, {"r": "p"}), obs))
                yield system, algorithms


def weighed_shelf_fixture():
    """Twelve objects weighed on a scale that ties them in pairs.

    ``fine_a`` and ``fine_b`` give every object its own value, ``fine_b``
    under a shuffled labelling; ``coarse`` reads one value per tied pair.
    With 12 values the space of candidate functions is 12**12.
    """
    objects = [f"o{i:02d}" for i in range(12)]
    not_lighter = {(x, y) for i, x in enumerate(objects) for j, y in enumerate(objects)
                   if i // 2 >= j // 2}
    system = ObjectSystem(frozenset(objects), {"not_lighter": not_lighter})
    shuffled = list(range(12))
    random.Random(5).shuffle(shuffled)

    def observed(prefix, label):
        mapping = {x: f"{prefix}{label(i):02d}" for i, x in enumerate(objects)}
        obs = ObservationSystem(
            frozenset(mapping.values()),
            {"geq": {(mapping[x], mapping[y]) for x, y in not_lighter}},
        )
        return ObservationAlgorithm(prefix, mapping, {"not_lighter": "geq"}), obs

    return (system, observed("a", lambda i: i), observed("b", lambda i: shuffled[i]),
            observed("c", lambda i: i // 2))


def identity_fixture():
    members = frozenset({"a", "b", "c"})
    relation = {("a", "b"), ("b", "c")}
    system = ObjectSystem(members, {"r": relation})
    obs = ObservationSystem(members, {"p": relation})
    alg = ObservationAlgorithm("id", {m: m for m in members}, {"r": "p"})
    return system, obs, alg


def height_fixture():
    """Two coarse height labelings that cannot be translated into each other.

    System A buckets 152 and 180 together (both medium); system B splits them
    (small vs tall), so any translation would need two values at medium.
    """
    heights = ("140", "152", "180", "190")

    def label(h, small_below, tall_above):
        h = int(h)
        if h < small_below:
            return "small"
        if h > tall_above:
            return "tall"
        return "medium"

    system = ObjectSystem(
        frozenset(heights),
        {"comparable": {(x, y) for x in heights for y in heights}},
    )
    labels = frozenset({"small", "medium", "tall"})
    obs = ObservationSystem(labels, {"comparable_obs": {(x, y) for x in labels for y in labels}})
    alg_a = ObservationAlgorithm(
        "system_a", {h: label(h, 150, 183) for h in heights}, {"comparable": "comparable_obs"}
    )
    alg_b = ObservationAlgorithm(
        "system_b", {h: label(h, 155, 178) for h in heights}, {"comparable": "comparable_obs"}
    )
    return system, obs, alg_a, alg_b


def mass_fixture():
    """The same four objects weighed in kilograms and in pounds."""
    objects = ("o1", "o2", "o3", "o4")
    kg = {"o1": "0.453592", "o2": "0.907184", "o3": "1.360776", "o4": "1.814368"}
    lb = {"o1": "1", "o2": "2", "o3": "3", "o4": "4"}
    heavier = {(objects[i], objects[j]) for i in range(4) for j in range(4) if i > j}
    system = ObjectSystem(frozenset(objects), {"heavier": heavier})
    obs_kg = ObservationSystem(
        frozenset(kg.values()), {"gt": {(kg[a], kg[b]) for a, b in heavier}}
    )
    obs_lb = ObservationSystem(
        frozenset(lb.values()), {"gt": {(lb[a], lb[b]) for a, b in heavier}}
    )
    alg_kg = ObservationAlgorithm("kilograms", kg, {"heavier": "gt"})
    alg_lb = ObservationAlgorithm("pounds", lb, {"heavier": "gt"})
    return system, obs_kg, obs_lb, alg_kg, alg_lb


def food_web_fixture():
    """A small predation digraph observed as a graph with an edge relation."""
    species = ("frog", "insect", "plant", "spider", "bird")
    eats = {
        ("frog", "insect"),
        ("spider", "insect"),
        ("insect", "plant"),
        ("bird", "frog"),
        ("bird", "spider"),
    }
    vertex = {name: f"v{i}" for i, name in enumerate(sorted(species))}
    system = ObjectSystem(frozenset(species), {"eats": eats})
    obs = ObservationSystem(
        frozenset(vertex.values()),
        {"edge": {(vertex[a], vertex[b]) for a, b in eats}},
    )
    alg = ObservationAlgorithm("adjacency", vertex, {"eats": "edge"})
    return system, obs, alg


def brute_verify_representation(system, observations, algorithm):
    """Reference check: every tuple over the sorted objects, in product order."""
    core._check_algorithm(system, observations, algorithm)
    h = algorithm.mapping
    counterexamples = []
    for r_name in sorted(algorithm.relation_pairing):
        r = system.relations[r_name]
        p = observations.relations[algorithm.relation_pairing[r_name]]
        for members in itertools.product(sorted(system.objects), repeat=system.arities[r_name]):
            in_r = members in r
            in_p = tuple(h[x] for x in members) in p
            if in_r and not in_p:
                counterexamples.append(core.Counterexample(r_name, members, "forward"))
            elif in_p and not in_r:
                counterexamples.append(core.Counterexample(r_name, members, "backward"))
    return core.HomomorphismReport(tuple(counterexamples))


def preimage_verify_representation(system, observations, algorithm):
    """Reference check: walk ``r``, and the fibre products of ``p`` only when needed.

    A tuple of ``r`` fails forward when its image is not in ``p``.  The fibre
    products of the tuples of ``p`` are disjoint and hold every preimage, so
    they are walked for backward failures only when their total size differs
    from the number of tuples of ``r`` that pass forward.
    """
    core._check_algorithm(system, observations, algorithm)
    h = algorithm.mapping.__getitem__
    fibres = {v: [] for v in observations.observations}
    for x in sorted(system.objects):
        fibres[h(x)].append(x)
    counterexamples = []
    for r_name in sorted(algorithm.relation_pairing):
        r = system.relations[r_name]
        p = observations.relations[algorithm.relation_pairing[r_name]]
        failures = [(t, "forward") for t in r if tuple(map(h, t)) not in p]
        preimages = sum(math.prod(len(fibres[v]) for v in q) for q in p)
        if preimages != len(r) - len(failures):
            failures += [(t, "backward") for q in p
                         for t in itertools.product(*map(fibres.__getitem__, q)) if t not in r]
        counterexamples += [core.Counterexample(r_name, t, d) for t, d in sorted(failures)]
    return core.HomomorphismReport(tuple(counterexamples))


RANDOM_SHAPES = ("image", "drop", "add", "mixed", "empty_r", "empty_p")


def random_representation_case(rng, shape):
    """One random map on a system with a unary, a binary and a ternary relation.

    Each observation relation starts as the image h(r).  "drop" removes some
    images (forward failures), "add" adds random tuples over all values, some
    outside the image of h (backward failures where they meet it), "mixed"
    does both, and "empty_r" / "empty_p" empty one side.
    """
    n, m = rng.randint(1, 5), rng.randint(1, 6)
    objects = [f"o{i}" for i in range(n)]
    values = [f"v{j}" for j in range(m)]
    mapping = {x: rng.choice(values) for x in objects}
    arities = {"u": 1, "b": 2, "t": 3}
    obj_rels, obs_rels = {}, {}
    for name, k in arities.items():
        r = set()
        if shape != "empty_r":
            r = {t for t in itertools.product(objects, repeat=k) if rng.random() < 0.3}
        p = {tuple(mapping[x] for x in t) for t in r}
        if shape in ("drop", "mixed"):
            p = {q for q in p if rng.random() < 0.7}
        if shape in ("add", "mixed", "empty_r"):
            p |= {q for q in itertools.product(values, repeat=k) if rng.random() < 0.1}
        if shape == "empty_p":
            p = set()
        obj_rels[name], obs_rels[name.upper()] = r, p
    system = ObjectSystem(frozenset(objects), obj_rels, arities)
    obs = ObservationSystem(frozenset(values), obs_rels,
                            {name.upper(): k for name, k in arities.items()})
    alg = ObservationAlgorithm("h", mapping, {name: name.upper() for name in arities})
    return system, obs, alg


class TestPreimageWalkAgreesWithProductWalk:
    """``verify_representation`` against the walk over every tuple."""

    def test_every_map_of_the_exhaustive_corpus(self):
        compared = 0
        for system, algorithms in oracle_corpus():
            for alg, obs in algorithms:
                report = core.verify_representation(system, obs, alg)
                assert report == brute_verify_representation(system, obs, alg)
                compared += 1
        assert compared == 308

    def test_seeded_random_systems_of_arity_one_to_three(self):
        rng = random.Random(20)
        directions = Counter()
        outside_image = 0
        for shape in RANDOM_SHAPES:
            for _ in range(150):
                system, obs, alg = random_representation_case(rng, shape)
                report = core.verify_representation(system, obs, alg)
                assert report == brute_verify_representation(system, obs, alg)
                found = {c.direction for c in report.counterexamples}
                if shape == "empty_r":
                    assert found <= {"backward"}
                if shape == "empty_p":
                    assert found <= {"forward"}
                directions[frozenset(found)] += 1
                outside_image += any(v not in alg.image() for p in obs.relations.values()
                                     for q in p for v in q)
        assert set(directions) == {frozenset(), frozenset({"forward"}),
                                   frozenset({"backward"}), frozenset({"forward", "backward"})}
        assert min(directions.values()) >= 20
        assert outside_image >= 100

    def test_merged_fibre_on_a_10000_object_chain(self):
        # 10^8 pairs in the product; only the 9999 chain links and the
        # preimages of their images are walked.
        objects = [f"o{i:05d}" for i in range(10_000)]
        chain = set(zip(objects, objects[1:]))
        mapping = {x: f"v{i:05d}" for i, x in enumerate(objects)}
        system = ObjectSystem(frozenset(objects), {"next": chain})
        exact = ObservationSystem(frozenset(mapping.values()),
                                  {"succ": {(mapping[x], mapping[y]) for x, y in chain}})
        alg = ObservationAlgorithm("label", mapping, {"next": "succ"})
        assert core.verify_representation(system, exact, alg).holds
        merged = dict(mapping, o00001="v00000")
        obs = ObservationSystem(frozenset(mapping.values()),
                                {"succ": {(merged[x], merged[y]) for x, y in chain}})
        report = core.verify_representation(
            system, obs, ObservationAlgorithm("merge", merged, {"next": "succ"}))
        assert [(c.members, c.direction) for c in report.counterexamples] == [
            (("o00000", "o00000"), "backward"),
            (("o00000", "o00002"), "backward"),
            (("o00001", "o00000"), "backward"),
            (("o00001", "o00001"), "backward"),
        ]


def block_case(rng, n, k, perturb):
    """One k-ary relation on n objects, a union of class blocks, and a map.

    The map cuts each class into buckets, so it is valid until ``perturb``
    objects are moved to another class's value and, when perturbed, a few
    tuples of ``p`` are dropped and a few added over every value, including
    two values outside the image.
    """
    classes = rng.randint(2, 5)
    objects = [f"o{i}" for i in range(n)]
    cls = {x: rng.randrange(classes) for x in objects}
    blocks = {b for b in itertools.product(range(classes), repeat=k) if rng.random() < 0.3}
    r = {t for t in itertools.product(objects, repeat=k) if tuple(cls[x] for x in t) in blocks}
    mapping = {x: f"v{cls[x]}_{rng.randrange(3)}" for x in objects}
    home = {v: cls[x] for x, v in mapping.items()}
    values = sorted(home) + ["w0", "w1"]
    for x in rng.sample(objects, perturb):
        mapping[x] = rng.choice([v for v in values if home.get(v) != cls[x]])
    p = {q for q in itertools.product(home, repeat=k) if tuple(map(home.get, q)) in blocks}
    if perturb:
        p = {q for q in p if rng.random() < 0.95}
        p |= {tuple(rng.choice(values) for _ in range(k)) for _ in range(5)}
    system = ObjectSystem(frozenset(objects), {"r": r}, {"r": k})
    obs = ObservationSystem(frozenset(values), {"p": p}, {"p": k})
    return system, obs, ObservationAlgorithm("h", mapping, {"r": "p"})


def merged_chain(n):
    """A chain through n objects, and a map that merges its first two."""
    objects = [f"o{i:05d}" for i in range(n)]
    chain = set(zip(objects, objects[1:]))
    merged = {x: f"v{i:05d}" for i, x in enumerate(objects)}
    merged[objects[1]] = merged[objects[0]]
    obs = ObservationSystem(frozenset(merged.values()),
                            {"succ": {(merged[x], merged[y]) for x, y in chain}})
    return (ObjectSystem(frozenset(objects), {"next": chain}), obs,
            ObservationAlgorithm("merge", merged, {"next": "succ"}))


class TestRowCheckAgreesWithPreimageWalk:
    """Sizes the product walk cannot reach, against the preimage-count walk."""

    @pytest.mark.parametrize("k, lo, hi, cases", [(2, 60, 200, 24), (3, 20, 40, 12)])
    def test_seeded_block_systems(self, k, lo, hi, cases):
        rng = random.Random(11 * k)
        outcomes = Counter()
        for i in range(cases):
            system, obs, alg = block_case(rng, rng.randint(lo, hi), k, perturb=i % 3)
            report = core.verify_representation(system, obs, alg)
            assert report == preimage_verify_representation(system, obs, alg)
            outcomes[frozenset(c.direction for c in report.counterexamples)] += 1
        assert outcomes[frozenset()] >= cases // 3
        assert outcomes[frozenset({"forward", "backward"})] >= 2

    def test_verdict_that_stops_early_agrees_with_the_full_report(self):
        cases = [(system, obs, alg) for system, algorithms in oracle_corpus()
                 for alg, obs in algorithms]
        rng = random.Random(17)
        cases += [block_case(rng, rng.randint(10, 30), k, perturb=i % 3)
                  for k in (1, 2, 3) for i in range(6)]
        verdicts = Counter()
        for system, obs, alg in cases:
            holds = core.verify_representation(system, obs, alg).holds
            assert core._represents(system, obs, alg) == holds
            verdicts[holds] += 1
        assert min(verdicts[True], verdicts[False]) >= 20
        system, obs, alg = cases[0]
        partial = ObservationAlgorithm("partial", {}, alg.relation_pairing)
        assert not core._represents(system, obs, partial)

    def test_cached_rows_are_not_mutated(self):
        system, obs, alg_a = block_case(random.Random(5), 80, 2, perturb=2)
        copy = ObjectSystem(frozenset(system.objects),
                            {"r": set(system.relations["r"])}, {"r": 2})
        alg_b = ObservationAlgorithm("b", dict.fromkeys(system.objects, "w0"), {"r": "p"})
        first = core.verify_representation(system, obs, alg_a)
        assert not first.holds
        assert not core.verify_representation(system, obs, alg_b).holds
        assert core.verify_representation(system, obs, alg_a) == first
        assert system == copy
        assert system._rows == copy._rows

    def test_memory_grows_linearly_with_the_chain(self):
        peaks = []
        for n in (10_000, 40_000):
            system, obs, alg = merged_chain(n)
            tracemalloc.start()
            try:
                assert len(core.verify_representation(system, obs, alg).counterexamples) == 4
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 6 * peaks[0]


def tuple_verify_representation(system, observations, algorithm):
    """Reference check: the rows compared, one (relation, tuple, direction)
    triple per failing tuple, every fibre product walked, and every triple
    sorted."""
    core._check_algorithm(system, observations, algorithm)
    h = algorithm.mapping.__getitem__
    fibres = {v: [] for v in observations.observations}
    for x in system.objects:
        fibres[h(x)].append(x)
    failures = []
    for r_name in sorted(algorithm.relation_pairing):
        rows = system._rows[r_name]
        observed = observations._rows[algorithm.relation_pairing[r_name]].items()
        allowed = {key: ok for key, values in observed
                   if (ok := frozenset().union(*map(fibres.__getitem__, values)))}
        for prefix, row in rows.items():
            ok = allowed.get(tuple(map(h, prefix)), frozenset())
            failures += [(r_name, prefix + (x,), "forward") for x in row - ok]
            failures += [(r_name, prefix + (x,), "backward") for x in ok - row]
        for key, ok in allowed.items():
            for prefix in itertools.product(*map(fibres.__getitem__, key)):
                if prefix not in rows:
                    failures += [(r_name, prefix + (x,), "backward") for x in ok]
    return core.HomomorphismReport(tuple(core.Counterexample(*f) for f in sorted(failures)))


def perturbed_case(rng):
    """A system with relations of arity 1 to 4, unions of class blocks, and a
    map by class that is cut, has objects moved, or both.

    In about a third of the relations no tuple starts with one object, so its
    prefixes have no row while their images may have one.  The observation
    relations are the images under the map before it was perturbed, with a
    few tuples dropped and a few added over every value, including one
    outside the image.
    """
    n = rng.randint(2, 6)
    objects = [f"o{i}" for i in range(n)]
    classes = rng.randint(1, n)
    cls = {x: rng.randrange(classes) for x in objects}
    arities = {"a": 1, "b": 2, "c": 3, "d": 4}
    relations = {}
    for name, k in arities.items():
        blocks = {c for c in itertools.product(range(classes), repeat=k) if rng.random() < 0.4}
        bare = rng.choice(objects) if rng.random() < 0.3 else None
        relations[name] = {t for t in itertools.product(objects, repeat=k)
                           if tuple(map(cls.__getitem__, t)) in blocks and t[0] != bare}
    cuts = rng.choice([1, 1, 2])
    mapping = {x: f"v{cls[x]}_{i % cuts}" for i, x in enumerate(objects)}
    observed = {name.upper(): {tuple(map(mapping.__getitem__, t)) for t in ts}
                for name, ts in relations.items()}
    values = sorted(set(mapping.values())) + ["w"]
    for x in rng.sample(objects, rng.randint(0, min(2, n))):
        mapping[x] = rng.choice(values)
    for name, k in arities.items():
        p = observed[name.upper()]
        p -= {q for q in sorted(p) if rng.random() < 0.1}
        p |= {tuple(rng.choices(values, k=k)) for _ in range(rng.randint(0, 2))}
    system = ObjectSystem(frozenset(objects), relations, arities)
    obs = ObservationSystem(frozenset(values), observed,
                            {name.upper(): k for name, k in arities.items()})
    return system, obs, ObservationAlgorithm("h", mapping, {k: k.upper() for k in arities})


class _CountingItertools:
    """``itertools`` with its ``product`` calls counted."""

    def __init__(self):
        self.products = 0

    def __getattr__(self, name):
        return getattr(itertools, name)

    def product(self, *fibres):
        self.products += 1
        return itertools.product(*fibres)


def walked_products(system, obs, alg, report):
    """The fibre products a walk takes: one per allowed key of each relation
    that has a failing prefix with no row, and none for the other relations."""
    image = alg.image()
    walked = {c.relation for c in report.counterexamples
              if c.members[:-1] not in system._rows[c.relation]}
    return sum(bool(image.intersection(values)) for r_name in walked
               for values in obs._rows[alg.relation_pairing[r_name]].values())


class TestFailingRowsAgreeWithFailingTuples:
    """``verify_representation`` against the per-tuple check it replaced: the
    same counterexamples, in the same order."""

    def cases(self):
        for system, algorithms in oracle_corpus():
            for alg, obs in algorithms:
                yield system, obs, alg
        rng = random.Random(37)
        for _ in range(400):
            yield perturbed_case(rng)

    def test_exhaustive_corpus_and_seeded_systems_of_arity_one_to_four(self):
        directions, rowless, arities = Counter(), 0, set()
        for system, obs, alg in self.cases():
            report = core.verify_representation(system, obs, alg)
            assert report == tuple_verify_representation(system, obs, alg)
            assert all(type(c) is core.Counterexample for c in report.counterexamples)
            directions[frozenset(c.direction for c in report.counterexamples)] += 1
            rowless += any(c.members[:-1] not in system._rows[c.relation]
                           for c in report.counterexamples)
            arities |= {len(c.members) for c in report.counterexamples}
        assert min(directions.values()) >= 40 and len(directions) == 4, directions
        assert rowless >= 50 and arities == {1, 2, 3, 4}

    def test_fibre_products_are_walked_only_when_the_count_is_short(self, monkeypatch):
        counting = _CountingItertools()
        monkeypatch.setattr(core, "itertools", counting)
        walks = Counter()
        for system, obs, alg in self.cases():
            before = counting.products
            report = core.verify_representation(system, obs, alg)
            expected = walked_products(system, obs, alg, report)
            assert counting.products - before == expected
            walks[expected > 0] += 1
            before = counting.products
            assert core._represents(system, obs, alg) == report.holds
            assert counting.products == before or not report.holds
        assert min(walks.values()) >= 100, walks


class TestVerifyRepresentation:
    def test_identity_mapping_holds(self):
        system, obs, alg = identity_fixture()
        report = core.verify_representation(system, obs, alg)
        assert report.holds
        assert report.counterexamples == ()

    def test_food_web_holds(self):
        system, obs, alg = food_web_fixture()
        assert core.verify_representation(system, obs, alg).holds

    def test_merging_objects_breaks_backward_direction(self):
        # Hand enumeration: objects {a,b,c}, r={(a,c)}, m maps a and b to the
        # same observation x.  Images: (a,c)->(x,y) ok; (b,c)->(x,y) lies in p
        # although (b,c) is not in r.  No other pair maps into p.
        system = ObjectSystem(frozenset({"a", "b", "c"}), {"r": {("a", "c")}})
        obs = ObservationSystem(frozenset({"x", "y"}), {"p": {("x", "y")}})
        alg = ObservationAlgorithm("merge", {"a": "x", "b": "x", "c": "y"}, {"r": "p"})
        report = core.verify_representation(system, obs, alg)
        assert not report.holds
        assert len(report.counterexamples) == 1
        ce = report.counterexamples[0]
        assert ce.relation == "r"
        assert ce.members == ("b", "c")
        assert ce.direction == "backward"

    def test_forward_direction_counterexample(self):
        system = ObjectSystem(frozenset({"a", "b"}), {"r": {("a", "b")}})
        obs = ObservationSystem(frozenset({"x", "y"}), {"p": set()}, {"p": 2})
        alg = ObservationAlgorithm("drop", {"a": "x", "b": "y"}, {"r": "p"})
        report = core.verify_representation(system, obs, alg)
        assert [c.direction for c in report.counterexamples] == ["forward"]

    def test_partial_mapping_rejected(self):
        system, obs, alg = identity_fixture()
        broken = ObservationAlgorithm("partial", {"a": "a"}, {"r": "p"})
        with pytest.raises(SystemDefinitionError, match="not total"):
            core.verify_representation(system, obs, broken)

    def test_arity_mismatch_rejected(self):
        system = ObjectSystem(frozenset({"a"}), {"r": {("a",)}})
        obs = ObservationSystem(frozenset({"x"}), {"p": {("x", "x")}})
        alg = ObservationAlgorithm("m", {"a": "x"}, {"r": "p"})
        with pytest.raises(SystemDefinitionError, match="arity"):
            core.verify_representation(system, obs, alg)

    def test_unpaired_relation_rejected(self):
        system, obs, _ = identity_fixture()
        alg = ObservationAlgorithm("m", {m: m for m in system.objects}, {})
        with pytest.raises(SystemDefinitionError, match="pair every object relation"):
            core.verify_representation(system, obs, alg)

    @pytest.mark.parametrize("mapping, pairing, message", [
        ({"a": "x", "z": "x"}, {"r": "p"}, "algorithm 'm' maps unknown objects ['z']"),
        ({"a": "q"}, {"r": "p"}, "algorithm 'm' maps into unknown observations ['q']"),
        ({"a": "x"}, {"r": "s"}, "algorithm 'm' pairs 'r' with unknown relation 's'"),
    ])
    def test_stray_members_and_relations_rejected(self, mapping, pairing, message):
        system = ObjectSystem(frozenset({"a"}), {"r": {("a",)}})
        obs = ObservationSystem(frozenset({"x"}), {"p": {("x",)}})
        with pytest.raises(SystemDefinitionError) as caught:
            core.verify_representation(system, obs, ObservationAlgorithm("m", mapping, pairing))
        assert str(caught.value) == message


class TestVerifyExistence:
    def test_empty_list_is_false(self):
        system, obs, _ = identity_fixture()
        assert core.verify_existence([], system, obs) is False

    def test_identity_algorithm_is_true(self):
        system, obs, alg = identity_fixture()
        assert core.verify_existence([alg], system, obs) is True

    def test_one_failing_one_passing(self):
        system, obs, alg = identity_fixture()
        failing = ObservationAlgorithm(
            "collapse", {"a": "a", "b": "a", "c": "c"}, {"r": "p"}
        )
        assert not core.verify_representation(system, obs, failing).holds
        assert core.verify_existence([failing, alg], system, obs) is True

    def test_malformed_algorithm_counts_as_failing(self):
        system, obs, _ = identity_fixture()
        broken = ObservationAlgorithm("partial", {"a": "a"}, {"r": "p"})
        assert core.verify_existence([broken], system, obs) is False


class TestFindTranslation:
    def test_same_algorithm_yields_identity(self):
        system, obs, alg = identity_fixture()
        witness = core.find_translation(alg, alg, system, obs, obs)
        assert witness.mapping == {m: m for m in system.objects}

    def test_height_systems_have_no_translation(self):
        system, obs, alg_a, alg_b = height_fixture()
        witness = core.find_translation(alg_a, alg_b, system, obs, obs)
        assert witness.mapping is None
        assert not witness.found

    def test_mass_units_translate_linearly(self):
        system, obs_kg, obs_lb, alg_kg, alg_lb = mass_fixture()
        witness = core.find_translation(alg_kg, alg_lb, system, obs_kg, obs_lb)
        assert witness.mapping == {
            "0.453592": "1",
            "0.907184": "2",
            "1.360776": "3",
            "1.814368": "4",
        }

    def test_round_trip_witnesses_compose_to_identity(self):
        system, obs_kg, obs_lb, alg_kg, alg_lb = mass_fixture()
        forward = core.find_translation(alg_kg, alg_lb, system, obs_kg, obs_lb).mapping
        backward = core.find_translation(alg_lb, alg_kg, system, obs_lb, obs_kg).mapping
        for value in alg_kg.image():
            assert backward[forward[value]] == value
        for value in alg_lb.image():
            assert forward[backward[value]] == value

    def test_relabelled_copies_beyond_any_enumeration_translate(self):
        system, (alg_a, obs_a), (alg_b, obs_b), _ = weighed_shelf_fixture()
        witness = core.find_translation(alg_a, alg_b, system, obs_a, obs_b)
        assert witness.mapping == {alg_a.mapping[x]: alg_b.mapping[x] for x in system.objects}
        assert list(witness.mapping) == sorted(obs_a.observations)
        assert len(set(witness.mapping.values())) == 12

    def test_agrees_with_brute_force_on_exhaustive_corpus(self):
        compared = 0
        for system, algorithms in oracle_corpus():
            valid = [(alg, obs) for alg, obs in algorithms
                     if core.verify_representation(system, obs, alg).holds]
            for (alg_a, obs_a), (alg_b, obs_b) in itertools.product(valid, repeat=2):
                witness = core.find_translation(alg_a, alg_b, system, obs_a, obs_b)
                expected = brute_force_translation(alg_a, alg_b, system, obs_a, obs_b)
                assert witness.mapping == expected
                if expected is not None:
                    assert list(witness.mapping) == list(expected)
                compared += 1
        assert compared > 1000

    def test_raises_exactly_where_the_representation_fails(self):
        raised = 0
        for system, algorithms in oracle_corpus():
            for (alg_a, obs_a), (alg_b, obs_b) in itertools.product(algorithms, repeat=2):
                valid = all(core.verify_representation(system, obs, alg).holds
                            for alg, obs in ((alg_a, obs_a), (alg_b, obs_b)))
                if valid:
                    core.find_translation(alg_a, alg_b, system, obs_a, obs_b)
                    continue
                with pytest.raises(SystemDefinitionError, match="fails the representation"):
                    core.find_translation(alg_a, alg_b, system, obs_a, obs_b)
                raised += 1
        assert raised > 1000

    def test_malformed_algorithm_raises_its_definition_error(self):
        system, obs, alg = identity_fixture()
        partial = ObservationAlgorithm("partial", {"a": "a", "b": "b"}, {"r": "p"})
        with pytest.raises(SystemDefinitionError, match="not total"):
            core.find_translation(alg, partial, system, obs, obs)

    def test_invalid_algorithm_rejected(self):
        system, obs, alg = identity_fixture()
        failing = ObservationAlgorithm(
            "collapse", {"a": "a", "b": "a", "c": "c"}, {"r": "p"}
        )
        with pytest.raises(SystemDefinitionError, match="representation"):
            core.find_translation(failing, alg, system, obs, obs)


class TestClassify:
    def test_single_valid_algorithm_is_strong(self):
        system, obs, alg = identity_fixture()
        assert core.classify(system, [obs], [alg]) is Classification.STRONG

    def test_height_fixture_is_weak(self):
        system, obs, alg_a, alg_b = height_fixture()
        assert core.classify(system, [obs, obs], [alg_a, alg_b]) is Classification.WEAK

    def test_mass_fixture_is_strong(self):
        system, obs_kg, obs_lb, alg_kg, alg_lb = mass_fixture()
        verdict = core.classify(system, [obs_kg, obs_lb], [alg_kg, alg_lb])
        assert verdict is Classification.STRONG

    def test_no_algorithms_is_not_observement(self):
        system, obs, _ = identity_fixture()
        assert core.classify(system, [], []) is Classification.NOT_OBSERVEMENT

    def test_only_invalid_algorithms_is_not_observement(self):
        system, obs, _ = identity_fixture()
        failing = ObservationAlgorithm(
            "collapse", {"a": "a", "b": "a", "c": "c"}, {"r": "p"}
        )
        assert core.classify(system, [obs], [failing]) is Classification.NOT_OBSERVEMENT

    def test_verdict_is_permutation_invariant(self):
        system, obs, alg_a, alg_b = height_fixture()
        rng = random.Random(11)
        baseline = core.classify(system, [obs, obs], [alg_a, alg_b])
        for _ in range(5):
            algs = [alg_a, alg_b]
            rng.shuffle(algs)
            assert core.classify(system, [obs] * 2, algs) == baseline
        # Rebuilding the system from shuffled input data changes nothing:
        # everything is sets underneath.
        rebuilt = ObjectSystem(
            frozenset(reversed(sorted(system.objects))),
            {name: set(tuples) for name, tuples in system.relations.items()},
        )
        assert core.classify(rebuilt, [obs, obs], [alg_a, alg_b]) == baseline

    def test_length_mismatch_rejected(self):
        system, obs, alg = identity_fixture()
        with pytest.raises(SystemDefinitionError):
            core.classify(system, [obs, obs], [alg])

    def test_relabelled_copies_are_strong_and_coarsening_is_weak(self):
        system, (alg_a, obs_a), (alg_b, obs_b), (coarse, obs_c) = weighed_shelf_fixture()
        assert core.classify(system, [obs_a, obs_b], [alg_a, alg_b]) is Classification.STRONG
        verdict = core.classify(system, [obs_a, obs_b, obs_c], [alg_a, alg_b, coarse])
        assert verdict is Classification.WEAK

    def test_agrees_with_brute_force_on_exhaustive_corpus(self):
        verdicts = set()
        for system, algorithms in oracle_corpus():
            for first, second in itertools.product(algorithms, repeat=2):
                observations = [first[1], second[1]]
                pair = [first[0], second[0]]
                verdict = core.classify(system, observations, pair)
                assert verdict is brute_force_classify(system, observations, pair)
                verdicts.add(verdict)
        assert verdicts == set(Classification)

    @staticmethod
    def algorithm_lists(rng):
        """(system, observations, algorithms) lists of 3-6 maps per corpus system.

        Most maps of a list share one kernel, under relabelled values; the
        rest are any map of the corpus, so a list may hold one or more
        differing kernels anywhere, and invalid maps among the valid ones.
        """
        for system, algorithms in oracle_corpus():
            kernels = defaultdict(list)
            for alg, obs in algorithms:
                fibres = defaultdict(set)
                for x, value in alg.mapping.items():
                    fibres[value].add(x)
                kernels[frozenset(map(frozenset, fibres.values()))].append((alg, obs))
            for _ in range(30):
                same = rng.choice(list(kernels.values()))
                chosen = [rng.choice(same if rng.random() < 0.75 else algorithms)
                          for _ in range(rng.randint(3, 6))]
                yield system, [obs for _, obs in chosen], [alg for alg, _ in chosen]

    def test_agrees_with_brute_force_on_lists_of_three_to_six(self):
        outcomes = Counter()
        for system, observations, algs in self.algorithm_lists(random.Random(38)):
            verdict = core.classify(system, observations, algs)
            assert verdict is brute_force_classify(system, observations, algs)
            valid = sum(core.verify_representation(system, obs, alg).holds
                        for alg, obs in zip(algs, observations))
            outcomes[verdict, min(valid, 3)] += 1
        # Strong and Weak both come from lists with three or more valid maps.
        assert min(outcomes[verdict, 3] for verdict in
                   (Classification.STRONG, Classification.WEAK)) >= 100, outcomes
        assert outcomes[Classification.NOT_OBSERVEMENT, 0] >= 20, outcomes

    def test_forces_at_most_two_maps_per_valid_algorithm_after_the_first(self, monkeypatch):
        calls = []
        forced = core._forced_translation
        monkeypatch.setattr(core, "_forced_translation",
                            lambda a, b: calls.append((a, b)) or forced(a, b))
        for system, observations, algs in self.algorithm_lists(random.Random(39)):
            calls.clear()
            core.classify(system, observations, algs)
            valid = sum(core.verify_representation(system, obs, alg).holds
                        for alg, obs in zip(algs, observations))
            assert len(calls) <= 2 * max(valid - 1, 0), (len(calls), valid)


class TestSystemInvariants:
    def test_relation_tuple_outside_members_rejected(self):
        with pytest.raises(SystemDefinitionError, match="references"):
            ObjectSystem(frozenset({"a"}), {"r": {("a", "b")}})

    def test_reported_member_does_not_depend_on_hash_seed(self, tmp_path):
        # Four undeclared members; set iteration order used to pick which one
        # ``observe system classify`` named.
        path = tmp_path / "undeclared.txt"
        path.write_text("OBJECTS\na b\nRELATION r/2\na q\na r\na s\na t\n"
                        "OBSERVATIONS\nx\nRELATION p/2\nx x\nMAP m\na x\nb x\nPAIR\nr p\n")
        src = str(Path(core.__file__).resolve().parent.parent)
        outcomes = set()
        for seed in range(1, 9):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run(
                [sys.executable, "-c", "from observement.cli import main; main()",
                 "system", "classify", str(path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            outcomes.add((done.returncode, done.stdout, done.stderr))
        assert outcomes == {
            (1, "", "Error: relation 'r' references 'q', not a declared object\n")
        }

    def test_members_must_be_non_empty_strings(self):
        for make, members, message in [
            (ObjectSystem, {""}, "object identifiers must be non-empty strings, got ''"),
            (ObservationSystem, {1}, "observation identifiers must be non-empty strings, got 1"),
        ]:
            with pytest.raises(SystemDefinitionError) as caught:
                make(frozenset(members), {})
            assert str(caught.value) == message

    def test_mixed_arity_rejected(self):
        with pytest.raises(SystemDefinitionError, match="mixes arities"):
            ObjectSystem(frozenset({"a", "b"}), {"r": {("a",), ("a", "b")}})

    def test_empty_relation_needs_declared_arity(self):
        with pytest.raises(SystemDefinitionError, match="arity"):
            ObjectSystem(frozenset({"a"}), {"r": set()})
        system = ObjectSystem(frozenset({"a"}), {"r": set()}, {"r": 2})
        assert system.arities["r"] == 2


class TestFixtureFile:
    def round_trip(self, fixture):
        text = core.format_system_file(fixture)
        assert core.parse_system_file(text) == fixture

    def test_height_fixture_round_trips(self):
        system, obs, alg_a, alg_b = height_fixture()
        self.round_trip(SystemFixture(system, obs, (alg_a, alg_b)))

    def test_food_web_round_trips(self):
        system, obs, alg = food_web_fixture()
        self.round_trip(SystemFixture(system, obs, (alg,)))

    def test_empty_relations_round_trip(self):
        system = ObjectSystem(frozenset({"a", "b"}), {"r": set()}, {"r": 3})
        obs = ObservationSystem(frozenset({"x"}), {"p": set()}, {"p": 3})
        alg = ObservationAlgorithm("m", {"a": "x", "b": "x"}, {"r": "p"})
        self.round_trip(SystemFixture(system, obs, (alg,)))

    def test_parse_reports_bad_arity_line(self):
        text = "OBJECTS\na b\nRELATION r/2\na\n"
        with pytest.raises(SystemDefinitionError, match="line 4"):
            core.parse_system_file(text)

    def test_parse_rejects_data_before_section(self):
        with pytest.raises(SystemDefinitionError, match="line 1"):
            core.parse_system_file("a b c\n")

    def test_parse_rejects_unknown_member_in_map(self):
        text = "OBJECTS\na\nOBSERVATIONS\nx\nMAP m\nb x\n"
        with pytest.raises(SystemDefinitionError, match="unknown"):
            core.parse_system_file(text)

    def test_parse_rejects_pair_without_map(self):
        with pytest.raises(SystemDefinitionError, match="PAIR before"):
            core.parse_system_file("OBJECTS\na\nPAIR\nr p\n")

    def test_leading_hash_is_refused_and_inner_hash_round_trips(self):
        # A line that starts with '#' reads back as a comment, so such a token
        # would vanish from the file without an error.
        obs = ObservationSystem(frozenset({"v"}), {"p": {("v",)}})
        cases = [
            (ObjectSystem(frozenset({"a", "#x"}), {"r": {("#x",)}}), "r",
             "identifier '#x' would start a line read as a comment"),
            (ObjectSystem(frozenset({"a"}), {"#r": {("a",)}}), "#r",
             "relation name '#r' would start a line read as a comment"),
        ]
        for system, name, message in cases:
            alg = ObservationAlgorithm("m", dict.fromkeys(system.objects, "v"), {name: "p"})
            with pytest.raises(SystemDefinitionError) as info:
                core.format_system_file(SystemFixture(system, obs, (alg,)))
            assert str(info.value) == message
        system = ObjectSystem(frozenset({"a", "x#"}), {"r#": {("x#",), ("a",)}})
        alg = ObservationAlgorithm("m#", {"a": "v", "x#": "v"}, {"r#": "p"})
        self.round_trip(SystemFixture(system, obs, (alg,)))

    @pytest.mark.parametrize("member, relation, message", [
        ("a b", "r", "identifier 'a b' cannot be written as a file token"),
        ("MAP", "r", "identifier 'MAP' collides with a section keyword"),
        ("a", "r/s", "relation name 'r/s' may not contain '/'"),
    ])
    def test_names_the_file_cannot_hold_are_refused(self, member, relation, message):
        system = ObjectSystem(frozenset({member}), {relation: {(member,)}})
        obs = ObservationSystem(frozenset({"v"}), {"p": {("v",)}})
        alg = ObservationAlgorithm("m", {member: "v"}, {relation: "p"})
        with pytest.raises(SystemDefinitionError) as caught:
            core.format_system_file(SystemFixture(system, obs, (alg,)))
        assert str(caught.value) == message

    def test_comments_and_blank_lines_ignored(self):
        system, obs, alg = identity_fixture()
        fixture = SystemFixture(system, obs, (alg,))
        text = core.format_system_file(fixture)
        noisy = "# header comment\n\n" + text.replace("OBSERVATIONS", "\n# note\nOBSERVATIONS")
        assert core.parse_system_file(noisy) == fixture


FIXTURE_ERRORS = [
    ("OBJECTS a", "line 1: OBJECTS takes no arguments"),
    ("OBSERVATIONS x", "line 1: OBSERVATIONS takes no arguments"),
    ("PAIR r", "line 1: PAIR takes no arguments"),
    ("OBJECTS\nRELATION r", "line 2: expected RELATION <name>/<arity>"),
    ("OBJECTS\nRELATION r/1 a", "line 2: expected RELATION <name>/<arity>"),
    ("OBJECTS\nRELATION /2", "line 2: relation name is empty"),
    ("OBJECTS\nRELATION r/x", "line 2: bad arity 'x'"),
    ("RELATION /x", "line 1: relation name is empty"),
    ("RELATION r/x", "line 1: bad arity 'x'"),
    ("RELATION r/2", "line 1: RELATION before any OBJECTS or OBSERVATIONS section"),
    ("OBSERVATIONS\nRELATION p/1\nRELATION p/2", "line 3: duplicate relation 'p'"),
    ("MAP", "line 1: expected MAP <algorithm-name>"),
    ("MAP m n", "line 1: expected MAP <algorithm-name>"),
    ("MAP m\nMAP n\nMAP m", "line 3: duplicate algorithm 'm'"),
    ("OBJECTS\nPAIR", "line 2: PAIR before any MAP section"),
    ("# note\n\na b", "line 3: data before any section header"),
    ("OBJECTS\na b\nRELATION r/2\na", "line 4: relation 'r' has arity 2, got 1 tokens"),
    ("OBSERVATIONS\nx\nRELATION p/1\nx x", "line 4: relation 'p' has arity 1, got 2 tokens"),
    ("MAP m\na", "line 2: expected 'object observation'"),
    ("MAP m\nPAIR\nr p q", "line 3: expected 'object-relation observation-relation'"),
    ("MAP m\na x\na y", "line 3: object 'a' mapped twice"),
    ("MAP m\nPAIR\nr p\nr q", "line 4: relation 'r' paired twice"),
    ("OBJECTS\na\nRELATION r/1\nb", "relation 'r' references 'b', not a declared object"),
    ("OBSERVATIONS\nx\nRELATION p/1\ny",
     "relation 'p' references 'y', not a declared observation"),
    ("OBJECTS\na\nRELATION r/0", "relation 'r' must have arity >= 1"),
    ("OBJECTS\na\nOBSERVATIONS\nx\nMAP m\nb x", "MAP m: unknown object 'b'"),
    ("OBJECTS\na\nOBSERVATIONS\nx\nMAP m\na y", "MAP m: unknown observation 'y'"),
    ("OBJECTS\na\nOBSERVATIONS\nx\nMAP m\na x\nPAIR\nr p",
     "PAIR in m: unknown object relation 'r'"),
    ("OBJECTS\na\nRELATION r/1\na\nOBSERVATIONS\nx\nMAP m\na x\nPAIR\nr p",
     "PAIR in m: unknown observation relation 'p'"),
]


@pytest.mark.parametrize("text, message", FIXTURE_ERRORS,
                         ids=[message for _, message in FIXTURE_ERRORS])
def test_fixture_parser_error_messages(text, message):
    with pytest.raises(SystemDefinitionError) as info:
        core.parse_system_file(text + "\n")
    assert str(info.value) == message


GUARD_FIXTURE = """\
OBJECTS
a b c d
RELATION u/1
a
b
RELATION r/2
a b
b a
b a
c d
RELATION t/3
a b c
RELATION e/2
OBSERVATIONS
x y z
RELATION pu/1
x
RELATION pr/2
x x
y y
RELATION pt/3
x x y
RELATION pe/2
MAP m
a x
b x
c y
d y
PAIR
u pu
r pr
t pt
e pe
MAP n
a x
b y
c z
d z
PAIR
u pu
r pr
t pt
e pe
"""


def test_checks_and_commands_build_no_object_tuple_set(monkeypatch, tmp_path):
    """Reading, checking and the commands use rows and relation names only, on
    both universes; a relation's tuple set is built when a caller reads it, and
    kept."""
    built = []
    read = core._Relations.__getitem__
    monkeypatch.setattr(core._Relations, "__getitem__",
                        lambda self, name: built.append(name) or read(self, name))
    fixture = core.parse_system_file(GUARD_FIXTURE)
    system, obs, algs = fixture.system, fixture.observations, fixture.algorithms
    assert core.classify(system, [obs, obs], list(algs)) is Classification.NOT_OBSERVEMENT
    assert [core.verify_representation(system, obs, alg).holds for alg in algs] == [False] * 2
    assert "r" in system.relations and "pr" not in system.relations
    assert len(system.relations) == 4 and list(system.relations) == ["u", "r", "t", "e"]
    assert "pr" in obs.relations and "r" not in obs.relations
    assert len(obs.relations) == 4 and list(obs.relations) == ["pu", "pr", "pt", "pe"]
    path = tmp_path / "fixture.txt"
    path.write_text(GUARD_FIXTURE)
    for args in (["classify"], ["verify"], ["verify", "--alg", "n"]):
        result = CliRunner().invoke(cli, ["system", args[0], str(path), *args[1:]])
        assert result.exit_code == 0, result.output
    assert built == [] and not system.relations._sets and not obs.relations._sets
    assert system.relations["r"] is system.relations["r"]
    assert system.relations["r"] == {("a", "b"), ("b", "a"), ("c", "d")}
    assert obs.relations["pr"] is obs.relations["pr"]
    assert obs.relations["pr"] == {("x", "x"), ("y", "y")}
    assert built == ["r"] * 3 + ["pr"] * 3


def test_parsing_peaks_at_most_twice_what_the_result_keeps():
    """Each relation block is grouped into set rows as its lines are split, so
    no list of tuples is held beside the rows while they are built; the
    file's lines are, until the last block is read.  On this fixture the peak
    is 1.63 times what the result keeps (1.34 when the rows were lists,
    frozen after the lines were let go; 2.20 when each block was a list of
    tuples, grouped after reading)."""
    rng = random.Random(120)
    objects, values = [f"o{i}" for i in range(120)], [f"v{i}" for i in range(30)]
    lines = ["OBJECTS", " ".join(objects), "RELATION r/2"]
    lines += [f"{a} {b}" for a in objects for b in objects if rng.random() < 0.5]
    lines += ["RELATION t/3"] + [" ".join(rng.choices(objects, k=3)) for _ in range(300)]
    lines += ["OBSERVATIONS", " ".join(values), "RELATION p/2"]
    lines += [f"{a} {b}" for a in values for b in values if rng.random() < 0.5]
    lines += ["RELATION q/3"] + [" ".join(rng.choices(values, k=3)) for _ in range(100)]
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        fixture = core.parse_system_file(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * kept, (peak, kept)
    assert len(fixture.system._rows["r"]) == 120 and len(fixture.observations._rows["p"]) == 30


def test_fixture_relations_are_kept_per_universe():
    text = ("OBJECTS\na b\nRELATION r/2\na b\nOBSERVATIONS\nx\nRELATION r/1\nx\n"
            "OBJECTS\nc\nRELATION s/1\nc\nMAP m\na x\nb x\nc x\nPAIR\nr r\ns r\n")
    fixture = core.parse_system_file(text)
    assert fixture.system == ObjectSystem(
        frozenset("abc"), {"r": {("a", "b")}, "s": {("c",)}}, {"r": 2, "s": 1})
    assert fixture.observations == ObservationSystem(frozenset("x"), {"r": {("x",)}}, {"r": 1})
    assert fixture.algorithms == (
        ObservationAlgorithm("m", dict.fromkeys("abc", "x"), {"r": "r", "s": "r"}),)
