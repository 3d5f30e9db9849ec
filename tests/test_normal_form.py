"""The automata the library builds without checking them: every construction
returns fields in the normal form the public constructor produces, so
rebuilding a result through Bta(...) gives it back unchanged."""

from __future__ import annotations

from treeca import (
    Bta,
    Tta,
    canonical_form,
    codeterminize,
    complete,
    determinize,
    is_deterministic,
    minimize_bta,
    minimize_dbta,
    parse_automaton,
    reverse_bta,
    reverse_tta,
    serialize_automaton,
    subset_construction,
    trim_empty,
    trim_unreachable,
)

from helpers import FIXTURES, load_fixture, seeded_draws


def assert_normal_form(o: Bta) -> None:
    assert type(o.states) is frozenset and type(o.final) is frozenset
    assert type(o.delta) is dict
    for key, targets in o.delta.items():
        sym, args = key
        assert type(key) is tuple and type(sym) is str and type(args) is tuple
        assert type(targets) is frozenset and targets
    assert Bta(o.alphabet, o.states, o.delta, o.final) == o


def constructions(a: Bta):
    """(route, result) for every construction the library builds unchecked."""
    yield "parse bta", parse_automaton(serialize_automaton(a))
    yield "parse tta", reverse_tta(parse_automaton(serialize_automaton(reverse_bta(a))))
    yield "subset_construction", subset_construction(a)[0]
    c = codeterminize(a)
    yield "codeterminize", c
    yield "codeterminize without pretrim", codeterminize(a, pretrim=False)
    yield "trim_unreachable", trim_unreachable(a)
    yield "trim_empty", trim_empty(a)
    yield "minimize_bta", minimize_bta(a)
    yield "minimize_bta strip_dead", minimize_bta(a, strip_dead=True)
    if is_deterministic(a):
        yield "complete", complete(a)
        yield "complete partial", complete(trim_empty(a))
        yield "minimize_dbta", minimize_dbta(a)
        yield "canonical_form", canonical_form(a)


def fixture_btas() -> list[Bta]:
    out = []
    for path in sorted(FIXTURES.iterdir()):
        a = load_fixture(path.name)
        out.append(a if isinstance(a, Bta) else reverse_tta(a))
    return out


def test_parsed_fixtures_are_in_normal_form():
    for a in fixture_btas():
        assert_normal_form(a)


def test_every_construction_is_a_fixed_point_of_the_public_constructor():
    routes: set[str] = set()
    for a in fixture_btas() + seeded_draws(250):
        for x in (a, determinize(a)):
            for route, o in constructions(x):
                assert_normal_form(o)
                routes.add(route)
    assert len(routes) == 13


def test_public_tta_builds_the_rules_it_reads(bool2r):
    t = Tta(bool2r.alphabet, bool2r.states, bool2r.delta, bool2r.initial)
    assert t == bool2r
    assert_normal_form(reverse_tta(t))
