"""Version grammar tests.

The centerpiece is a brute-force oracle: an independent reference matcher
over integer triples, evaluated for every constraint in a generated set
against the full 10x10x10 version grid. The package must agree on all of it.
"""

import random

import pytest

from pentestflow.versions import (
    MalformedConstraint,
    UnparseableVersion,
    Version,
    VersionConstraint,
    constraint_matches,
    relation,
)

GRID = [(a, b, c) for a in range(10) for b in range(10) for c in range(10)]


# ---------------------------------------------------------------------------
# Reference matcher (test-side oracle, integer-tuple semantics)
# ---------------------------------------------------------------------------


def _pad(parts, width):
    return tuple(parts) + (0,) * (width - len(parts))


def _cmp(a, b):
    width = max(len(a), len(b))
    pa, pb = _pad(a, width), _pad(b, width)
    return (pa > pb) - (pa < pb)


def ref_matches(expression: str, version: tuple) -> bool:
    text = expression.strip()
    if not text:
        return True
    for part in text.split(","):
        part = part.strip()
        if part.startswith("<="):
            bound = tuple(int(x) for x in part[2:].strip().split("."))
            if _cmp(version, bound) > 0:
                return False
        elif part.startswith(">="):
            bound = tuple(int(x) for x in part[2:].strip().split("."))
            if _cmp(version, bound) < 0:
                return False
        elif " - " in part:
            low_text, _, high_text = part.partition(" - ")
            low = tuple(int(x) for x in low_text.strip().split("."))
            high = tuple(int(x) for x in high_text.strip().split("."))
            if _cmp(version, low) < 0 or _cmp(version, high) > 0:
                return False
        elif part.endswith(".*"):
            prefix = tuple(int(x) for x in part[:-2].split("."))
            if _pad(version, max(len(prefix), len(version)))[: len(prefix)] != prefix:
                return False
        else:
            exact = tuple(int(x) for x in part.split("."))
            if _cmp(version, exact) != 0:
                return False
    return True


def _random_version_text(rng: random.Random) -> str:
    return ".".join(str(rng.randrange(10)) for _ in range(rng.randrange(1, 4)))


def generate_constraints(rng: random.Random, count: int) -> list[str]:
    constraints = []
    forms = ["exact", "wild", "le", "ge", "range", "conj", "empty"]
    while len(constraints) < count:
        form = rng.choice(forms)
        if form == "exact":
            constraints.append(_random_version_text(rng))
        elif form == "wild":
            head = ".".join(
                str(rng.randrange(10)) for _ in range(rng.randrange(1, 3))
            )
            constraints.append(f"{head}.*")
        elif form == "le":
            constraints.append(f"<={_random_version_text(rng)}")
        elif form == "ge":
            constraints.append(f">={_random_version_text(rng)}")
        elif form == "range":
            constraints.append(
                f"{_random_version_text(rng)} - {_random_version_text(rng)}"
            )
        elif form == "conj":
            n = rng.randrange(2, 4)
            parts = []
            for _ in range(n):
                sub = rng.choice(["exact", "wild", "le", "ge", "range"])
                if sub == "exact":
                    parts.append(_random_version_text(rng))
                elif sub == "wild":
                    parts.append(f"{rng.randrange(10)}.*")
                elif sub == "le":
                    parts.append(f"<={_random_version_text(rng)}")
                elif sub == "ge":
                    parts.append(f">={_random_version_text(rng)}")
                else:
                    parts.append(
                        f"{_random_version_text(rng)} - {_random_version_text(rng)}"
                    )
            constraints.append(", ".join(parts))
        else:
            constraints.append("")
    return constraints


def test_grid_oracle_agreement():
    rng = random.Random(0x5EED)
    constraints = generate_constraints(rng, 220)
    assert len(constraints) >= 200
    disagreements = []
    for expression in constraints:
        parsed = VersionConstraint.parse(expression)
        for triple in GRID:
            version_text = ".".join(str(x) for x in triple)
            got = parsed.matches(version_text)
            want = ref_matches(expression, triple)
            if got != want:
                disagreements.append((expression, version_text, got, want))
    assert disagreements == []


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


def test_boundary_examples():
    assert constraint_matches("<=5.17.3", "5.17.3") is True
    assert constraint_matches("<=5.17.3", "5.18.0") is False
    assert constraint_matches("5.17.*", "5.17.9") is True
    assert constraint_matches("5.17.*", "5.16.9") is False


def test_empty_constraint_matches_everything():
    assert constraint_matches("", "1.0") is True
    assert constraint_matches("   ", "9.9.9") is True
    # match-all never needs to parse the version at all
    assert constraint_matches("", "banana") is True


def test_range_inclusive_both_ends():
    assert constraint_matches("5.4.0 - 5.17.1", "5.4.0") is True
    assert constraint_matches("5.4.0 - 5.17.1", "5.17.1") is True
    assert constraint_matches("5.4.0 - 5.17.1", "5.3.9") is False
    assert constraint_matches("5.4.0 - 5.17.1", "5.17.2") is False
    assert constraint_matches("5.4.0 - 5.17.1", "5.10") is True


def test_conjunction_requires_all():
    assert constraint_matches(">=5.0, <=6.0", "5.5") is True
    assert constraint_matches(">=5.0, <=6.0", "6.1") is False
    assert constraint_matches("5.*, >=5.17", "5.17.3") is True
    assert constraint_matches("5.*, >=5.17", "5.16.0") is False


def test_missing_components_are_zero():
    assert constraint_matches("5.17", "5.17.0") is True
    assert constraint_matches("5.17.0", "5.17") is True
    assert constraint_matches("<=5.17", "5.17.0") is True
    assert constraint_matches(">=5.17.0.0.1", "5.17") is False


# ---------------------------------------------------------------------------
# Version parsing and ordering
# ---------------------------------------------------------------------------


def test_parse_basics():
    assert Version.parse("5.17.3").release == (5, 17, 3)
    assert Version.parse("v5.17.3").release == (5, 17, 3)
    assert Version.parse(" 1.0 ").release == (1, 0)
    assert Version.parse("7").release == (7,)


def test_parse_suffixes():
    v = Version.parse("1.2.3-beta")
    assert v.release == (1, 2, 3)
    assert v.suffix == "beta"
    assert Version.parse("1.2.3_rc1").suffix == "rc1"
    assert Version.parse("1.2.3.p1").suffix == "p1"
    assert Version.parse("2.4dev").suffix == "dev"


def test_unparseable_versions():
    for bad in ("banana", "", "  ", "beta-1... no", "-1.2", "v"):
        with pytest.raises(UnparseableVersion):
            Version.parse(bad)


def test_suffix_ranks_below_bare():
    assert Version.parse("5.17.1-beta") < Version.parse("5.17.1")
    assert Version.parse("5.17.1") > Version.parse("5.17.1-rc2")
    assert Version.parse("1.2.3-alpha") < Version.parse("1.2.3-beta")
    # but the release numbers dominate any suffix
    assert Version.parse("5.17.1-beta") > Version.parse("5.17.0")


def test_equality_and_hash_pad_zeros():
    assert Version.parse("5.17") == Version.parse("5.17.0")
    assert hash(Version.parse("5.17")) == hash(Version.parse("5.17.0.0"))
    assert Version.parse("5.17") != Version.parse("5.17.1")
    assert Version.parse("1.2-beta") == Version.parse("1.2.0-beta")


def test_total_order_on_samples():
    ordered = [
        "0.9",
        "1.0-alpha",
        "1.0",
        "1.0.1",
        "1.2-beta",
        "1.2",
        "1.10",
        "2.0",
        "10.0",
    ]
    parsed = [Version.parse(v) for v in ordered]
    assert parsed == sorted(parsed)
    for earlier, later in zip(parsed, parsed[1:]):
        assert earlier < later


def test_str_round_trip():
    assert str(Version.parse("5.17.3")) == "5.17.3"
    assert str(Version.parse("1.2.3-beta")) == "1.2.3-beta"


# ---------------------------------------------------------------------------
# Malformed constraints
# ---------------------------------------------------------------------------


def test_malformed_constraints():
    for bad in (
        "banana",
        "<5.0",
        ">5.0",
        "=5.0",
        "==5.0",
        "1.*.2",
        "*",
        "*.2",
        "1.2,",
        ",",
        ",1.2",
        "<=banana",
        ">= banana",
        "apple - 2.0",
        "1.0 - pear",
        "x.2.*",
    ):
        with pytest.raises(MalformedConstraint):
            VersionConstraint.parse(bad)


def test_x_wildcard_synonym():
    assert constraint_matches("5.17.x", "5.17.9") is True
    assert constraint_matches("5.17.x", "5.16.9") is False
    assert constraint_matches("5.17.X", "5.17.0") is True


def test_unparseable_version_at_match_time():
    constraint = VersionConstraint.parse("<=5.0")
    with pytest.raises(UnparseableVersion):
        constraint.matches("banana")


def test_constraint_with_suffixed_versions():
    # grammar allows suffixed bounds; beta sits below the bare release
    assert constraint_matches("<=5.17.1", "5.17.1-beta") is True
    assert constraint_matches(">=5.17.1", "5.17.1-beta") is False
    assert constraint_matches("5.17.1-beta", "5.17.1-beta") is True
    assert constraint_matches("5.17.1-beta", "5.17.1") is False


def test_matches_all_property():
    assert VersionConstraint.parse("").matches_all
    assert not VersionConstraint.parse("1.0").matches_all


# ---------------------------------------------------------------------------
# relation: how a constraint relates to a version
# ---------------------------------------------------------------------------

MALFORMED = ["banana", "<5.0", "=5.0", "1.*.2", "*", "1.2,", "<=banana", "apple - 2.0"]
ODD_VERSIONS = ["", "   ", "banana", "total nonsense version!", "v1.2.3", "1.2.3-beta", "5.17.1-rc1", "1.2"]


def ref_relation(expression: str, version_text: str) -> str:
    """Brute force from the grammar's own parts: parse, matches, clauses."""
    try:
        constraint = VersionConstraint.parse(expression)
    except MalformedConstraint:
        return "unknown"
    try:
        matched = constraint.matches(version_text)
    except UnparseableVersion:
        return "unknown"
    if not matched:
        return "excluded"
    exact = [clause[1] for clause in constraint.clauses if clause[0] == "exact"]
    return "exact" if exact and Version.parse(version_text) in exact else "match"


def test_relation_grid_oracle():
    rng = random.Random(0xC1A55)
    disagreements = []
    for expression in generate_constraints(rng, 60):
        bare = [
            tuple(int(x) for x in part.strip().split("."))
            for part in expression.split(",")
            if part.strip() and part.strip()[0].isdigit() and " - " not in part and "*" not in part
        ]
        for triple in GRID:
            text = ".".join(str(x) for x in triple)
            if not ref_matches(expression, triple):
                want = "excluded"
            elif any(_cmp(triple, exact) == 0 for exact in bare):
                want = "exact"
            else:
                want = "match"
            got = relation(expression, text)
            if not got == want == ref_relation(expression, text):
                disagreements.append((expression, text, got, want))
    assert disagreements == []


def test_relation_on_malformed_constraints_and_odd_versions():
    rng = random.Random(0x0DD)
    expressions = generate_constraints(rng, 40) + MALFORMED + ["5.17.1-rc1", "<=1.2.3-beta"]
    versions = ODD_VERSIONS + [_random_version_text(rng) for _ in range(10)]
    for expression in expressions:
        for version in versions:
            assert relation(expression, version) == ref_relation(expression, version), (
                expression,
                version,
            )
    for expression in MALFORMED:
        assert {relation(expression, v) for v in versions} == {"unknown"}
    for version in ("", "   ", "banana"):
        assert relation("", version) == "match"
        assert relation("<=9.9", version) == "unknown"
        assert relation("1.2.3", version) == "unknown"
    assert relation("1.2.3", "v1.2.3") == "exact"
    assert relation("1.2", "1.2.0") == "exact"
    assert relation("1.2.3, <=2.0", "1.2.3") == "exact"
    assert relation("5.17.1-rc1", "5.17.1-rc1") == "exact"
    assert relation("5.17.1", "5.17.1-rc1") == "excluded"
    assert relation("<=1.2.3-beta", "1.2.3-alpha") == "match"
