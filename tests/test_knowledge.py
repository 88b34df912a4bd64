"""Knowledge tree tests: validation, merge semantics, version-aware queries,
byte-stable, incremental, crash-safe persistence, and loading one
application at a time."""

import json
import os
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentestflow.knowledge import (
    EFFECT_VOCABULARY,
    UNASSIGNED,
    ExploitNode,
    KnowledgeError,
    KnowledgeTree,
    VulnerabilityNode,
    _dirname,
    _key,
    is_valid_cve_id,
    normalize_effect,
)


def make_vuln(cve="CVE-2023-46604", versions="<=5.17.3", **kwargs):
    defaults = dict(
        vuln_type="remote code execution",
        affected_versions=versions,
        summary="deserialization flaw",
        sources=["https://example.org/advisory"],
    )
    defaults.update(kwargs)
    return VulnerabilityNode(cve_id=cve, **defaults)


def make_exploit(ref="github.com/x/poc", **kwargs):
    defaults = dict(
        effect="remote command execution",
        applicable_versions="5.17.*",
        requirements=("python3",),
    )
    defaults.update(kwargs)
    return ExploitNode(source_ref=ref, **defaults)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_cve_id_validation():
    assert is_valid_cve_id("CVE-2023-46604")
    assert is_valid_cve_id("CVE-1999-0001")
    assert is_valid_cve_id("CVE-2024-123456")
    assert is_valid_cve_id(UNASSIGNED)
    assert not is_valid_cve_id("cve-2023-46604")
    assert not is_valid_cve_id("CVE-23-1234")
    assert not is_valid_cve_id("CVE-2023-123")
    assert not is_valid_cve_id("")
    with pytest.raises(ValueError):
        VulnerabilityNode(cve_id="not-a-cve")


def test_malformed_constraint_rejected_at_node_construction():
    with pytest.raises(ValueError):
        VulnerabilityNode(cve_id="CVE-2023-1111", affected_versions="banana")
    with pytest.raises(ValueError):
        ExploitNode(source_ref="x", effect="e", applicable_versions="<bad")


def test_epss_bounds():
    make_vuln(epss=0.0)
    make_vuln(epss=100.0)
    with pytest.raises(ValueError):
        make_vuln(epss=-0.1)
    with pytest.raises(ValueError):
        make_vuln(epss=100.1)


def test_exploit_requires_ref_and_effect():
    with pytest.raises(ValueError):
        ExploitNode(source_ref="", effect="x")
    with pytest.raises(ValueError):
        ExploitNode(source_ref="x", effect="")


def test_normalize_effect():
    assert normalize_effect("Remote Code Execution") == "remote code execution"
    assert normalize_effect("  Denial   of  Service ") == "denial of service"
    # off-vocabulary labels survive, lowercased
    assert normalize_effect("Prototype Pollution") == "prototype pollution"
    for phrase in EFFECT_VOCABULARY:
        assert normalize_effect(phrase.upper()) == phrase


# ---------------------------------------------------------------------------
# Upsert and merge
# ---------------------------------------------------------------------------


def test_upsert_idempotent():
    tree = KnowledgeTree()
    tree.upsert("ActiveMQ", make_vuln(exploits=[make_exploit()]))
    assert tree.node_count() == 2
    tree.upsert("ActiveMQ", make_vuln(exploits=[make_exploit()]))
    assert tree.node_count() == 2
    assert len(tree.vulnerabilities("activemq")) == 1


def test_upsert_new_exploit_grows_list():
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln(exploits=[make_exploit("repo/a")]))
    tree.upsert("App", make_vuln(exploits=[make_exploit("repo/b")]))
    node = tree.get("App", "CVE-2023-46604")
    assert sorted(e.source_ref for e in node.exploits) == ["repo/a", "repo/b"]
    assert tree.node_count() == 3


def test_upsert_merges_scalars_nonempty_wins():
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln(summary="first summary", vuln_type=""))
    merged = tree.upsert(
        "App", make_vuln(summary="", vuln_type="rce", sources=["https://b.example"])
    )
    assert merged.summary == "first summary"
    assert merged.vuln_type == "rce"
    assert merged.sources == sorted(
        {"https://example.org/advisory", "https://b.example"}
    )


def test_upsert_merges_exploit_fields():
    tree = KnowledgeTree()
    tree.upsert(
        "App",
        make_vuln(exploits=[make_exploit("r", local_path="", requirements=("a",))]),
    )
    tree.upsert(
        "App",
        make_vuln(
            exploits=[make_exploit("r", local_path="/tmp/x", requirements=("b", "a"))]
        ),
    )
    node = tree.get("App", "CVE-2023-46604")
    assert len(node.exploits) == 1
    assert node.exploits[0].local_path == "/tmp/x"
    assert node.exploits[0].requirements == ("a", "b")


def test_case_insensitive_app_keys_first_spelling_displayed():
    tree = KnowledgeTree()
    tree.upsert("ActiveMQ", make_vuln())
    tree.upsert("ACTIVEMQ", make_vuln(cve="CVE-2023-9999"))
    assert tree.applications() == ["ActiveMQ"]
    assert len(tree.vulnerabilities("activemq")) == 2


def test_padded_and_mixed_case_names_find_one_application(tmp_path):
    root = tmp_path / "kb"
    tree = KnowledgeTree()
    tree.upsert("Apache Tomcat", make_vuln(cve="CVE-2020-1938"))
    tree.upsert("  APACHE tomcat\t", make_vuln(cve="CVE-2017-12617"))
    assert tree.applications() == ["Apache Tomcat"]
    tree.save(root)
    for candidate in (tree, KnowledgeTree.load(root)):
        for name in [" Apache Tomcat ", "APACHE TOMCAT", "\tapache tomcat\n"]:
            assert candidate.get(name, "CVE-2020-1938") is not None, name
            assert [n.cve_id for n in candidate.vulnerabilities(name)] == [
                "CVE-2017-12617",
                "CVE-2020-1938",
            ]
            assert len(candidate.query(name, "5.17.0")[0]) == 2
            assert candidate.node_count(name) == 2


def test_epss_updated_when_incoming_present():
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln(epss=None))
    tree.upsert("App", make_vuln(epss=97.19))
    assert tree.get("App", "CVE-2023-46604").epss == 97.19
    tree.upsert("App", make_vuln(epss=None))
    assert tree.get("App", "CVE-2023-46604").epss == 97.19


def test_empty_application_rejected():
    tree = KnowledgeTree()
    with pytest.raises(ValueError):
        tree.upsert("  ", make_vuln())


# ---------------------------------------------------------------------------
# Query
# ---------------------------------------------------------------------------


def test_query_absent_app():
    tree = KnowledgeTree()
    assert tree.query("ghost", "1.0") == ([], [])


def test_query_boundary_and_exclusion():
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln(versions="<=5.17.3"))
    matching, unknown = tree.query("App", "5.17.3")
    assert [n.cve_id for n in matching] == ["CVE-2023-46604"]
    assert unknown == []
    matching, unknown = tree.query("App", "5.18.0")
    assert matching == [] and unknown == []


def test_query_empty_constraint_matches_all():
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln(versions=""))
    matching, unknown = tree.query("App", "0.0.1")
    assert len(matching) == 1
    # even an unparseable observed version matches a match-all node
    matching, unknown = tree.query("App", "weird-version-string")
    assert len(matching) == 1 and unknown == []


def test_query_unparseable_version_goes_unknown():
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln(versions="<=5.17.3"))
    matching, unknown = tree.query("App", "unknowable")
    assert matching == []
    assert [n.cve_id for n in unknown] == ["CVE-2023-46604"]


def test_query_never_returns_provably_excluded(tmp_path):
    rng = random.Random(5)
    tree = KnowledgeTree()
    constraints = ["<=3.0", ">=7.0", "5.*", "2.0 - 4.0", "", "6.1.4"]
    for i, constraint in enumerate(constraints):
        tree.upsert("App", make_vuln(cve=f"CVE-2020-{1000+i}", versions=constraint))
    for _ in range(50):
        version = f"{rng.randrange(10)}.{rng.randrange(10)}.{rng.randrange(10)}"
        matching, unknown = tree.query("App", version)
        for node in matching + unknown:
            from pentestflow.versions import constraint_matches

            assert (
                node.affected_versions == ""
                or constraint_matches(node.affected_versions, version)
            )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


CONSTRAINTS = ["", "<=5.17.3", "5.*", "1.0 - 2.0", ">=3.1"]


def _random_exploit(rng: random.Random) -> ExploitNode:
    return make_exploit(
        f"github.com/u/r{rng.randrange(100)}",
        effect=rng.choice(EFFECT_VOCABULARY),
        applicable_versions=rng.choice(CONSTRAINTS),
        requirements=tuple(
            rng.sample(["python3", "nc", "bash", "curl"], rng.randrange(3))
        ),
    )


def _random_vuln(rng: random.Random, cve: str = "") -> VulnerabilityNode:
    cve = cve or f"CVE-20{rng.randrange(10,25)}-{rng.randrange(1000, 99999)}"
    exploits = [_random_exploit(rng) for _ in range(rng.randrange(0, 3))]
    return VulnerabilityNode(
        cve_id=cve,
        vuln_type=rng.choice(["rce", "ssrf", ""]),
        affected_versions=rng.choice(CONSTRAINTS),
        summary=f"summary {rng.randrange(1000)}",
        exploits=exploits,
        sources=[f"https://src{rng.randrange(5)}.example"],
        epss=rng.choice([None, round(rng.uniform(0, 100), 2)]),
    )


def _random_tree(rng: random.Random) -> KnowledgeTree:
    tree = KnowledgeTree()
    apps = ["ActiveMQ", "nginx", "Demo App!"]
    for app in rng.sample(apps, rng.randrange(1, len(apps) + 1)):
        for _ in range(rng.randrange(1, 4)):
            tree.upsert(app, _random_vuln(rng))
    return tree


def _dir_bytes(root) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_save_load_save_byte_identity(tmp_path):
    rng = random.Random(0xC0FFEE)
    for trial in range(10):
        tree = _random_tree(rng)
        first = tmp_path / f"t{trial}-a"
        second = tmp_path / f"t{trial}-b"
        tree.save(first)
        loaded = KnowledgeTree.load(first)
        loaded.save(second)
        assert _dir_bytes(first) == _dir_bytes(second), f"trial {trial}"


def test_save_replaces_stale_content(tmp_path):
    root = tmp_path / "kb"
    tree = KnowledgeTree()
    tree.upsert("OldApp", make_vuln())
    tree.save(root)
    fresh = KnowledgeTree()
    fresh.upsert("NewApp", make_vuln(cve="CVE-2024-1111", versions=""))
    fresh.save(root)
    reloaded = KnowledgeTree.load(root)
    assert reloaded.applications() == ["NewApp"]
    assert not (root.parent / "kb.staging").exists()
    assert not (root.parent / "kb.discard").exists()


def test_load_missing_dir_gives_empty_tree(tmp_path):
    tree = KnowledgeTree.load(tmp_path / "nothing-here")
    assert tree.applications() == []
    assert tree.node_count() == 0


def test_load_bad_node_file_raises(tmp_path):
    root = tmp_path / "kb"
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln())
    tree.save(root)
    bad = next(root.glob("*/CVE-*.json"))
    bad.write_text("{not json")
    tree = KnowledgeTree.load(root)  # the application is read on first access
    with pytest.raises(KnowledgeError):
        tree.vulnerabilities("App")


def test_node_round_trip_through_dict():
    node = make_vuln(
        exploits=[make_exploit("b/ref"), make_exploit("a/ref")], epss=42.5
    )
    rebuilt = VulnerabilityNode.from_dict(node.to_dict())
    assert rebuilt.cve_id == node.cve_id
    assert rebuilt.epss == 42.5
    # to_dict sorts exploits by source_ref
    assert [e.source_ref for e in rebuilt.exploits] == ["a/ref", "b/ref"]


# ---------------------------------------------------------------------------
# Directory names, incremental save and crash safety
# ---------------------------------------------------------------------------


def _snapshot(tree: KnowledgeTree) -> dict:
    return {
        (app, node.cve_id): node.to_dict()
        for app in tree.applications()
        for node in tree.vulnerabilities(app)
    }


def _inodes(root) -> dict:
    return {
        str(path.relative_to(root)): path.stat().st_ino
        for path in root.rglob("*")
        if path.is_file()
    }


def test_slug_colliding_applications_round_trip(tmp_path):
    root = tmp_path / "kb"
    tree = KnowledgeTree()
    tree.upsert("Apache Tomcat", make_vuln(cve="CVE-2020-1938"))
    tree.upsert("apache_tomcat", make_vuln(cve="CVE-2017-12617"))
    tree.save(root)
    reloaded = KnowledgeTree.load(root)
    assert reloaded.applications() == ["Apache Tomcat", "apache_tomcat"]
    assert [n.cve_id for n in reloaded.vulnerabilities("apache tomcat")] == [
        "CVE-2020-1938"
    ]
    assert [n.cve_id for n in reloaded.vulnerabilities("apache_tomcat")] == [
        "CVE-2017-12617"
    ]


def _write_app(root, dirname, display, nodes):
    """Lay out one application directory by hand, as older code or a person
    might have; nodes maps file names to nodes."""
    (root / dirname).mkdir(parents=True)
    (root / dirname / "application.json").write_text(
        json.dumps({"application": display}) + "\n"
    )
    for name, node in nodes.items():
        (root / dirname / name).write_text(
            json.dumps(node.to_dict(), sort_keys=True, indent=2) + "\n"
        )


def test_older_directory_names_are_saved_in_place(tmp_path):
    root = tmp_path / "kb"
    _write_app(root, "app", "App", {"CVE-2023-46604.json": make_vuln()})
    tree = KnowledgeTree.load(root)
    tree.upsert("App", make_vuln(cve="CVE-2024-0001"))
    tree.save(root)
    assert sorted(p.name for p in root.iterdir()) == ["app"]
    assert (root / "app" / "CVE-2024-0001.json").is_file()
    assert len(KnowledgeTree.load(root).vulnerabilities("App")) == 2


def _misnamed_node_file(root):
    _write_app(root, "app", "App", {"advisory.json": make_vuln(summary="old")})


def _two_directories_for_one_key(root):
    _write_app(root, "a", "App", {"CVE-2023-46604.json": make_vuln(summary="old")})
    _write_app(root, "b", "APP", {"CVE-2023-46604.json": make_vuln(summary="old")})


def _older_name_equal_to_a_new_one(root):
    taken = _dirname("app")  # an older tree's slug for an application so named
    _write_app(root, taken, taken, {"CVE-2023-46604.json": make_vuln()})


@pytest.mark.parametrize(
    "layout",
    [_misnamed_node_file, _two_directories_for_one_key, _older_name_equal_to_a_new_one],
)
def test_irregular_layouts_are_saved_whole(tmp_path, layout):
    # a save of only the dirty nodes would leave stale copies beside them, or
    # write a new application into an older one's directory
    root = tmp_path / "kb"
    layout(root)
    tree = KnowledgeTree.load(root)
    tree.upsert("App", make_vuln(summary="new"))
    tree.save(root)
    assert _snapshot(KnowledgeTree.load(root)) == _snapshot(tree)


@pytest.mark.parametrize("layout", [_misnamed_node_file, _two_directories_for_one_key])
def test_irregular_application_is_saved_whole_once_it_is_dirty(tmp_path, layout):
    root = tmp_path / "kb"
    layout(root)
    irregular = sorted(p.name for p in root.iterdir())
    tree = KnowledgeTree.load(root)
    tree.upsert("Other", make_vuln())
    tree.save(root)  # App is not dirty: its directories stay as they are
    assert sorted(p.name for p in root.iterdir()) == sorted(
        [*irregular, _dirname("other")]
    )
    tree.upsert("App", make_vuln(summary="new"))
    tree.save(root)
    assert sorted(p.name for p in root.rglob("*")) == sorted(
        [_dirname("app"), _dirname("other"), "application.json", "application.json"]
        + ["CVE-2023-46604.json"] * 2
    )


def test_duplicate_directories_merge_in_name_order(tmp_path):
    # the later name wins a scalar conflict, as when the whole tree is read
    root = tmp_path / "kb"
    first, last = make_vuln(summary="first"), make_vuln(summary="last")
    _write_app(root, _dirname("app"), "App", {"CVE-2023-46604.json": first})
    _write_app(root, "zzz legacy", "APP", {"CVE-2023-46604.json": last})
    assert KnowledgeTree.load(root).get("App", "CVE-2023-46604").summary == "last"
    full = KnowledgeTree.load(root)
    full.applications()
    assert full.get("App", "CVE-2023-46604").summary == "last"


def test_home_save_replaces_exactly_one_file(tmp_path):
    root = tmp_path / "kb"
    _random_tree(random.Random(11)).save(root)
    tree = KnowledgeTree.load(root)
    app = tree.applications()[0]
    cve = tree.vulnerabilities(app)[0].cve_id
    before = _inodes(root)
    tree.upsert(app, make_vuln(cve=cve, versions="", summary="updated"))
    tree.save(root)
    after = _inodes(root)
    assert after.keys() == before.keys()
    assert [rel for rel in after if after[rel] != before[rel]] == [
        str(next(root.glob(f"*/{cve}.json")).relative_to(root))
    ]
    assert KnowledgeTree.load(root).get(app, cve).summary == "updated"


_NEW_APPS = ["Apache Tomcat", "apache_tomcat", "Grafana", "Über App", "NGINX"]


def _apply_upsert(tree: KnowledgeTree, rng: random.Random, kind: str) -> None:
    apps = tree.applications()
    if kind == "new_app" or not apps:
        tree.upsert(rng.choice(_NEW_APPS), _random_vuln(rng))
        return
    app = rng.choice(apps)
    if kind == "new_cve":
        tree.upsert(rng.choice([app, app.upper()]), _random_vuln(rng))
        return
    node = rng.choice(tree.vulnerabilities(app))
    incoming = _random_vuln(rng, cve=node.cve_id)
    if kind == "merge_exploit" and node.exploits:
        held = rng.choice(node.exploits)
        incoming.exploits.append(
            make_exploit(
                held.source_ref,
                applicable_versions=rng.choice(CONSTRAINTS),
                requirements=("socat",),
                local_path=f"/tmp/poc{rng.randrange(10)}",
            )
        )
    tree.upsert(app, incoming)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    upserts=st.lists(
        st.tuples(
            st.sampled_from(["new_app", "new_cve", "merge_node", "merge_exploit"]),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_home_save_matches_full_save(tmp_path_factory, seed, upserts):
    home = tmp_path_factory.mktemp("home") / "kb"
    fresh = tmp_path_factory.mktemp("fresh") / "kb"
    _random_tree(random.Random(seed)).save(home)
    tree = KnowledgeTree.load(home)
    for kind, op_seed in upserts:
        _apply_upsert(tree, random.Random(op_seed), kind)
    tree.save(home)
    tree.save(fresh)
    assert _dir_bytes(home) == _dir_bytes(fresh)
    assert not list(home.rglob("*.tmp"))


def test_load_reads_old_tree_between_swap_renames(tmp_path):
    root = tmp_path / "kb"
    old = _random_tree(random.Random(3))
    old.save(root)
    root.rename(tmp_path / "kb.discard")  # as a full save does before its swap
    loaded = KnowledgeTree.load(root)
    assert _snapshot(loaded) == _snapshot(old)
    # the discard directory is not the tree's home: its next save is full
    loaded.upsert("NewApp", make_vuln(cve="CVE-2024-2222"))
    loaded.save(root)
    assert not (tmp_path / "kb.discard").exists()
    assert _snapshot(KnowledgeTree.load(root)) == _snapshot(loaded)


class InjectedCrash(OSError):
    pass


def _crash_on_call(monkeypatch, k: int) -> list:
    """Make the k-th call of Path.rename, os.replace or Path.write_text raise;
    a crashing write_text leaves the first half of its text behind."""
    calls = []
    real_rename, real_replace, real_write = Path.rename, os.replace, Path.write_text

    def tick() -> bool:
        calls.append(None)
        return len(calls) == k

    def rename(self, target):
        if tick():
            raise InjectedCrash(f"rename {self}")
        return real_rename(self, target)

    def replace(src, dst):
        if tick():
            raise InjectedCrash(f"replace {src}")
        return real_replace(src, dst)

    def write_text(self, data, *args, **kwargs):
        if tick():
            real_write(self, data[: len(data) // 2], *args, **kwargs)
            raise InjectedCrash(f"write_text {self}")
        return real_write(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "rename", rename)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(Path, "write_text", write_text)
    return calls


def _home_case(root):
    _random_tree(random.Random(56)).save(root)
    old = _snapshot(KnowledgeTree.load(root))
    tree = KnowledgeTree.load(root)
    rng = random.Random(22)
    for kind in ["merge_node", "merge_exploit", "new_cve", "new_app", "new_app"]:
        _apply_upsert(tree, rng, kind)
    return tree, old


def _full_case(root):
    old_tree = _random_tree(random.Random(56))
    old_tree.save(root)
    return _random_tree(random.Random(37)), _snapshot(old_tree)


def _assert_home_save_sweeps_strays(crashed, again):
    """A new tree saved into a copy of a crashed home rewrites one node of
    every application; no ``*.tmp`` may remain in the directories it wrote."""
    shutil.copytree(crashed, again)
    tree = KnowledgeTree.load(again)
    for app in tree.applications():
        tree.upsert(app, tree.vulnerabilities(app)[-1])
    tree.save(again)
    for app in tree.applications():
        assert not list((again / _dirname(_key(app))).glob("*.tmp")), app


@pytest.mark.parametrize("case", [_home_case, _full_case], ids=["home", "full"])
def test_crash_at_every_write_and_rename_leaves_a_loadable_tree(
    tmp_path, monkeypatch, case
):
    k = 0
    while True:
        k += 1
        root = tmp_path / f"k{k}" / "kb"
        tree, old = case(root)
        new = _snapshot(tree)
        with monkeypatch.context() as patch:
            calls = _crash_on_call(patch, k)
            try:
                tree.save(root)
            except InjectedCrash:
                pass
        loaded = _snapshot(KnowledgeTree.load(root))
        assert loaded, f"empty tree after a crash at call {k}"
        if case is _full_case:
            assert loaded in (old, new), f"mixed tree after a crash at call {k}"
        else:
            # the old tree with each dirty node at its old or new value
            assert loaded.keys() <= new.keys(), k
            for key in new:
                assert loaded.get(key) in (old.get(key), new[key]), (k, key)
        if len(calls) < k:  # the save finished before the k-th call
            assert loaded == new
            break
        if case is _home_case:
            _assert_home_save_sweeps_strays(root, tmp_path / f"k{k}" / "again")
        tree.save(root)  # the same tree, saved again, finishes the job
        assert _snapshot(KnowledgeTree.load(root)) == new
        assert not list(root.rglob("*.tmp"))
        assert not root.with_name("kb.staging").exists()
        assert not root.with_name("kb.discard").exists()
    assert k > 10  # both cases make more than ten writes and renames


# ---------------------------------------------------------------------------
# Loading one application at a time
# ---------------------------------------------------------------------------


_EXTRAS = {
    # extra: (directory name, application name) of a hand-made directory
    "older_layout": ("legacy app", "Legacy App"),
    "hashed_other_name": ("hand-0badc0de", "Hand Made"),  # not its key's hash
    "name_of_a_new_key": (_dirname("grafana"), _dirname("grafana")),
}


def _lay_out(root, rng: random.Random, extras: list[str]) -> tuple[list, list]:
    """Save a random tree under root and add the irregular directories named
    in extras; return the application names and CVE ids it holds."""
    tree = _random_tree(rng)
    tree.save(root)
    apps = tree.applications()
    names = list(apps)
    for i, extra in enumerate(extras):
        app = rng.choice(apps)
        shared = _random_vuln(rng, cve=rng.choice(tree.vulnerabilities(app)).cve_id)
        if extra == "duplicate_key":  # an older directory for a saved key
            display = rng.choice([app.upper(), f" {app} "])
            _write_app(root, "copy", display, {f"{shared.cve_id}.json": shared})
        elif extra == "misnamed_node":
            (root / _dirname(_key(app)) / "advisory.json").write_text(
                json.dumps(shared.to_dict(), sort_keys=True, indent=2) + "\n"
            )
        else:
            dirname, display = _EXTRAS[extra]
            node = make_vuln(cve=f"CVE-2011-000{i}")
            _write_app(root, dirname, display, {f"{node.cve_id}.json": node})
            names.append(display)
    cves = [n.cve_id for app in apps for n in tree.vulnerabilities(app)]
    return names, cves


_OPS = [
    "get", "vulnerabilities", "query", "node_count", "upsert", "applications", "save"
]


def _apply_op(tree: KnowledgeTree, root, kind: str, rng: random.Random, names, cves):
    """One operation on the tree; its result as plain data, or the error."""
    name = rng.choice(names + _NEW_APPS + ["Ghost", "  "])
    name = rng.choice([name, name.upper(), f"  {name}\t"])
    cve = rng.choice(cves + ["CVE-2001-0001"])
    try:
        if kind == "get":
            node = tree.get(name, cve)
            return node and node.to_dict()
        if kind == "vulnerabilities":
            return [n.to_dict() for n in tree.vulnerabilities(name)]
        if kind == "query":
            version = rng.choice(["5.17.3", "1.5", "4", "odd"])
            matching, unknown = tree.query(name, version)
            return [n.cve_id for n in matching], [n.cve_id for n in unknown]
        if kind == "node_count":
            return tree.node_count(name)
        if kind == "upsert":
            node = _random_vuln(rng, cve=rng.choice([cve, ""]))
            return tree.upsert(name, node).to_dict()
        if kind == "applications":
            return tree.applications()
        tree.save(root)
        return _dir_bytes(root)
    except (ValueError, KnowledgeError) as err:
        return type(err).__name__


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extras=st.lists(
        st.sampled_from(["duplicate_key", "misnamed_node", *_EXTRAS]), unique=True
    ),
    ops=st.lists(
        st.tuples(st.sampled_from(_OPS), st.integers(min_value=0, max_value=2**32 - 1)),
        max_size=15,
    ),
)
def test_lazy_tree_matches_fully_read_tree(tmp_path_factory, seed, extras, ops):
    lazy_root = tmp_path_factory.mktemp("lazy") / "kb"
    full_root = tmp_path_factory.mktemp("full") / "kb"
    names, cves = _lay_out(lazy_root, random.Random(seed), extras)
    shutil.copytree(lazy_root, full_root)
    lazy = KnowledgeTree.load(lazy_root)
    full = KnowledgeTree.load(full_root)
    full.applications()  # reads every directory
    for kind, op_seed in ops:
        results = [
            _apply_op(tree, root, kind, random.Random(op_seed), names, cves)
            for tree, root in ((lazy, lazy_root), (full, full_root))
        ]
        assert results[0] == results[1], kind
    lazy.save(lazy_root)
    full.save(full_root)
    assert _dir_bytes(lazy_root) == _dir_bytes(full_root)
    assert _snapshot(KnowledgeTree.load(lazy_root)) == _snapshot(full)


def test_query_opens_only_that_applications_directory(tmp_path, monkeypatch):
    root = tmp_path / "kb"
    tree = KnowledgeTree()
    for i in range(20):
        tree.upsert(f"App {i}", make_vuln(cve=f"CVE-2020-{1000 + i}"))
    tree.save(root)
    opened = []
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    loaded = KnowledgeTree.load(root)
    assert opened == []
    matching, _ = loaded.query(" APP 7 ", "5.17.0")
    assert [n.cve_id for n in matching] == ["CVE-2020-1007"]
    assert sorted(p.relative_to(root).as_posix() for p in opened) == [
        f"{_dirname('app 7')}/CVE-2020-1007.json",
        f"{_dirname('app 7')}/application.json",
    ]


def test_first_access_after_a_chdir_reads_the_loaded_root(tmp_path, monkeypatch):
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln())
    tree.save(tmp_path / "kb")
    monkeypatch.chdir(tmp_path)
    loaded = KnowledgeTree.load("kb")
    monkeypatch.chdir(tmp_path.parent)
    assert [n.cve_id for n in loaded.vulnerabilities("App")] == ["CVE-2023-46604"]


def test_full_save_with_an_unread_corrupt_application_raises(tmp_path):
    home = tmp_path / "kb"
    other = tmp_path / "other"
    tree = KnowledgeTree()
    tree.upsert("App", make_vuln())
    tree.upsert("Broken", make_vuln(cve="CVE-2024-0002"))
    tree.save(home)
    (home / _dirname("broken") / "CVE-2024-0002.json").write_text("{not json")
    old = KnowledgeTree()
    old.upsert("Old", make_vuln())
    old.save(other)
    home_bytes, other_bytes = _dir_bytes(home), _dir_bytes(other)
    loaded = KnowledgeTree.load(home)
    loaded.upsert("App", make_vuln(summary="new"))
    with pytest.raises(KnowledgeError):
        loaded.save(other)
    assert _dir_bytes(other) == other_bytes
    assert _dir_bytes(home) == home_bytes
    assert not (tmp_path / "other.staging").exists()
    # a home save writes only App's node and leaves Broken for its reader
    loaded.save(home)
    assert KnowledgeTree.load(home).get("App", "CVE-2023-46604").summary == "new"
