"""Planning agent tests: groundedness filters, deterministic fallback
ranking, confidence handling, and plan round-trips."""

import json
import random

from pentestflow import prompts
from pentestflow.gateway import ChatSession, ScriptedBackend
from pentestflow.knowledge import ExploitNode, KnowledgeTree, VulnerabilityNode
from pentestflow.planning import (
    AttackSurfaceSuggestion,
    ExploitPlan,
    PlanEntry,
    PlanningAgent,
    _fallback_confidence,
)
from pentestflow.recon import EnvironmentSummary, ServiceFingerprint
from pentestflow.versions import relation

from conftest import WIDE_PROFILE

APP = "DemoSrv"


def summary_for(product=APP, version="1.2.3"):
    return EnvironmentSummary(
        target="127.0.0.1",
        os_guess="linux",
        fingerprints=(
            ServiceFingerprint("127.0.0.1", 8080, "tcp", "http", product, version),
        ),
        notes="",
        collected_at="2024-01-01T00:00:00Z",
    )


def make_session(responses=None, responder=None):
    return ChatSession(
        "plan", "sys", WIDE_PROFILE, ScriptedBackend(responses=responses, responder=responder)
    )


def garbage_session():
    return make_session(responder=lambda request: "no json here")


def tree_with(*nodes, app=APP):
    tree = KnowledgeTree()
    for node in nodes:
        tree.upsert(app, node)
    return tree


def vuln(cve_id, affected="", epss=None, exploits=(), vuln_type="rce"):
    return VulnerabilityNode(
        cve_id=cve_id,
        vuln_type=vuln_type,
        affected_versions=affected,
        exploits=list(exploits),
        epss=epss,
    )


def exploit(source_ref, applicable="", effect="remote command execution", requirements=()):
    return ExploitNode(
        source_ref=source_ref,
        effect=effect,
        applicable_versions=applicable,
        requirements=tuple(requirements),
    )


def suggestion(cve_id, confidence=0.5, application=APP):
    return AttackSurfaceSuggestion(
        application=application, cve_id=cve_id, vuln_type="rce", confidence=confidence
    )


# ---------------------------------------------------------------------------
# Match classification and fallback scoring (oracle: hand-computed values)
# ---------------------------------------------------------------------------


def test_match_class():
    assert relation("1.2.3", "1.2.3") == "exact"
    assert relation("1.*", "1.2.3") == "match"
    assert relation("", "1.2.3") == "match"
    assert relation("<=1.0", "1.2.3") == "excluded"  # callers never rank it
    assert relation("", "") == "match"
    assert relation("<=9.9", "") == "unknown"
    assert relation("1.2.3", "total nonsense version!") == "unknown"


def test_fallback_confidence_frozen_values():
    assert _fallback_confidence("exact", 90.0) == 0.89
    assert _fallback_confidence("exact", 10.0) == 0.81
    assert _fallback_confidence("match", 99.0) == 0.599
    assert _fallback_confidence("match", None) == 0.5
    assert _fallback_confidence("unknown", 100.0) == 0.3
    # the EPSS bonus can never lift a class over the one above it
    assert _fallback_confidence("match", 100.0) < _fallback_confidence("exact", 0.0)
    assert _fallback_confidence("unknown", 100.0) < _fallback_confidence("match", 0.0)


# ---------------------------------------------------------------------------
# suggest_surfaces
# ---------------------------------------------------------------------------


def test_suggest_empty_summary_no_model_call():
    agent = PlanningAgent(tree_with(vuln("CVE-2020-0001")))
    session = make_session([])
    empty = EnvironmentSummary(
        target="t", os_guess="", fingerprints=(), notes="", collected_at=""
    )
    assert agent.suggest_surfaces(empty, session) == []
    assert session.backend.calls == 0


def test_suggest_unknown_app_no_model_call():
    agent = PlanningAgent(tree_with(vuln("CVE-2020-0001")))
    session = make_session([])
    assert agent.suggest_surfaces(summary_for(product="Mystery"), session) == []
    assert session.backend.calls == 0


def test_suggest_model_ranking_used_and_sorted():
    agent = PlanningAgent(
        tree_with(vuln("CVE-2020-0001", "1.2.3"), vuln("CVE-2020-0002", "1.*"))
    )
    session = make_session(
        [
            json.dumps(
                {
                    "suggestions": [
                        {"cve_id": "CVE-2020-0002", "app": APP, "confidence": 0.4},
                        {"cve_id": "CVE-2020-0001", "app": APP, "confidence": 0.9},
                    ]
                }
            )
        ]
    )
    out = agent.suggest_surfaces(summary_for(), session)
    assert [(s.cve_id, s.confidence) for s in out] == [
        ("CVE-2020-0001", 0.9),
        ("CVE-2020-0002", 0.4),
    ]


def test_suggest_discards_unqueried_cve():
    agent = PlanningAgent(tree_with(vuln("CVE-2020-0001", "1.2.3")))
    session = make_session(
        [
            json.dumps(
                {
                    "suggestions": [
                        {"cve_id": "CVE-2099-9999", "app": APP, "confidence": 0.99},
                        {"cve_id": "CVE-2020-0001", "app": APP, "confidence": 0.7},
                    ]
                }
            )
        ]
    )
    out = agent.suggest_surfaces(summary_for(), session)
    assert [s.cve_id for s in out] == ["CVE-2020-0001"]


def test_suggest_recovers_wrong_app_label():
    agent = PlanningAgent(tree_with(vuln("CVE-2020-0001", "1.2.3")))
    session = make_session(
        [
            json.dumps(
                {
                    "suggestions": [
                        {"cve_id": "CVE-2020-0001", "app": "WrongName", "confidence": 0.7}
                    ]
                }
            )
        ]
    )
    out = agent.suggest_surfaces(summary_for(), session)
    assert len(out) == 1
    assert out[0].application == APP


def test_suggest_confidence_clamped():
    agent = PlanningAgent(
        tree_with(
            vuln("CVE-2020-0001", "1.2.3"),
            vuln("CVE-2020-0002", "1.2.3"),
            vuln("CVE-2020-0003", "1.2.3"),
            vuln("CVE-2020-0004", "1.2.3"),
            vuln("CVE-2020-0005", "1.2.3"),
            vuln("CVE-2020-0006", "1.2.3"),
        )
    )
    session = make_session(
        [
            json.dumps(
                {
                    "suggestions": [
                        {"cve_id": "CVE-2020-0001", "app": APP, "confidence": 3.5},
                        {"cve_id": "CVE-2020-0002", "app": APP, "confidence": -2},
                        {"cve_id": "CVE-2020-0003", "app": APP, "confidence": "high"},
                        {"cve_id": "CVE-2020-0004", "app": APP, "confidence": float("nan")},
                        {"cve_id": "CVE-2020-0005", "app": APP, "confidence": "NaN"},
                        {"cve_id": "CVE-2020-0006", "app": APP, "confidence": 10**400},
                    ]
                }
            )
        ]
    )
    out = {s.cve_id: s.confidence for s in agent.suggest_surfaces(summary_for(), session)}
    # NaN, which json writes and reads, and an integer too large for a float
    # are no usable number either
    assert out == {
        "CVE-2020-0001": 1.0,
        "CVE-2020-0002": 0.0,
        "CVE-2020-0003": 0.5,
        "CVE-2020-0004": 0.5,
        "CVE-2020-0005": 0.5,
        "CVE-2020-0006": 0.5,
    }


def test_suggest_fallback_ordering_classes_and_epss():
    agent = PlanningAgent(
        tree_with(
            vuln("CVE-2020-0003", "1.2.3", epss=10.0),
            vuln("CVE-2020-0001", "1.2.3", epss=90.0),
            vuln("CVE-2020-0002", "1.*", epss=99.0),
            vuln("CVE-2020-0004", "", epss=None),
        )
    )
    out = agent.suggest_surfaces(summary_for(version="1.2.3"), garbage_session())
    assert [s.cve_id for s in out] == [
        "CVE-2020-0001",  # exact, epss 90 -> 0.89
        "CVE-2020-0003",  # exact, epss 10 -> 0.81
        "CVE-2020-0002",  # wildcard match, epss 99 -> 0.599
        "CVE-2020-0004",  # match-all, no epss -> 0.5
    ]
    assert [s.confidence for s in out] == [0.89, 0.81, 0.599, 0.5]


def test_suggest_fallback_unknown_class_sorts_last():
    # with no version, a constrained node is unknown even at EPSS 100
    agent = PlanningAgent(
        tree_with(
            vuln("CVE-2021-0002", "<=9.9", epss=100.0),
            vuln("CVE-2021-0001", "", epss=0.0),
        )
    )
    out = agent.suggest_surfaces(summary_for(version=""), garbage_session())
    assert [(s.cve_id, s.confidence) for s in out] == [
        ("CVE-2021-0001", 0.5),
        ("CVE-2021-0002", 0.3),
    ]


def test_suggest_excluded_nodes_never_appear():
    agent = PlanningAgent(
        tree_with(vuln("CVE-2020-0001", "<=1.0"), vuln("CVE-2020-0002", "1.2.*"))
    )
    out = agent.suggest_surfaces(summary_for(version="1.2.3"), garbage_session())
    assert [s.cve_id for s in out] == ["CVE-2020-0002"]


# ---------------------------------------------------------------------------
# plan_exploits
# ---------------------------------------------------------------------------


def test_plan_empty_suggestions():
    agent = PlanningAgent(KnowledgeTree())
    session = make_session([])
    plan = agent.plan_exploits([], "1.2.3", session)
    assert plan.entries == []
    assert session.backend.calls == 0


def test_plan_drops_provably_excluded_exploits():
    agent = PlanningAgent(
        tree_with(
            vuln(
                "CVE-2020-0001",
                "1.*",
                exploits=[
                    exploit("repo/old", applicable="<=1.0"),
                    exploit("repo/current", applicable="1.2.*"),
                    exploit("repo/any", applicable=""),
                ],
            )
        )
    )
    plan = agent.plan_exploits([suggestion("CVE-2020-0001")], "1.2.3", garbage_session())
    refs = [e.exploit.source_ref for e in plan.entries]
    assert "repo/old" not in refs
    assert set(refs) == {"repo/current", "repo/any"}


def test_plan_finds_a_padded_mixed_case_application():
    tree = tree_with(vuln("CVE-2020-0001", exploits=[exploit("repo/a")]))
    agent = PlanningAgent(tree)
    padded = suggestion("CVE-2020-0001", application=f" {APP.upper()}\t")
    plan = agent.plan_exploits([padded], "1.2.3", garbage_session())
    assert [e.exploit.source_ref for e in plan.entries] == ["repo/a"]


def test_plan_model_ranking_grounded():
    agent = PlanningAgent(
        tree_with(
            vuln(
                "CVE-2020-0001",
                "",
                exploits=[exploit("repo/a"), exploit("repo/b")],
            )
        )
    )
    session = make_session(
        [
            json.dumps(
                {
                    "entries": [
                        {"cve_id": "CVE-2020-0001", "source_ref": "repo/invented", "confidence": 0.99},
                        {"cve_id": "CVE-2020-0001", "source_ref": "repo/b", "confidence": 0.9},
                        {"cve_id": "CVE-2020-0001", "source_ref": "repo/a", "confidence": 0.3},
                        {"cve_id": "CVE-2020-0001", "source_ref": "repo/b", "confidence": 0.1},
                    ]
                }
            )
        ]
    )
    plan = agent.plan_exploits([suggestion("CVE-2020-0001")], "1.2.3", session)
    # invented ref discarded, duplicate collapsed, order by confidence
    assert [(e.exploit.source_ref, e.confidence) for e in plan.entries] == [
        ("repo/b", 0.9),
        ("repo/a", 0.3),
    ]


def test_plan_fallback_uses_match_class_and_epss():
    agent = PlanningAgent(
        tree_with(
            vuln(
                "CVE-2020-0001",
                "1.2.3",
                epss=50.0,
                exploits=[exploit("repo/exact", applicable="1.2.3")],
            ),
            vuln(
                "CVE-2020-0002",
                "1.*",
                epss=90.0,
                exploits=[exploit("repo/wild", applicable="1.*")],
            ),
        )
    )
    plan = agent.plan_exploits(
        [suggestion("CVE-2020-0001"), suggestion("CVE-2020-0002")],
        "1.2.3",
        garbage_session(),
    )
    got = [(e.cve_id, e.exploit.source_ref, e.confidence) for e in plan.entries]
    assert got == [
        ("CVE-2020-0001", "repo/exact", 0.85),  # exact class, epss 50
        ("CVE-2020-0002", "repo/wild", 0.59),  # match class, epss 90
    ]


def test_plan_entry_effect_comes_from_node_not_model():
    agent = PlanningAgent(
        tree_with(
            vuln("CVE-2020-0001", "", exploits=[exploit("repo/a", effect="information disclosure")])
        )
    )
    session = make_session(
        [
            json.dumps(
                {
                    "entries": [
                        {
                            "cve_id": "CVE-2020-0001",
                            "source_ref": "repo/a",
                            "confidence": 0.9,
                            "effect": "full domain takeover",  # ignored
                        }
                    ]
                }
            )
        ]
    )
    plan = agent.plan_exploits([suggestion("CVE-2020-0001")], "", session)
    assert plan.entries[0].effect == "information disclosure"


def test_plan_round_trip():
    entry = ExploitPlan(
        entries=[
            PlanEntry(
                cve_id="CVE-2020-0001",
                exploit=exploit("repo/a", applicable="1.*", requirements=("x",)),
                confidence=0.75,
                effect="remote command execution",
                application=APP,
            )
        ]
    )
    again = ExploitPlan.from_dict(json.loads(json.dumps(entry.to_dict())))
    assert again.to_dict() == entry.to_dict()


# ---------------------------------------------------------------------------
# Groundedness fuzz: hallucinated ids never survive filtering
# ---------------------------------------------------------------------------


KNOWN_CVES = [f"CVE-2020-{n:04d}" for n in range(1, 6)]
KNOWN_REFS = [f"repo/known-{n}" for n in range(3)]


def fuzz_tree():
    tree = KnowledgeTree()
    for cve in KNOWN_CVES:
        tree.upsert(
            APP,
            vuln(cve, "", epss=None, exploits=[exploit(ref) for ref in KNOWN_REFS]),
        )
    return tree


def test_fuzz_suggestions_never_contain_unqueried_cves():
    rng = random.Random(0xA11C)
    agent = PlanningAgent(fuzz_tree())
    for trial in range(250):
        invented = [f"CVE-2099-{rng.randrange(1000, 9999)}" for _ in range(rng.randrange(1, 4))]
        mixed = invented + rng.sample(KNOWN_CVES, rng.randrange(0, 3))
        rng.shuffle(mixed)
        reply = json.dumps(
            {
                "suggestions": [
                    {"cve_id": cve, "app": APP, "confidence": rng.random()} for cve in mixed
                ]
            }
        )
        out = agent.suggest_surfaces(summary_for(), make_session([reply]))
        assert all(s.cve_id in KNOWN_CVES for s in out), f"trial {trial} leaked an id"


def test_fuzz_plan_never_contains_unfetched_refs():
    rng = random.Random(0xB22D)
    agent = PlanningAgent(fuzz_tree())
    suggestions = [suggestion(cve) for cve in KNOWN_CVES]
    for trial in range(250):
        entries = []
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.5:
                cve = rng.choice(KNOWN_CVES)
                ref = f"repo/invented-{rng.randrange(100)}"
            elif rng.random() < 0.5:
                cve = f"CVE-2099-{rng.randrange(1000, 9999)}"
                ref = rng.choice(KNOWN_REFS)
            else:
                cve = rng.choice(KNOWN_CVES)
                ref = rng.choice(KNOWN_REFS)
            entries.append({"cve_id": cve, "source_ref": ref, "confidence": rng.random()})
        plan = agent.plan_exploits(
            suggestions, "1.2.3", make_session([json.dumps({"entries": entries})])
        )
        for entry in plan.entries:
            assert entry.cve_id in KNOWN_CVES, f"trial {trial} leaked a cve"
            assert entry.exploit.source_ref in KNOWN_REFS, f"trial {trial} leaked a ref"


# ---------------------------------------------------------------------------
# Characterization: the rank prompts and the fallback, byte for byte
# ---------------------------------------------------------------------------


def classes_tree():
    """One exact, one match, one unknown and one excluded node and exploit."""
    tree = tree_with(
        vuln(
            "CVE-2020-0001",
            "1.2.3",
            epss=10.0,
            exploits=[exploit("repo/exact", "1.2.3"), exploit("repo/gone", "<=1.0")],
        ),
        vuln(
            "CVE-2020-0002",
            "1.*",
            epss=90.0,
            exploits=[
                exploit("repo/wild", "1.*"),
                exploit("repo/any", "", requirements=("java", "net")),
            ],
        ),
        vuln("CVE-2020-0003", "<=1.0", epss=99.0, exploits=[exploit("repo/old")]),
    )
    tree.upsert(
        "Legacy",
        vuln("CVE-2021-0001", ">=2.0", epss=50.0, exploits=[exploit("repo/legacy", ">=2.0")]),
    )
    tree.upsert("Legacy", vuln("CVE-2021-0002", "", exploits=[exploit("repo/legacy-any")]))
    return tree


SURFACE_NODE_LINES = """\
- app=DemoSrv cve_id=CVE-2020-0001 type=rce affected=1.2.3 version_match=exact exploits=2
- app=DemoSrv cve_id=CVE-2020-0002 type=rce affected=1.* version_match=match exploits=2
- app=Legacy cve_id=CVE-2021-0001 type=rce affected=>=2.0 version_match=unknown exploits=1
- app=Legacy cve_id=CVE-2021-0002 type=rce affected=any version_match=match exploits=1"""

EXPLOIT_LINES = {
    "1.2.3": """\
- cve_id=CVE-2020-0001 source_ref=repo/exact effect=remote command execution versions=1.2.3 version_match=exact requires: none
- cve_id=CVE-2020-0002 source_ref=repo/any effect=remote command execution versions=any version_match=match requires: java; net
- cve_id=CVE-2020-0002 source_ref=repo/wild effect=remote command execution versions=1.* version_match=match requires: none
- cve_id=CVE-2021-0002 source_ref=repo/legacy-any effect=remote command execution versions=any version_match=match requires: none""",
    "build-7": """\
- cve_id=CVE-2020-0001 source_ref=repo/exact effect=remote command execution versions=1.2.3 version_match=unknown requires: none
- cve_id=CVE-2020-0001 source_ref=repo/gone effect=remote command execution versions=<=1.0 version_match=unknown requires: none
- cve_id=CVE-2020-0002 source_ref=repo/any effect=remote command execution versions=any version_match=match requires: java; net
- cve_id=CVE-2020-0002 source_ref=repo/wild effect=remote command execution versions=1.* version_match=unknown requires: none
- cve_id=CVE-2021-0001 source_ref=repo/legacy effect=remote command execution versions=>=2.0 version_match=unknown requires: none
- cve_id=CVE-2021-0002 source_ref=repo/legacy-any effect=remote command execution versions=any version_match=match requires: none""",
}

FALLBACK_PLANS = {
    "1.2.3": [
        ("CVE-2020-0001", "repo/exact", 0.81, APP),
        ("CVE-2020-0002", "repo/any", 0.59, APP),
        ("CVE-2020-0002", "repo/wild", 0.59, APP),
        ("CVE-2021-0002", "repo/legacy-any", 0.5, "Legacy"),
    ],
    "build-7": [
        ("CVE-2020-0002", "repo/any", 0.59, APP),
        ("CVE-2021-0002", "repo/legacy-any", 0.5, "Legacy"),
        ("CVE-2020-0002", "repo/wild", 0.29, APP),
        ("CVE-2021-0001", "repo/legacy", 0.25, "Legacy"),
        ("CVE-2020-0001", "repo/exact", 0.21, APP),
        ("CVE-2020-0001", "repo/gone", 0.21, APP),
    ],
}


def test_rank_prompts_and_fallback_are_pinned():
    summary = EnvironmentSummary(
        target="127.0.0.1",
        os_guess="linux",
        fingerprints=(
            ServiceFingerprint("127.0.0.1", 8080, "tcp", "http", APP, "1.2.3"),
            ServiceFingerprint("127.0.0.1", 9090, "tcp", "http", "Legacy", "build-7"),
        ),
        notes="",
        collected_at="2024-01-01T00:00:00Z",
    )
    agent = PlanningAgent(classes_tree())
    seen = []

    def session():
        return make_session(responder=lambda request: seen.append(request.prompt) or "no json here")

    suggestions = agent.suggest_surfaces(summary, session())
    assert seen[0] == prompts.SURFACE_RANK_TEMPLATE.format(
        environment=json.dumps(summary.to_dict(), indent=2, ensure_ascii=False),
        nodes=SURFACE_NODE_LINES,
    )
    assert [(s.application, s.cve_id, s.confidence, s.rationale) for s in suggestions] == [
        (APP, "CVE-2020-0001", 0.81, "fallback ranking: version exact"),
        (APP, "CVE-2020-0002", 0.59, "fallback ranking: version match"),
        ("Legacy", "CVE-2021-0002", 0.5, "fallback ranking: version match"),
        ("Legacy", "CVE-2021-0001", 0.25, "fallback ranking: version unknown"),
    ]
    for version, lines in EXPLOIT_LINES.items():
        seen.clear()
        plan = agent.plan_exploits(suggestions, version, session())
        assert seen[0] == prompts.EXPLOIT_RANK_TEMPLATE.format(version=version, exploits=lines)
        assert [
            (e.cve_id, e.exploit.source_ref, e.confidence, e.application) for e in plan.entries
        ] == FALLBACK_PLANS[version]
