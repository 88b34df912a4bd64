"""Search agent tests: fixture connectors, the two-round flow, candidate
filtering rules, and knowledge-tree filing."""

import hashlib
import json

import pytest

from pentestflow.gateway import ChatSession, ScriptedBackend
from pentestflow.knowledge import KnowledgeTree
from pentestflow.rag import RagStore
from pentestflow.search import (
    AttackSurfaceCandidate,
    ConnectorKind,
    ConnectorUnavailable,
    FixtureConnector,
    SearchAgent,
    SearchQuery,
    SearchResultDoc,
    query_fixture_name,
)

from conftest import WIDE_PROFILE


def oracle_fixture_name(query: str) -> str:
    return hashlib.sha256(query.encode("utf-8")).hexdigest()[:16] + ".json"


def write_fixture(directory, query, docs):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / query_fixture_name(query)).write_text(
        json.dumps(docs), encoding="utf-8"
    )


def make_doc(uri="https://e.org/a", title="t", body="b", kind=ConnectorKind.GENERAL_WEB):
    return SearchResultDoc(uri=uri, title=title, body=body, connector=kind)


def make_session(responses=None, responder=None, name="search"):
    backend = ScriptedBackend(responses=responses, responder=responder)
    return ChatSession(name, "sys", WIDE_PROFILE, backend)


def make_agent(tmp_path, connectors):
    rag = RagStore(tmp_path / "rag")
    return SearchAgent(connectors, rag, KnowledgeTree())


class FailingConnector:
    def __init__(self, kind):
        self.kind = kind

    def search(self, query_string, max_results):
        raise ConnectorUnavailable("down for the test")


# ---------------------------------------------------------------------------
# Fixture connector and query plumbing
# ---------------------------------------------------------------------------


def test_fixture_name_is_query_hash():
    for query in ["nginx 1.2 vulnerability CVE", "CVE-2023-46604 exploit poc", "x"]:
        assert query_fixture_name(query) == oracle_fixture_name(query)


def test_fixture_connector_round_trip(tmp_path):
    query = "demo query"
    write_fixture(
        tmp_path,
        query,
        [
            {"uri": "https://e.org/1", "title": "one", "body": "first"},
            {"uri": "https://e.org/2", "title": "two", "body": "second"},
            {"uri": "https://e.org/3", "title": "three", "body": "third"},
        ],
    )
    connector = FixtureConnector(ConnectorKind.GENERAL_WEB, tmp_path)
    docs = connector.search(query, max_results=2)
    assert [d.uri for d in docs] == ["https://e.org/1", "https://e.org/2"]
    assert docs[0].title == "one" and docs[0].body == "first"
    assert docs[0].connector is ConnectorKind.GENERAL_WEB


def test_fixture_connector_unknown_query_is_empty(tmp_path):
    connector = FixtureConnector(ConnectorKind.VULN_DB, tmp_path)
    assert connector.search("never seen", 5) == []


def test_query_validation():
    with pytest.raises(ValueError):
        SearchQuery(ConnectorKind.GENERAL_WEB, "   ")
    with pytest.raises(ValueError):
        SearchQuery(ConnectorKind.GENERAL_WEB, "q", max_results=0)


def test_search_requires_connector_of_kind(tmp_path):
    agent = make_agent(tmp_path, [FixtureConnector(ConnectorKind.VULN_DB, tmp_path)])
    with pytest.raises(ConnectorUnavailable):
        agent.search(SearchQuery(ConnectorKind.CODE_REPO, "q"))


def test_search_all_connectors_failing_raises(tmp_path):
    agent = make_agent(
        tmp_path,
        [FailingConnector(ConnectorKind.GENERAL_WEB), FailingConnector(ConnectorKind.GENERAL_WEB)],
    )
    with pytest.raises(ConnectorUnavailable):
        agent.search(SearchQuery(ConnectorKind.GENERAL_WEB, "q"))


def test_search_partial_failure_returns_survivors(tmp_path):
    fixtures = tmp_path / "f"
    write_fixture(fixtures, "q", [{"uri": "https://ok.org", "title": "t", "body": "b"}])
    agent = make_agent(
        tmp_path,
        [
            FailingConnector(ConnectorKind.GENERAL_WEB),
            FixtureConnector(ConnectorKind.GENERAL_WEB, fixtures),
        ],
    )
    docs = agent.search(SearchQuery(ConnectorKind.GENERAL_WEB, "q"))
    assert [d.uri for d in docs] == ["https://ok.org"]


def test_search_dedupes_uris_across_connectors(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_fixture(d1, "q", [{"uri": "https://same.org", "title": "x", "body": "1"}])
    write_fixture(
        d2,
        "q",
        [
            {"uri": "https://same.org", "title": "y", "body": "2"},
            {"uri": "https://other.org", "title": "z", "body": "3"},
        ],
    )
    agent = make_agent(
        tmp_path,
        [
            FixtureConnector(ConnectorKind.GENERAL_WEB, d1),
            FixtureConnector(ConnectorKind.GENERAL_WEB, d2),
        ],
    )
    docs = agent.search(SearchQuery(ConnectorKind.GENERAL_WEB, "q", max_results=5))
    assert [d.uri for d in docs] == ["https://same.org", "https://other.org"]


# ---------------------------------------------------------------------------
# Round one: attack-surface extraction
# ---------------------------------------------------------------------------


def surface_doc_reply(
    relevant=True,
    cve_ids=("CVE-2023-46604",),
    vuln_type="deserialization-rce",
    affected="<=5.17.3",
    leads=("openwire deserialization",),
    summary="rce via broker protocol",
):
    return json.dumps(
        {
            "relevant": relevant,
            "summary": summary,
            "cve_ids": list(cve_ids),
            "vuln_type": vuln_type,
            "affected_versions": affected,
            "leads": list(leads),
        }
    )


def consolidation_reply(candidates):
    return json.dumps({"candidates": candidates})


def test_extract_surfaces_happy_path(tmp_path):
    agent = make_agent(tmp_path, [])
    docs = [make_doc(uri="https://adv.org/1", body="CVE-2023-46604 broker rce")]
    session = make_session(
        [
            surface_doc_reply(),
            consolidation_reply(
                [
                    {
                        "cve_id": "cve-2023-46604",
                        "vuln_type": "rce",
                        "affected_versions": "<=5.17.3",
                        "leads": ["openwire deserialization"],
                        "source_uri": "https://adv.org/1",
                        "summary": "s",
                    }
                ]
            ),
        ]
    )
    surfaces = agent.extract_attack_surfaces("ActiveMQ", "5.17.3", docs, session)
    assert len(surfaces) == 1
    s = surfaces[0]
    assert s.cve_id == "CVE-2023-46604"  # uppercased
    assert s.affected_versions == "<=5.17.3"
    assert s.leads == ("openwire deserialization",)
    assert s.source_uri == "https://adv.org/1"


def test_extract_surfaces_skips_unparseable_document(tmp_path):
    agent = make_agent(tmp_path, [])
    docs = [
        make_doc(uri="https://bad.org", body="junk"),
        make_doc(uri="https://good.org", body="CVE-2023-46604"),
    ]
    # doc1 burns 1 + 2 repair calls, doc2 parses, then consolidation
    session = make_session(
        [
            "not json",
            "still not json",
            "nope",
            surface_doc_reply(),
            consolidation_reply(
                [{"cve_id": "CVE-2023-46604", "leads": [], "source_uri": "https://good.org"}]
            ),
        ]
    )
    surfaces = agent.extract_attack_surfaces("A", "1", docs, session)
    assert [s.cve_id for s in surfaces] == ["CVE-2023-46604"]


def test_extract_surfaces_irrelevant_docs_yield_nothing(tmp_path):
    agent = make_agent(tmp_path, [])
    session = make_session([surface_doc_reply(relevant=False)])
    assert agent.extract_attack_surfaces("A", "1", [make_doc()], session) == []
    # no consolidation call happened: only the one scripted reply was consumed
    assert session.backend.calls == 1


def test_extract_surfaces_consolidation_failure_falls_back(tmp_path):
    agent = make_agent(tmp_path, [])
    docs = [make_doc(uri="https://adv.org/1")]
    session = make_session(
        [surface_doc_reply(), "garbage", "garbage", "garbage"]
    )
    surfaces = agent.extract_attack_surfaces("A", "1", docs, session)
    assert len(surfaces) == 1
    assert surfaces[0].cve_id == "CVE-2023-46604"
    assert surfaces[0].source_uri == "https://adv.org/1"


def test_extract_surfaces_reads_a_string_list_field_as_one_item(tmp_path):
    agent = make_agent(tmp_path, [])
    reply = json.dumps(
        {
            "relevant": True,
            "summary": "rce",
            "cve_ids": "CVE-2023-46604",
            "leads": "openwire deserialization",
        }
    )
    session = make_session([reply, "garbage", "garbage", "garbage"])
    surfaces = agent.extract_attack_surfaces("A", "1", [make_doc(uri="https://adv.org/1")], session)
    assert [(s.cve_id, s.leads, s.source_uri) for s in surfaces] == [
        ("CVE-2023-46604", ("openwire deserialization",), "https://adv.org/1")
    ]


def test_extract_surfaces_drops_a_list_field_of_another_type(tmp_path):
    agent = make_agent(tmp_path, [])
    session = make_session(
        [
            surface_doc_reply(),
            consolidation_reply(
                [
                    {"cve_id": "CVE-2023-46604", "leads": {"openwire": 1}},
                    {"cve_id": "", "leads": "jmx console exposed"},
                ]
            ),
        ]
    )
    surfaces = agent.extract_attack_surfaces("A", "1", [make_doc()], session)
    assert [(s.cve_id, s.leads) for s in surfaces] == [
        ("CVE-2023-46604", ()),
        ("UNASSIGNED", ("jmx console exposed",)),
    ]


def test_extract_surfaces_reads_a_listed_cve_id_as_its_first_item(tmp_path):
    agent = make_agent(tmp_path, [])
    session = make_session(
        [
            surface_doc_reply(),
            consolidation_reply(
                [
                    {"cve_id": ["CVE-2023-46604", "CVE-2022-41678"], "leads": []},
                    {"cve_id": [], "leads": ["jmx console exposed"]},
                    {"cve_id": ["not-a-cve"], "leads": []},
                ]
            ),
        ]
    )
    surfaces = agent.extract_attack_surfaces("A", "1", [make_doc()], session)
    assert [(s.cve_id, s.leads) for s in surfaces] == [
        ("CVE-2023-46604", ()),
        ("UNASSIGNED", ("jmx console exposed",)),
    ]


def test_extract_surfaces_drops_unassigned_without_leads(tmp_path):
    agent = make_agent(tmp_path, [])
    session = make_session(
        [
            surface_doc_reply(),
            consolidation_reply(
                [
                    {"cve_id": "not-a-cve", "leads": []},
                    {"cve_id": "", "leads": ["jmx console exposed"]},
                ]
            ),
        ]
    )
    surfaces = agent.extract_attack_surfaces("A", "1", [make_doc()], session)
    assert len(surfaces) == 1
    assert surfaces[0].cve_id == "UNASSIGNED"
    assert surfaces[0].leads == ("jmx console exposed",)


def test_extract_surfaces_caps_leads(tmp_path):
    agent = make_agent(tmp_path, [])
    leads = [f"lead {i}" for i in range(15)]
    session = make_session(
        [
            surface_doc_reply(),
            consolidation_reply([{"cve_id": "CVE-2020-0001", "leads": leads}]),
        ]
    )
    surfaces = agent.extract_attack_surfaces("A", "1", [make_doc()], session)
    assert surfaces[0].leads == tuple(leads[:10])


def test_extract_surfaces_dedupes_by_cve(tmp_path):
    agent = make_agent(tmp_path, [])
    session = make_session(
        [
            surface_doc_reply(),
            consolidation_reply(
                [
                    {"cve_id": "CVE-2020-0001", "leads": ["a"]},
                    {"cve_id": "cve-2020-0001", "leads": ["b"]},
                ]
            ),
        ]
    )
    surfaces = agent.extract_attack_surfaces("A", "1", [make_doc()], session)
    assert len(surfaces) == 1


def test_extract_surfaces_sanitizes_bad_constraint(tmp_path):
    agent = make_agent(tmp_path, [])
    session = make_session(
        [
            surface_doc_reply(),
            consolidation_reply(
                [
                    {
                        "cve_id": "CVE-2020-0001",
                        "affected_versions": "between 1 and 2 sort of",
                        "leads": [],
                    }
                ]
            ),
        ]
    )
    surfaces = agent.extract_attack_surfaces("A", "1", [make_doc()], session)
    assert surfaces[0].affected_versions == ""


# ---------------------------------------------------------------------------
# Round two: exploit extraction
# ---------------------------------------------------------------------------


def make_surface(cve_id="CVE-2023-46604", leads=("openwire deserialization",)):
    return AttackSurfaceCandidate(
        application="ActiveMQ",
        cve_id=cve_id,
        vuln_type="rce",
        affected_versions="<=5.17.3",
        leads=tuple(leads),
        source_uri="https://adv.org/1",
    )


def exploit_doc_reply(
    relevant=True,
    cve_id="CVE-2023-46604",
    source_ref="github.com/x/poc",
    effect="Remote Command Execution",
    applicable="5.17.*",
    requirements=("java runtime",),
):
    return json.dumps(
        {
            "relevant": relevant,
            "cve_id": cve_id,
            "source_ref": source_ref,
            "effect": effect,
            "applicable_versions": applicable,
            "requirements": list(requirements),
        }
    )


def test_extract_exploits_happy_path(tmp_path):
    agent = make_agent(tmp_path, [])
    docs = [make_doc(uri="https://github.com/x/poc", kind=ConnectorKind.CODE_REPO)]
    session = make_session([exploit_doc_reply()])
    found = agent.extract_exploits(make_surface(), docs, session)
    assert len(found) == 1
    e = found[0]
    assert e.source_ref == "github.com/x/poc"
    assert e.effect == "remote command execution"  # normalized to the vocabulary
    assert e.applicable_versions == "5.17.*"
    assert e.requirements == ("java runtime",)
    assert e.source_uri == "https://github.com/x/poc"


def test_extract_exploits_reads_string_requirements_as_one_item(tmp_path):
    agent = make_agent(tmp_path, [])
    docs = [make_doc(uri=f"https://e.org/{i}", kind=ConnectorKind.CODE_REPO) for i in range(3)]
    replies = [
        json.loads(exploit_doc_reply(source_ref=f"github.com/x/poc{i}")) for i in range(3)
    ]
    replies[0]["requirements"] = "java runtime"
    replies[1]["requirements"] = 5
    replies[2]["requirements"] = ""
    session = make_session([json.dumps(reply) for reply in replies])
    found = agent.extract_exploits(make_surface(), docs, session)
    assert [e.requirements for e in found] == [("java runtime",), (), ()]


def test_extract_exploits_reads_a_listed_cve_id_as_its_first_item(tmp_path):
    agent = make_agent(tmp_path, [])
    docs = [make_doc(uri=f"https://e.org/{i}", kind=ConnectorKind.CODE_REPO) for i in range(3)]
    replies = [
        json.loads(exploit_doc_reply(source_ref=f"github.com/x/poc{i}")) for i in range(3)
    ]
    replies[0]["cve_id"] = ["cve-2022-41678"]
    replies[1]["cve_id"] = []
    replies[2]["cve_id"] = ["CVE-BOGUS", "CVE-2022-41678"]
    session = make_session([json.dumps(reply) for reply in replies])
    found = agent.extract_exploits(make_surface(), docs, session)
    assert [e.cve_id for e in found] == ["CVE-2022-41678", "CVE-2023-46604", "CVE-2023-46604"]


def test_extract_exploits_filters(tmp_path):
    agent = make_agent(tmp_path, [])
    surface = make_surface()
    docs = [make_doc(uri=f"https://e.org/{i}", kind=ConnectorKind.CODE_REPO) for i in range(4)]
    session = make_session(
        [
            exploit_doc_reply(relevant=False),
            exploit_doc_reply(effect=""),  # no effect: unusable
            json.dumps({"relevant": True, "effect": "denial of service", "source_ref": ""}),
            exploit_doc_reply(applicable="not a constraint"),
        ]
    )
    found = agent.extract_exploits(surface, docs, session)
    # doc 3 falls back to doc.uri for source_ref; doc 4 keeps entry, drops constraint
    assert len(found) == 2
    assert found[0].source_ref == "https://e.org/2"
    assert found[1].applicable_versions == ""


def test_extract_exploits_invalid_cve_falls_back_to_surface(tmp_path):
    agent = make_agent(tmp_path, [])
    session = make_session([exploit_doc_reply(cve_id="CVE-BOGUS")])
    found = agent.extract_exploits(make_surface(), [make_doc()], session)
    assert found[0].cve_id == "CVE-2023-46604"


# ---------------------------------------------------------------------------
# End to end: two rounds, ordering invariant, tree filing, idempotence
# ---------------------------------------------------------------------------


ROUND1_QUERY = "TestApp 1.0 vulnerability CVE"
CVE_QUERY = "CVE-2023-46604 exploit poc"
LEAD_QUERY = "openwire deserialization exploit poc"


def fixture_setup(tmp_path):
    web = tmp_path / "web"
    vuln = tmp_path / "vuln"
    repo = tmp_path / "repo"
    write_fixture(
        web,
        ROUND1_QUERY,
        [{"uri": "https://adv.org/1", "title": "advisory", "body": "CVE-2023-46604 rce"}],
    )
    write_fixture(
        vuln,
        ROUND1_QUERY,
        [{"uri": "https://nvd.example/46604", "title": "CVE-2023-46604", "body": "desc"}],
    )
    write_fixture(
        repo,
        CVE_QUERY,
        [{"uri": "https://github.com/x/poc", "title": "x/poc", "body": "exploit code"}],
    )
    return [
        FixtureConnector(ConnectorKind.GENERAL_WEB, web),
        FixtureConnector(ConnectorKind.VULN_DB, vuln),
        FixtureConnector(ConnectorKind.CODE_REPO, repo),
    ]


def scripted_factory():
    """Session factory serving the surfaces session then exploit sessions."""

    def factory(name):
        if name == "search-surfaces":
            return make_session(
                [
                    surface_doc_reply(),  # web doc
                    surface_doc_reply(),  # vuln-db doc
                    consolidation_reply(
                        [
                            {
                                "cve_id": "CVE-2023-46604",
                                "vuln_type": "deserialization-rce",
                                "affected_versions": "<=5.17.3",
                                "leads": ["openwire deserialization"],
                                "source_uri": "https://adv.org/1",
                                "summary": "rce",
                            }
                        ]
                    ),
                ],
                name=name,
            )
        # one exploit doc comes back for the CVE query
        return make_session([exploit_doc_reply()], name=name)

    return factory


def test_acquire_end_to_end(tmp_path):
    agent = make_agent(tmp_path, fixture_setup(tmp_path))
    written = agent.acquire("TestApp", "1.0", scripted_factory())
    assert written == 2  # one vulnerability node + one exploit node

    matching, unknown = agent.tree.query("TestApp", "1.0")
    assert unknown == []
    assert len(matching) == 1
    vuln = matching[0]
    assert vuln.cve_id == "CVE-2023-46604"
    assert [e.source_ref for e in vuln.exploits] == ["github.com/x/poc"]
    assert "https://adv.org/1" in vuln.sources
    assert "https://github.com/x/poc" in vuln.sources


def test_acquire_round_ordering_invariant(tmp_path):
    agent = make_agent(tmp_path, fixture_setup(tmp_path))
    agent.acquire("TestApp", "1.0", scripted_factory())

    log = agent.query_log
    round1 = [q for q in log if q.provenance == "round1"]
    round2 = [q for q in log if q.provenance.startswith("round2")]
    assert len(round1) + len(round2) == len(log)
    assert round1, "round one must have been issued"
    # strict ordering: every round-one query precedes every round-two query
    last_r1 = max(i for i, q in enumerate(log) if q.provenance == "round1")
    first_r2 = min(
        (i for i, q in enumerate(log) if q.provenance.startswith("round2")),
        default=len(log),
    )
    assert last_r1 < first_r2
    # round-one query text follows the template
    assert {q.query_string for q in round1} == {ROUND1_QUERY}
    assert {q.connector for q in round1} == {
        ConnectorKind.GENERAL_WEB,
        ConnectorKind.VULN_DB,
    }
    # every round-two query is seeded by a round-one finding: either the
    # consolidated CVE id or one of its leads appears in the query text
    for q in round2:
        assert q.query_string in (CVE_QUERY, LEAD_QUERY)
        assert q.connector in (ConnectorKind.GENERAL_WEB, ConnectorKind.CODE_REPO)


def test_acquire_is_idempotent(tmp_path):
    agent = make_agent(tmp_path, fixture_setup(tmp_path))
    first = agent.acquire("TestApp", "1.0", scripted_factory())
    count_after_first = agent.tree.node_count()
    second = agent.acquire("TestApp", "1.0", scripted_factory())
    assert first == 2
    assert second == 0
    assert agent.tree.node_count() == count_after_first


def test_acquire_nothing_found_writes_nothing(tmp_path):
    web = tmp_path / "web-empty"
    web.mkdir()
    agent = make_agent(
        tmp_path,
        [
            FixtureConnector(ConnectorKind.GENERAL_WEB, web),
            FixtureConnector(ConnectorKind.VULN_DB, web),
            FixtureConnector(ConnectorKind.CODE_REPO, web),
        ],
    )
    calls = []

    def factory(name):
        calls.append(name)
        return make_session([], name=name)

    assert agent.acquire("Ghost", "9.9", factory) == 0
    assert calls == []  # no model consulted when nothing came back
    assert agent.tree.node_count() == 0


def test_acquire_filters_exploits_for_other_cves(tmp_path):
    """An exploit clearly tied to a different CVE is not filed under this one."""
    agent = make_agent(tmp_path, fixture_setup(tmp_path))

    def factory(name):
        if name == "search-surfaces":
            return scripted_factory()(name)
        return make_session([exploit_doc_reply(cve_id="CVE-1999-9999")], name=name)

    written = agent.acquire("TestApp", "1.0", factory)
    assert written == 1  # only the vulnerability node
    matching, _ = agent.tree.query("TestApp", "1.0")
    assert matching[0].exploits == []
