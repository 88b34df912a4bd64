"""Acceptance suite: ten criteria, one test per criterion.

Run with -v for one PASSED/FAILED line per criterion; each test also prints
its own "criterion NN PASS" line (visible with -s or in failure output).
"""

import http.server
import json
import random
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from pentestflow import cli
from pentestflow.agentloop import StopReason
from pentestflow.bench import classify_difficulty, run_benchmark
from pentestflow.execution import (
    ExecutionAgent,
    ExploitOutcome,
    OutcomeStatus,
    ParameterRequirement,
    ParamSource,
)
from pentestflow.gateway import (
    ChatSession,
    ResponseSchema,
    ScriptedBackend,
    TokenUsage,
    UsageLedger,
    cost_of,
    register_schema,
)
from pentestflow.knowledge import ExploitNode, KnowledgeTree, VulnerabilityNode
from pentestflow.pipeline import (
    STAGE_ANALYSIS,
    STAGE_EXPLOITATION,
    STAGE_INTELLIGENCE,
    STAGES,
    STATUS_COMPLETE,
    RunConfig,
    RunRecord,
    StageStatus,
    load_record,
    record_to_bytes,
    run_id_for,
    save_record,
)
from pentestflow.planning import (
    AttackSurfaceSuggestion,
    ExploitPlan,
    PlanEntry,
    PlanningAgent,
)
from pentestflow.rag import RagStore, chunk_text
from pentestflow.recon import (
    EnvironmentSummary,
    ReconState,
    ServiceFingerprint,
    run_recon,
)
from pentestflow.sandbox import ExecutionResult, ScopeViolation
from pentestflow.versions import VersionConstraint

from conftest import GPT35_PROFILE, GPT4O_PROFILE, WIDE_PROFILE
from test_gateway import MALFORMED_REPLIES
from test_knowledge import _dir_bytes, _random_tree
from test_rag import _words, oracle_cosine, oracle_embed, oracle_rank
from test_versions import GRID, generate_constraints, ref_matches

TARGET = "127.0.0.1"


def _pass(number: int, name: str) -> None:
    print(f"criterion {number:02d} PASS: {name}")


class StubExecutor:
    def __init__(self, behavior=None):
        self.commands = []
        self.behavior = behavior

    def run(self, spec):
        self.commands.append(spec.command_line)
        if self.behavior is not None:
            outcome = self.behavior(spec)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return ExecutionResult(0, f"ran: {spec.command_line}", "", 0.01, False, False)


def scripted(name, responses=None, responder=None):
    return ChatSession(
        name, "sys", WIDE_PROFILE, ScriptedBackend(responses=responses, responder=responder)
    )


# ---------------------------------------------------------------------------
# Criterion 1 — end-to-end replay run against a live local fixture service
# ---------------------------------------------------------------------------

TOKEN = "ACCEPT-TOKEN-77f3"


def _write_transcript(directory, name, responses):
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(
            {
                "sequence_no": i,
                "request_digest": "",  # hand-authored: matches any request
                "response_text": text,
                "input_tokens": 120,
                "output_tokens": 30,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        for i, text in enumerate(responses)
    ]
    (directory / f"{name}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


class _BannerHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 - http.server API
        body = b"DemoApp 1.2.3\n"
        self.send_response(200)
        self.send_header("Server", "DemoApp/1.2.3")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_criterion_01_end_to_end_replay(tmp_path):
    started = time.monotonic()

    server = http.server.ThreadingHTTPServer((TARGET, 0), _BannerHandler)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # two exploit scripts on disk; only the second prints the token
        poc_dir = tmp_path / "poc"
        poc_dir.mkdir()
        fail_poc = poc_dir / "fail_poc.py"
        fail_poc.write_text(
            'print("exploit did not fire")\nraise SystemExit(1)\n', encoding="utf-8"
        )
        win_poc = poc_dir / "win_poc.py"
        win_poc.write_text(
            f'print("session established: {TOKEN}")\n', encoding="utf-8"
        )

        # seeded knowledge tree: one CVE, two exploit entries
        kb_dir = tmp_path / "kb"
        tree = KnowledgeTree()
        tree.upsert(
            "DemoApp",
            VulnerabilityNode(
                cve_id="CVE-2099-0001",
                vuln_type="rce",
                affected_versions="<=1.2.3",
                exploits=[
                    ExploitNode(
                        source_ref="exploits/fail-poc",
                        effect="remote command execution",
                        local_path=str(fail_poc),
                    ),
                    ExploitNode(
                        source_ref="exploits/win-poc",
                        effect="remote command execution",
                        local_path=str(win_poc),
                    ),
                ],
                epss=90.0,
            ),
        )
        tree.save(kb_dir)

        # recorded transcripts for every session the run opens
        transcripts = tmp_path / "transcripts"
        probe = f"curl -s http://{TARGET}:{port}/"
        _write_transcript(
            transcripts,
            "recon",
            [
                json.dumps({"thought": "grab the banner", "command": probe, "done": False}),
                json.dumps({"thought": "identified", "command": "", "done": True}),
            ],
        )
        _write_transcript(
            transcripts,
            "recon-summary",
            [
                json.dumps(
                    {
                        "os_guess": "linux",
                        "fingerprints": [
                            {
                                "port": port,
                                "protocol": "tcp",
                                "service": "http",
                                "product": "DemoApp",
                                "version": "1.2.3",
                                "evidence": "DemoApp 1.2.3",
                            }
                        ],
                        "notes": "",
                    }
                )
            ],
        )
        _write_transcript(
            transcripts,
            "plan-surfaces",
            [
                json.dumps(
                    {
                        "suggestions": [
                            {
                                "cve_id": "CVE-2099-0001",
                                "app": "DemoApp",
                                "confidence": 0.9,
                            }
                        ]
                    }
                )
            ],
        )
        _write_transcript(
            transcripts,
            "plan-exploits",
            [
                json.dumps(
                    {
                        "entries": [
                            {
                                "cve_id": "CVE-2099-0001",
                                "source_ref": "exploits/fail-poc",
                                "confidence": 0.9,
                            },
                            {
                                "cve_id": "CVE-2099-0001",
                                "source_ref": "exploits/win-poc",
                                "confidence": 0.8,
                            },
                        ]
                    }
                )
            ],
        )
        for i, poc in ((0, fail_poc), (1, win_poc)):
            _write_transcript(
                transcripts,
                f"prep-{i}",
                [
                    json.dumps({"parameters": [{"name": "target"}]}),
                    json.dumps({"found": False, "value": ""}),
                ],
            )
            _write_transcript(
                transcripts,
                f"exploit-{i}",
                [
                    json.dumps(
                        {
                            "thought": "fire the poc",
                            "command": f"python3 {poc}",
                            "done": False,
                        }
                    ),
                    json.dumps(
                        {
                            "thought": "assess",
                            "command": "",
                            "done": True,
                            "success": bool(i),
                            "evidence": TOKEN if i else "",
                        }
                    ),
                ],
            )

        out_dir = tmp_path / "runs"
        rc = cli.main(
            [
                "run",
                "--target",
                TARGET,
                "--scope",
                TARGET,
                "--replay",
                str(transcripts),
                "--knowledge",
                str(kb_dir),
                "--application",
                "DemoApp",
                "--app-version",
                "1.2.3",
                "--output",
                str(out_dir),
            ]
        )
        assert rc == 0

        run_dir = next(p for p in out_dir.iterdir() if p.is_dir())
        record = load_record(run_dir / "record.json")
        for stage in STAGES:
            assert record.stage_status(stage) == STATUS_COMPLETE, stage
        assert record.success_index == 1  # the failing script was tried first
        assert record.outcomes[1].evidence == TOKEN

        report = (run_dir / "report.md").read_text(encoding="utf-8")
        assert TOKEN in report

        # the recon probe really hit the fixture service through the sandbox
        history = [
            json.loads(line)
            for line in (run_dir / "history.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        probe_events = [e for e in history if e.get("command") == probe]
        assert probe_events and probe_events[0]["exit_code"] == 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"end-to-end replay took {elapsed:.1f}s"
    _pass(1, "end-to-end replay run")


# ---------------------------------------------------------------------------
# Criterion 2 — termination within bounds, 1,000 fuzzed transcripts per loop
# ---------------------------------------------------------------------------


def test_criterion_02_recon_termination(tmp_path):
    rng = random.Random(0xACC2)
    commands = ["nmap -sV t", "curl t", "nc t 80", "whois t", "dig t"]
    violations = 0
    for _ in range(1000):
        max_iterations = rng.randrange(1, 9)
        state = ReconState(target=TARGET, scope=(TARGET,), max_iterations=max_iterations)

        def responder(request, rng=rng):
            roll = rng.random()
            if roll < 0.15:
                return "no json at all"
            if roll < 0.25:
                return '{"unexpected": true}'
            if roll < 0.35:
                return json.dumps({"thought": "t", "command": "", "done": False})
            if roll < 0.45:
                return json.dumps(
                    {"thought": "t", "command": rng.choice(commands), "done": True}
                )
            return json.dumps(
                {"thought": "t", "command": rng.choice(commands), "done": False}
            )

        def behavior(spec, rng=rng):
            roll = rng.random()
            if roll < 0.1:
                return ScopeViolation(["198.51.100.77"])
            if roll < 0.2:
                return ExecutionResult(124, "", "timed out", 1.0, False, True)
            return ExecutionResult(rng.randrange(0, 3), "output", "", 0.01, False, False)

        run_recon(
            state,
            scripted("recon", responder=responder),
            StubExecutor(behavior=behavior),
        )
        if not (state.done and state.stop_reason is not None):
            violations += 1
        if state.iteration > max_iterations:
            violations += 1
        if len(state.command_history) > max_iterations:
            violations += 1
    assert violations == 0
    _pass(2, "recon loop terminates within bounds (1000 transcripts)")


def test_criterion_02_exploit_termination(tmp_path):
    rng = random.Random(0xACC2E)
    rag = RagStore(tmp_path / "rag")
    exploit = ExploitNode(source_ref="repo/poc", effect="remote command execution")
    from pentestflow.execution import ParameterRequirement, ParamSource

    params = [
        ParameterRequirement(name="target", value=TARGET, source=ParamSource.DEFAULT)
    ]
    violations = 0
    for _ in range(1000):
        max_steps = rng.randrange(1, 9)

        def responder(request, rng=rng):
            roll = rng.random()
            if roll < 0.15:
                return "garbage"
            doc = {"thought": "t", "command": "", "done": False}
            if roll < 0.3:
                doc.update(done=True, success=True, evidence=f"proof-{rng.randrange(5)}")
            elif roll < 0.4:
                doc.update(done=True, success=False, evidence="")
            elif roll >= 0.5:
                doc["command"] = f"cmd {rng.randrange(4)}"
            return json.dumps(doc)

        def behavior(spec, rng=rng):
            roll = rng.random()
            if roll < 0.15:
                return ScopeViolation(["198.51.100.1"])
            if roll < 0.3:
                return ExecutionResult(1, "", f"err {rng.randrange(3)}", 0.1, False, False)
            return ExecutionResult(0, f"proof-{rng.randrange(5)} ok", "", 0.1, False, False)

        agent = ExecutionAgent(
            StubExecutor(behavior=behavior), rag, (TARGET,), max_steps=max_steps
        )
        outcome = agent.exploit_loop(
            exploit, params, scripted("exec", responder=responder)
        )
        if not isinstance(outcome, ExploitOutcome):
            violations += 1
            continue
        if outcome.steps_taken > max_steps:
            violations += 1
        if outcome.status is OutcomeStatus.SUCCESS and not outcome.evidence:
            violations += 1
    assert violations == 0
    _pass(2, "exploit loop terminates within bounds (1000 transcripts)")


_LOOP_REPLIES = st.lists(
    st.sampled_from(["garbage", "empty", "done", "fresh"]), min_size=8, max_size=8
)


def _loop_reply(kind: str, turn: int, success: bool) -> str:
    if kind == "garbage":
        return "no json in this reply"
    doc = {"thought": "t", "command": "", "done": kind == "done"}
    if kind == "fresh":
        doc["command"] = f"fresh-{turn}"
    if kind == "done":
        doc.update(success=success, evidence="ran: fresh-0")
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(
    kinds=_LOOP_REPLIES,
    success=st.booleans(),
    fail_at=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    ceiling=st.integers(min_value=1, max_value=8),
)
def test_criterion_02_loops_agree(tmp_path_factory, kinds, success, fail_at, ceiling):
    """Recon and exploitation run one loop: on replies that neither agent's
    own rule reacts to, they take the same turns, run the same commands and
    stop for corresponding reasons."""
    replies = [_loop_reply(kind, turn, success) for turn, kind in enumerate(kinds)]
    if fail_at is not None:
        replies = replies[:fail_at]  # the next completion raises

    def session():
        backend = ScriptedBackend(responses=list(replies))
        return ChatSession("loop", "sys", WIDE_PROFILE, backend, max_repairs=0)

    state = ReconState(target=TARGET, scope=(TARGET,), max_iterations=ceiling)
    recon_executor = StubExecutor()
    run_recon(state, session(), recon_executor)
    exploit_executor = StubExecutor()
    rag = RagStore(tmp_path_factory.mktemp("rag"))
    agent = ExecutionAgent(exploit_executor, rag, (TARGET,), max_steps=ceiling)
    params = [
        ParameterRequirement(name="target", value=TARGET, source=ParamSource.DEFAULT)
    ]
    outcome = agent.exploit_loop(
        ExploitNode(source_ref="repo/poc", effect="remote command execution"),
        params,
        session(),
    )

    # the oracle: walk the replies turn by turn
    turns, reason = 0, StopReason.MAX_ITERATIONS
    for turn in range(ceiling):
        if turn == fail_at:
            reason = StopReason.FATAL_ERROR
            break
        turns += 1
        if kinds[turn] == "done":
            reason = StopReason.AGENT_DECLARED_DONE
            break
    commands = [f"fresh-{t}" for t in range(turns) if kinds[t] == "fresh"]

    assert state.iteration == outcome.steps_taken == turns
    assert recon_executor.commands == exploit_executor.commands == commands
    assert state.stop_reason is reason
    if reason is StopReason.AGENT_DECLARED_DONE:
        assert outcome.status in (OutcomeStatus.SUCCESS, OutcomeStatus.FAILED)
        assert not outcome.evidence.startswith("gateway failure:")
    elif reason is StopReason.MAX_ITERATIONS:
        assert outcome.status is OutcomeStatus.ABORTED_MAX_STEPS
    else:
        assert outcome.status is OutcomeStatus.FAILED
        assert outcome.evidence.startswith("gateway failure:")


# ---------------------------------------------------------------------------
# Criterion 3 — ledger exactness and the tagged rate examples
# ---------------------------------------------------------------------------


def test_criterion_03_ledger_exactness():
    # tagged examples at the two published rate pairs
    assert cost_of(TokenUsage(1_000_000, 0), GPT35_PROFILE) == 0.50
    assert cost_of(TokenUsage(0, 0), GPT35_PROFILE) == 0.0
    assert cost_of(TokenUsage(0, 0), GPT4O_PROFILE) == 0.0
    assert cost_of(TokenUsage(2_000_000, 1_000_000), GPT4O_PROFILE) == 25.00

    rng = random.Random(0xACC3)
    for _ in range(200):
        profile = rng.choice([GPT35_PROFILE, GPT4O_PROFILE, WIDE_PROFILE])
        usages = [
            TokenUsage(rng.randrange(0, 3_000_000), rng.randrange(0, 3_000_000))
            for _ in range(rng.randrange(1, 50))
        ]
        ledger = UsageLedger()
        for usage in usages:
            ledger.add(usage, profile)
        total = sum(cost_of(usage, profile) for usage in usages)
        assert abs(ledger.accumulated_cost - total) < 1e-9
        assert ledger.call_count == len(usages)
    _pass(3, "ledger equals the sum of per-call costs within 1e-9")


# ---------------------------------------------------------------------------
# Criterion 4 — version matching agrees with brute force on the 10^3 grid
# ---------------------------------------------------------------------------


def test_criterion_04_version_matching_oracle():
    rng = random.Random(0xACC4)
    constraints = generate_constraints(rng, 220)
    assert len(constraints) >= 200
    disagreements = []
    for expression in constraints:
        parsed = VersionConstraint.parse(expression)
        for triple in GRID:
            version_text = ".".join(str(x) for x in triple)
            if parsed.matches(version_text) != ref_matches(expression, triple):
                disagreements.append((expression, version_text))
    assert disagreements == []
    _pass(4, "version matching agrees with the grid oracle (0 disagreements)")


# ---------------------------------------------------------------------------
# Criterion 5 — retrieval equals exhaustive cosine ranking with tie-breaks
# ---------------------------------------------------------------------------


def test_criterion_05_retrieval_oracle(tmp_path):
    rng = random.Random(0xACC5)
    for trial in range(100):
        store = RagStore(tmp_path / f"corpus{trial}")
        documents = [
            (f"doc{d:03d}", _words(rng, rng.randrange(1, 40)), "uri")
            for d in range(rng.randrange(1, 15))
        ]
        store.index("c", documents)
        chunks = []
        for doc_id, text, _ in documents:
            for idx, piece in enumerate(chunk_text(text)):
                chunks.append((doc_id, idx, piece))
        assert len(chunks) <= 1000
        for _ in range(2):
            query = _words(rng, rng.randrange(1, 8))
            k = rng.randrange(1, len(chunks) + 3)
            hits = store.retrieve("c", query, k=k)
            expected = oracle_rank(chunks, query)[: min(k, len(chunks))]
            assert [(h.chunk.doc_id, h.chunk.chunk_index) for h in hits] == expected
            for hit in hits:
                text = next(
                    t
                    for d, i, t in chunks
                    if (d, i) == (hit.chunk.doc_id, hit.chunk.chunk_index)
                )
                assert hit.score == oracle_cosine(oracle_embed(text), oracle_embed(query))
    _pass(5, "retrieval matches exhaustive cosine ranking on 100 corpora")


# ---------------------------------------------------------------------------
# Criterion 6 — difficulty classifier vs cutoff oracle, plus bucket counts
# ---------------------------------------------------------------------------


def test_criterion_06_difficulty_classifier():
    def oracle(score):
        if score >= 3.0:
            return "easy"
        if score >= 2.0:
            return "medium"
        return "hard"

    for i in range(41):
        score = i / 10
        assert classify_difficulty(score) == oracle(score), score
    assert classify_difficulty(3.0) == "easy"
    assert classify_difficulty(2.0) == "medium"
    assert classify_difficulty(1.9) == "hard"

    # manifest fixture annotated with exploitability scores; counts by hand:
    # easy {3.9, 3.0}, medium {2.9, 2.0}, hard {1.9, 0.7, 0.0}
    from pentestflow.bench import CveMetrics, TargetManifest

    scores = [3.9, 3.0, 2.9, 2.0, 1.9, 0.7, 0.0]
    manifests = [
        TargetManifest(
            name=f"t{i}",
            application="App",
            version="1.0",
            cves={"CVE-2024-0001": CveMetrics(epss=50.0, exploitability=score)},
        )
        for i, score in enumerate(scores)
    ]

    class _Record:
        stage_statuses = {stage: StageStatus("complete", 0.0, 0.0) for stage in STAGES}
        ledger = {"accumulated_cost": 0.0}

    report = run_benchmark(manifests, lambda m: m.name, runner=lambda c: _Record())
    counts = {
        d: report.aggregates()["per_difficulty"][d]["targets"]
        for d in ("easy", "medium", "hard")
    }
    assert counts == {"easy": 2, "medium": 2, "hard": 3}
    _pass(6, "difficulty classifier matches the cutoff oracle and hand counts")


# ---------------------------------------------------------------------------
# Criterion 7 — groundedness filters and the evidence cross-check
# ---------------------------------------------------------------------------


def test_criterion_07_groundedness(tmp_path):
    known_cves = [f"CVE-2020-{n:04d}" for n in range(1, 6)]
    known_refs = [f"repo/known-{n}" for n in range(3)]
    tree = KnowledgeTree()
    for cve in known_cves:
        tree.upsert(
            "App",
            VulnerabilityNode(
                cve_id=cve,
                vuln_type="rce",
                affected_versions="",
                exploits=[
                    ExploitNode(source_ref=ref, effect="remote command execution")
                    for ref in known_refs
                ],
            ),
        )
    agent = PlanningAgent(tree)
    summary = EnvironmentSummary(
        target=TARGET,
        os_guess="linux",
        fingerprints=(
            ServiceFingerprint(
                host=TARGET,
                port=8080,
                protocol="tcp",
                service="http",
                product="App",
                version="1.2.3",
                evidence="banner",
            ),
        ),
        notes="",
        collected_at="2025-01-01T00:00:00+00:00",
    )

    rng = random.Random(0xACC7)
    leaks = 0

    # 250 fuzzed surface-suggestion transcripts injecting unknown CVE ids
    for _ in range(250):
        invented = [
            f"CVE-2099-{rng.randrange(1000, 9999)}" for _ in range(rng.randrange(1, 4))
        ]
        mixed = invented + rng.sample(known_cves, rng.randrange(0, 3))
        rng.shuffle(mixed)
        reply = json.dumps(
            {
                "suggestions": [
                    {"cve_id": cve, "app": "App", "confidence": rng.random()}
                    for cve in mixed
                ]
            }
        )
        for suggestion in agent.suggest_surfaces(summary, scripted("plan", [reply])):
            if suggestion.cve_id not in known_cves:
                leaks += 1

    # 250 fuzzed plan transcripts injecting unknown repository paths and ids
    suggestions = [
        AttackSurfaceSuggestion(
            application="App", cve_id=cve, vuln_type="rce", confidence=0.5
        )
        for cve in known_cves
    ]
    for _ in range(250):
        entries = []
        for _ in range(rng.randrange(1, 6)):
            roll = rng.random()
            if roll < 0.4:
                cve, ref = rng.choice(known_cves), f"repo/invented-{rng.randrange(100)}"
            elif roll < 0.7:
                cve, ref = f"CVE-2099-{rng.randrange(1000, 9999)}", rng.choice(known_refs)
            else:
                cve, ref = rng.choice(known_cves), rng.choice(known_refs)
            entries.append(
                {"cve_id": cve, "source_ref": ref, "confidence": rng.random()}
            )
        plan = agent.plan_exploits(
            suggestions,
            "1.2.3",
            scripted("plan", [json.dumps({"entries": entries})]),
        )
        for entry in plan.entries:
            if entry.cve_id not in known_cves:
                leaks += 1
            if entry.exploit.source_ref not in known_refs:
                leaks += 1
    assert leaks == 0

    # evidence cross-check: success claims without the string in captured
    # stdout must all be rejected
    from pentestflow.execution import ParameterRequirement, ParamSource

    rag = RagStore(tmp_path / "rag")
    exploit = ExploitNode(source_ref="repo/poc", effect="remote command execution")
    params = [
        ParameterRequirement(name="target", value=TARGET, source=ParamSource.DEFAULT)
    ]
    accepted = 0
    for trial in range(150):
        fake_evidence = f"missing-{rng.randrange(1_000_000)}-token"
        replies = [
            json.dumps({"thought": "t", "command": f"cmd {trial}", "done": False}),
            json.dumps(
                {
                    "thought": "t",
                    "command": "",
                    "done": True,
                    "success": True,
                    "evidence": fake_evidence if rng.random() < 0.8 else "",
                }
            ),
        ]
        agent = ExecutionAgent(StubExecutor(), rag, (TARGET,), max_steps=5)
        outcome = agent.exploit_loop(exploit, params, scripted("exec", replies))
        if outcome.status is OutcomeStatus.SUCCESS:
            accepted += 1
        assert outcome.declared_success is True
    assert accepted == 0
    _pass(7, "hallucination filters and evidence cross-check held in all trials")


# ---------------------------------------------------------------------------
# Criterion 8 — save/load/save byte identity for both persisted forms
# ---------------------------------------------------------------------------


def _random_record(rng: random.Random) -> RunRecord:
    config = RunConfig(
        target=TARGET,
        scope=(TARGET, "10.0.0.0/8"),
        application=f"App{rng.randrange(4)}",
        version=rng.choice(["", "1.2.3"]),
        max_iterations=rng.randrange(1, 30),
    )
    record = RunRecord(run_id=run_id_for(config), config=config)
    record.started_at = "2025-01-01T00:00:00+00:00"
    if rng.random() < 0.8:
        record.finished_at = "2025-01-01T00:09:30+00:00"
    for stage in STAGES[: rng.randrange(0, 4)]:
        record.stage_statuses[stage] = StageStatus(
            status=rng.choice(["complete", "incomplete"]),
            wall_time=round(rng.uniform(0, 120), 3),
            cost=round(rng.uniform(0, 2), 10),
        )
    if rng.random() < 0.7:
        record.summary = EnvironmentSummary(
            target=TARGET,
            os_guess=rng.choice(["linux", "windows", ""]),
            fingerprints=tuple(
                ServiceFingerprint(
                    host=TARGET,
                    port=rng.randrange(1, 65536),
                    protocol="tcp",
                    service=rng.choice(["http", "ssh", ""]),
                    product=f"P{rng.randrange(3)}",
                    version=f"{rng.randrange(9)}.{rng.randrange(9)}",
                    evidence=f"banner {rng.randrange(100)}",
                )
                for _ in range(rng.randrange(0, 3))
            ),
            notes=rng.choice(["", "note ✓"]),
            collected_at="2025-01-01T00:01:00+00:00",
        )
    if rng.random() < 0.6:
        record.suggestions = [
            AttackSurfaceSuggestion(
                application="App",
                cve_id=f"CVE-2024-{rng.randrange(1000, 9999)}",
                vuln_type=rng.choice(["rce", "sqli"]),
                confidence=round(rng.random(), 6),
            )
            for _ in range(rng.randrange(1, 3))
        ]
    if rng.random() < 0.6:
        exploit = ExploitNode(
            source_ref=f"repo/e{rng.randrange(9)}",
            effect="remote command execution",
            applicable_versions=rng.choice(["", "1.*", "<=2.0"]),
            requirements=tuple(
                f"param{j}" for j in range(rng.randrange(0, 3))
            ),
        )
        record.plan = ExploitPlan(
            entries=[
                PlanEntry(
                    cve_id="CVE-2024-0001",
                    exploit=exploit,
                    confidence=round(rng.random(), 6),
                    effect="remote command execution",
                    application="App",
                )
            ]
        )
        record.outcomes = [
            ExploitOutcome(
                status=rng.choice(list(OutcomeStatus)),
                evidence=rng.choice(["", "proof-1"]),
                steps_taken=rng.randrange(0, 6),
                declared_success=rng.random() < 0.5,
            )
        ]
        if rng.random() < 0.5:
            record.success_index = 0
    record.ledger = {
        "call_count": rng.randrange(0, 40),
        "input_tokens": rng.randrange(0, 100_000),
        "output_tokens": rng.randrange(0, 100_000),
        "accumulated_cost": round(rng.uniform(0, 5), 10),
    }
    return record


def test_criterion_08_persistence_round_trips(tmp_path):
    rng = random.Random(0xACC8)

    # knowledge tree
    for trial in range(10):
        tree = _random_tree(rng)
        first = tmp_path / f"tree{trial}-a"
        second = tmp_path / f"tree{trial}-b"
        tree.save(first)
        KnowledgeTree.load(first).save(second)
        assert _dir_bytes(first) == _dir_bytes(second)

    # run record
    for trial in range(25):
        record = _random_record(rng)
        path_a = tmp_path / f"rec{trial}-a.json"
        path_b = tmp_path / f"rec{trial}-b.json"
        save_record(record, path_a)
        loaded = load_record(path_a)
        save_record(loaded, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert record_to_bytes(loaded) == record_to_bytes(record)
    _pass(8, "tree and run record round-trip byte-identically")


# ---------------------------------------------------------------------------
# Criterion 9 — structured-output robustness over the malformed corpus
# ---------------------------------------------------------------------------


def test_criterion_09_structured_output_robustness():
    register_schema(ResponseSchema("acceptance_probe", ("verdict",)), replace=True)
    assert len(MALFORMED_REPLIES) == 50
    for max_repairs in (0, 1, 2):
        for reply in MALFORMED_REPLIES:
            backend = ScriptedBackend(responder=lambda request, r=reply: r)
            session = ChatSession("s", "sys", WIDE_PROFILE, backend)
            response = session.complete_structured(
                "go", "acceptance_probe", max_repairs=max_repairs
            )
            assert backend.calls <= 1 + max_repairs
            if response.valid:
                assert "verdict" in response.parsed
            else:
                assert response.repair_attempts == max_repairs
                assert backend.calls == 1 + max_repairs
    _pass(9, "50 malformed replies parse or exhaust repairs within the bound")


# ---------------------------------------------------------------------------
# Criterion 10 — scripted stage outcomes reproduce hand-computed tables
# ---------------------------------------------------------------------------


def test_criterion_10_stage_metrics_tables():
    from pentestflow.bench import CveMetrics, TargetManifest

    # name -> (exploitability, stage statuses, stage times, cost)
    script = {
        "t1": (3.9, ("complete", "complete", "complete"), (2.0, 1.0, 3.0), 0.10),
        "t2": (3.1, ("complete", "complete", "incomplete"), (1.0, 1.0, 1.0), 0.20),
        "t3": (2.5, ("complete", "incomplete", "skipped"), (1.0, 2.0, 0.0), 0.30),
        "t4": (2.0, ("complete", "complete", "complete"), (2.0, 2.0, 2.0), 0.40),
        "t5": (1.0, ("incomplete", "skipped", "skipped"), (4.0, 0.0, 0.0), 0.50),
        "t6": (0.5, ("complete", "complete", "complete"), (1.0, 1.0, 4.0), 0.60),
    }
    manifests = [
        TargetManifest(
            name=name,
            application="App",
            version="1.0",
            cves={"CVE-2024-0001": CveMetrics(epss=50.0, exploitability=info[0])},
        )
        for name, info in script.items()
    ]

    class _Record:
        def __init__(self, statuses, times, cost):
            # a stage that did not run has no status
            self.stage_statuses = {
                stage: StageStatus(status, wall, 0.0)
                for stage, status, wall in zip(STAGES, statuses, times)
                if status != "skipped"
            }
            self.ledger = {"accumulated_cost": cost}

    def runner(name):
        _, statuses, times, cost = script[name]
        return _Record(statuses, times, cost)

    report = run_benchmark(manifests, lambda m: m.name, runner=runner)
    assert report.aggregates() == {
        "targets": 6,
        "excluded": 0,
        "overall_success_rate": 0.5,
        "per_difficulty": {
            "easy": {"targets": 2, "success_rate": 0.5},
            "medium": {"targets": 2, "success_rate": 0.5},
            "hard": {"targets": 2, "success_rate": 0.5},
        },
        "stage_completion": {
            STAGE_INTELLIGENCE: {
                "overall": 0.8333, "easy": 1.0, "medium": 1.0, "hard": 0.5,
            },
            STAGE_ANALYSIS: {
                "overall": 0.6667, "easy": 1.0, "medium": 0.5, "hard": 0.5,
            },
            STAGE_EXPLOITATION: {
                "overall": 0.5, "easy": 0.5, "medium": 0.5, "hard": 0.5,
            },
        },
        "mean_stage_time": {
            STAGE_INTELLIGENCE: 1.8333,
            STAGE_ANALYSIS: 1.1667,
            STAGE_EXPLOITATION: 1.6667,
        },
        "mean_total_time": 4.6667,
        "mean_cost": 0.35,
    }
    successes = {name: result.success for name, result in
                 ((r.name, r) for r in report.results)}
    assert successes == {
        "t1": True, "t2": False, "t3": False, "t4": True, "t5": False, "t6": True,
    }
    _pass(10, "scripted stage outcomes reproduce the hand-computed tables")
