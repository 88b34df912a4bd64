"""Pipeline tests: config validation, stage gating, checkpointing and
resume, ledger totality, record round-trips, and replay determinism."""

import json
import shutil
from pathlib import Path

import pytest

from pentestflow.config import ConfigError
from pentestflow.gateway import ScriptedBackend
from pentestflow.knowledge import ExploitNode, KnowledgeTree, VulnerabilityNode
from pentestflow.pipeline import (
    STAGE_ANALYSIS,
    STAGE_EXPLOITATION,
    STAGE_INTELLIGENCE,
    STATUS_COMPLETE,
    STATUS_INCOMPLETE,
    STATUS_SKIPPED,
    TOOLDOCS_CORPUS,
    PipelineRunner,
    ReplayClock,
    RunConfig,
    RunRecord,
    StageIncomplete,
    load_record,
    record_to_bytes,
    run_id_for,
    save_record,
)
from pentestflow.recon import env_corpus_id
from pentestflow.report import render_report
from pentestflow.sandbox import ExecutionResult
from pentestflow.search import (
    ROUND_ONE_TEMPLATE,
    ROUND_TWO_TEMPLATE,
    ConnectorKind,
    FixtureConnector,
    query_fixture_name,
)

TARGET = "127.0.0.1"
TOKEN = "TOKEN-OK-c0ffee"


class StubExecutor:
    def __init__(self):
        self.commands = []

    def run(self, spec):
        self.commands.append(spec.command_line)
        if spec.command_line.startswith("probe"):
            return ExecutionResult(
                0, "8080/tcp open http DemoSrv/1.2.3", "", 0.01, False, False
            )
        if spec.command_line.startswith("run-poc"):
            return ExecutionResult(0, f"pwned, proof: {TOKEN}", "", 0.01, False, False)
        return ExecutionResult(0, "ok", "", 0.01, False, False)


def recon_scripts():
    return [
        json.dumps({"thought": "scan", "command": f"probe {TARGET}", "done": False}),
        json.dumps({"thought": "enough", "command": "", "done": True}),
    ]


def summary_scripts(product="DemoSrv", version="1.2.3"):
    return [
        json.dumps(
            {
                "os_guess": "linux",
                "fingerprints": [
                    {
                        "port": 8080,
                        "protocol": "tcp",
                        "service": "http",
                        "product": product,
                        "version": version,
                        "evidence": f"8080/tcp open http {product}/{version}",
                    }
                ],
                "notes": "",
            }
        )
    ]


def full_scripts():
    return {
        "recon": recon_scripts(),
        "recon-summary": summary_scripts(),
        "plan-surfaces": [
            json.dumps(
                {
                    "suggestions": [
                        {"cve_id": "CVE-2024-0001", "app": "DemoSrv", "confidence": 0.9}
                    ]
                }
            )
        ],
        "plan-exploits": [
            json.dumps(
                {
                    "entries": [
                        {
                            "cve_id": "CVE-2024-0001",
                            "source_ref": "repo/poc",
                            "confidence": 0.9,
                        }
                    ]
                }
            )
        ],
        "prep-0": [
            json.dumps({"parameters": [{"name": "target"}]}),
            json.dumps({"found": False, "value": ""}),
        ],
        "exploit-0": [
            json.dumps({"thought": "go", "command": "run-poc", "done": False}),
            json.dumps(
                {
                    "thought": "verify",
                    "command": "",
                    "done": True,
                    "success": True,
                    "evidence": TOKEN,
                }
            ),
        ],
    }


def backend_factory_from(scripts):
    def factory(name):
        if name not in scripts:
            raise AssertionError(f"unexpected session {name!r}")
        return ScriptedBackend(responses=list(scripts[name]))

    return factory


def seeded_kb(tmp_path):
    kb_dir = tmp_path / "kb"
    tree = KnowledgeTree()
    tree.upsert(
        "DemoSrv",
        VulnerabilityNode(
            cve_id="CVE-2024-0001",
            vuln_type="rce",
            affected_versions="<=1.2.3",
            exploits=[
                ExploitNode(
                    source_ref="repo/poc",
                    effect="remote command execution",
                    applicable_versions="1.2.*",
                )
            ],
        ),
    )
    tree.save(kb_dir)
    return kb_dir


def make_config(tmp_path, **overrides):
    defaults = dict(
        target=TARGET,
        scope=(TARGET,),
        provider="replay",
        application="DemoSrv",
        knowledge_dir=str(seeded_kb(tmp_path)),
        output_dir=str(tmp_path / "runs"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def make_runner(tmp_path, scripts=None, config=None, **overrides):
    return PipelineRunner(
        config or make_config(tmp_path, **overrides),
        clock=ReplayClock(),
        backend_factory=backend_factory_from(scripts or full_scripts()),
        executor=StubExecutor(),
    )


# ---------------------------------------------------------------------------
# Config validation and identity
# ---------------------------------------------------------------------------


def test_config_rejects_empty_target():
    with pytest.raises(ConfigError):
        RunConfig(target="   ", scope=("127.0.0.1",))


def test_config_rejects_empty_scope():
    with pytest.raises(ConfigError):
        RunConfig(target="127.0.0.1", scope=())


def test_config_rejects_target_outside_scope():
    with pytest.raises(ConfigError):
        RunConfig(target="203.0.113.9", scope=("10.0.0.0/8",))


def test_config_accepts_target_in_cidr_scope():
    config = RunConfig(target="10.1.2.3", scope=("10.0.0.0/8",))
    assert config.target == "10.1.2.3"


def test_config_rejects_bad_knowledge_mode():
    with pytest.raises(ConfigError):
        RunConfig(target=TARGET, scope=(TARGET,), knowledge_mode="sometimes")


def test_config_rejects_nonpositive_bounds():
    with pytest.raises(ConfigError):
        RunConfig(target=TARGET, scope=(TARGET,), max_iterations=0)
    with pytest.raises(ConfigError):
        RunConfig(target=TARGET, scope=(TARGET,), max_steps=0)
    with pytest.raises(ConfigError):
        RunConfig(target=TARGET, scope=(TARGET,), max_repairs=-1)
    # zero repairs is legal: it means "no repair attempts"
    assert RunConfig(target=TARGET, scope=(TARGET,), max_repairs=0).max_repairs == 0


def test_config_round_trip():
    config = RunConfig(
        target=TARGET, scope=(TARGET, "10.0.0.0/8"), application="X", version="1"
    )
    assert RunConfig.from_dict(config.to_dict()) == config


def test_run_id_stable_and_sensitive():
    a = RunConfig(target=TARGET, scope=(TARGET,))
    b = RunConfig(target=TARGET, scope=(TARGET,))
    c = RunConfig(target=TARGET, scope=(TARGET,), application="X")
    assert run_id_for(a) == run_id_for(b)
    assert run_id_for(a) != run_id_for(c)
    assert len(run_id_for(a)) == 12
    assert run_id_for(a) == run_id_for(RunConfig.from_dict(a.to_dict()))


def test_replay_clock_ticks():
    clock = ReplayClock()
    assert [clock(), clock(), clock()] == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# Stage gating
# ---------------------------------------------------------------------------


def test_analysis_gated_on_intelligence(tmp_path):
    runner = make_runner(tmp_path)
    with pytest.raises(StageIncomplete):
        runner.run_analysis()


def test_exploitation_gated_on_analysis(tmp_path):
    runner = make_runner(tmp_path)
    with pytest.raises(StageIncomplete):
        runner.run_exploitation()


def test_force_overrides_gate_but_not_empty_plan(tmp_path):
    scripts = {"plan-surfaces": ["{}"], "plan-exploits": ["{}"]}
    runner = make_runner(tmp_path, scripts=scripts, force_stages=True)
    record = runner.run_analysis()  # gate forced; no summary -> empty plan
    assert record.stage_status(STAGE_ANALYSIS) == STATUS_INCOMPLETE
    with pytest.raises(StageIncomplete):
        runner.run_exploitation()  # an empty plan is a hard precondition


def test_incomplete_intelligence_stops_run_all(tmp_path):
    scripts = {
        "recon": recon_scripts(),
        "recon-summary": summary_scripts(product="SomethingElse"),
    }
    runner = make_runner(tmp_path, scripts=scripts)
    record = runner.run_all()
    assert record.stage_status(STAGE_INTELLIGENCE) == STATUS_INCOMPLETE
    assert record.stage_status(STAGE_ANALYSIS) == STATUS_SKIPPED
    assert record.stage_status(STAGE_EXPLOITATION) == STATUS_SKIPPED
    # the report still renders from the partial record
    assert (runner.run_dir / "report.md").is_file()


# ---------------------------------------------------------------------------
# The full scripted run
# ---------------------------------------------------------------------------


def test_full_run_all_stages_complete(tmp_path):
    runner = make_runner(tmp_path)
    record = runner.run_all()
    assert record.stage_status(STAGE_INTELLIGENCE) == STATUS_COMPLETE
    assert record.stage_status(STAGE_ANALYSIS) == STATUS_COMPLETE
    assert record.stage_status(STAGE_EXPLOITATION) == STATUS_COMPLETE
    assert record.success_index == 0
    assert record.outcomes[0].evidence == TOKEN
    assert record.summary is not None
    assert record.summary.fingerprints[0].product == "DemoSrv"
    assert [s.cve_id for s in record.suggestions] == ["CVE-2024-0001"]
    assert [e.exploit.source_ref for e in record.plan.entries] == ["repo/poc"]


def test_full_run_writes_artifacts(tmp_path):
    runner = make_runner(tmp_path)
    runner.run_all()
    run_dir = runner.run_dir
    for name in ("config.json", "record.json", "report.md", "report.json", "history.jsonl"):
        assert (run_dir / name).is_file(), name
    report = (run_dir / "report.md").read_text(encoding="utf-8")
    assert TOKEN in report
    assert "| Intelligence gathering | complete |" in report
    history = [
        json.loads(line)
        for line in (run_dir / "history.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    stages = {event["stage"] for event in history}
    assert stages == {STAGE_INTELLIGENCE, STAGE_EXPLOITATION}


def test_ledger_totality(tmp_path):
    runner = make_runner(tmp_path)
    record = runner.run_all()
    sessions = runner.factory.sessions()
    assert sessions  # the run used model sessions
    total = runner.factory.total_usage()
    assert total.call_count == sum(s.ledger.call_count for s in sessions.values())
    assert total.accumulated_cost == sum(
        s.ledger.accumulated_cost for s in sessions.values()
    )
    assert record.ledger == total.to_dict()
    assert record.ledger["call_count"] > 0
    # per-stage costs in the record sum to the ledger total (same rounding)
    stage_costs = sum(
        info["cost"] for info in record.stage_statuses.values()
    )
    assert abs(stage_costs - total.accumulated_cost) < 1e-9


def test_checkpoint_after_each_stage(tmp_path):
    runner = make_runner(tmp_path)
    record_path = runner.run_dir / "record.json"
    runner.run_intelligence()
    checkpoint = load_record(record_path)
    assert checkpoint.stage_status(STAGE_INTELLIGENCE) == STATUS_COMPLETE
    assert checkpoint.stage_status(STAGE_ANALYSIS) == STATUS_SKIPPED
    runner.run_analysis()
    checkpoint = load_record(record_path)
    assert checkpoint.stage_status(STAGE_ANALYSIS) == STATUS_COMPLETE


def test_resume_from_checkpoint(tmp_path):
    config = make_config(tmp_path)
    first = PipelineRunner(
        config,
        clock=ReplayClock(),
        backend_factory=backend_factory_from(
            {"recon": recon_scripts(), "recon-summary": summary_scripts()}
        ),
        executor=StubExecutor(),
    )
    first.run_intelligence()

    # a new runner over the same directory resumes from the saved record
    scripts = full_scripts()
    del scripts["recon"], scripts["recon-summary"]
    second = PipelineRunner(
        config,
        clock=ReplayClock(),
        backend_factory=backend_factory_from(scripts),
        executor=StubExecutor(),
    )
    assert second.record.stage_status(STAGE_INTELLIGENCE) == STATUS_COMPLETE
    second.run_analysis()
    second.run_exploitation()
    assert second.record.stage_status(STAGE_EXPLOITATION) == STATUS_COMPLETE
    assert second.record.outcomes[0].evidence == TOKEN


def test_duplicate_session_names_rejected(tmp_path):
    runner = PipelineRunner(
        make_config(tmp_path),
        clock=ReplayClock(),
        backend_factory=lambda name: ScriptedBackend(responses=["{}"]),
        executor=StubExecutor(),
    )
    runner.factory.session("x", "sys")
    with pytest.raises(ValueError):
        runner.factory.session("x", "sys")


# ---------------------------------------------------------------------------
# Record round-trip and report purity
# ---------------------------------------------------------------------------


def test_record_round_trip_bytes(tmp_path):
    runner = make_runner(tmp_path)
    record = runner.run_all()
    path = tmp_path / "rt" / "record.json"
    save_record(record, path)
    loaded = load_record(path)
    assert record_to_bytes(loaded) == record_to_bytes(record)
    save_record(loaded, path)
    assert path.read_bytes() == record_to_bytes(record)


def test_render_report_is_pure(tmp_path):
    runner = make_runner(tmp_path)
    record = runner.run_all().to_dict()
    md1, json1 = render_report(record)
    md2, json2 = render_report(json.loads(json.dumps(record)))
    assert md1 == md2
    assert json1 == json2


def test_report_json_mirrors_record(tmp_path):
    runner = make_runner(tmp_path)
    record = runner.run_all()
    doc = json.loads((runner.run_dir / "report.json").read_text(encoding="utf-8"))
    assert doc["run_id"] == record.run_id
    assert doc["success_index"] == 0
    assert doc["stages"][STAGE_EXPLOITATION]["status"] == STATUS_COMPLETE


def _unescaped_pipes(line: str) -> int:
    count, escaped = 0, False
    for char in line:
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == "|":
            count += 1
    return count


@pytest.mark.parametrize("product", ["a|b\nc", "a\r\nb|", "trailing\\", "x\\|y\rz"])
def test_report_table_cells_escape_pipes_and_line_breaks(product):
    fingerprint = {
        "host": "10.0.0.5|evil",
        "port": 8080,
        "service": "http\n| injected | row |",
        "product": product,
        "version": "1.2\r\n3",
    }
    record = {"summary": {"os_guess": "linux", "fingerprints": [fingerprint]}}
    markdown, _ = render_report(record)
    header = "| Host | Port | Service | Product | Version |"
    lines = markdown.splitlines()
    row = lines[lines.index(header) + 2]
    assert lines[lines.index(header) + 3] == ""  # the row is one line
    assert _unescaped_pipes(row) == 6
    assert "\\|" in row


# ---------------------------------------------------------------------------
# Record/replay determinism
# ---------------------------------------------------------------------------


def test_replay_reproduces_byte_identical_outputs(tmp_path):
    transcripts = tmp_path / "transcripts"
    kb_dir = seeded_kb(tmp_path)

    # pass 1: scripted backends, recording transcripts
    record_config = RunConfig(
        target=TARGET,
        scope=(TARGET,),
        provider="replay",
        application="DemoSrv",
        knowledge_dir=str(kb_dir),
        output_dir=str(tmp_path / "runs-record"),
        record_dir=str(transcripts),
    )
    recorder = PipelineRunner(
        record_config,
        clock=ReplayClock(),
        backend_factory=backend_factory_from(full_scripts()),
        executor=StubExecutor(),
    )
    recorder.run_all()
    recorded = sorted(p.name for p in transcripts.glob("*.jsonl"))
    assert recorded == [
        "exploit-0.jsonl",
        "plan-exploits.jsonl",
        "plan-surfaces.jsonl",
        "prep-0.jsonl",
        "recon-summary.jsonl",
        "recon.jsonl",
    ]

    # passes 2 and 3: replay from the transcripts, byte-compare everything
    replay_config = RunConfig(
        target=TARGET,
        scope=(TARGET,),
        provider="replay",
        application="DemoSrv",
        knowledge_dir=str(kb_dir),
        output_dir=str(tmp_path / "runs-replay"),
        replay_dir=str(transcripts),
    )

    def replay_once():
        runs_dir = Path(replay_config.output_dir)
        if runs_dir.exists():
            shutil.rmtree(runs_dir)
        runner = PipelineRunner(replay_config, executor=StubExecutor())
        record = runner.run_all()
        assert record.stage_status(STAGE_EXPLOITATION) == STATUS_COMPLETE
        return {
            name: (runner.run_dir / name).read_bytes()
            for name in ("record.json", "report.md", "report.json")
        }

    first = replay_once()
    second = replay_once()
    assert first == second
    assert TOKEN in first["report.md"].decode("utf-8")


@pytest.mark.parametrize("max_repairs", [0, 1, 2])
def test_max_repairs_bounds_every_structured_call(tmp_path, max_repairs):
    # a model that never answers with JSON: each structured request costs
    # exactly 1 + max_repairs calls, in the recon loop and in the summary
    calls = {}

    def factory(name):
        def responder(request):
            calls[name] = calls.get(name, 0) + 1
            return "never json"

        return ScriptedBackend(responder=responder)

    runner = PipelineRunner(
        make_config(tmp_path, max_iterations=3, max_repairs=max_repairs),
        clock=ReplayClock(),
        backend_factory=factory,
        executor=StubExecutor(),
    )
    runner.run_intelligence()
    assert calls == {
        "recon": 3 * (1 + max_repairs),
        "recon-summary": 1 + max_repairs,
    }


# ---------------------------------------------------------------------------
# Per-call RAG corpora stay in memory
# ---------------------------------------------------------------------------


def online_setup(tmp_path):
    """An online run's config, connectors and scripts.

    The acquisition round files CVE-2024-0002 from fixture documents; the
    plan still runs the seeded exploit, whose PoC is a local directory, so
    the exploit corpus holds real files.
    """
    poc = tmp_path / "poc"
    poc.mkdir()
    (poc / "exploit.py").write_text(
        "".join(f"# step {i}: run-poc --target HOST --port 8080\n" for i in range(60)),
        encoding="utf-8",
    )
    (poc / "README.md").write_text("Usage: run-poc against the target host.\n" * 30)
    kb_dir = tmp_path / "kb-online"  # make_config seeds tmp_path / "kb"
    tree = KnowledgeTree()
    tree.upsert(
        "DemoSrv",
        VulnerabilityNode(
            cve_id="CVE-2024-0001",
            vuln_type="rce",
            affected_versions="<=1.2.3",
            exploits=[
                ExploitNode(
                    source_ref="repo/poc",
                    effect="remote command execution",
                    applicable_versions="1.2.*",
                    local_path=str(poc),
                )
            ],
        ),
    )
    tree.save(kb_dir)

    fixtures = {
        tmp_path / "web": (
            ROUND_ONE_TEMPLATE.format(application="DemoSrv", version="1.2.3"),
            [{"uri": "https://adv.example/2", "title": "advisory", "body": "CVE-2024-0002 rce"}],
        ),
        tmp_path / "code": (
            ROUND_TWO_TEMPLATE.format(cve_id="CVE-2024-0002"),
            [{"uri": "https://code.example/poc2", "title": "poc2", "body": "exploit code"}],
        ),
    }
    for directory, (query, docs) in fixtures.items():
        directory.mkdir()
        (directory / query_fixture_name(query)).write_text(json.dumps(docs))
    connectors = [
        FixtureConnector(ConnectorKind.GENERAL_WEB, tmp_path / "web"),
        FixtureConnector(ConnectorKind.VULN_DB, tmp_path / "web"),
        FixtureConnector(ConnectorKind.CODE_REPO, tmp_path / "code"),
    ]
    scripts = full_scripts()
    scripts["search-surfaces-demosrv"] = [
        json.dumps(
            {
                "relevant": True,
                "summary": "rce",
                "cve_ids": ["CVE-2024-0002"],
                "vuln_type": "rce",
                "affected_versions": "<=1.2.3",
                "leads": [],
            }
        ),
        json.dumps(
            {
                "candidates": [
                    {
                        "cve_id": "CVE-2024-0002",
                        "vuln_type": "rce",
                        "affected_versions": "<=1.2.3",
                        "leads": [],
                        "source_uri": "https://adv.example/2",
                        "summary": "rce",
                    }
                ]
            }
        ),
    ]
    scripts["search-exploits-0-demosrv"] = [
        json.dumps(
            {
                "relevant": True,
                "cve_id": "CVE-2024-0002",
                "source_ref": "code.example/poc2",
                "effect": "remote command execution",
                "applicable_versions": "1.2.*",
                "requirements": [],
            }
        )
    ]
    config = make_config(
        tmp_path, knowledge_dir=str(kb_dir), knowledge_mode="online"
    )
    return config, connectors, scripts


def prompt_recording_factory(scripts, prompts):
    def factory(name):
        replies = list(scripts[name])

        def respond(request):
            prompts.setdefault(name, []).append(request.prompt)
            return replies.pop(0)

        return ScriptedBackend(responder=respond)

    return factory


def test_run_all_keeps_no_corpus_on_disk(tmp_path):
    config, connectors, scripts = online_setup(tmp_path)
    prompts = {}
    runner = PipelineRunner(
        config,
        connectors=connectors,
        clock=ReplayClock(),
        backend_factory=prompt_recording_factory(scripts, prompts),
        executor=StubExecutor(),
    )
    record = runner.run_all()
    assert record.success_index == 0
    # the acquisition and the exploit preparation both read retrieved passages
    assert "CVE-2024-0002" in {n.cve_id for n in runner.tree.vulnerabilities("DemoSrv")}
    assert any("https://adv.example/2" in p for p in prompts["search-surfaces-demosrv"])
    assert "file://" in prompts["prep-0"][0]
    assert runner.rag.corpus_exists(env_corpus_id(TARGET))
    assert runner.rag.corpus_exists(TOOLDOCS_CORPUS)
    assert not (runner.run_dir / "rag").exists()
    assert not (runner.run_dir / "env").exists()


def test_second_runner_reruns_exploitation_identically(tmp_path):
    config, connectors, scripts = online_setup(tmp_path)
    first_prompts, second_prompts = {}, {}
    first = PipelineRunner(
        config,
        connectors=connectors,
        clock=ReplayClock(),
        backend_factory=prompt_recording_factory(scripts, first_prompts),
        executor=StubExecutor(),
    )
    first.run_all()
    record_path = first.run_dir / "record.json"
    before = json.loads(record_path.read_text(encoding="utf-8"))

    # a new construction finds no exploit corpus and indexes the PoC again
    second = PipelineRunner(
        config,
        connectors=connectors,
        clock=ReplayClock(),
        backend_factory=prompt_recording_factory(scripts, second_prompts),
        executor=StubExecutor(),
    )
    second.run_exploitation()
    after = json.loads(record_path.read_text(encoding="utf-8"))
    assert after["plan"] == before["plan"]
    assert after["outcomes"] == before["outcomes"]
    assert after["success_index"] == before["success_index"] == 0
    for name in ("prep-0", "exploit-0"):
        assert second_prompts[name] == first_prompts[name]


def test_staged_runners_match_one_run_all(tmp_path):
    config, connectors, scripts = online_setup(tmp_path)
    kb_dir = Path(config.knowledge_dir)
    shutil.copytree(kb_dir, tmp_path / "kb-pristine")

    def runner(prompts):
        return PipelineRunner(
            config,
            connectors=connectors,
            clock=ReplayClock(),
            backend_factory=prompt_recording_factory(scripts, prompts),
            executor=StubExecutor(),
        )

    whole_prompts: dict = {}
    assert runner(whole_prompts).run_all().success_index == 0
    # the same run again, from scratch, as three constructions over one run
    # directory with one stage each, as the recon, plan and exploit
    # subcommands run them
    shutil.rmtree(config.output_dir)
    shutil.rmtree(kb_dir)
    shutil.copytree(tmp_path / "kb-pristine", kb_dir)
    staged_prompts: dict = {}
    for stage in ("run_intelligence", "run_analysis", "run_exploitation"):
        staged = runner(staged_prompts)
        getattr(staged, stage)()
    assert staged.record.success_index == 0
    assert sorted(p.name for p in staged.run_dir.iterdir() if p.is_dir()) == [
        "transcripts"
    ]
    names = [n for n in whole_prompts if n.startswith(("prep-", "exploit-"))]
    assert names == ["prep-0", "exploit-0"]
    for name in names:
        assert staged_prompts[name] == whole_prompts[name]


REPAIR_PREFIX = "Your previous reply could not be used"


def test_run_all_requests_carry_no_history_but_a_repairs_own(tmp_path):
    """Every request of a whole run carries no earlier turn. A repair is the
    one exception: it carries its own call's failed exchange and nothing
    else. Each session's first reply is unusable, so each repairs once."""
    config, connectors, scripts = online_setup(tmp_path)
    sent: dict[str, list[tuple]] = {}

    def factory(name):
        replies = ["no json here", *scripts[name]]

        def respond(request):
            reply = replies.pop(0)
            sent.setdefault(name, []).append((request, reply))
            return reply

        return ScriptedBackend(responder=respond)

    runner = PipelineRunner(
        config,
        connectors=connectors,
        clock=ReplayClock(),
        backend_factory=factory,
        executor=StubExecutor(),
    )
    assert runner.run_all().success_index == 0
    assert set(sent) == set(scripts)
    for name, exchanges in sent.items():
        repairs = 0
        for i, (request, _) in enumerate(exchanges):
            if request.prompt.startswith(REPAIR_PREFIX):
                failed, failed_reply = exchanges[i - 1]
                assert failed.history == ()
                assert request.history == (
                    ("user", failed.prompt),
                    ("assistant", failed_reply),
                ), name
                repairs += 1
            else:
                assert request.history == (), name
        assert repairs == 1, name
    # the loops took more than one step, each sent on its own
    assert len(sent["recon"]) == len(sent["exploit-0"]) == 3
