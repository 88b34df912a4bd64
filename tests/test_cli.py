"""CLI tests: exit-code mapping, the --config file and the flag oracle, and
replayed end-to-end runs."""

import argparse
import dataclasses
import json
import logging
from pathlib import Path

import pytest

from pentestflow import cli
from pentestflow.config import ConfigError, ProviderSpec, load_provider_specs
from pentestflow.gateway import (
    BackendUnreachable,
    HttpChatBackend,
    ProviderProfile,
    ScriptedBackend,
    TranscriptEntry,
    read_transcript,
    write_transcript,
)
from pentestflow.knowledge import ExploitNode, KnowledgeTree, VulnerabilityNode
from pentestflow.pipeline import (
    KNOWLEDGE_OFFLINE,
    KNOWLEDGE_ONLINE,
    STAGES,
    STATUS_COMPLETE,
    PipelineRunner,
    ReplayClock,
    RunConfig,
    RunRecord,
    StageIncomplete,
    load_record,
    record_to_bytes,
    save_record,
)
from pentestflow.search import ConnectorKind, FixtureConnector

from test_records import RECORD
from test_search import (
    CVE_QUERY,
    ROUND1_QUERY,
    consolidation_reply,
    exploit_doc_reply,
    surface_doc_reply,
    write_fixture,
)

TARGET = "127.0.0.1"
TOKEN = "TOKEN-OK-c0ffee"
BANNER = "8080/tcp open http DemoSrv/1.2.3"
BANNER_CMD = f"echo '{BANNER}'"
POC_CMD = f"echo 'pwned, proof: {TOKEN}'"


def full_scripts():
    return {
        "recon": [
            json.dumps({"thought": "banner", "command": BANNER_CMD, "done": False}),
            json.dumps({"thought": "enough", "command": "", "done": True}),
        ],
        "recon-summary": [
            json.dumps(
                {
                    "os_guess": "linux",
                    "fingerprints": [
                        {
                            "port": 8080,
                            "protocol": "tcp",
                            "service": "http",
                            "product": "DemoSrv",
                            "version": "1.2.3",
                            "evidence": BANNER,
                        }
                    ],
                    "notes": "",
                }
            )
        ],
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
            json.dumps({"thought": "go", "command": POC_CMD, "done": False}),
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


@pytest.fixture()
def recorded_transcripts(tmp_path):
    """Record a scripted full run; commands execute through the real sandbox."""
    transcripts = tmp_path / "transcripts"
    kb_dir = seeded_kb(tmp_path)
    scripts = full_scripts()
    config = RunConfig(
        target=TARGET,
        scope=(TARGET,),
        provider="replay",
        application="DemoSrv",
        knowledge_dir=str(kb_dir),
        output_dir=str(tmp_path / "runs-record"),
        record_dir=str(transcripts),
    )
    runner = PipelineRunner(
        config,
        clock=ReplayClock(),
        backend_factory=lambda name: ScriptedBackend(responses=list(scripts[name])),
    )
    record = runner.run_all()
    assert record.success_index == 0  # recording itself must have succeeded
    return transcripts, kb_dir


# ---------------------------------------------------------------------------
# Exit-code mapping
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.main(["bench"]) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_offline_online_conflict_is_usage_error(tmp_path, capsys):
    rc = cli.main(
        [
            "run",
            "--target",
            TARGET,
            "--scope",
            TARGET,
            "--offline",
            "--online",
            "--output",
            str(tmp_path / "runs"),
        ]
    )
    assert rc == cli.EXIT_USAGE
    assert "mutually exclusive" in capsys.readouterr().err


def test_missing_target_is_config_error(tmp_path, capsys):
    rc = cli.main(["run", "--scope", TARGET, "--output", str(tmp_path / "runs")])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_target_outside_scope_is_config_error(tmp_path):
    rc = cli.main(
        [
            "run",
            "--target",
            "203.0.113.9",
            "--scope",
            "10.0.0.0/8",
            "--output",
            str(tmp_path / "runs"),
        ]
    )
    assert rc == cli.EXIT_CONFIG


def test_unknown_provider_is_config_error(tmp_path, capsys):
    rc = cli.main(
        [
            "run",
            "--target",
            TARGET,
            "--scope",
            TARGET,
            "--provider",
            "no-such-provider",
            "--output",
            str(tmp_path / "runs"),
        ]
    )
    assert rc == cli.EXIT_CONFIG
    assert "no-such-provider" in capsys.readouterr().err


PROVIDER_ENTRY = {"context_window": 4096, "input_price": 0.5, "output_price": 1.5}


@pytest.mark.parametrize(
    "change, key",
    [
        ({"temprature": 0.7}, "temprature"),
        ({"provider_id": "other"}, "provider_id"),
        ({"context_window": True}, "context_window"),
        ({"context_window": 4096.0}, "context_window"),
        ({"input_price": False}, "input_price"),
        ({"output_price": "0.002"}, "output_price"),
        ({"temperature": "0.7"}, "temperature"),
        ({"model_name": 35}, "model_name"),
        ({"endpoint": None}, "endpoint"),
        ({"credential_env": 1}, "credential_env"),
        ({"context_window": None}, "context_window"),
    ],
)
def test_provider_config_refuses_unknown_keys_and_wrong_types(tmp_path, change, key):
    path = tmp_path / "providers.json"
    path.write_text(json.dumps({"mine": {**PROVIDER_ENTRY, **change}}), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"provider 'mine'.*'{key}'"):
        load_provider_specs(path)


def test_provider_config_entry_reads_every_field(tmp_path):
    path = tmp_path / "providers.json"
    entries = {
        "short": {"context_window": 4096, "input_price": 1, "output_price": 2},
        "full": {
            "endpoint": "http://127.0.0.1:9/v1",
            "credential_env": "MY_KEY",
            "model_name": "m-1",
            "context_window": 8192,
            "input_price": 0.25,
            "output_price": 0.75,
            "temperature": 0.5,
        },
    }
    path.write_text(json.dumps(entries), encoding="utf-8")
    specs = load_provider_specs(path)
    assert specs["short"] == ProviderSpec(ProviderProfile("short", "short", 4096, 1.0, 2.0))
    assert specs["full"] == ProviderSpec(
        ProviderProfile("full", "m-1", 8192, 0.25, 0.75, temperature=0.5),
        endpoint="http://127.0.0.1:9/v1",
        credential_env="MY_KEY",
    )


def test_malformed_provider_config_is_config_error(tmp_path, capsys):
    # once loaded silently as a one-token window at temperature 0.0
    path = tmp_path / "providers.json"
    entry = {
        "context_window": True,
        "input_price": 0.001,
        "output_price": "0.002",
        "temprature": 0.7,
    }
    path.write_text(json.dumps({"mine": entry}), encoding="utf-8")
    (tmp_path / "transcripts").mkdir()
    argv = ["recon", "--target", TARGET, "--scope", TARGET, "--provider", "mine"]
    argv += ["--provider-config", str(path), "--replay", str(tmp_path / "transcripts")]
    assert cli.main(argv + ["--output", str(tmp_path / "runs")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "'mine'" in err


def test_plan_before_recon_is_stage_error(tmp_path, capsys):
    rc = cli.main(
        [
            "plan",
            "--target",
            TARGET,
            "--scope",
            TARGET,
            "--replay",
            str(tmp_path / "transcripts"),
            "--output",
            str(tmp_path / "runs"),
        ]
    )
    assert rc == cli.EXIT_STAGE
    assert "stage prerequisites not met" in capsys.readouterr().err


def test_exploit_before_plan_is_stage_error(tmp_path):
    rc = cli.main(
        [
            "exploit",
            "--target",
            TARGET,
            "--scope",
            TARGET,
            "--replay",
            str(tmp_path / "transcripts"),
            "--output",
            str(tmp_path / "runs"),
        ]
    )
    assert rc == cli.EXIT_STAGE


def test_report_without_record_is_config_error(tmp_path):
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_CONFIG


def test_corrupt_record_is_config_error(tmp_path, capsys):
    (tmp_path / "record.json").write_text("{not json", encoding="utf-8")
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {tmp_path / 'record.json'}: " in err


@pytest.mark.parametrize(
    "path, value, named",
    [
        (["success_index"], "1", "RunRecord['success_index']"),
        (["outcomes", 0, "status"], "won", "RunRecord['outcomes'][0]['status']"),
        (
            ["stage_statuses", "intelligence_gathering"],
            7,
            "RunRecord['stage_statuses']['intelligence_gathering'] must be an object",
        ),
        (
            ["stage_statuses", "intelligence_gathering", "wall_time"],
            "fast",
            "RunRecord['stage_statuses']['intelligence_gathering']['wall_time']",
        ),
        (["ledger", "call_count"], "many", "UsageLedger['call_count']"),
        (
            ["stage_statuses", "exploitaton"],
            {"status": "complete", "wall_time": 1.0, "cost": 0.0},
            "names no stage 'exploitaton'",
        ),
    ],
    ids=[
        "success-index-as-string",
        "unknown-status",
        "stage-status-not-an-object",
        "wall-time-as-string",
        "call-count-as-string",
        "misspelled-stage",
    ],
)
def test_malformed_record_is_config_error(tmp_path, capsys, path, value, named):
    doc = json.loads(record_to_bytes(RECORD))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    (tmp_path / "record.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error: " in err and named in err
    assert not (tmp_path / "report.md").exists()


@pytest.mark.parametrize(
    "line, named",
    [
        ("not json", "Expecting value"),
        ({"extra": 1}, "TranscriptEntry['extra'] is not a field"),
    ],
    ids=["not-json", "unknown-key"],
)
def test_bad_transcript_line_is_config_error(tmp_path, capsys, line, named):
    transcripts = tmp_path / "tr"
    transcripts.mkdir()
    good = TranscriptEntry(0, "", "{}", 1, 1).to_dict()
    if isinstance(line, dict):
        line = json.dumps({**good, **line})
    path = transcripts / "recon.jsonl"
    path.write_text(f"{json.dumps(good)}\n\n{line}\n", encoding="utf-8")
    argv = ["run", "--target", TARGET, "--scope", TARGET, "--replay", str(transcripts)]
    assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {path}:3: " in err and named in err


def test_corrupt_knowledge_node_is_config_error(tmp_path, capsys):
    tree = KnowledgeTree()
    tree.upsert("App", VulnerabilityNode(cve_id="CVE-2020-0001", epss=5.0))
    kb_dir = tmp_path / "kb"
    tree.save(kb_dir)
    (node_path,) = kb_dir.glob("*/CVE-2020-0001.json")
    doc = json.loads(node_path.read_text(encoding="utf-8"))
    node_path.write_text(json.dumps({**doc, "epss": "5"}), encoding="utf-8")
    argv = ["plan", "--target", TARGET, "--scope", TARGET, "--knowledge", str(kb_dir)]
    argv += ["--application", "App", "--force", "--replay", str(tmp_path / "tr")]
    assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(node_path) in err and "['epss']" in err


def test_replay_provider_without_transcripts_sends_nothing(
    tmp_path, monkeypatch, capsys
):
    sent = []

    def send(self, request):
        sent.append(request)
        raise BackendUnreachable("stubbed: no request may leave the test")

    monkeypatch.setattr(HttpChatBackend, "send", send)
    argv = ["run", "--target", TARGET, "--scope", TARGET, "--output", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert sent == []
    assert "--replay" in capsys.readouterr().err


def test_empty_manifest_dir_is_config_error(tmp_path):
    rc = cli.main(["bench", "--manifests", str(tmp_path), "--output", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# The --config file and the flag oracle
# ---------------------------------------------------------------------------

SCOPE = "127.0.0.0/8"


# a value other than the default for each field a flag sets
NON_DEFAULT = {
    "target": "127.0.0.9",
    "provider": "gpt-4o",
    "provider_config": "providers.json",
    "replay_dir": "transcripts",
    "record_dir": "recorded",
    "output_dir": "out",
    "knowledge_dir": "kb",
    "application": "DemoSrv",
    "version": "1.2.3",
    "max_iterations": 7,
    "max_steps": 9,
    "max_repairs": 0,
}


def capture_runs(monkeypatch):
    """Swap the CLI's runner for one that records the config and connectors
    it is built with and then stops the command as a stage error."""
    seen = []

    def capturing_runner(config, connectors=()):
        seen.append((config, list(connectors)))
        raise StageIncomplete("captured")

    monkeypatch.setattr(cli, "PipelineRunner", capturing_runner)
    return seen


def run_with_config(tmp_path, monkeypatch, doc, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    seen = capture_runs(monkeypatch)
    rc = cli.main(["run", "--config", str(path), *flags])
    return rc, seen


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"force_stages": "false"}, "force_stages"),
        ({"force_stages": 0}, "force_stages"),
        ({"max_steps": "abc"}, "max_steps"),
        ({"max_steps": "5"}, "max_steps"),
        ({"max_steps": True}, "max_steps"),
        ({"max_steps": 5.0}, "max_steps"),
        ({"scope": TARGET}, "scope"),
        ({"scope": [TARGET, 1]}, "scope"),
        ({"provider": None}, "provider"),
        ({"max_step": 5}, "max_step"),
    ],
    ids=[
        "bool-as-string", "bool-as-int", "int-as-word", "int-as-string",
        "int-as-bool", "int-as-float", "scope-as-string", "scope-with-number",
        "str-as-null", "typo",
    ],
)
def test_config_file_refuses_bad_keys(tmp_path, monkeypatch, capsys, doc, key):
    rc, seen = run_with_config(
        tmp_path, monkeypatch, {"target": TARGET, "scope": [TARGET], **doc}
    )
    assert rc == cli.EXIT_CONFIG
    assert seen == []
    err = capsys.readouterr().err
    assert "configuration error: " in err and repr(key) in err
    assert "Traceback" not in err


def test_config_file_sets_every_field(tmp_path, monkeypatch):
    doc = {
        **NON_DEFAULT,
        "scope": [SCOPE, "10.0.0.0/8"],
        "knowledge_mode": KNOWLEDGE_ONLINE,
        "force_stages": True,
    }
    assert set(doc) == {f.name for f in dataclasses.fields(RunConfig)}
    rc, seen = run_with_config(tmp_path, monkeypatch, doc)
    assert rc == cli.EXIT_STAGE
    [(config, _)] = seen
    assert config.to_dict() == doc


def test_config_file_defaults_are_runconfigs(tmp_path, monkeypatch):
    doc = {"target": TARGET, "scope": [TARGET]}
    rc, seen = run_with_config(tmp_path, monkeypatch, doc)
    assert rc == cli.EXIT_STAGE
    assert seen[0][0] == RunConfig(target=TARGET, scope=(TARGET,))


def option_flags():
    """(subcommand, flag) of every option of every subparser; an option's
    flag is its first option string."""
    parser = cli.build_parser()
    [subparsers] = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                yield name, action.option_strings[0]


# flags that are not one RunConfig field each; each has its own test below
OTHER_FLAGS = {
    "--scope", "--offline", "--online", "--force", "--config", "--search-fixtures",
    "-v", "--manifests", "--replay-root", "--run-dir", "--format",
}

def test_every_flag_has_a_row():
    flags = {flag for _, flag in option_flags()}
    assert not set(cli.FLAG_FIELDS) & OTHER_FLAGS
    assert flags == set(cli.FLAG_FIELDS) | OTHER_FLAGS
    assert set(NON_DEFAULT) == set(cli.FLAG_FIELDS.values())
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    for field, value in NON_DEFAULT.items():
        assert value != defaults[field], field


def base_flags(*leave_out: str) -> list[str]:
    given = {"--target": TARGET, "--scope": SCOPE}
    return [
        part
        for flag, value in given.items()
        if flag not in leave_out
        for part in (flag, value)
    ]


@pytest.mark.parametrize(
    "subcommand, flag",
    [(name, flag) for name, flag in option_flags() if flag in cli.FLAG_FIELDS],
)
def test_flag_sets_its_field(subcommand, flag):
    field = cli.FLAG_FIELDS[flag]
    value = NON_DEFAULT[field]
    argv = [subcommand, *base_flags(flag), flag, str(value)]
    if subcommand == "bench":
        # the base config that bench derives each target's config from
        argv += ["--manifests", "m"]
    config = cli._build_config(cli.build_parser().parse_args(argv))
    assert getattr(config, field) == value


@pytest.mark.parametrize("flag", sorted(cli.FLAG_FIELDS))
def test_config_key_sets_the_field_its_flag_sets(tmp_path, flag):
    field = cli.FLAG_FIELDS[flag]
    value = NON_DEFAULT[field]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: value}), encoding="utf-8")
    parse = cli.build_parser().parse_args
    base = ["run", *base_flags(flag)]
    from_key = cli._build_config(parse([*base, "--config", str(path)]))
    from_flag = cli._build_config(parse([*base, flag, str(value)]))
    assert getattr(from_key, field) == getattr(from_flag, field) == value


def test_scope_flag_splits_and_repeats(monkeypatch):
    seen = capture_runs(monkeypatch)
    argv = ["run", "--target", TARGET, "--scope", f"{TARGET}, 10.0.0.0/8,"]
    assert cli.main(argv) == cli.EXIT_STAGE
    argv += ["--scope", "h"]
    assert cli.main(argv) == cli.EXIT_STAGE
    assert [config.scope for config, _ in seen] == [
        (TARGET, "10.0.0.0/8"),
        (TARGET, "10.0.0.0/8", "h"),
    ]


def test_offline_and_online_flags_set_the_knowledge_mode(tmp_path, monkeypatch):
    for flag, mode, other in (
        ("--offline", KNOWLEDGE_OFFLINE, KNOWLEDGE_ONLINE),
        ("--online", KNOWLEDGE_ONLINE, KNOWLEDGE_OFFLINE),
    ):
        doc = {"target": TARGET, "scope": [TARGET], "knowledge_mode": other}
        rc, seen = run_with_config(tmp_path, monkeypatch, doc, flag)
        assert rc == cli.EXIT_STAGE
        assert seen[0][0].knowledge_mode == mode


def test_force_flag_sets_force_stages(monkeypatch):
    seen = capture_runs(monkeypatch)
    assert cli.main(["run", *base_flags()]) == cli.EXIT_STAGE
    assert cli.main(["run", *base_flags(), "--force"]) == cli.EXIT_STAGE
    assert [config.force_stages for config, _ in seen] == [False, True]


def test_config_flag_reads_the_file(tmp_path, monkeypatch):
    rc, seen = run_with_config(
        tmp_path, monkeypatch, {"target": TARGET, "scope": [TARGET], "max_steps": 3}
    )
    assert rc == cli.EXIT_STAGE
    assert seen[0][0].max_steps == 3
    # a flag wins over the key it mirrors
    argv = ["run", "--config", str(tmp_path / "config.json"), "--max-steps", "4"]
    assert cli.main(argv) == cli.EXIT_STAGE
    assert seen[1][0].max_steps == 4
    assert cli.main(["run", "--config", str(tmp_path / "none.json")]) == cli.EXIT_CONFIG


def test_search_fixtures_flag_builds_fixture_connectors(tmp_path, monkeypatch):
    seen = capture_runs(monkeypatch)
    assert cli.main(["run", *base_flags()]) == cli.EXIT_STAGE
    argv = ["run", *base_flags(), "--search-fixtures", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_STAGE
    assert seen[0][1] == []
    connectors = seen[1][1]
    assert all(isinstance(c, FixtureConnector) for c in connectors)
    assert [c.kind for c in connectors] == list(ConnectorKind)
    assert {c.directory for c in connectors} == {tmp_path}


def test_verbose_flag_logs_debug(monkeypatch):
    levels = []
    monkeypatch.setattr(
        cli.logging, "basicConfig", lambda **kwargs: levels.append(kwargs["level"])
    )
    capture_runs(monkeypatch)
    cli.main(["run", *base_flags()])
    cli.main(["run", *base_flags(), "-v"])
    cli.main(["report", "--run-dir", "missing", "--verbose"])
    assert levels == [logging.WARNING, logging.DEBUG, logging.DEBUG]


def test_manifests_and_replay_root_flags_set_each_target(tmp_path, monkeypatch):
    manifest_dir = tmp_path / "manifests"
    manifest_dir.mkdir()
    (manifest_dir / "alpha.json").write_text(
        json.dumps(
            {
                "name": "alpha",
                "application": "DemoSrv",
                "version": "1.2.3",
                "target_address": "127.0.0.7",
                "cves": {"CVE-2024-0001": {"epss": 50.0, "exploitability": 3.9}},
            }
        ),
        encoding="utf-8",
    )
    seen = capture_runs(monkeypatch)
    argv = [
        "bench", "--manifests", str(manifest_dir), "--output", str(tmp_path / "o"),
        "--replay-root", str(tmp_path / "replays"),
    ]
    assert cli.main(argv) == cli.EXIT_OK
    [(config, _)] = seen
    assert (config.application, config.version, config.target) == (
        "DemoSrv", "1.2.3", "127.0.0.7"
    )
    assert config.replay_dir == str(tmp_path / "replays" / "alpha")


def test_run_dir_and_format_flags_choose_the_report(tmp_path, capsys):
    config = RunConfig(target=TARGET, scope=(TARGET,))
    save_record(RunRecord(run_id="r1", config=config), tmp_path / "record.json")
    assert cli.main(["report", "--run-dir", str(tmp_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == TARGET
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("#")
    assert cli.main(["report", "--run-dir", str(tmp_path / "other")]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# End-to-end subcommands over replayed transcripts
# ---------------------------------------------------------------------------


def test_run_replay_end_to_end(tmp_path, recorded_transcripts, capsys):
    transcripts, kb_dir = recorded_transcripts
    out_dir = tmp_path / "runs-replay"
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
            "DemoSrv",
            "--output",
            str(out_dir),
        ]
    )
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert "report at" in captured.out

    run_dirs = [p for p in out_dir.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    record = load_record(run_dirs[0] / "record.json")
    for stage in STAGES:
        assert record.stage_status(stage) == STATUS_COMPLETE, stage
    assert record.success_index == 0
    report = (run_dirs[0] / "report.md").read_text(encoding="utf-8")
    assert TOKEN in report


def test_recon_subcommand_replay(tmp_path, recorded_transcripts, capsys):
    transcripts, kb_dir = recorded_transcripts
    rc = cli.main(
        [
            "recon",
            "--target",
            TARGET,
            "--scope",
            TARGET,
            "--replay",
            str(transcripts),
            "--knowledge",
            str(kb_dir),
            "--application",
            "DemoSrv",
            "--output",
            str(tmp_path / "runs-recon"),
        ]
    )
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert "intelligence_gathering complete" in captured.out


def test_report_subcommand_round_trip(tmp_path, recorded_transcripts, capsys):
    transcripts, kb_dir = recorded_transcripts
    out_dir = tmp_path / "runs-replay"
    assert (
        cli.main(
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
                "DemoSrv",
                "--output",
                str(out_dir),
            ]
        )
        == cli.EXIT_OK
    )
    capsys.readouterr()
    run_dir = next(p for p in out_dir.iterdir() if p.is_dir())
    rc = cli.main(["report", "--run-dir", str(run_dir), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    doc = json.loads(captured.out)
    assert doc["success_index"] == 0
    assert doc["target"] == TARGET
    assert captured.out == (run_dir / "report.json").read_text(encoding="utf-8")


def test_report_subcommand_rewrites_identical_bytes(tmp_path, recorded_transcripts):
    """Re-rendering a finished run's record reproduces its report files."""
    transcripts, kb_dir = recorded_transcripts
    out_dir = tmp_path / "runs-replay"
    argv = ["run", "--target", TARGET, "--scope", TARGET, "--replay", str(transcripts)]
    argv += ["--knowledge", str(kb_dir), "--application", "DemoSrv"]
    assert cli.main(argv + ["--output", str(out_dir)]) == cli.EXIT_OK
    run_dir = next(p for p in out_dir.iterdir() if p.is_dir())
    names = ("report.md", "report.json")
    written = {name: (run_dir / name).read_bytes() for name in names}
    for name in names:
        (run_dir / name).unlink()
    rc = cli.main(["report", "--run-dir", str(run_dir)])
    assert rc == cli.EXIT_OK
    assert {name: (run_dir / name).read_bytes() for name in names} == written
    assert TOKEN in written["report.md"].decode("utf-8")


def test_bench_subcommand_smoke(tmp_path, recorded_transcripts, capsys):
    transcripts, _kb_dir = recorded_transcripts
    manifest_dir = tmp_path / "manifests"
    manifest_dir.mkdir()
    (manifest_dir / "alpha.json").write_text(
        json.dumps(
            {
                "name": "alpha",
                "application": "DemoSrv",
                "version": "1.2.3",
                "target_address": TARGET,
                "cves": {"CVE-2024-0001": {"epss": 97.19, "exploitability": 3.9}},
            }
        ),
        encoding="utf-8",
    )
    replay_root = tmp_path / "replays"
    replay_root.mkdir()
    (replay_root / "alpha").symlink_to(transcripts)

    out_dir = tmp_path / "bench-out"
    rc = cli.main(
        [
            "bench",
            "--manifests",
            str(manifest_dir),
            "--replay-root",
            str(replay_root),
            "--output",
            str(out_dir),
        ]
    )
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert "benchmarked 1 target(s), 0 excluded" in captured.out
    assert (out_dir / "results.csv").is_file()
    doc = json.loads((out_dir / "aggregates.json").read_text(encoding="utf-8"))
    aggregates = doc["aggregates"]
    assert aggregates["targets"] == 1
    # no seeded knowledge for the bench run: the plan stays empty, so the
    # target is counted as a non-success rather than excluded or crashed
    assert aggregates["overall_success_rate"] == 0.0
    assert aggregates["per_difficulty"]["easy"] == {"targets": 1, "success_rate": 0.0}


def test_bench_applies_run_flags_without_target(tmp_path, monkeypatch):
    manifest_dir = tmp_path / "manifests"
    manifest_dir.mkdir()
    for name in ("alpha", "beta"):
        (manifest_dir / f"{name}.json").write_text(
            json.dumps(
                {
                    "name": name,
                    "application": "DemoSrv",
                    "version": "1.2.3",
                    "target_address": TARGET,
                    "cves": {"CVE-2024-0001": {"epss": 50.0, "exploitability": 3.9}},
                }
            ),
            encoding="utf-8",
        )
    configs = []

    class CapturingRunner:
        def __init__(self, config, connectors=()):
            configs.append(config)

        def run_all(self):
            raise RuntimeError("the config is all this test needs")

    monkeypatch.setattr(cli, "PipelineRunner", CapturingRunner)
    record = tmp_path / "rec"
    rc = cli.main(
        [
            "bench",
            "--manifests",
            str(manifest_dir),
            "--output",
            str(tmp_path / "out"),
            "--max-steps",
            "3",
            "--max-iterations",
            "4",
            "--max-repairs",
            "1",
            "--record",
            str(record),
            "--force",
        ]
    )
    assert rc == cli.EXIT_OK
    assert [c.application for c in configs] == ["DemoSrv", "DemoSrv"]
    for config, name in zip(configs, ("alpha", "beta")):
        assert (config.max_steps, config.max_iterations, config.max_repairs) == (3, 4, 1)
        assert config.force_stages is True
        assert config.record_dir == str(record / name)
        assert config.target == TARGET
        assert config.output_dir == str(tmp_path / "out" / "runs" / name)


def test_bench_takes_output_dir_from_the_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest_dir = tmp_path / "manifests"
    manifest_dir.mkdir()
    (manifest_dir / "alpha.json").write_text(
        json.dumps(
            {
                "name": "alpha",
                "application": "DemoSrv",
                "version": "1.2.3",
                "target_address": TARGET,
                "cves": {"CVE-2024-0001": {"epss": 50.0, "exploitability": 3.9}},
            }
        ),
        encoding="utf-8",
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"output_dir": "mine"}), encoding="utf-8")
    seen = capture_runs(monkeypatch)
    argv = ["bench", "--manifests", str(manifest_dir), "--config", str(config_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert [config.output_dir for config, _ in seen] == [str(Path("mine", "runs", "alpha"))]
    assert (tmp_path / "mine" / "results.csv").is_file()
    assert not (tmp_path / "bench-out").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--application", "Other"], "'application' field"),
        (["--app-version", "9.9"], "'version' field"),
        (["--replay", "one", "--replay-root", "many"], "--replay-root"),
    ],
)
def test_bench_refuses_flags_the_manifests_replace(
    tmp_path, monkeypatch, capsys, flags, named
):
    manifest_dir = tmp_path / "manifests"
    manifest_dir.mkdir()
    (manifest_dir / "alpha.json").write_text(
        json.dumps(
            {
                "name": "alpha",
                "application": "DemoSrv",
                "version": "1.2.3",
                "target_address": TARGET,
                "cves": {"CVE-2024-0001": {"epss": 50.0, "exploitability": 3.9}},
            }
        ),
        encoding="utf-8",
    )

    def no_runner(*args, **kwargs):
        raise AssertionError("a refused bench must run no target")

    monkeypatch.setattr(cli, "PipelineRunner", no_runner)
    argv = ["bench", "--manifests", str(manifest_dir), "--output", str(tmp_path / "o")]
    assert cli.main(argv + flags) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, flags, named",
    [
        ({"application": "Other"}, [], "'application' key"),
        ({"version": "9.9"}, [], "'version' key"),
        ({"replay_dir": "one"}, ["--replay-root", "many"], "'replay_dir' key"),
    ],
    ids=["application", "version", "replay_dir"],
)
def test_bench_refuses_config_keys_the_manifests_replace(
    tmp_path, monkeypatch, capsys, config, flags, named
):
    manifest_dir = tmp_path / "manifests"
    manifest_dir.mkdir()
    (manifest_dir / "alpha.json").write_text(
        json.dumps(
            {
                "name": "alpha",
                "application": "DemoSrv",
                "version": "1.2.3",
                "target_address": TARGET,
                "cves": {"CVE-2024-0001": {"epss": 50.0, "exploitability": 3.9}},
            }
        ),
        encoding="utf-8",
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    def no_runner(*args, **kwargs):
        raise AssertionError("a refused bench must run no target")

    monkeypatch.setattr(cli, "PipelineRunner", no_runner)
    argv = [
        "bench", "--manifests", str(manifest_dir), "--output", str(tmp_path / "o"),
        "--config", str(config_path),
    ]
    assert cli.main(argv + flags) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def write_acquire_inputs(tmp_path):
    """Search fixtures, and replay transcripts for acquiring TestApp 1.0 by
    either command (recon and planning included); returns both dirs."""
    fixtures = tmp_path / "fixtures"
    write_fixture(
        fixtures,
        ROUND1_QUERY,
        [
            {"uri": "https://adv.org/1", "title": "advisory", "body": "rce"},
            {"uri": "https://nvd.example/46604", "title": "CVE-2023-46604", "body": ""},
        ],
    )
    write_fixture(
        fixtures,
        CVE_QUERY,
        [{"uri": "https://github.com/x/poc", "title": "x/poc", "body": "exploit code"}],
    )
    candidate = {
        "cve_id": "CVE-2023-46604",
        "vuln_type": "deserialization-rce",
        "affected_versions": "<=5.17.3",
        "leads": [],
        "source_uri": "https://adv.org/1",
        "summary": "rce",
    }
    fingerprint = {"port": 8080, "protocol": "tcp", "service": "http",
                   "product": "TestApp", "version": "1.0", "evidence": "TestApp/1.0"}
    replies = {
        "recon": [json.dumps({"thought": "t", "command": "", "done": True})],
        "recon-summary": [
            json.dumps({"os_guess": "", "fingerprints": [fingerprint], "notes": ""})
        ],
        "search-surfaces-testapp": [
            surface_doc_reply(),
            surface_doc_reply(),
            consolidation_reply([candidate]),
        ],
        "search-exploits-0-testapp": [exploit_doc_reply()],
        "plan-surfaces": [json.dumps({"suggestions": []})],
    }
    replay = tmp_path / "replay"
    for name, texts in replies.items():
        write_transcript(
            [TranscriptEntry(i, "", text, 100, 10) for i, text in enumerate(texts)],
            replay / f"{name}.jsonl",
        )
    return fixtures, replay


def acquire_argv(command, tmp_path, record_dir, out_dir, *extra):
    fixtures, replay = tmp_path / "fixtures", tmp_path / "replay"
    return [
        command, "--target", TARGET, "--scope", TARGET,
        "--application", "TestApp", "--app-version", "1.0",
        "--search-fixtures", str(fixtures), "--replay", str(replay),
        "--record", str(record_dir), "--knowledge", str(tmp_path / "kb"),
        "--output", str(out_dir), *extra,
    ]


def test_acquire_record_writes_record_and_transcripts(tmp_path, capsys):
    write_acquire_inputs(tmp_path)
    record_dir = tmp_path / "recorded"
    out_dir = tmp_path / "runs"
    rc = cli.main(acquire_argv("acquire", tmp_path, record_dir, out_dir))
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert "acquired 2 knowledge node(s) for TestApp" in captured.out
    assert sorted(p.name for p in record_dir.iterdir()) == [
        "search-exploits-0-testapp.jsonl",
        "search-surfaces-testapp.jsonl",
    ]
    (run_dir,) = [p for p in out_dir.iterdir() if p.is_dir()]
    record = load_record(run_dir / "record.json")
    assert record.ledger["call_count"] == 4
    assert record.ledger["input_tokens"] == 400


def test_acquire_and_plan_record_the_same_search_transcripts(tmp_path, capsys):
    """Acquisition has one path: the search sessions that acquire (given the
    product, or taking it from recon) and an online plan record for the same
    product replay under either command."""
    write_acquire_inputs(tmp_path)
    by_acquire = tmp_path / "acquire-recorded"
    by_plan = tmp_path / "plan-recorded"
    assert cli.main(
        acquire_argv("acquire", tmp_path, by_acquire, tmp_path / "runs-a")
    ) == cli.EXIT_OK
    for command in ("recon", "plan"):
        argv = acquire_argv(command, tmp_path, by_plan, tmp_path / "runs-p", "--online")
        assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    # without --application, acquire takes every product recon found
    capsys.readouterr()
    by_summary = tmp_path / "summary-recorded"
    for command in ("recon", "acquire"):
        argv = acquire_argv(command, tmp_path, by_summary, tmp_path / "runs-s")
        del argv[5:9]  # --application TestApp --app-version 1.0
        assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    assert capsys.readouterr().out.endswith("knowledge node(s) for TestApp\n")

    def search_digests(record_dir):
        return {
            path.name: [entry.request_digest for entry in read_transcript(path)]
            for path in sorted(record_dir.glob("search-*.jsonl"))
        }

    acquired = search_digests(by_acquire)
    assert sorted(acquired) == [
        "search-exploits-0-testapp.jsonl",
        "search-surfaces-testapp.jsonl",
    ]
    assert search_digests(by_plan) == acquired
    assert search_digests(by_summary) == acquired
