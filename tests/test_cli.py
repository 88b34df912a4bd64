"""CLI tests: exit-code mapping and replayed end-to-end runs."""

import json

import pytest

from pentestflow import cli
from pentestflow.gateway import (
    ScriptedBackend,
    TranscriptEntry,
    read_transcript,
    write_transcript,
)
from pentestflow.knowledge import ExploitNode, KnowledgeTree, VulnerabilityNode
from pentestflow.pipeline import (
    STAGES,
    STATUS_COMPLETE,
    PipelineRunner,
    ReplayClock,
    RunConfig,
    load_record,
)

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


def test_plan_before_recon_is_stage_error(tmp_path, capsys):
    rc = cli.main(
        [
            "plan",
            "--target",
            TARGET,
            "--scope",
            TARGET,
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
            "--output",
            str(tmp_path / "runs"),
        ]
    )
    assert rc == cli.EXIT_STAGE


def test_report_without_record_is_config_error(tmp_path):
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_CONFIG


def test_corrupt_record_is_internal_error(tmp_path, capsys):
    (tmp_path / "record.json").write_text("{not json", encoding="utf-8")
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_empty_manifest_dir_is_config_error(tmp_path):
    rc = cli.main(["bench", "--manifests", str(tmp_path), "--output", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


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
