"""Recon agent tests: stop reasons, bounded termination under arbitrary
model behavior, environment summarization, and the identification criterion."""

import json
import random

import pytest

from pentestflow.gateway import ChatSession, ScriptedBackend
from pentestflow.pipeline import RunConfig, RunRecord, load_record, save_record
from pentestflow.rag import RagStore
from pentestflow.recon import (
    EnvironmentSummary,
    ReconState,
    ServiceFingerprint,
    StopReason,
    env_corpus_id,
    index_environment,
    is_target_identified,
    recon_step,
    run_recon,
    summarize_environment,
    target_key,
)
from pentestflow.sandbox import ExecutionResult, ScopeViolation

from conftest import WIDE_PROFILE

TARGET = "127.0.0.1"
SCOPE = ("127.0.0.1",)


class StubExecutor:
    """In-memory executor: no processes, scriptable results."""

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
        return ExecutionResult(0, f"output of {spec.command_line}", "", 0.01, False, False)


def step_reply(command, done=False, thought="t"):
    return json.dumps({"thought": thought, "command": command, "done": done})


def make_state(**kwargs):
    defaults = dict(target=TARGET, scope=SCOPE)
    defaults.update(kwargs)
    return ReconState(**defaults)


def make_session(responses):
    return ChatSession("recon", "sys", WIDE_PROFILE, ScriptedBackend(responses=responses))


# ---------------------------------------------------------------------------
# Stop reasons
# ---------------------------------------------------------------------------


def test_immediate_done():
    state = make_state()
    executor = StubExecutor()
    run_recon(state, make_session([step_reply("", done=True)]), executor)
    assert state.stop_reason == StopReason.AGENT_DECLARED_DONE
    assert executor.commands == []
    assert state.command_history == []


def test_repeated_command_stops_before_second_execution():
    state = make_state()
    executor = StubExecutor()
    session = make_session(
        [step_reply("nmap -sV 127.0.0.1"), step_reply("nmap -sV 127.0.0.1")]
    )
    run_recon(state, session, executor)
    assert state.stop_reason == StopReason.REPEATED_COMMAND
    assert executor.commands == ["nmap -sV 127.0.0.1"]
    assert len(state.command_history) == 1


def test_nonconsecutive_repeat_also_stops():
    state = make_state()
    executor = StubExecutor()
    session = make_session(
        [step_reply("cmd a"), step_reply("cmd b"), step_reply("cmd a")]
    )
    run_recon(state, session, executor)
    assert state.stop_reason == StopReason.REPEATED_COMMAND
    assert executor.commands == ["cmd a", "cmd b"]


def test_max_iterations_with_distinct_commands():
    state = make_state(max_iterations=5)
    executor = StubExecutor()
    session = make_session([step_reply(f"cmd {i}") for i in range(10)])
    run_recon(state, session, executor)
    assert state.stop_reason == StopReason.MAX_ITERATIONS
    assert state.iteration == 5
    assert len(executor.commands) == 5


def test_ceiling_of_zero_runs_no_turn():
    # both loops agree: a ceiling of 0 asks the model nothing and runs nothing
    state = make_state(max_iterations=0)
    session = make_session([])  # would fail the loop if consulted
    executor = StubExecutor()
    run_recon(state, session, executor)
    assert state.stop_reason == StopReason.MAX_ITERATIONS
    assert state.iteration == 0
    assert session.backend.calls == 0
    assert executor.commands == []


def test_gateway_failure_is_fatal():
    state = make_state()
    # zero scripted responses: the first completion raises BackendUnreachable
    session = make_session([])
    run_recon(state, session, StubExecutor())
    assert state.stop_reason == StopReason.FATAL_ERROR
    assert state.iteration == 0


def test_invalid_json_consumes_iterations():
    state = make_state(max_iterations=2)
    # every reply is garbage; each step burns 1 + 2 repairs = 3 calls
    session = ChatSession(
        "recon", "sys", WIDE_PROFILE, ScriptedBackend(responder=lambda r: "not json")
    )
    run_recon(state, session, StubExecutor())
    assert state.stop_reason == StopReason.MAX_ITERATIONS
    assert state.iteration == 2
    assert state.command_history == []


def test_empty_command_consumes_iteration():
    state = make_state(max_iterations=2)
    executor = StubExecutor()
    session = make_session([step_reply(""), step_reply("real cmd")])
    run_recon(state, session, executor)
    assert executor.commands == ["real cmd"]
    assert state.stop_reason == StopReason.MAX_ITERATIONS


def test_sandbox_rejection_becomes_observation():
    state = make_state(max_iterations=3)
    executor = StubExecutor(
        behavior=lambda spec: ScopeViolation(["203.0.113.9"])
        if "203.0.113.9" in spec.command_line
        else ExecutionResult(0, "ok", "", 0.0, False, False)
    )
    session = make_session(
        [step_reply("curl 203.0.113.9"), step_reply("", done=True)]
    )
    run_recon(state, session, executor)
    assert state.stop_reason == StopReason.AGENT_DECLARED_DONE
    command, result = state.command_history[0]
    assert command == "curl 203.0.113.9"
    assert result.exit_code == 126
    assert "rejected" in result.stderr


def test_step_noop_after_done():
    state = make_state()
    state.stop(StopReason.AGENT_DECLARED_DONE)
    session = make_session([])  # would raise if consulted
    recon_step(state, session, StubExecutor())
    assert state.iteration == 0


# ---------------------------------------------------------------------------
# Termination property: 1000 randomized transcripts
# ---------------------------------------------------------------------------


def test_termination_fuzz_1000_transcripts():
    rng = random.Random(0xFADE)
    commands_pool = ["nmap -sV t", "curl t", "nc t 80", "whois t", "dig t"]
    violations = 0
    for trial in range(1000):
        max_iterations = rng.randrange(1, 8)
        state = make_state(max_iterations=max_iterations)

        def responder(request, rng=rng):
            roll = rng.random()
            if roll < 0.15:
                return "no json at all"
            if roll < 0.25:
                return '{"wrong_fields": 1}'
            if roll < 0.35:
                return step_reply("", done=False)
            if roll < 0.45:
                return step_reply(rng.choice(commands_pool), done=True)
            return step_reply(rng.choice(commands_pool), done=False)

        def behavior(spec, rng=rng):
            roll = rng.random()
            if roll < 0.1:
                return ScopeViolation(["198.51.100.77"])
            if roll < 0.2:
                return ExecutionResult(124, "", "timed out", 1.0, False, True)
            return ExecutionResult(
                rng.randrange(0, 3), "some output", "", 0.01, False, False
            )

        session = ChatSession(
            "fuzz", "sys", WIDE_PROFILE, ScriptedBackend(responder=responder)
        )
        run_recon(state, session, StubExecutor(behavior=behavior))
        if not (state.done and state.stop_reason is not None):
            violations += 1
        if state.iteration > max_iterations:
            violations += 1
        if len(state.command_history) > max_iterations:
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# Environment summary
# ---------------------------------------------------------------------------


def summary_reply(fingerprints, os_guess="linux", notes="n"):
    return json.dumps(
        {"os_guess": os_guess, "fingerprints": fingerprints, "notes": notes}
    )


def finished_state(history=None):
    state = make_state()
    for command in history or []:
        state.command_history.append(
            (command, ExecutionResult(0, f"out {command}", "", 0.01, False, False))
        )
    state.stop(StopReason.AGENT_DECLARED_DONE)
    return state


def test_summary_happy_path(tmp_path):
    rag = RagStore(tmp_path / "rag")
    state = finished_state(["nmap -sV 127.0.0.1"])
    session = make_session(
        [
            summary_reply(
                [
                    {
                        "port": "8161",
                        "protocol": "tcp",
                        "service": "http",
                        "product": "ActiveMQ",
                        "version": "5.17.3",
                        "evidence": "8161/tcp open http ActiveMQ 5.17.3",
                    }
                ]
            )
        ]
    )
    summary = summarize_environment(
        state, session, rag, collected_at="2024-01-01T00:00:00Z"
    )
    assert summary.os_guess == "linux"
    assert len(summary.fingerprints) == 1
    fp = summary.fingerprints[0]
    assert (fp.port, fp.product, fp.version) == (8161, "ActiveMQ", "5.17.3")
    assert fp.host == TARGET

    # indexed: the env corpus is retrievable
    hits = rag.retrieve(env_corpus_id(TARGET), "ActiveMQ product version", k=2)
    assert any("ActiveMQ" in h.chunk.text for h in hits)


def test_summary_unfinished_state_rejected():
    with pytest.raises(ValueError):
        summarize_environment(make_state(), make_session([]))


def test_summary_empty_history():
    state = finished_state([])
    seen = []

    def responder(request):
        seen.append(request.prompt)
        return summary_reply([])

    session = ChatSession("s", "sys", WIDE_PROFILE, ScriptedBackend(responder=responder))
    summary = summarize_environment(state, session)
    assert summary.fingerprints == ()
    assert "(no commands were run)" in seen[0]


def test_summary_drops_malformed_fingerprints():
    state = finished_state(["x"])
    session = make_session(
        [
            summary_reply(
                [
                    {"port": "not-a-number", "product": "X"},
                    "just a string",
                    {"port": 70000, "product": "X"},
                    {"port": 80, "product": "nginx", "version": "1.2"},
                    {"port": 81, "product": "", "version": "9.9"},
                ]
            )
        ]
    )
    summary = summarize_environment(state, session)
    assert [fp.port for fp in summary.fingerprints] == [80, 81]
    # version claim without a product is discarded, entry kept
    assert summary.fingerprints[1].version == ""
    assert "dropped malformed fingerprint" in summary.notes


def test_summary_flags_port_conflicts():
    state = finished_state(["x"])
    session = make_session(
        [
            summary_reply(
                [
                    {"port": 80, "product": "nginx", "version": "1.2"},
                    {"port": 80, "product": "apache", "version": "2.4"},
                    {"port": 443, "product": "nginx", "version": "1.2"},
                ]
            )
        ]
    )
    summary = summarize_environment(state, session)
    assert len(summary.fingerprints) == 3
    assert "conflicting fingerprints" in summary.notes
    assert "80" in summary.notes


def test_summary_survives_unusable_model_output():
    state = finished_state(["x"])
    session = ChatSession(
        "s", "sys", WIDE_PROFILE, ScriptedBackend(responder=lambda r: "garbage")
    )
    summary = summarize_environment(state, session)
    assert summary.fingerprints == ()
    assert "unusable" in summary.notes


# ---------------------------------------------------------------------------
# Store and identification criterion
# ---------------------------------------------------------------------------


def test_target_key_stable_and_distinct():
    assert target_key("10.0.0.5") == target_key("10.0.0.5")
    assert target_key("10.0.0.5") != target_key("10.0.0.6")
    assert len(target_key("x")) == 16


def test_store_round_trip(tmp_path):
    # the run record is the summary's one store
    summary = EnvironmentSummary(
        target="10.0.0.5",
        os_guess="linux",
        fingerprints=(
            ServiceFingerprint("10.0.0.5", 22, "tcp", "ssh", "OpenSSH", "8.9"),
        ),
        notes="",
        collected_at="2024-06-01T00:00:00Z",
    )
    config = RunConfig(target="10.0.0.5", scope=("10.0.0.0/24",))
    save_record(RunRecord("r", config, summary=summary), tmp_path / "record.json")
    assert load_record(tmp_path / "record.json").summary == summary
    save_record(RunRecord("r", config), tmp_path / "empty.json")
    assert load_record(tmp_path / "empty.json").summary is None


def test_is_target_identified():
    def summary_with(products):
        return EnvironmentSummary(
            target="t",
            os_guess="",
            fingerprints=tuple(
                ServiceFingerprint("t", 80 + i, "tcp", "http", product)
                for i, product in enumerate(products)
            ),
            notes="",
            collected_at="",
        )

    assert is_target_identified(summary_with(["ActiveMQ"]), "activemq")
    assert is_target_identified(summary_with(["nginx", "ActiveMQ"]), "ACTIVEMQ")
    assert not is_target_identified(summary_with(["nginx"]), "activemq")
    assert not is_target_identified(summary_with([]), "activemq")
    # without an expected application, any identified product counts
    assert is_target_identified(summary_with(["anything"]))
    assert not is_target_identified(summary_with([""]))


def test_fingerprint_validation():
    with pytest.raises(ValueError):
        ServiceFingerprint("h", 0, "tcp", "s", "p")
    with pytest.raises(ValueError):
        ServiceFingerprint("h", 65536, "tcp", "s", "p")
    with pytest.raises(ValueError):
        ServiceFingerprint("h", 80, "tcp", "s", "", version="1.0")


def test_index_environment_replaces_env_corpus(tmp_path):
    # re-summarising a target must not leave the old fingerprints retrievable
    def summary_of(product, version, port):
        return EnvironmentSummary(
            target=TARGET,
            os_guess="linux",
            fingerprints=(
                ServiceFingerprint(TARGET, port, "tcp", "http", product, version),
            ),
            notes="",
            collected_at="2024-01-01T00:00:00Z",
        )

    rag = RagStore(tmp_path / "rag")
    first = summary_of("Stalesrv", "0.9", 8080)
    second = summary_of("Freshsrv", "2.1", 8443)
    corpus_id = index_environment(rag, first)
    assert index_environment(rag, second) == corpus_id

    fresh = RagStore(tmp_path / "only-second")
    assert index_environment(fresh, second) == corpus_id
    for query in ("Stalesrv 0.9 port 8080", "Freshsrv 2.1 port 8443", "linux"):
        hits = rag.retrieve(corpus_id, query, k=50)
        assert [(h.chunk, h.score) for h in hits] == [
            (h.chunk, h.score) for h in fresh.retrieve(corpus_id, query, k=50)
        ]
        assert sorted(h.chunk.doc_id for h in hits) == ["fingerprint-0", "summary"]
        assert not any("Stalesrv" in h.chunk.text for h in hits)
        assert any("Freshsrv" in h.chunk.text for h in hits)
    assert not (tmp_path / "rag").exists()


class CountingRag(RagStore):
    def __init__(self, root):
        super().__init__(root)
        self.retrieves = 0

    def retrieve(self, corpus_id, query, k=5):
        self.retrieves += 1
        return super().retrieve(corpus_id, query, k)


def test_tool_hints_are_retrieved_once_per_loop(tmp_path):
    rag = CountingRag(tmp_path / "rag")
    rag.index("tooldocs", [("nmap", "nmap -sV fingerprint reconnaissance", "u")])
    seen = []

    def responder(request):
        seen.append(request.prompt)
        return step_reply(f"probe {len(seen)}")

    session = ChatSession("recon", "sys", WIDE_PROFILE, ScriptedBackend(responder=responder))
    state = run_recon(make_state(max_iterations=5), session, StubExecutor(), rag)
    assert (state.iteration, state.stop_reason) == (5, StopReason.MAX_ITERATIONS)
    assert rag.retrieves == 1
    # every turn's prompt still carries the hints
    assert len(seen) == 5
    assert all("nmap -sV fingerprint reconnaissance" in prompt for prompt in seen)


def test_tool_hints_send_neighbouring_chunks_once_in_document_order(tmp_path):
    from pentestflow import prompts

    rag = RagStore(tmp_path / "rag")
    text = "nmap -sV runs a service scan; reconnaissance starts with a fingerprint of each port"
    assert rag.index("tooldocs", [("nmap", text, "tooldoc://nmap.md")], 40, 10) == 3
    seen = []

    def responder(request):
        seen.append(request.prompt)
        return step_reply("", done=True)

    session = ChatSession("recon", "sys", WIDE_PROFILE, ScriptedBackend(responder=responder))
    run_recon(make_state(max_iterations=1), session, StubExecutor(), rag)
    # the three chunks are one passage: the document, overlaps sent once, no header
    assert prompts.RECON_TOOL_HINTS_HEADER + text + "\n\n" in seen[0]
    assert "[source:" not in seen[0]
