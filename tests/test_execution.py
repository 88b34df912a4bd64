"""Execution agent tests: error normalization, evidence-verified success,
repeat-error aborts, bounded stepping, parameter preparation, and the
plan driver."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentestflow import prompts
from pentestflow.execution import (
    ExecutionAgent,
    ExploitOutcome,
    OutcomeStatus,
    ParameterRequirement,
    ParamSource,
    error_digest,
    is_error,
    normalize_error,
)
from pentestflow.gateway import (
    ChatSession,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
)
from pentestflow.knowledge import ExploitNode
from pentestflow.planning import ExploitPlan, PlanEntry
from pentestflow.rag import RagStore
from pentestflow.recon import env_corpus_id
from pentestflow.sandbox import ExecutionResult, ScopeViolation

from conftest import WIDE_PROFILE

TARGET = "127.0.0.1"
SCOPE = ("127.0.0.1",)


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


def make_exploit(source_ref="github.com/x/poc", local_path=""):
    return ExploitNode(
        source_ref=source_ref,
        effect="remote command execution",
        applicable_versions="",
        local_path=local_path,
    )


def make_agent(tmp_path, executor=None, max_steps=20, history_sink=None):
    return ExecutionAgent(
        executor or StubExecutor(),
        RagStore(tmp_path / "rag"),
        SCOPE,
        max_steps=max_steps,
        history_sink=history_sink,
    )


def make_session(responses=None, responder=None, name="exec"):
    return ChatSession(
        name, "sys", WIDE_PROFILE, ScriptedBackend(responses=responses, responder=responder)
    )


def filled(*names):
    return [
        ParameterRequirement(name=n, value=TARGET, source=ParamSource.DEFAULT)
        for n in names
    ]


def step_reply(command, done=False, success=False, evidence="", thought="t"):
    doc = {"thought": thought, "command": command, "done": done}
    if done:
        doc["success"] = success
        doc["evidence"] = evidence
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Error normalization: the same failure must digest identically across
# volatile decorations (oracle: hand-built variant pairs)
# ---------------------------------------------------------------------------


def test_normalize_scrubs_timestamps():
    a = normalize_error("2024-01-02T03:04:05Z connection refused")
    b = normalize_error("2025-12-31 23:59:59.123+02:00 connection refused")
    assert a == b == "<ts> connection refused"


def test_normalize_scrubs_hex_addresses():
    assert (
        normalize_error("segfault at 0xDEADBEEF0123")
        == normalize_error("segfault at 0x7fff12345678")
        == "segfault at <addr>"
    )


def test_normalize_scrubs_ephemeral_ports():
    a = normalize_error("connect to 10.0.0.5:54321 failed")
    b = normalize_error("connect to 10.0.0.5:38112 failed")
    assert a == b
    # well-known ports are meaningful and stay
    assert "8080" in normalize_error("connect to 10.0.0.5:8080 failed")


def test_normalize_scrubs_tmp_paths():
    a = normalize_error("payload written to /tmp/pwn-abc123/stage1.bin failed")
    b = normalize_error("payload written to /tmp/xyz/other.bin failed")
    assert a == b == "payload written to <tmp> failed"


def test_digest_same_error_different_noise():
    r1 = ExecutionResult(1, "", "2024-05-05T10:00:00Z dial tcp 10.0.0.5:44321: refused", 0.1, False, False)
    r2 = ExecutionResult(1, "", "2024-06-06T11:11:11Z dial tcp 10.0.0.5:51777: refused", 0.1, False, False)
    assert error_digest(r1) == error_digest(r2)


def test_digest_distinguishes_exit_codes_and_text():
    base = ExecutionResult(1, "", "refused", 0.1, False, False)
    other_code = ExecutionResult(2, "", "refused", 0.1, False, False)
    other_text = ExecutionResult(1, "", "reset", 0.1, False, False)
    assert error_digest(base) != error_digest(other_code)
    assert error_digest(base) != error_digest(other_text)


def test_is_error():
    assert not is_error(ExecutionResult(0, "ok", "", 0.1, False, False))
    assert is_error(ExecutionResult(3, "", "", 0.1, False, False))
    assert is_error(ExecutionResult(0, "", "", 0.1, False, True))  # timeout


# ---------------------------------------------------------------------------
# exploit_loop
# ---------------------------------------------------------------------------


def test_loop_refuses_unfillable_parameters(tmp_path):
    executor = StubExecutor()
    agent = make_agent(tmp_path, executor)
    params = [ParameterRequirement(name="session_token", source=ParamSource.UNFILLABLE)]
    session = make_session([])  # would blow up if consulted
    outcome = agent.exploit_loop(make_exploit(), params, session)
    assert outcome.status is OutcomeStatus.ABORTED_UNFILLABLE_PARAMS
    assert "session_token" in outcome.evidence
    assert outcome.steps_taken == 0
    assert executor.commands == []
    assert session.backend.calls == 0


def test_loop_verified_success(tmp_path):
    executor = StubExecutor(
        behavior=lambda spec: ExecutionResult(0, "shell ready: FLAG{pwned-123}", "", 0.1, False, False)
    )
    agent = make_agent(tmp_path, executor)
    session = make_session(
        [
            step_reply("python3 poc.py --target 127.0.0.1"),
            step_reply("", done=True, success=True, evidence="FLAG{pwned-123}"),
        ]
    )
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.SUCCESS
    assert outcome.evidence == "FLAG{pwned-123}"
    assert outcome.declared_success is True
    assert outcome.steps_taken == 2


def test_loop_rejects_fabricated_evidence(tmp_path):
    executor = StubExecutor(
        behavior=lambda spec: ExecutionResult(0, "nothing interesting happened", "", 0.1, False, False)
    )
    agent = make_agent(tmp_path, executor)
    session = make_session(
        [
            step_reply("python3 poc.py"),
            step_reply("", done=True, success=True, evidence="root shell obtained!"),
        ]
    )
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.FAILED
    assert outcome.evidence == ""
    assert outcome.declared_success is True


def test_loop_rejects_evidence_past_the_shown_excerpt(tmp_path):
    # the token is in stdout, but after the 4,000 characters the model saw
    executor = StubExecutor(
        behavior=lambda spec: ExecutionResult(0, "x" * 4100 + "FLAG{late-9}", "", 0.1, False, False)
    )
    agent = make_agent(tmp_path, executor)
    session = make_session(
        [
            step_reply("python3 poc.py"),
            step_reply("", done=True, success=True, evidence="FLAG{late-9}"),
        ]
    )
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.FAILED
    assert outcome.evidence == ""
    assert outcome.declared_success is True


def test_loop_success_claim_without_evidence_fails(tmp_path):
    agent = make_agent(tmp_path)
    session = make_session([step_reply("", done=True, success=True, evidence="")])
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.FAILED


def test_loop_declared_failure(tmp_path):
    agent = make_agent(tmp_path)
    session = make_session([step_reply("", done=True, success=False)])
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.FAILED
    assert outcome.declared_success is False
    assert outcome.steps_taken == 1


def test_loop_aborts_on_repeated_error_digest(tmp_path):
    executor = StubExecutor(
        behavior=lambda spec: ExecutionResult(1, "", "dial tcp: connection refused", 0.1, False, False)
    )
    agent = make_agent(tmp_path, executor)
    session = make_session(
        [step_reply("python3 poc.py"), step_reply("python3 poc.py --retry"), step_reply("never sent")]
    )
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.ABORTED_REPEATED_ERROR
    assert outcome.steps_taken == 2
    digests = [e.error_digest for e in outcome.error_history]
    assert len(digests) == 2
    assert digests[0] == digests[1]
    # the retry command was recorded as the attempted fix for the first error
    assert outcome.error_history[0].fix_applied == "python3 poc.py --retry"


def test_loop_abort_ignores_timestamp_noise(tmp_path):
    clock = iter(["2024-01-01T00:00:00Z", "2024-01-01T00:05:17Z"])
    executor = StubExecutor(
        behavior=lambda spec: ExecutionResult(
            1, "", f"{next(clock)} dial tcp: connection refused", 0.1, False, False
        )
    )
    agent = make_agent(tmp_path, executor)
    session = make_session([step_reply("a"), step_reply("b"), step_reply("c")])
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.ABORTED_REPEATED_ERROR


def test_loop_distinct_errors_keep_going(tmp_path):
    errors = iter(["refused", "reset", "unreachable"])
    executor = StubExecutor(
        behavior=lambda spec: ExecutionResult(1, "", next(errors), 0.1, False, False)
    )
    agent = make_agent(tmp_path, executor, max_steps=3)
    session = make_session([step_reply("a"), step_reply("b"), step_reply("c")])
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.ABORTED_MAX_STEPS
    assert outcome.steps_taken == 3
    assert len(outcome.error_history) == 3


def test_loop_hits_step_ceiling(tmp_path):
    agent = make_agent(tmp_path, max_steps=5)
    session = make_session(
        responder=lambda request: step_reply(f"cmd {random.random()}")
    )
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.ABORTED_MAX_STEPS
    assert outcome.steps_taken == 5


def test_loop_ceiling_of_zero_runs_no_step(tmp_path):
    executor = StubExecutor()
    agent = make_agent(tmp_path, executor, max_steps=0)
    session = make_session([])  # would fail the loop if consulted
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.ABORTED_MAX_STEPS
    assert outcome.steps_taken == 0
    assert session.backend.calls == 0
    assert executor.commands == []


def test_loop_invalid_responses_consume_steps(tmp_path):
    executor = StubExecutor()
    agent = make_agent(tmp_path, executor, max_steps=2)
    session = make_session(responder=lambda request: "not json at all")
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.ABORTED_MAX_STEPS
    assert outcome.steps_taken == 2
    assert executor.commands == []


def test_loop_gateway_failure_folds_into_failed(tmp_path):
    agent = make_agent(tmp_path)
    session = make_session([step_reply("cmd a")])  # second completion raises
    outcome = agent.exploit_loop(make_exploit(), filled("target"), session)
    assert outcome.status is OutcomeStatus.FAILED
    assert "gateway failure" in outcome.evidence
    assert outcome.steps_taken == 1


def test_loop_scope_rejection_becomes_error_observation(tmp_path):
    executor = StubExecutor(behavior=lambda spec: ScopeViolation(["203.0.113.5"]))
    agent = make_agent(tmp_path, executor, max_steps=4)
    prompts_seen = []

    def responder(request):
        prompts_seen.append(request.prompt)
        if len(prompts_seen) == 1:
            return step_reply("curl 203.0.113.5")
        return step_reply("", done=True, success=False)

    outcome = agent.exploit_loop(
        make_exploit(), filled("target"), make_session(responder=responder)
    )
    assert outcome.status is OutcomeStatus.FAILED
    assert len(outcome.error_history) == 1  # exit 126 counts as an error
    assert "rejected" in prompts_seen[1]


def test_loop_history_sink_records_commands(tmp_path):
    rows = []
    executor = StubExecutor(
        behavior=lambda spec: ExecutionResult(1, "out", "err", 0.1, False, False)
    )
    agent = make_agent(tmp_path, executor, history_sink=rows.append)
    session = make_session(
        [step_reply("cmd a"), step_reply("", done=True, success=False)]
    )
    agent.exploit_loop(make_exploit(), filled("target"), session)
    assert len(rows) == 1
    assert rows[0]["command"] == "cmd a"
    assert rows[0]["exit_code"] == 1
    assert rows[0]["error_digest"] != ""


# ---------------------------------------------------------------------------
# Termination fuzz
# ---------------------------------------------------------------------------


def test_loop_termination_fuzz(tmp_path):
    rng = random.Random(0xE4EC)
    agent_rag = RagStore(tmp_path / "rag")
    for trial in range(300):
        max_steps = rng.randrange(1, 8)

        def responder(request, rng=rng):
            roll = rng.random()
            if roll < 0.15:
                return "garbage"
            if roll < 0.3:
                return step_reply(
                    "", done=True, success=True, evidence=f"proof-{rng.randrange(5)}"
                )
            if roll < 0.4:
                return step_reply("", done=True, success=False)
            if roll < 0.5:
                return step_reply("")
            return step_reply(f"cmd {rng.randrange(4)}")

        def behavior(spec, rng=rng):
            roll = rng.random()
            if roll < 0.15:
                return ScopeViolation(["198.51.100.1"])
            if roll < 0.3:
                return ExecutionResult(1, "", f"err {rng.randrange(3)}", 0.1, False, False)
            return ExecutionResult(0, f"proof-{rng.randrange(5)} ok", "", 0.1, False, False)

        agent = ExecutionAgent(
            StubExecutor(behavior=behavior), agent_rag, SCOPE, max_steps=max_steps
        )
        outcome = agent.exploit_loop(
            make_exploit(), filled("target"), make_session(responder=responder)
        )
        assert isinstance(outcome, ExploitOutcome)
        assert outcome.steps_taken <= max_steps, f"trial {trial} overran"
        # a verified success always carries evidence
        if outcome.status is OutcomeStatus.SUCCESS:
            assert outcome.evidence


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def listing_reply(names):
    return json.dumps(
        {"parameters": [{"name": n, "description": f"the {n}"} for n in names]}
    )


def fill_reply(found, value=""):
    return json.dumps({"found": found, "value": value})


def test_prepare_unusable_listing_blocks_run(tmp_path):
    agent = make_agent(tmp_path)
    session = make_session(responder=lambda request: "garbage")
    requirements = agent.prepare(make_exploit(), TARGET, session)
    assert len(requirements) == 1
    assert requirements[0].source is ParamSource.UNFILLABLE
    outcome = agent.exploit_loop(make_exploit(), requirements, make_session([]))
    assert outcome.status is OutcomeStatus.ABORTED_UNFILLABLE_PARAMS


def test_prepare_fill_priority(tmp_path):
    agent = make_agent(tmp_path)
    # the environment corpus knows the admin port
    agent.rag.index(
        env_corpus_id(TARGET),
        [("fp", "admin console on port 8161, product DemoSrv", "env://fp")],
    )
    session = make_session(
        [
            listing_reply(["admin_port", "target_host", "api_key"]),
            fill_reply(True, "8161"),  # admin_port: answered by the store
            fill_reply(False),  # target_host: store has no answer
            fill_reply(False),  # api_key: store has no answer
        ]
    )
    requirements = {r.name: r for r in agent.prepare(make_exploit(), TARGET, session)}
    assert requirements["admin_port"].value == "8161"
    assert requirements["admin_port"].source is ParamSource.ENVIRONMENT_STORE
    assert requirements["target_host"].value == TARGET
    assert requirements["target_host"].source is ParamSource.DEFAULT
    assert requirements["api_key"].value == ""
    assert requirements["api_key"].source is ParamSource.UNFILLABLE


def test_prepare_reads_found_as_a_yes_or_no(tmp_path):
    agent = prep_agent(tmp_path)
    session = make_session(
        [listing_reply(["username"]), json.dumps({"found": "false", "value": "guess"})]
    )
    [requirement] = agent.prepare(make_exploit(), TARGET, session)
    assert (requirement.value, requirement.source) == ("", ParamSource.UNFILLABLE)


@pytest.mark.parametrize("value", [["alice"], {"user": "alice"}])
def test_prepare_refuses_a_fill_value_that_is_not_a_string(tmp_path, value):
    agent = prep_agent(tmp_path)
    answers = {}
    fills = []

    def responder(request):
        if '"found"' in request.prompt:
            fills.append(request.prompt)
            return json.dumps({"found": True, "value": value})
        return listing_reply(["username"])

    for _ in range(2):
        [requirement] = agent.prepare(
            make_exploit(), TARGET, make_session(responder=responder), answers
        )
        assert (requirement.value, requirement.source) == ("", ParamSource.UNFILLABLE)
    # an unusable reply is not kept, so the question is asked again
    assert answers == {} and len(fills) == 2


def test_prepare_without_env_store_uses_defaults(tmp_path):
    agent = make_agent(tmp_path)
    session = make_session([listing_reply(["rhost", "lport"])])
    requirements = {r.name: r for r in agent.prepare(make_exploit(), TARGET, session)}
    assert requirements["rhost"].source is ParamSource.DEFAULT
    assert requirements["rhost"].value == TARGET
    assert requirements["lport"].source is ParamSource.UNFILLABLE


def test_prepare_dedupes_names_case_insensitively(tmp_path):
    agent = make_agent(tmp_path)
    session = make_session(
        [json.dumps({"parameters": [{"name": "Target"}, {"name": "target"}, {"name": ""}]})]
    )
    requirements = agent.prepare(make_exploit(), TARGET, session)
    assert [r.name for r in requirements] == ["Target"]


def test_prepare_indexes_local_exploit_files(tmp_path):
    poc_dir = tmp_path / "poc"
    poc_dir.mkdir()
    (poc_dir / "exploit.py").write_text("# needs TARGET_URL and AUTH_TOKEN\n", encoding="utf-8")
    (poc_dir / "README.md").write_text("usage: exploit.py <target_url>\n", encoding="utf-8")
    agent = make_agent(tmp_path)
    prompts_seen = []

    def responder(request):
        prompts_seen.append(request.prompt)
        return listing_reply(["target_url"])

    agent.prepare(
        make_exploit(local_path=str(poc_dir)), TARGET, make_session(responder=responder)
    )
    # the exploit's own files were retrievable context for the listing call
    assert any("TARGET_URL" in p or "target_url" in p for p in prompts_seen)


# ---------------------------------------------------------------------------
# run_plan
# ---------------------------------------------------------------------------


def make_plan(*refs):
    return ExploitPlan(
        entries=[
            PlanEntry(
                cve_id="CVE-2020-0001",
                exploit=make_exploit(source_ref=ref),
                confidence=0.9,
                effect="remote command execution",
            )
            for ref in refs
        ]
    )


def plan_factory(tmp_path, outcomes_by_ref):
    """Build (agent, factory, names) where each exploit session is scripted to
    fail or succeed per outcomes_by_ref."""
    executor = StubExecutor(
        behavior=lambda spec: ExecutionResult(0, "token SECRET-99", "", 0.1, False, False)
    )
    agent = make_agent(tmp_path, executor)
    names = []

    def factory(name):
        names.append(name)
        if name.startswith("prep"):
            return make_session([listing_reply(["target"])], name=name)
        index = int(name.rsplit("-", 1)[1])
        if outcomes_by_ref[index]:
            return make_session(
                [
                    step_reply("run poc"),
                    step_reply("", done=True, success=True, evidence="SECRET-99"),
                ],
                name=name,
            )
        return make_session([step_reply("", done=True, success=False)], name=name)

    return agent, factory, names


def test_run_plan_stops_at_first_success(tmp_path):
    agent, factory, names = plan_factory(tmp_path, [False, True, False])
    outcomes, winner = agent.run_plan(make_plan("r/a", "r/b", "r/c"), TARGET, factory)
    assert winner == 1
    assert len(outcomes) == 2  # third entry never attempted
    assert outcomes[0].status is OutcomeStatus.FAILED
    assert outcomes[1].status is OutcomeStatus.SUCCESS
    assert names == ["prep-0", "exploit-0", "prep-1", "exploit-1"]


def test_run_plan_exhausts_without_success(tmp_path):
    agent, factory, names = plan_factory(tmp_path, [False, False])
    outcomes, winner = agent.run_plan(make_plan("r/a", "r/b"), TARGET, factory)
    assert winner is None
    assert len(outcomes) == 2
    assert all(o.status is OutcomeStatus.FAILED for o in outcomes)


def test_run_plan_empty(tmp_path):
    agent = make_agent(tmp_path)
    outcomes, winner = agent.run_plan(ExploitPlan(), TARGET, lambda name: None)
    assert outcomes == [] and winner is None


def test_exploit_corpora_do_not_outlive_their_listing(tmp_path):
    poc_dir = tmp_path / "poc"
    poc_dir.mkdir()
    (poc_dir / "exploit.py").write_text(
        "# needs TARGET_URL and AUTH_TOKEN\n" * 40, encoding="utf-8"
    )
    (poc_dir / "README.md").write_text("usage: exploit.py <target_url>\n", encoding="utf-8")
    agent = make_agent(tmp_path)
    listings = []

    def factory(name):
        if name.startswith("prep"):

            def responder(request):
                listings.append(request.prompt)
                return listing_reply(["target"])

            return make_session(responder=responder, name=name)
        return make_session([step_reply("", done=True, success=False)], name=name)

    # one exploit under two CVEs, then a second exploit
    shared = make_exploit(source_ref="r/shared", local_path=str(poc_dir))
    plan = ExploitPlan(
        entries=[
            PlanEntry(cve_id=cve, exploit=exploit, confidence=0.9, effect="rce")
            for cve, exploit in [
                ("CVE-2020-0001", shared),
                ("CVE-2020-0002", shared),
                ("CVE-2020-0003", make_exploit(source_ref="r/other")),
            ]
        ]
    )
    outcomes, winner = agent.run_plan(plan, TARGET, factory)
    assert winner is None and len(outcomes) == 3
    assert not [cid for cid in agent.rag._cache if cid.startswith("exp_")]
    # the shared exploit is indexed again for its second entry, to the same passages
    assert len(listings) == 3
    assert listings[0] == listings[1]
    assert "AUTH_TOKEN" in listings[0] and "doc=README.md" in listings[0]


# ---------------------------------------------------------------------------
# run_plan asks each fill question once (oracle: every question asked fresh)
# ---------------------------------------------------------------------------

PARAM_POOL = [
    ("target", ""),
    ("target", "the host"),
    ("Target", ""),
    ("rport", "the port"),
    ("api_key", "a key"),
    ("path", ""),
]
REPLY_KINDS = ["value", "padded", "not_found", "blank", "unusable"]


def fill_question(name, description):
    return prompts.PREP_FILL_TEMPLATE.format(name=name, description=description)


def prep_responder(listings, kinds, asked):
    """Answer listing calls from ``listings`` (source_ref -> params) and fill
    calls by the kind scripted for their question; ``asked`` counts the first
    request of each fill call by question."""
    questions = {fill_question(n, d): (n, d) for n, d in PARAM_POOL}

    def responder(request):
        if request.history:
            return "still not json"
        for question, param in questions.items():
            if request.prompt.endswith(question):
                asked[question] = asked.get(question, 0) + 1
                kind = kinds[param]
                value = f"v-{param[0]}-{len(param[1])}"
                if kind == "value":
                    return fill_reply(True, value)
                if kind == "padded":
                    return fill_reply(True, f"  {value} ")
                if kind == "not_found":
                    return fill_reply(False)
                if kind == "blank":
                    return fill_reply(True, "")
                return "no json at all"
        for ref, params in listings.items():
            if f"({ref})" in request.prompt:
                return json.dumps(
                    {"parameters": [{"name": n, "description": d} for n, d in params]}
                )
        raise AssertionError("unexpected prompt")

    return responder


def prep_agent(root, have_env=True):
    agent = make_agent(root)
    if have_env:
        agent.rag.index(
            env_corpus_id(TARGET),
            [("fp", "DemoSrv admin console on port 8161", "env://fp")],
        )
    return agent


def triples(requirements):
    return [(r.name, r.value, r.source) for r in requirements]


def spy_prepare(agent):
    """Record the (name, value, source) triples of every prepare call."""
    prepared = []
    prepare = agent.prepare

    def spy(*args):
        requirements = prepare(*args)
        prepared.append(triples(requirements))
        return requirements

    agent.prepare = spy
    return prepared


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.lists(st.sampled_from(PARAM_POOL), max_size=5), min_size=1, max_size=4
    ),
    kinds=st.fixed_dictionaries(
        {param: st.sampled_from(REPLY_KINDS) for param in PARAM_POOL}
    ),
    have_env=st.booleans(),
)
def test_run_plan_fills_like_asking_every_question_fresh(
    tmp_path_factory, entries, kinds, have_env
):
    refs = [f"r/{i}" for i in range(len(entries))]
    listings = dict(zip(refs, entries))
    plan = make_plan(*refs)
    root = tmp_path_factory.mktemp("prep")

    fresh_asked = {}
    fresh_agent = prep_agent(root, have_env)
    expected = []
    for entry in plan.entries:
        session = make_session(responder=prep_responder(listings, kinds, fresh_asked))
        expected.append(triples(fresh_agent.prepare(entry.exploit, TARGET, session)))

    asked = {}
    agent = prep_agent(root, have_env)
    prepared = spy_prepare(agent)

    def factory(name):
        if name.startswith("prep"):
            return make_session(
                responder=prep_responder(listings, kinds, asked), name=name
            )
        return make_session([step_reply("", done=True, success=False)], name=name)

    outcomes, winner = agent.run_plan(plan, TARGET, factory)
    assert winner is None and len(outcomes) == len(plan.entries)
    assert prepared == expected
    params = {fill_question(*param): param for param in PARAM_POOL}
    assert set(asked) == set(fresh_asked)
    for question, count in fresh_asked.items():
        if kinds[params[question]] == "unusable":
            assert asked[question] == count  # asked again for every entry
        else:
            assert asked[question] == 1


def engagement_plan_factory(backend_for):
    """Sessions for a two-entry plan in the shape of the engagement workload:
    each prep lists target and port, the store knows the port, every exploit
    declares failure."""

    def responder(name):
        def reply(request):
            if name.startswith("exploit"):
                return step_reply("", done=True, success=False)
            if "name: port" in request.prompt:
                return fill_reply(True, "8161")
            if "name: target" in request.prompt:
                return fill_reply(False)
            return listing_reply(["target", "port"])

        return reply

    def factory(name):
        return ChatSession(
            name, prompts.EXECUTION_SYSTEM, WIDE_PROFILE, backend_for(name, responder(name))
        )

    return factory


def test_run_plan_replays_recordings_from_before_and_after(tmp_path, caplog):
    plan = make_plan("r/a", "r/b")
    recorders = {}

    def recording(name, reply):
        recorders[name] = RecordingBackend(ScriptedBackend(responder=reply))
        return recorders[name]

    record_factory = engagement_plan_factory(recording)
    # before: run_plan as it was, every entry asking its fill questions afresh
    agent = prep_agent(tmp_path)
    before = []
    for i, entry in enumerate(plan.entries):
        parameters = agent.prepare(entry.exploit, TARGET, record_factory(f"prep-{i}"))
        before.append(triples(parameters))
        agent.exploit_loop(entry.exploit, parameters, record_factory(f"exploit-{i}"))
    before_entries = {name: rec.entries for name, rec in recorders.items()}
    assert [len(before_entries[f"prep-{i}"]) for i in range(2)] == [3, 3]

    recorders.clear()
    outcomes, _ = prep_agent(tmp_path).run_plan(plan, TARGET, record_factory)
    after_entries = {name: rec.entries for name, rec in recorders.items()}
    assert [len(after_entries[f"prep-{i}"]) for i in range(2)] == [3, 1]

    for recorded in (before_entries, after_entries):
        sessions = {}

        def replaying(name, reply, recorded=recorded):
            return ReplayBackend(entries=recorded[name])

        replay_factory = engagement_plan_factory(replaying)

        def factory(name):
            sessions[name] = replay_factory(name)
            return sessions[name]

        agent = prep_agent(tmp_path)
        prepared = spy_prepare(agent)
        caplog.clear()
        with caplog.at_level("WARNING", logger="pentestflow.gateway"):
            replayed, _ = agent.run_plan(plan, TARGET, factory)
        assert not caplog.records
        assert [o.to_dict() for o in replayed] == [o.to_dict() for o in outcomes]
        assert sessions["prep-1"].ledger.call_count == 1
        assert prepared == before
