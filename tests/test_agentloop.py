"""The shared agent loop: one yes/no coercion for both agents, and step
prompts built from the loop's state alone.

Each value in the table drives the recon loop and the exploitation loop
through a scripted model; both must read it the same way, as ``done`` and
(for exploitation) as ``success``. A property over random loop states and
windows checks both agents' step prompts.
"""

import json
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentestflow import prompts
from pentestflow.agentloop import (
    ELIDED_MARKER,
    LoopState,
    StopReason,
    command_line,
    elide_oldest,
    normalize_error,
    step_prompt,
)
from pentestflow.execution import (
    ExecutionAgent,
    OutcomeStatus,
    ParameterRequirement,
    ParamSource,
)
from pentestflow.gateway import (
    RESPONSE_RESERVE_TOKENS,
    ChatSession,
    ProviderProfile,
    ScriptedBackend,
    estimate_tokens,
)
from pentestflow.knowledge import ExploitNode
from pentestflow.rag import RagStore
from pentestflow.recon import ReconState, run_recon
from pentestflow.recon import _step_prompt as recon_step_prompt
from pentestflow.sandbox import ExecutionResult

from conftest import WIDE_PROFILE

TARGET = "127.0.0.1"
SCOPE = (TARGET,)
EVIDENCE = "PROOF-7f3a-c0ffee"

# (reply value, how the loop must read it)
COERCIONS = [
    (True, True),
    (False, False),
    ("done", True),
    ("yes", True),
    ("1", True),
    ("no", False),
    (0, False),
    (None, False),
    ([], False),
]


class StubExecutor:
    def __init__(self):
        self.commands = []

    def run(self, spec):
        self.commands.append(spec.command_line)
        stdout = f"ran {spec.command_line}: {EVIDENCE}"
        return ExecutionResult(0, stdout, "", 0.01, False, False)


def session(replies):
    return ChatSession("loop", "sys", WIDE_PROFILE, ScriptedBackend(responses=replies))


def exploit_agent(tmp_path, executor, max_steps):
    rag = RagStore(tmp_path / "rag")
    return ExecutionAgent(executor, rag, SCOPE, max_steps=max_steps)


def exploit_loop(agent, replies):
    exploit = ExploitNode(source_ref="repo/poc", effect="remote command execution")
    params = [
        ParameterRequirement(name="target", value=TARGET, source=ParamSource.DEFAULT)
    ]
    return agent.exploit_loop(exploit, params, session(replies))


@pytest.mark.parametrize("value, expected", COERCIONS)
def test_both_loops_read_done_alike(tmp_path, value, expected):
    reply = json.dumps({"thought": "t", "command": "probe", "done": value})

    state = ReconState(target=TARGET, scope=SCOPE, max_iterations=1)
    recon_executor = StubExecutor()
    run_recon(state, session([reply]), recon_executor)

    exploit_executor = StubExecutor()
    outcome = exploit_loop(exploit_agent(tmp_path, exploit_executor, 1), [reply])

    ran = [] if expected else ["probe"]
    assert recon_executor.commands == exploit_executor.commands == ran
    assert state.iteration == outcome.steps_taken == 1
    if expected:
        assert state.stop_reason is StopReason.AGENT_DECLARED_DONE
        assert outcome.status is OutcomeStatus.FAILED
    else:
        assert state.stop_reason is StopReason.MAX_ITERATIONS
        assert outcome.status is OutcomeStatus.ABORTED_MAX_STEPS


@pytest.mark.parametrize("value, expected", COERCIONS)
def test_exploitation_reads_success_alike(tmp_path, value, expected):
    replies = [
        json.dumps({"thought": "t", "command": "run poc", "done": False}),
        json.dumps(
            {
                "thought": "t",
                "command": "",
                "done": True,
                "success": value,
                "evidence": EVIDENCE,
            }
        ),
    ]
    outcome = exploit_loop(exploit_agent(tmp_path, StubExecutor(), 5), replies)
    assert outcome.declared_success is expected
    expected_status = OutcomeStatus.SUCCESS if expected else OutcomeStatus.FAILED
    assert outcome.status is expected_status
    assert outcome.evidence == (EVIDENCE if expected else "")


# ---------------------------------------------------------------------------
# Step prompts: a function of the loop's state
# ---------------------------------------------------------------------------

# how a reader of the prompt (the scripted model, say) finds the current step
STEP_TEXT = re.compile(r"(?:Step|Iteration) (\d+) of \d+")
SECTION = "\x00"  # stands in for the earlier-commands section

noisy_text = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters=SECTION), max_size=300),
    st.lists(
        st.sampled_from(
            ["Step 2 of 9", "iteration 3 of 4", "\n", " ", "\r\n", "0x7fff1234",
             "/tmp/x.1", "2024-01-02T03:04:05Z", "refused", "x" * 900]
        ),
        max_size=12,
    ).map("".join),
)
results = st.builds(
    ExecutionResult,
    exit_code=st.integers(-1, 130),
    stdout=noisy_text,
    stderr=noisy_text,
    duration=st.just(0.0),
    truncated=st.booleans(),
    timed_out=st.booleans(),
)
commands = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters=SECTION), max_size=60),
    st.sampled_from(["Step 1 of 2 && iteration 7 of 8", "curl\n-s  http://t/", "x" * 900]),
)
histories = st.lists(st.tuples(commands, results), max_size=12)
systems = st.one_of(st.text(max_size=40), st.integers(0, 4000).map("s".__mul__))


def prompt_and_state(kind, ceiling, turn, history):
    """An agent's step prompt and a loop state of its kind."""
    if kind == "recon":
        state = ReconState(target=TARGET, scope=SCOPE, max_iterations=ceiling, iteration=turn)
        prompt = partial(recon_step_prompt, "Reference notes: nmap -sV\n\n")
    else:
        state = LoopState(scope=SCOPE, max_iterations=ceiling, iteration=turn)
        agent = ExecutionAgent(None, None, SCOPE, max_steps=ceiling)
        exploit = ExploitNode(source_ref="repo/poc", effect="remote command execution")
        prompt = partial(agent._step_prompt, exploit, '{"target": "127.0.0.1"}')
    state.command_history.extend(history)
    return prompt, state


def todays_observation(kind, state):
    """The last observation exactly as a step prompt rendered it before the
    earlier-commands section existed."""
    if not state.command_history:
        return {
            "recon": prompts.RECON_FIRST_OBSERVATION,
            "exploit": prompts.EXPLOIT_FIRST_OBSERVATION,
        }[kind]
    command, result = state.command_history[-1]
    if kind == "recon":

        def cut(text):
            return text if len(text) <= 4000 else text[:4000] + "\n[... output truncated ...]"

        return prompts.RECON_OBSERVATION_TEMPLATE.format(
            command=command, exit_code=result.exit_code,
            stdout=cut(result.stdout), stderr=cut(result.stderr),
        )
    return prompts.EXPLOIT_OBSERVATION_TEMPLATE.format(
        command=command, exit_code=result.exit_code,
        timeout_note=" (timed out)" if result.timed_out else "",
        stdout=result.stdout[:4000], stderr=result.stderr[:4000],
    )


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["recon", "exploit"]),
    history=histories,
    ceiling=st.integers(1, 20),
    turn=st.integers(0, 19),
    system=systems,
    data=st.data(),
)
def test_step_prompt_property(kind, history, ceiling, turn, system, data):
    """For any loop state and any window that fits the prompt without the
    section: the prompt fits, a section leaves the reply's reserve free, the
    prompt names its step once, carries the last observation as before, and
    lists the earlier commands in order, eliding only the oldest."""
    prompt, state = prompt_and_state(kind, ceiling, min(turn, ceiling - 1), history)
    rest = prompt(state, "")
    earlier = [command_line(c, r) for c, r in history[:-1]]
    # the reply's reserve plus what the whole section may be charged
    room = RESPONSE_RESERVE_TOKENS + estimate_tokens(prompts.EARLIER_COMMANDS_HEADER)
    room += sum(estimate_tokens(line) + 1 for line in earlier)
    slack = data.draw(
        st.integers(0, room + 20) | st.integers(RESPONSE_RESERVE_TOKENS, room + 20),
        label="slack",
    )
    window = estimate_tokens(system) + estimate_tokens(rest) + slack
    session = ChatSession("p", system, ProviderProfile("w", "m", window, 0, 0),
                          ScriptedBackend(responses=[]))

    built = step_prompt(state, session, prompt)

    assert estimate_tokens(system) + estimate_tokens(built) <= window
    head, tail = prompt(state, SECTION).split(SECTION)
    assert built.startswith(head) and built.endswith(tail)
    section = built[len(head) : len(built) - len(tail)]
    assert STEP_TEXT.findall(head + section) == [str(state.iteration + 1)]
    assert tail.startswith(todays_observation(kind, state))

    if not section:
        # nothing to list, or not even the header and the marker fit
        assert not earlier or slack < RESPONSE_RESERVE_TOKENS + estimate_tokens(
            prompts.EARLIER_COMMANDS_HEADER
        ) + estimate_tokens(ELIDED_MARKER) + 1
        return
    # the section never takes the room kept for the reply
    assert estimate_tokens(system) + estimate_tokens(built) + RESPONSE_RESERVE_TOKENS <= window
    assert section.startswith(prompts.EARLIER_COMMANDS_HEADER) and section.endswith("\n")
    lines = section[len(prompts.EARLIER_COMMANDS_HEADER) : -1].split("\n")
    if lines[0] == ELIDED_MARKER:
        kept = lines[1:]
        assert len(kept) < len(earlier)
    else:
        kept = lines
        assert kept == earlier
    assert kept == earlier[len(earlier) - len(kept) :]
    if slack >= room:
        assert kept == earlier  # elides nothing it has room for


@pytest.mark.parametrize("budget", range(0, 24))
def test_elide_oldest_matches_its_rule(budget):
    """Brute-force oracle: each line is charged its tokens plus one for its
    line break; the result is the longest newest suffix whose lines, with
    the marker line when any is dropped, fit the budget, and its text fits
    too."""
    entries = [f"e{i:02d}!" for i in range(8)]  # 4 characters, 1 token each

    def charge(lines):
        return sum(estimate_tokens(line) + 1 for line in lines)

    expected = ""
    for keep in range(len(entries), -1, -1):
        lines = entries[len(entries) - keep :]
        if keep < len(entries):
            lines = [ELIDED_MARKER, *lines]
        if charge(lines) <= budget:
            expected = "\n".join(lines)
            break
    got = elide_oldest(entries, budget)
    assert got == expected
    assert estimate_tokens(got) <= budget


def test_earlier_command_line_format():
    failing = ExecutionResult(
        1, "", "2024-01-02T03:04:05Z refused at Step 3 of 7\ntraceback", 0.0, False, False
    )
    timed_out = ExecutionResult(124, "out", "", 5.0, False, True)
    assert command_line("curl  -s\nhttp://t/", failing) == (
        "  $ curl -s http://t/ -> exit 1: <ts> refused at Step 3/7"
    )
    assert command_line("sleep 9", timed_out) == "  $ sleep 9 -> exit 124 (timed out)"
    # a one-line error reads as the excerpt the errors block used to show
    single = ExecutionResult(
        7, "", "curl: (7) Failed to connect to 10.0.0.5:54321 at 12:00:01", 0.0, False, False
    )
    assert command_line("curl t", single) == (
        "  $ curl t -> exit 7: " + normalize_error(single.stderr)[:160]
    )
    assert "<port>" in command_line("curl t", single)
