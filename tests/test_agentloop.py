"""The shared agent loop: one yes/no coercion for both agents.

Each value in the table drives the recon loop and the exploitation loop
through a scripted model; both must read it the same way, as ``done`` and
(for exploitation) as ``success``.
"""

import json

import pytest

from pentestflow.agentloop import StopReason
from pentestflow.execution import (
    ExecutionAgent,
    OutcomeStatus,
    ParameterRequirement,
    ParamSource,
)
from pentestflow.gateway import ChatSession, ScriptedBackend
from pentestflow.knowledge import ExploitNode
from pentestflow.rag import RagStore
from pentestflow.recon import ReconState, run_recon
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
