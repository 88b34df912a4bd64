"""A deterministic stand-in for the chat provider.

The model answers from the session name and the JSON shape the prompt asks
for, never from its position in the call sequence, so a change that makes a
stage make more or fewer calls does not desynchronise it. Where an answer
needs facts (CVE ids in a retrieved advisory, the candidate list to rank,
the current step of a loop) it reads them from the prompt the program sent.
Token usage is estimated from the real request by ``ScriptedBackend``, so
``input_tokens`` follows prompt size.
"""

from __future__ import annotations

import json
import re

from pentestflow.gateway import ScriptedBackend

from generate import Script

UNUSABLE = "I could not put this into the requested format."

_CVE_RE = re.compile(r"CVE-\d{4}-\d{4,}")
_STEP_RE = re.compile(r"(?:Step|Iteration) (\d+) of \d+")
_NODE_RE = re.compile(r"^- app=(.+?) cve_id=(CVE-\S+) ", re.MULTILINE)
_EXPLOIT_RE = re.compile(r"^- cve_id=(CVE-\S+) source_ref=(\S+) ", re.MULTILINE)


def _field(prompt: str, label: str) -> str:
    match = re.search(rf"^{label}: (.*)$", prompt, re.MULTILINE)
    return match.group(1).strip() if match else ""


def _step(prompt: str) -> int:
    match = _STEP_RE.search(prompt)
    if match is None:
        raise ValueError("scripted model: prompt names no step")
    return int(match.group(1))


class ScriptedModel:
    """``backend_factory`` for ``PipelineRunner``: one backend per session."""

    def __init__(self, script: Script) -> None:
        self.script = script

    def __call__(self, session: str) -> ScriptedBackend:
        return ScriptedBackend(responder=lambda request: self.answer(session, request.prompt))

    def answer(self, session: str, prompt: str) -> str:
        s = self.script
        if session == "recon":
            step = _step(prompt)
            if step <= len(s.recon_commands):
                reply = {"thought": "probe", "command": s.recon_commands[step - 1], "done": False}
            else:
                reply = {"thought": "identified", "command": "", "done": True}
        elif session == "recon-summary":
            reply = s.summary
        elif session.startswith("search-surfaces-"):
            if '"candidates"' in prompt:
                if s.unusable_consolidation:
                    return UNUSABLE
                reply = {"candidates": []}
            else:
                reply = {
                    "relevant": True,
                    "cve_ids": sorted(set(_CVE_RE.findall(prompt))),
                    "vuln_type": "remote code execution",
                    "affected_versions": _field(prompt, "Affected versions"),
                    "leads": [],
                    "summary": "advisory describes an exploitable flaw",
                }
        elif session.startswith("search-exploits-"):
            cves = _CVE_RE.findall(prompt)
            requires = _field(prompt, "Requires")
            reply = {
                "relevant": True,
                "cve_id": cves[0] if cves else "UNASSIGNED",
                "effect": _field(prompt, "Effect") or "remote code execution",
                "applicable_versions": _field(prompt, "Works against"),
                "requirements": [requires] if requires else [],
                "notes": "public proof of concept",
            }
        elif session == "plan-surfaces":
            nodes = _NODE_RE.findall(prompt)
            reply = {
                "suggestions": [
                    {"app": app, "cve_id": cve, "vuln_type": "", "confidence": round(0.95 - 0.01 * i, 2)}
                    for i, (app, cve) in enumerate(nodes[:40])
                ]
            }
        elif session == "plan-exploits":
            if not s.rank_exploits:
                return UNUSABLE
            listed = {ref: cve for cve, ref in _EXPLOIT_RE.findall(prompt)}
            ordered = [ref for ref in s.source_order if ref in listed]
            reply = {
                "entries": [
                    {"cve_id": listed[ref], "source_ref": ref, "confidence": round(0.9 - 0.1 * i, 2)}
                    for i, ref in enumerate(ordered)
                ]
            }
        elif session.startswith("prep-"):
            if '"found"' in prompt:
                name = _field(prompt, "  name")
                value = s.param_values.get(name, "")
                reply = {"name": name, "value": value, "found": bool(value)}
            else:
                reply = {"parameters": [{"name": n, "description": d} for n, d in s.params]}
        elif session.startswith("exploit-"):
            index = int(session.split("-")[1])
            commands = s.exploit_steps[index % len(s.exploit_steps)]
            step = _step(prompt)
            if step <= len(commands):
                reply = {"thought": "next", "command": commands[step - 1], "done": False}
            else:
                success = s.exploit_finals[index % len(s.exploit_finals)]
                reply = {
                    "thought": "assess",
                    "command": "",
                    "done": True,
                    "success": success,
                    "evidence": s.token if success else "",
                }
        else:
            raise ValueError(f"scripted model: no script for session {session!r}")
        return json.dumps(reply, sort_keys=True)
