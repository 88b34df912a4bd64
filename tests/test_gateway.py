"""Gateway tests: pricing arithmetic, ledgers, sessions, structured output,
and record/replay backends.

Expected costs are frozen from independent hand computation (exact decimal
arithmetic), not from running the code under test.
"""

import json
import os
import random
import socket
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentestflow.gateway import (
    RESPONSE_RESERVE_TOKENS,
    BackendUnreachable,
    ChatRequest,
    ChatSession,
    ContextOverflow,
    HttpChatBackend,
    ProviderProfile,
    RecordingBackend,
    ReplayBackend,
    ReplayMismatch,
    ResponseSchema,
    SchemaUnknown,
    ScriptedBackend,
    TokenUsage,
    TranscriptEntry,
    UsageLedger,
    cost_of,
    estimate_tokens,
    extract_json_object,
    read_transcript,
    register_schema,
    request_digest,
    transcript_lines,
    validate_required,
    write_transcript,
)

from conftest import GPT35_PROFILE, GPT4O_PROFILE, WIDE_PROFILE, scripted_session


# ---------------------------------------------------------------------------
# Token estimation
# ---------------------------------------------------------------------------


def test_estimate_tokens_rounds_up():
    assert estimate_tokens("") == 0
    assert estimate_tokens("a") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 8) == 2
    assert estimate_tokens("x" * 9) == 3


@given(st.text(max_size=400))
def test_estimate_tokens_matches_ceiling_oracle(text):
    expected = -(-len(text) // 4) if text else 0
    assert estimate_tokens(text) == expected


# ---------------------------------------------------------------------------
# Pricing: frozen expected values
# ---------------------------------------------------------------------------


def test_cost_one_million_input_tokens_cheap_model():
    # hand computation: 1,000,000 tokens at $0.50 per 1M = $0.50 exactly
    assert cost_of(TokenUsage(1_000_000, 0), GPT35_PROFILE) == 0.50


def test_cost_zero_usage_is_zero():
    for profile in (GPT35_PROFILE, GPT4O_PROFILE, WIDE_PROFILE):
        assert cost_of(TokenUsage(0, 0), profile) == 0.0


def test_cost_mixed_usage_premium_model():
    # hand computation: 2M * $5/1M + 1M * $15/1M = $10 + $15 = $25 exactly
    assert cost_of(TokenUsage(2_000_000, 1_000_000), GPT4O_PROFILE) == 25.00


def test_cost_is_linear_in_each_component():
    usage_a = TokenUsage(123, 456)
    usage_b = TokenUsage(789, 12)
    combined = TokenUsage(123 + 789, 456 + 12)
    total = cost_of(usage_a, GPT35_PROFILE) + cost_of(usage_b, GPT35_PROFILE)
    assert cost_of(combined, GPT35_PROFILE) == pytest.approx(total, abs=1e-12)


def test_negative_tokens_rejected():
    with pytest.raises(ValueError):
        TokenUsage(-1, 0)
    with pytest.raises(ValueError):
        TokenUsage(0, -1)


def test_profile_validation():
    with pytest.raises(ValueError):
        ProviderProfile("p", "m", 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ProviderProfile("p", "m", 100, -1.0, 1.0)
    with pytest.raises(ValueError):
        ProviderProfile("p", "m", 100, 1.0, 1.0, temperature=1.5)


# ---------------------------------------------------------------------------
# Ledger linearity
# ---------------------------------------------------------------------------


def test_ledger_matches_sum_of_costs_randomized():
    rng = random.Random(0xA11CE)
    for trial in range(50):
        ledger = UsageLedger()
        profile = ProviderProfile(
            provider_id=f"r{trial}",
            model_name="m",
            context_window=10_000,
            input_price=rng.choice([0.25, 0.50, 1.00, 5.00, 7.77]),
            output_price=rng.choice([0.75, 1.50, 3.00, 15.00]),
        )
        usages = [
            TokenUsage(rng.randrange(0, 2_000_000), rng.randrange(0, 2_000_000))
            for _ in range(rng.randrange(1, 40))
        ]
        for usage in usages:
            ledger.add(usage, profile)
        float_sum = sum(cost_of(u, profile) for u in usages)
        assert abs(ledger.accumulated_cost - float_sum) < 1e-9
        # independent exact oracle via rational arithmetic
        exact = sum(
            (
                Fraction(u.input_tokens)
                * Fraction(str(profile.input_price))
                / 1_000_000
                + Fraction(u.output_tokens)
                * Fraction(str(profile.output_price))
                / 1_000_000
            )
            for u in usages
        )
        assert abs(ledger.accumulated_cost - float(exact)) < 1e-6
        assert ledger.call_count == len(usages)
        assert ledger.input_tokens == sum(u.input_tokens for u in usages)
        assert ledger.output_tokens == sum(u.output_tokens for u in usages)


def test_ledger_concurrent_accumulation():
    ledger = UsageLedger()
    per_thread = 200
    threads = [
        threading.Thread(
            target=lambda: [
                ledger.add(TokenUsage(3, 7), GPT35_PROFILE) for _ in range(per_thread)
            ]
        )
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ledger.call_count == 8 * per_thread
    assert ledger.input_tokens == 3 * 8 * per_thread
    assert ledger.output_tokens == 7 * 8 * per_thread
    expected = 8 * per_thread * cost_of(TokenUsage(3, 7), GPT35_PROFILE)
    assert abs(ledger.accumulated_cost - expected) < 1e-9


def test_ledger_merge_and_round_trip():
    a = UsageLedger()
    b = UsageLedger()
    a.add(TokenUsage(10, 20), GPT35_PROFILE)
    b.add(TokenUsage(30, 40), GPT4O_PROFILE)
    a.merge(b)
    assert a.input_tokens == 40
    assert a.output_tokens == 60
    assert a.call_count == 2
    assert a.to_dict() == {
        "input_tokens": 40,
        "output_tokens": 60,
        "call_count": 2,
        "accumulated_cost": a.accumulated_cost,
    }


# ---------------------------------------------------------------------------
# Sessions: stateless calls
# ---------------------------------------------------------------------------


def test_complete_charges_ledger_and_keeps_no_history():
    requests = []
    replies = iter(["first reply", "second reply"])

    def responder(request):
        requests.append(request)
        return next(replies)

    session = ChatSession("s", "system", WIDE_PROFILE, ScriptedBackend(responder=responder))
    text, usage = session.complete("hello")
    assert text == "first reply"
    assert usage.input_tokens >= 1 and usage.output_tokens >= 1
    session.complete("again")
    assert [(r.history, r.prompt) for r in requests] == [((), "hello"), ((), "again")]
    assert session.history == []
    assert session.ledger.call_count == 2


def test_empty_prompt_rejected():
    session = scripted_session(["x"])
    with pytest.raises(ValueError):
        session.complete("")


def test_overflow_when_prompt_alone_too_large():
    tiny = ProviderProfile("tiny", "m", context_window=10, input_price=0, output_price=0)
    session = scripted_session(["x"], system_message="s" * 20, profile=tiny)
    with pytest.raises(ContextOverflow):
        session.complete("p" * 40)


@settings(max_examples=60, deadline=None)
@given(
    window=st.integers(min_value=30, max_value=400),
    lengths=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=12),
)
def test_request_fits_window_property(window, lengths):
    """After any call sequence: a call overflows exactly when the system
    message and its prompt overrun the window, every request sent fits it
    and carries no earlier turn, and the session keeps no history."""
    profile = ProviderProfile("w", "m", window, 0, 0)
    system = "sy"
    sent = []

    def responder(request):
        sent.append(request)
        return "ok!!"

    session = ChatSession("prop", system, profile, ScriptedBackend(responder=responder))
    for n in lengths:
        prompt = "q" * n
        if estimate_tokens(system) + estimate_tokens(prompt) > window:
            with pytest.raises(ContextOverflow):
                session.complete(prompt)
            continue
        session.complete(prompt)
        request = sent[-1]
        assert request.history == ()
        assert estimate_tokens(request.system_message) + estimate_tokens(request.prompt) <= window
    assert session.history == []


def test_repair_that_would_overflow_the_window_is_not_sent():
    """A prompt that fills its budget, then an unusable reply of ~2,000
    tokens: the repair request would need the prompt, the reply and the
    repair prompt, more than the 4,000-token window, so it is not sent."""
    register_schema(ResponseSchema("gwtest_window", ("k",)), replace=True)
    profile = ProviderProfile("w4k", "m", 4000, 0, 0)
    sent = []

    def responder(request):
        sent.append(request)
        return "x" * 8000

    session = ChatSession(
        "s", "sys", profile, ScriptedBackend(responder=responder), max_repairs=1
    )
    response = session.complete_structured(
        "q" * (4 * session.prompt_budget()), "gwtest_window"
    )
    assert not response.valid
    assert response.repair_attempts == 0
    assert response.raw_text == "x" * 8000
    assert len(sent) == 1


@settings(max_examples=80, deadline=None)
@given(
    window=st.integers(min_value=40, max_value=RESPONSE_RESERVE_TOKENS + 600),
    prompt_len=st.integers(min_value=1, max_value=1600),
    reply_lens=st.lists(st.integers(min_value=0, max_value=1600), min_size=4, max_size=4),
    max_repairs=st.integers(min_value=0, max_value=3),
)
def test_structured_requests_fit_window_property(window, prompt_len, reply_lens, max_repairs):
    """Replies that never validate: the first request fits the window, every
    repair request also leaves the reply's reserve free, and repairing stops
    early exactly when the next repair request would not."""
    register_schema(ResponseSchema("gwtest_fit", ("k",)), replace=True)
    profile = ProviderProfile("w", "m", window, 0, 0)
    sent = []

    def responder(request):
        sent.append(request)
        return "r" * reply_lens[len(sent) - 1]

    def tokens(request):
        texts = ("sy", *(content for _, content in request.history), request.prompt)
        return sum(estimate_tokens(text) for text in texts)

    session = ChatSession("s", "sy", profile, ScriptedBackend(responder=responder))
    prompt = "q" * prompt_len
    if estimate_tokens("sy") + estimate_tokens(prompt) > window:
        with pytest.raises(ContextOverflow):
            session.complete_structured(prompt, "gwtest_fit", max_repairs=max_repairs)
        return
    response = session.complete_structured(prompt, "gwtest_fit", max_repairs=max_repairs)
    assert not response.valid
    assert len(sent) == 1 + response.repair_attempts
    assert tokens(sent[0]) <= window
    for request in sent[1:]:
        assert tokens(request) + RESPONSE_RESERVE_TOKENS <= window
    # the repair prompt, as a session with room for it sends it
    wide_sent = []
    wide = ChatSession(
        "w", "sy", WIDE_PROFILE,
        ScriptedBackend(responder=lambda request: wide_sent.append(request) or "r"),
    )
    wide.complete_structured("go", "gwtest_fit", max_repairs=1)
    if response.repair_attempts < max_repairs:
        last = sent[-1]
        next_repair = ChatRequest(
            "sy",
            last.history + (("user", last.prompt), ("assistant", response.raw_text)),
            wide_sent[1].prompt,
            profile,
        )
        assert tokens(next_repair) + RESPONSE_RESERVE_TOKENS > window


# ---------------------------------------------------------------------------
# Structured calls send no earlier turn
# ---------------------------------------------------------------------------

register_schema(ResponseSchema("gwtest_stateless", ("k",)), replace=True)

EARLIER_TURNS = [("user", "earlier prompt"), ("assistant", "earlier reply")]


def _session_with_history(responder, profile=WIDE_PROFILE):
    backend = ScriptedBackend(responder=responder)
    session = ChatSession("s", "sys", profile, backend)
    session.history.extend(EARLIER_TURNS)
    return session, backend


def test_stateless_call_leaves_history_untouched():
    session, _ = _session_with_history(lambda request: '{"k": 1}')
    history = session.history
    response = session.complete_structured("go", "gwtest_stateless")
    assert response.valid and response.parsed == {"k": 1}
    assert session.history is history
    assert session.history == EARLIER_TURNS


def test_stateless_call_charges_every_attempt():
    replies = iter(["no json", '{"wrong": 1}', '{"k": 2}'])
    session, backend = _session_with_history(lambda request: next(replies))
    response = session.complete_structured("go", "gwtest_stateless", max_repairs=2)
    assert response.valid and response.repair_attempts == 2
    assert backend.calls == 3
    assert session.ledger.call_count == backend.calls
    assert session.ledger.input_tokens > 0


def test_stateless_repair_carries_only_the_failed_exchange():
    requests = []

    def responder(request):
        requests.append(request)
        return "not json" if len(requests) == 1 else '{"k": 3}'

    session, _ = _session_with_history(responder)
    session.complete_structured("go", "gwtest_stateless")
    first, repair = requests
    assert first.history == ()
    assert repair.history == (("user", "go"), ("assistant", "not json"))
    assert "JSON" in repair.prompt
    assert session.history == EARLIER_TURNS


def test_stateless_call_never_evicts_history():
    # system 1 token + earlier turns 8 + prompt 50 > window 55, but the
    # call sends none of the session's turns, so it fits and drops none
    requests = []

    def responder(request):
        requests.append(request)
        return '{"k": 4}'

    profile = ProviderProfile("tight", "m", 55, 0, 0)
    session, _ = _session_with_history(responder, profile)
    history = session.history
    session.complete_structured("p" * 200, "gwtest_stateless")
    assert [r.history for r in requests] == [()]
    assert session.history is history
    assert session.history == EARLIER_TURNS


# ---------------------------------------------------------------------------
# JSON extraction and structured output
# ---------------------------------------------------------------------------


def test_extract_plain_object():
    assert extract_json_object('{"a": 1}') == {"a": 1}


def test_extract_from_code_fence():
    text = 'Sure, here you go:\n```json\n{"command": "ls", "done": false}\n```\nHope it helps!'
    assert extract_json_object(text) == {"command": "ls", "done": False}


def test_extract_from_surrounding_prose():
    text = 'I think {"x": [1, 2], "y": "z"} is what you want.'
    assert extract_json_object(text) == {"x": [1, 2], "y": "z"}


def test_extract_skips_non_dict_json():
    assert extract_json_object("[1, 2, 3]") is None
    assert extract_json_object("just words") is None
    assert extract_json_object('nested: {"a": {"b": 2}} trailing') == {"a": {"b": 2}}


def test_extract_truncated_json_fails_cleanly():
    assert extract_json_object('{"a": 1, "b": ') is None


def test_recon_style_reply_validates_without_thought_field():
    reply = '{"command": "nmap -sV 10.0.0.5", "done": false}'
    parsed = extract_json_object(reply)
    from pentestflow.gateway import SCHEMAS

    schema = SCHEMAS.get("recon_step")
    assert validate_required(schema, parsed) is None


def test_structured_happy_path():
    register_schema(
        ResponseSchema("gwtest_basic", ("alpha", "beta")), replace=True
    )
    session = scripted_session(['{"alpha": 1, "beta": 2}'])
    response = session.complete_structured("go", "gwtest_basic")
    assert response.valid
    assert response.parsed == {"alpha": 1, "beta": 2}
    assert response.repair_attempts == 0


def test_structured_fenced_reply_valid():
    register_schema(ResponseSchema("gwtest_fence", ("k",)), replace=True)
    session = scripted_session(['```json\n{"k": "v"}\n```'])
    response = session.complete_structured("go", "gwtest_fence")
    assert response.valid
    assert response.parsed == {"k": "v"}


def test_structured_prose_with_zero_repairs_invalid():
    register_schema(ResponseSchema("gwtest_zero", ("k",)), replace=True)
    session = scripted_session(["Sure! Here is the information you asked for."])
    response = session.complete_structured("go", "gwtest_zero", max_repairs=0)
    assert not response.valid
    assert response.repair_attempts == 0
    assert "Sure!" in response.raw_text


def test_structured_repair_recovers_and_is_bounded():
    register_schema(ResponseSchema("gwtest_repair", ("k",)), replace=True)
    backend = ScriptedBackend(
        responses=["no json here", '{"wrong": 1}', '{"k": 9}']
    )
    session = ChatSession("s", "sys", WIDE_PROFILE, backend)
    response = session.complete_structured("go", "gwtest_repair", max_repairs=2)
    assert response.valid
    assert response.parsed == {"k": 9}
    assert response.repair_attempts == 2
    assert backend.calls == 3  # 1 + max_repairs exactly when both repairs run


def test_structured_call_bound_never_exceeded():
    register_schema(ResponseSchema("gwtest_bound", ("k",)), replace=True)
    for max_repairs in (0, 1, 2, 3):
        backend = ScriptedBackend(responder=lambda request: "never json")
        session = ChatSession("s", "sys", WIDE_PROFILE, backend)
        response = session.complete_structured(
            "go", "gwtest_bound", max_repairs=max_repairs
        )
        assert not response.valid
        assert backend.calls == 1 + max_repairs
        assert response.raw_text == "never json"


def test_structured_repair_prompt_names_the_error():
    register_schema(ResponseSchema("gwtest_msg", ("needed",)), replace=True)
    seen_prompts = []

    def responder(request: ChatRequest) -> str:
        seen_prompts.append(request.prompt)
        return '{"other": 1}'

    session = ChatSession(
        "s", "sys", WIDE_PROFILE, ScriptedBackend(responder=responder)
    )
    session.complete_structured("go", "gwtest_msg", max_repairs=1)
    assert len(seen_prompts) == 2
    assert "needed" in seen_prompts[1]
    assert "JSON" in seen_prompts[1]


def test_unknown_schema_raises():
    session = scripted_session(["x"])
    with pytest.raises(SchemaUnknown):
        session.complete_structured("go", "no-such-schema-anywhere")


# Fifty hostile replies: prose wrappers, fences, truncation, wrong shapes.
# Shared with the acceptance suite's structured-output robustness check.
MALFORMED_REPLIES = [
    "",
        "    ",
        "plain prose, no braces",
        "{",
        "}",
        '{"verdict": ',
        '{"verdict"}',
        "null",
        "true",
        "[1, 2, 3]",
        '"a bare string"',
        '{"verdict": true}',
        '{"verdict": true} trailing garbage }{',
        'prefix {"verdict": "yes"} suffix',
        '```\n{"verdict": 1}\n```',
        "```json\n{'verdict': 1}\n```",  # single quotes: not JSON
        '```json\n{"verdict": null}\n```',
        '{"other": 1}',
        '{"verdict": {"nested": {"deep": [1, {"x": 2}]}}}',
        '{"verdict": "✓ unicode ✓"}',
        "{} {} {}",
        '{"a": 1} {"verdict": 2}',
        '﻿{"verdict": 3}',
        '{"verdict": 1e999}',
        '{"verdict": -0.0}',
        'Here is the JSON:\n\n```JSON\n{"verdict": "ok"}\n```\n\nLet me know!',
        "I cannot help with that request.",
        '<json>{"verdict": 4}</json>',
        '{"verdict": "line\\nbreak"}',
        '{"verdict": "tab\\tchar"}',
        "{{double braces}}",
        '{"verdict": [1,2,',
        "NaN",
        '{"verdict": "value", }',
        "0x7f",
        "verdict: yes",
        "- verdict: yes",
        '{"VERDICT": 1}',
        '{"verdict":"with trailing newline"}\n\n\n',
        "```python\nprint('hi')\n```",
        '` {"verdict": 5} `',
        '{"verdict": "\\u00e9"}',
        "response ends mid wo",
        '{"verdict": 1}{"verdict": 2}',
        "###",
        "{}",
        '{"verdict": false}',
        "Answer: the verdict field should be set to 1.",
        '```json\n{\n  "verdict": "multi\\nline"\n}\n```',
        "total nonsense " * 50,
]


def test_malformed_response_corpus_never_crashes():
    """Structured completion over a corpus of hostile replies: every call
    either validates or exhausts repairs cleanly within the call bound."""
    register_schema(ResponseSchema("gwtest_corpus", ("verdict",)), replace=True)
    assert len(MALFORMED_REPLIES) == 50
    for reply in MALFORMED_REPLIES:
        backend = ScriptedBackend(responder=lambda request, r=reply: r)
        session = ChatSession("s", "sys", WIDE_PROFILE, backend)
        response = session.complete_structured("go", "gwtest_corpus", max_repairs=2)
        assert backend.calls <= 3
        if response.valid:
            assert "verdict" in response.parsed
        else:
            assert response.repair_attempts == 2
            assert backend.calls == 3


# ---------------------------------------------------------------------------
# Transcripts and replay
# ---------------------------------------------------------------------------


def _sample_entries():
    return [
        TranscriptEntry(0, "d0", "first", 10, 5),
        TranscriptEntry(1, "", "second", 20, 6),
        TranscriptEntry(2, "d2", 'with "quotes" and ünïcode', 30, 7),
    ]


def test_transcript_write_read_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    entries = _sample_entries()
    assert write_transcript(entries, path) == 3
    loaded = read_transcript(path)
    assert loaded == entries
    # byte identity across a second write
    first = path.read_bytes()
    write_transcript(loaded, path)
    assert path.read_bytes() == first


def test_replay_in_recorded_order():
    entries = [
        TranscriptEntry(0, "", "alpha", 1, 1),
        TranscriptEntry(1, "", "beta", 2, 2),
    ]
    session = ChatSession("s", "sys", WIDE_PROFILE, ReplayBackend(entries=entries))
    text0, usage0 = session.complete("anything")
    text1, usage1 = session.complete("else")
    assert (text0, text1) == ("alpha", "beta")
    assert usage0 == TokenUsage(1, 1)
    assert usage1 == TokenUsage(2, 2)


def test_replay_exhaustion_raises():
    session = ChatSession(
        "s",
        "sys",
        WIDE_PROFILE,
        ReplayBackend(entries=[TranscriptEntry(0, "", "only", 1, 1)]),
    )
    session.complete("one")
    with pytest.raises(ReplayMismatch):
        session.complete("two")


def test_replay_digest_mismatch_warns_but_proceeds(caplog):
    entries = [TranscriptEntry(0, "f" * 64, "reply", 1, 1)]
    session = ChatSession("s", "sys", WIDE_PROFILE, ReplayBackend(entries=entries))
    with caplog.at_level("WARNING", logger="pentestflow.gateway"):
        text, _ = session.complete("drifted prompt")
    assert text == "reply"
    assert any("mismatch" in r.message for r in caplog.records)


def test_replay_digest_match_is_silent(caplog):
    system, prompt = "sys", "hello"
    digest = request_digest(system, [], prompt)
    entries = [TranscriptEntry(0, digest, "reply", 1, 1)]
    session = ChatSession("s", system, WIDE_PROFILE, ReplayBackend(entries=entries))
    with caplog.at_level("WARNING", logger="pentestflow.gateway"):
        session.complete(prompt)
    assert not any("mismatch" in r.message for r in caplog.records)


def test_replay_missing_file_raises(tmp_path):
    backend = ReplayBackend(path=tmp_path / "absent.jsonl")
    session = ChatSession("s", "sys", WIDE_PROFILE, backend)
    with pytest.raises(ReplayMismatch):
        session.complete("x")


def test_record_zero_and_three_calls(tmp_path):
    backend = RecordingBackend(ScriptedBackend(responder=lambda r: "ok"))
    session = ChatSession("s", "sys", WIDE_PROFILE, backend)
    empty_path = tmp_path / "empty.jsonl"
    assert write_transcript(backend.entries, empty_path) == 0
    assert empty_path.read_bytes() == b""

    for prompt in ("a", "b", "c"):
        session.complete(prompt)
    path = tmp_path / "rec.jsonl"
    assert write_transcript(backend.entries, path) == 3
    loaded = read_transcript(path)
    assert [e.sequence_no for e in loaded] == [0, 1, 2]


def test_replayed_session_rerecorded_is_byte_identical(tmp_path):
    """Record a scripted run, replay it while re-recording, compare bytes."""
    prompts = ["scan the target", "probe port 80", "wrap up"]
    replies = ["running nmap", "curl output", "all done"]

    original = RecordingBackend(ScriptedBackend(responses=list(replies)))
    session = ChatSession("s", "sys", WIDE_PROFILE, original)
    for p in prompts:
        session.complete(p)
    first_path = tmp_path / "first.jsonl"
    write_transcript(original.entries, first_path)

    rerecord = RecordingBackend(ReplayBackend(path=first_path))
    replay_session = ChatSession("s", "sys", WIDE_PROFILE, rerecord)
    for p in prompts:
        replay_session.complete(p)
    second_path = tmp_path / "second.jsonl"
    write_transcript(rerecord.entries, second_path)

    assert first_path.read_bytes() == second_path.read_bytes()


def test_scripted_backend_exhaustion():
    backend = ScriptedBackend(responses=["only one"])
    session = ChatSession("s", "sys", WIDE_PROFILE, backend)
    session.complete("a")
    with pytest.raises(BackendUnreachable):
        session.complete("b")


def test_request_digest_sensitivity():
    base = request_digest("sys", [("user", "a")], "p")
    assert request_digest("sys", [("user", "a")], "p") == base
    assert request_digest("sys2", [("user", "a")], "p") != base
    assert request_digest("sys", [("user", "b")], "p") != base
    assert request_digest("sys", [("user", "a")], "q") != base
    assert len(base) == 64
    int(base, 16)  # hex


def test_transcript_lines_are_compact_json():
    lines = transcript_lines(_sample_entries())
    for line in lines:
        doc = json.loads(line)
        assert list(doc) == sorted(doc)
        assert ": " not in line.replace('": ', '":_')  # compact separators


# ---------------------------------------------------------------------------
# Live HTTP backend, against a local server
# ---------------------------------------------------------------------------

CHAT_REQUEST = ChatRequest(
    "system prompt",
    (("user", "hi"), ("assistant", "hello")),
    "next step",
    GPT4O_PROFILE,
)
# hand computation from estimate_tokens: system 13 chars -> 4, history
# 2 + 5 chars -> 1 + 2, prompt 9 chars -> 3; reply "ok then" 7 chars -> 2
CHAT_REQUEST_ESTIMATE = TokenUsage(10, 2)


def _chat_reply(text="ok then", usage=None) -> bytes:
    doc = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage is not None:
        doc["usage"] = usage
    return json.dumps(doc).encode("utf-8")


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.received.append((self.path, self.headers, self.rfile.read(length)))
        status, body = self.server.reply
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    """A chat endpoint on 127.0.0.1 that records requests and sends .reply."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.received = []
    usage = {"prompt_tokens": 12, "completion_tokens": 3}
    server.reply = (200, _chat_reply(usage=usage))
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_http_backend_sends_chat_body_and_bearer(chat_server, monkeypatch):
    monkeypatch.setenv("PENTESTFLOW_TEST_KEY", "sekret")
    backend = HttpChatBackend(chat_server.url, "PENTESTFLOW_TEST_KEY", timeout=10)
    text, usage = backend.send(CHAT_REQUEST)
    assert (text, usage) == ("ok then", TokenUsage(12, 3))
    [(path, headers, body)] = chat_server.received
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer sekret"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {
        "model": "gpt-4o",
        "messages": [
            {"role": "system", "content": "system prompt"},
            {"role": "user", "content": "hi"},
            {"role": "assistant", "content": "hello"},
            {"role": "user", "content": "next step"},
        ],
        "temperature": 0.0,
    }


def test_http_backend_without_credential_env_sends_no_authorization(chat_server):
    HttpChatBackend(chat_server.url, timeout=10).send(CHAT_REQUEST)
    [(_, headers, _)] = chat_server.received
    assert "Authorization" not in headers


@pytest.mark.parametrize(
    "usage", [None, {}, {"prompt_tokens": 0, "completion_tokens": 0}]
)
def test_http_backend_estimates_missing_or_zero_usage(chat_server, usage):
    chat_server.reply = (200, _chat_reply(usage=usage))
    text, got = HttpChatBackend(chat_server.url, timeout=10).send(CHAT_REQUEST)
    assert (text, got) == ("ok then", CHAT_REQUEST_ESTIMATE)


def test_http_backend_unset_credential_sends_nothing(chat_server, monkeypatch):
    monkeypatch.delenv("PENTESTFLOW_TEST_KEY", raising=False)
    backend = HttpChatBackend(chat_server.url, "PENTESTFLOW_TEST_KEY", timeout=10)
    with pytest.raises(BackendUnreachable, match="PENTESTFLOW_TEST_KEY"):
        backend.send(CHAT_REQUEST)
    assert chat_server.received == []


@pytest.mark.parametrize(
    "reply",
    [
        (500, b'{"error": "boom"}'),
        (200, b"<html>not json</html>"),
        (200, b'{"usage": {"prompt_tokens": 1, "completion_tokens": 1}}'),
        (200, b'{"choices": []}'),
    ],
    ids=["http-500", "non-json", "no-choices", "empty-choices"],
)
def test_http_backend_bad_reply_is_unreachable(chat_server, reply):
    chat_server.reply = reply
    with pytest.raises(BackendUnreachable):
        HttpChatBackend(chat_server.url, timeout=10).send(CHAT_REQUEST)
    assert len(chat_server.received) == 1


def test_http_backend_connection_refused_is_unreachable():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    url = f"http://127.0.0.1:{port}/v1/chat/completions"
    with pytest.raises(BackendUnreachable):
        HttpChatBackend(url, timeout=10).send(CHAT_REQUEST)


def test_http_backend_needs_no_requests_package(chat_server):
    """The live backend runs with the requests package blocked from import."""
    code = textwrap.dedent(
        """
        import sys
        sys.modules["requests"] = None
        from pentestflow.gateway import ChatRequest, HttpChatBackend, ProviderProfile
        profile = ProviderProfile("p", "m", 1000, 0.0, 0.0)
        request = ChatRequest("sys", (), "hi", profile)
        text, usage = HttpChatBackend(sys.argv[1], timeout=10).send(request)
        print(text, usage.input_tokens, usage.output_tokens)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code, chat_server.url],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ok", "then", "12", "3"]
