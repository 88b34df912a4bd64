"""Sandbox executor tests: scope enforcement, interactivity guard, timeouts,
output capping, concurrency, and the audit trail.

All commands here run against localhost only; scope-violation cases use
documentation addresses (TEST-NET) that are never contacted because the
violation check fires before spawning.
"""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pentestflow

from pentestflow.sandbox import (
    OUTPUT_CAP_BYTES,
    REJECTED_EXIT_CODE,
    TIMEOUT_EXIT_CODE,
    CommandSpec,
    GuardRejection,
    InteractivityGuard,
    SandboxExecutor,
    ScopeSet,
    ScopeViolation,
    SpawnFailure,
    extract_host_literals,
    rejection_result,
)

LOCAL = ("127.0.0.1", "localhost")


def make_executor(tmp_path, **kwargs) -> SandboxExecutor:
    return SandboxExecutor(audit_log_path=tmp_path / "audit.jsonl", **kwargs)


def read_audit(tmp_path):
    path = tmp_path / "audit.jsonl"
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# CommandSpec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        CommandSpec(command_line="  ", target_scope=LOCAL)
    with pytest.raises(ValueError):
        CommandSpec(command_line="echo hi", target_scope=LOCAL, timeout=0)


# ---------------------------------------------------------------------------
# Host extraction
# ---------------------------------------------------------------------------


def test_extracts_ipv4_literals():
    assert extract_host_literals("nmap -sV 10.0.0.5") == {"10.0.0.5"}
    assert extract_host_literals("ping 192.168.1.1 && curl http://10.0.0.7/x") == {
        "192.168.1.1",
        "10.0.0.7",
    }


def test_extracts_hostnames():
    assert extract_host_literals("curl http://demo.example.com/path") == {
        "demo.example.com"
    }
    assert extract_host_literals("ssh user@target.lan.local") == {"target.lan.local"}


def test_ignores_file_names_and_versions():
    assert extract_host_literals("python3 exploit.py --port 80") == set()
    assert extract_host_literals("tar xzf archive.tar.gz") == set()
    assert extract_host_literals("pip install requests==2.28.1") == set()
    assert extract_host_literals("cat notes_5.17.3.txt") == set()
    assert extract_host_literals("wget -O out.html http://10.1.2.3/") == {"10.1.2.3"}


def test_ignores_path_components():
    assert extract_host_literals("cat /etc/nginx.conf.d/site.conf") == set()
    assert extract_host_literals("ls ./relative.dir.name/x") == set()


def test_invalid_ipv4_octets_not_hosts():
    # 999.1.1.1 is not an address; and it should not sneak in as a hostname
    hosts = extract_host_literals("echo 999.1.1.1")
    assert "999.1.1.1" not in {h for h in hosts}


# ---------------------------------------------------------------------------
# ScopeSet
# ---------------------------------------------------------------------------


def test_scope_cidr_and_hostnames():
    scope = ScopeSet(["10.0.0.0/24", "demo.example.com", "127.0.0.1"])
    assert scope.contains("10.0.0.5")
    assert scope.contains("10.0.0.255")
    assert not scope.contains("10.0.1.5")
    assert scope.contains("demo.example.com")
    assert scope.contains("DEMO.example.COM")
    assert not scope.contains("other.example.com")
    assert scope.contains("127.0.0.1")
    assert not ScopeSet([])
    assert bool(scope)


def test_single_address_entry():
    scope = ScopeSet(["192.0.2.7"])
    assert scope.contains("192.0.2.7")
    assert not scope.contains("192.0.2.8")


# ---------------------------------------------------------------------------
# Scope enforcement: violations never spawn
# ---------------------------------------------------------------------------


def test_out_of_scope_never_spawns(tmp_path):
    executor = make_executor(tmp_path)
    spec = CommandSpec(
        command_line="nmap -sV 198.51.100.7", target_scope=("10.0.0.5",)
    )
    with pytest.raises(ScopeViolation) as err:
        executor.run(spec)
    assert "198.51.100.7" in str(err.value)
    assert read_audit(tmp_path) == []  # nothing spawned, nothing audited


def test_in_scope_command_runs(tmp_path):
    executor = make_executor(tmp_path)
    result = executor.run(
        CommandSpec(command_line="echo probing 127.0.0.1", target_scope=LOCAL)
    )
    assert result.exit_code == 0
    assert result.stdout == "probing 127.0.0.1\n"


def test_mixed_scope_blocked(tmp_path):
    executor = make_executor(tmp_path)
    spec = CommandSpec(
        command_line="echo 127.0.0.1 198.51.100.9", target_scope=LOCAL
    )
    with pytest.raises(ScopeViolation):
        executor.run(spec)
    assert read_audit(tmp_path) == []


def test_scope_violation_fuzz_never_audited(tmp_path):
    """Any command naming an out-of-scope host is rejected pre-spawn."""
    executor = make_executor(tmp_path)
    outside = ["198.51.100.1", "203.0.113.9", "evil.example.net", "8.8.8.8"]
    templates = [
        "nmap -sV {h}",
        "curl http://{h}/admin",
        "ping -c1 {h}",
        "echo start && wget {h}",
        "nc {h} 443",
    ]
    for host in outside:
        for template in templates:
            with pytest.raises(ScopeViolation):
                executor.run(
                    CommandSpec(
                        command_line=template.format(h=host), target_scope=LOCAL
                    )
                )
    assert read_audit(tmp_path) == []


# ---------------------------------------------------------------------------
# Execution basics
# ---------------------------------------------------------------------------


def test_echo_ok(tmp_path):
    executor = make_executor(tmp_path)
    result = executor.run(CommandSpec(command_line="echo ok", target_scope=LOCAL))
    assert result.exit_code == 0
    assert result.stdout == "ok\n"
    assert result.stderr == ""
    assert not result.timed_out
    assert not result.truncated


def test_nonzero_exit_and_stderr(tmp_path):
    executor = make_executor(tmp_path)
    result = executor.run(
        CommandSpec(command_line="echo oops >&2; exit 3", target_scope=LOCAL)
    )
    assert result.exit_code == 3
    assert result.stderr == "oops\n"


def test_timeout_kills_and_flags(tmp_path):
    executor = make_executor(tmp_path)
    start = time.monotonic()
    result = executor.run(
        CommandSpec(command_line="sleep 60", target_scope=LOCAL, timeout=1.0)
    )
    elapsed = time.monotonic() - start
    assert result.timed_out
    assert result.exit_code == TIMEOUT_EXIT_CODE
    assert elapsed < 10  # killed promptly, not after 60 s


def test_timeout_kills_whole_process_group(tmp_path):
    executor = make_executor(tmp_path)
    # the child spawns a grandchild; group kill must take both
    result = executor.run(
        CommandSpec(
            command_line="sh -c 'sleep 60' & sleep 60",
            target_scope=LOCAL,
            timeout=1.0,
        )
    )
    assert result.timed_out


def test_stdin_is_closed(tmp_path):
    executor = make_executor(tmp_path)
    result = executor.run(
        CommandSpec(command_line="cat", target_scope=LOCAL, timeout=5.0)
    )
    # cat on /dev/null exits 0 immediately instead of waiting on a TTY
    assert result.exit_code == 0
    assert result.stdout == ""
    assert not result.timed_out


def test_output_capped(tmp_path):
    executor = SandboxExecutor(
        audit_log_path=tmp_path / "audit.jsonl", output_cap=1000
    )
    result = executor.run(
        CommandSpec(command_line="head -c 5000 /dev/zero | tr '\\0' 'a'",
                    target_scope=LOCAL)
    )
    assert result.truncated
    assert len(result.stdout.encode()) == 1000
    under = executor.run(
        CommandSpec(command_line="printf aaaa", target_scope=LOCAL)
    )
    assert not under.truncated
    assert under.stdout == "aaaa"


# one- to four-byte UTF-8 characters, so cuts fall inside characters
_UTF8_TEXT = st.lists(st.sampled_from(["a", "\n", "é", "€", "😀"]), max_size=14).map("".join)


@settings(max_examples=30, deadline=None)
@given(out_text=_UTF8_TEXT, err_text=_UTF8_TEXT, cap=st.integers(min_value=1, max_value=24))
def test_capped_output_equals_decoded_prefix(tmp_path_factory, out_text, err_text, cap):
    workdir = tmp_path_factory.mktemp("cap")
    raw_out, raw_err = out_text.encode("utf-8"), err_text.encode("utf-8")
    (workdir / "out.bin").write_bytes(raw_out)
    (workdir / "err.bin").write_bytes(raw_err)
    result = SandboxExecutor(output_cap=cap).run(
        CommandSpec(
            command_line="cat out.bin; cat err.bin >&2",
            target_scope=LOCAL,
            working_dir=workdir,
        )
    )
    assert result.stdout == raw_out[:cap].decode("utf-8", errors="replace")
    assert result.stderr == raw_err[:cap].decode("utf-8", errors="replace")
    assert result.truncated == (len(raw_out) > cap or len(raw_err) > cap)


# VmHWM is the peak RSS of the probe's own address space. ru_maxrss would
# not do: on Linux it carries over, through fork and exec, the peak of the
# process that started the probe, so a large test runner would hide growth.
_PEAK_RSS_PROBE = """
from pentestflow.sandbox import CommandSpec, SandboxExecutor

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

executor = SandboxExecutor()
executor.run(CommandSpec(command_line="echo warm", target_scope=("127.0.0.1",)))
before = peak_kib()
result = executor.run(
    CommandSpec(command_line="head -c 32000000 /dev/zero", target_scope=("127.0.0.1",))
)
assert result.truncated and len(result.stdout) == 256 * 1024
print(peak_kib() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs procfs")
def test_output_past_the_cap_is_not_buffered():
    src = str(Path(pentestflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    probe = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    growth_kib = int(probe.stdout.strip())
    assert growth_kib < 8 * 1024


def test_default_cap_is_256k():
    assert OUTPUT_CAP_BYTES == 256 * 1024


def test_env_overrides_and_working_dir(tmp_path):
    executor = make_executor(tmp_path)
    workdir = tmp_path / "w"
    workdir.mkdir()
    result = executor.run(
        CommandSpec(
            command_line="echo $MARKER && pwd",
            target_scope=LOCAL,
            working_dir=workdir,
            env_overrides={"MARKER": "sentinel-value"},
        )
    )
    assert "sentinel-value" in result.stdout
    assert str(workdir) in result.stdout


def test_spawn_failure(tmp_path):
    executor = make_executor(tmp_path)
    with pytest.raises(SpawnFailure):
        executor.run(
            CommandSpec(
                command_line="echo hi",
                target_scope=LOCAL,
                working_dir=tmp_path / "does-not-exist",
            )
        )


# ---------------------------------------------------------------------------
# Interactivity guard
# ---------------------------------------------------------------------------


def test_guard_blocks_editors_and_pagers(tmp_path):
    executor = make_executor(tmp_path)
    for command in ("vim notes.txt", "nano /etc/hosts", "less big.log",
                    "ssh user@127.0.0.1", "msfconsole"):
        with pytest.raises(GuardRejection):
            executor.run(CommandSpec(command_line=command, target_scope=LOCAL))
    assert read_audit(tmp_path) == []


def test_guard_allows_noninteractive_use_of_repl_tools(tmp_path):
    executor = make_executor(tmp_path)
    result = executor.run(
        CommandSpec(command_line="python3 -c 'print(42)'", target_scope=LOCAL)
    )
    assert result.stdout == "42\n"


def test_guard_blocks_bare_repl(tmp_path):
    executor = make_executor(tmp_path)
    with pytest.raises(GuardRejection):
        executor.run(CommandSpec(command_line="python3", target_scope=LOCAL))


def test_guard_sees_through_pipes_and_chains():
    guard = InteractivityGuard()
    for command in (
        "echo x | vim -",
        "true && less file",
        "echo a; nano b",
        "ls\nvim x",
    ):
        with pytest.raises(GuardRejection):
            guard.check(command)


def test_guard_sees_through_wrappers():
    guard = InteractivityGuard()
    with pytest.raises(GuardRejection):
        guard.check("sudo vim /etc/passwd")
    with pytest.raises(GuardRejection):
        guard.check("env FOO=1 vim x")
    with pytest.raises(GuardRejection):
        guard.check("TERM=xterm vim x")
    guard.check("sudo systemctl status nginx --no-pager")  # fine


def test_guard_custom_denylist(tmp_path):
    listing = tmp_path / "deny.txt"
    listing.write_text("# comment\nfrobnicator\nshell_tool!\n")
    guard = InteractivityGuard(listing)
    with pytest.raises(GuardRejection):
        guard.check("frobnicator --all")
    with pytest.raises(GuardRejection):
        guard.check("shell_tool")
    guard.check("shell_tool run.script")  # args make it non-interactive


def test_rejection_result_shape():
    result = rejection_result("out-of-scope host(s): 203.0.113.1")
    assert result.exit_code == REJECTED_EXIT_CODE
    assert "rejected" in result.stderr
    assert result.stdout == ""
    assert not result.timed_out


# ---------------------------------------------------------------------------
# Audit log
# ---------------------------------------------------------------------------


def test_audit_records_spawned_commands_only(tmp_path):
    executor = make_executor(tmp_path)
    executor.run(CommandSpec(command_line="echo one", target_scope=LOCAL))
    with pytest.raises(ScopeViolation):
        executor.run(
            CommandSpec(command_line="curl 203.0.113.5", target_scope=LOCAL)
        )
    with pytest.raises(GuardRejection):
        executor.run(CommandSpec(command_line="vim x", target_scope=LOCAL))
    executor.run(CommandSpec(command_line="echo two", target_scope=LOCAL))

    records = read_audit(tmp_path)
    assert [r["argv"] for r in records] == ["echo one", "echo two"]
    for record in records:
        assert record["exit_code"] == 0
        assert record["timed_out"] is False
        assert record["duration"] >= 0
        assert "timestamp" in record


def test_concurrent_runs(tmp_path):
    executor = make_executor(tmp_path)
    def run_one(i):
        return executor.run(
            CommandSpec(command_line=f"echo task{i}", target_scope=LOCAL)
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run_one, range(16)))
    for i, result in enumerate(results):
        assert result.stdout == f"task{i}\n"
    records = read_audit(tmp_path)
    assert len(records) == 16
    assert {r["argv"] for r in records} == {f"echo task{i}" for i in range(16)}
