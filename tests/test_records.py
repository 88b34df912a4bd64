"""The persisted formats: what each record class writes, that every record
reads back as itself, and that a malformed mapping is refused with its key
named.

The golden texts pin the bytes the program writes (run records, configs,
knowledge node files, transcripts, and the two reports rendered from a run
record): any change to them is a format change and has to show up here. Each golden is the record's ``to_dict`` dumped
without ``sort_keys``, so field order is pinned too; the planning prompt
dumps the environment summary that way.
"""

import importlib
import json
import pkgutil
import re
from dataclasses import MISSING, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pentestflow
from pentestflow.bench import CveMetrics, TargetManifest
from pentestflow.config import ConfigError, ProviderSpec
from pentestflow.execution import ErrorHistoryEntry, ExploitOutcome, OutcomeStatus
from pentestflow.gateway import (
    ProviderProfile,
    TranscriptEntry,
    UsageLedger,
    transcript_lines,
)
from pentestflow.knowledge import EFFECT_VOCABULARY, ExploitNode, VulnerabilityNode
from pentestflow.pipeline import (
    KNOWLEDGE_OFFLINE,
    KNOWLEDGE_ONLINE,
    STAGES,
    STATUS_COMPLETE,
    STATUS_INCOMPLETE,
    RunConfig,
    RunRecord,
    StageStatus,
    record_to_bytes,
    write_report_files,
)
from pentestflow.planning import AttackSurfaceSuggestion, ExploitPlan, PlanEntry
from pentestflow.recon import EnvironmentSummary, ServiceFingerprint
from pentestflow.records import Record

# ---------------------------------------------------------------------------
# One fixed instance of each class
# ---------------------------------------------------------------------------

FINGERPRINT = ServiceFingerprint(
    "10.0.0.5", 8080, "tcp", "http", "DemoSrv", "1.2.3", "Server: DemoSrv/1.2.3 ü"
)
SUMMARY = EnvironmentSummary(
    target="10.0.0.5",
    os_guess="linux",
    fingerprints=(FINGERPRINT, ServiceFingerprint("10.0.0.5", 22, "tcp", "ssh", "OpenSSH")),
    notes="two services",
    collected_at="1970-01-01T00:00:02Z",
)
EXPLOIT_B = ExploitNode(
    "repo/b", "Remote  Code Execution", "<=2.0", ("python3", "requests"), "/poc/b.py"
)
EXPLOIT_A = ExploitNode("repo/a", "file upload")
VULN = VulnerabilityNode(
    cve_id="CVE-2021-0001",
    vuln_type="rce",
    affected_versions=">=1.0,<=2.0",
    summary="a deserialization flaw",
    exploits=[EXPLOIT_B, EXPLOIT_A],
    sources=["https://z.example", "https://a.example", "https://z.example"],
    epss=12.5,
)
VULN_NO_EPSS = VulnerabilityNode(
    cve_id="UNASSIGNED",
    exploits=[EXPLOIT_B, EXPLOIT_A],
    sources=["b", "a"],
)
SUGGESTION = AttackSurfaceSuggestion("DemoSrv", "CVE-2021-0001", "rce", 0.9, "version matches")
ENTRY = PlanEntry("CVE-2021-0001", EXPLOIT_B, 0.75, "remote code execution", "DemoSrv")
PLAN = ExploitPlan([ENTRY, PlanEntry("CVE-2021-0001", EXPLOIT_A, 1, "file upload")])
ERROR = ErrorHistoryEntry(2, "python3 b.py", "abcd1234abcd1234", "Traceback", "pip install x")
FAILED = ExploitOutcome(OutcomeStatus.FAILED, "", 3, [ERROR, ErrorHistoryEntry(3, "ls", "ff")])
SUCCESS = ExploitOutcome(OutcomeStatus.SUCCESS, "PFB-token", 1, [], True)
LEDGER = UsageLedger(input_tokens=240, output_tokens=60, call_count=2, accumulated_cost=0.00021)
TRANSCRIPT = TranscriptEntry(0, "d" * 64, 'reply with "quotes" and ünïcode', 120, 30)
STAGE = StageStatus("complete", 3.0, 0.0001)
METRICS = CveMetrics(97.19, 3.9)
MANIFEST = TargetManifest(
    name="alpha",
    cves={"CVE-2024-0001": METRICS, "CVE-2024-0002": CveMetrics(10.0)},
    application="DemoSrv",
    version="1.2.3",
    cwe_id="CWE-502",
    setup_ref="compose/alpha.yml",
    target_address="10.0.0.5",
)
PROFILE = ProviderProfile("local", "m-1", 8192, 0.25, 0.75, temperature=0.5)
PROVIDER = ProviderSpec(PROFILE, endpoint="http://127.0.0.1:9/v1", credential_env="MY_KEY")
CONFIG = RunConfig(
    target="10.0.0.5",
    scope=("10.0.0.0/24", "10.0.1.1"),
    application="DemoSrv",
    version="1.2.3",
)
RECORD = RunRecord(
    run_id="0123456789ab",
    config=CONFIG,
    started_at="1970-01-01T00:00:00Z",
    finished_at="1970-01-01T00:00:09Z",
    stage_statuses={"intelligence_gathering": STAGE},
    summary=SUMMARY,
    suggestions=[SUGGESTION],
    plan=PLAN,
    outcomes=[FAILED, SUCCESS],
    success_index=1,
    ledger=LEDGER.to_dict(),
)

INSTANCES = {
    "ServiceFingerprint": FINGERPRINT,
    "EnvironmentSummary": SUMMARY,
    "ExploitNode": EXPLOIT_B,
    "VulnerabilityNode": VULN,
    "VulnerabilityNode-no-epss": VULN_NO_EPSS,
    "AttackSurfaceSuggestion": SUGGESTION,
    "PlanEntry": ENTRY,
    "ExploitPlan": PLAN,
    "ErrorHistoryEntry": ERROR,
    "ExploitOutcome": FAILED,
    "UsageLedger": LEDGER,
    "TranscriptEntry": TRANSCRIPT,
    "RunConfig": CONFIG,
    "StageStatus": STAGE,
    "RunRecord": RECORD,
    "CveMetrics": METRICS,
    "TargetManifest": MANIFEST,
    "ProviderProfile": PROFILE,
    "ProviderSpec": PROVIDER,
}

# ---------------------------------------------------------------------------
# Golden bytes
# ---------------------------------------------------------------------------

GOLDEN = {
    "CveMetrics": '{"epss": 97.19, "exploitability": 3.9}',
    "AttackSurfaceSuggestion": (
        '{"application": "DemoSrv", "cve_id": "CVE-2021-0001", '
        '"vuln_type": "rce", "confidence": 0.9, '
        '"rationale": "version matches"}'
    ),
    "EnvironmentSummary": (
        '{"target": "10.0.0.5", "os_guess": "linux", '
        '"fingerprints": [{"host": "10.0.0.5", "port": 8080, '
        '"protocol": "tcp", "service": "http", "product": "DemoSrv", '
        '"version": "1.2.3", "evidence": "Server: DemoSrv/1.2.3 ü"}, '
        '{"host": "10.0.0.5", "port": 22, "protocol": "tcp", "service": "ssh", '
        '"product": "OpenSSH", "version": "", "evidence": ""}], '
        '"notes": "two services", "collected_at": "1970-01-01T00:00:02Z"}'
    ),
    "ErrorHistoryEntry": (
        '{"step_no": 2, "command": "python3 b.py", '
        '"error_digest": "abcd1234abcd1234", "error_excerpt": "Traceback", '
        '"fix_applied": "pip install x"}'
    ),
    "ExploitNode": (
        '{"source_ref": "repo/b", "effect": "remote code execution", '
        '"applicable_versions": "<=2.0", "requirements": ["python3", '
        '"requests"], "local_path": "/poc/b.py"}'
    ),
    "ExploitOutcome": (
        '{"status": "failed", "evidence": "", "steps_taken": 3, '
        '"error_history": [{"step_no": 2, "command": "python3 b.py", '
        '"error_digest": "abcd1234abcd1234", "error_excerpt": "Traceback", '
        '"fix_applied": "pip install x"}, {"step_no": 3, "command": "ls", '
        '"error_digest": "ff", "error_excerpt": "", "fix_applied": ""}], '
        '"declared_success": false}'
    ),
    "ExploitPlan": (
        '{"entries": [{"cve_id": "CVE-2021-0001", '
        '"exploit": {"source_ref": "repo/b", '
        '"effect": "remote code execution", "applicable_versions": "<=2.0", '
        '"requirements": ["python3", "requests"], "local_path": "/poc/b.py"}, '
        '"confidence": 0.75, "effect": "remote code execution", '
        '"application": "DemoSrv"}, {"cve_id": "CVE-2021-0001", '
        '"exploit": {"source_ref": "repo/a", "effect": "file upload", '
        '"applicable_versions": "", "requirements": [], "local_path": ""}, '
        '"confidence": 1, "effect": "file upload", "application": ""}]}'
    ),
    "PlanEntry": (
        '{"cve_id": "CVE-2021-0001", "exploit": {"source_ref": "repo/b", '
        '"effect": "remote code execution", "applicable_versions": "<=2.0", '
        '"requirements": ["python3", "requests"], "local_path": "/poc/b.py"}, '
        '"confidence": 0.75, "effect": "remote code execution", '
        '"application": "DemoSrv"}'
    ),
    "RunConfig": (
        '{"target": "10.0.0.5", "scope": ["10.0.0.0/24", "10.0.1.1"], '
        '"provider": "replay", "application": "DemoSrv", "version": "1.2.3", '
        '"knowledge_mode": "offline_only", "knowledge_dir": "", '
        '"output_dir": "runs", "replay_dir": "", "record_dir": "", '
        '"provider_config": "", "max_iterations": 15, "max_steps": 20, '
        '"max_repairs": 2, "force_stages": false}'
    ),
    "RunRecord": (
        '{"run_id": "0123456789ab", "config": {"target": "10.0.0.5", '
        '"scope": ["10.0.0.0/24", "10.0.1.1"], "provider": "replay", '
        '"application": "DemoSrv", "version": "1.2.3", '
        '"knowledge_mode": "offline_only", "knowledge_dir": "", '
        '"output_dir": "runs", "replay_dir": "", "record_dir": "", '
        '"provider_config": "", "max_iterations": 15, "max_steps": 20, '
        '"max_repairs": 2, "force_stages": false}, '
        '"started_at": "1970-01-01T00:00:00Z", '
        '"finished_at": "1970-01-01T00:00:09Z", '
        '"stage_statuses": {"intelligence_gathering": {"status": "complete", '
        '"wall_time": 3.0, "cost": 0.0001}}, "summary": {"target": "10.0.0.5", '
        '"os_guess": "linux", "fingerprints": [{"host": "10.0.0.5", '
        '"port": 8080, "protocol": "tcp", "service": "http", '
        '"product": "DemoSrv", "version": "1.2.3", '
        '"evidence": "Server: DemoSrv/1.2.3 ü"}, {"host": "10.0.0.5", '
        '"port": 22, "protocol": "tcp", "service": "ssh", '
        '"product": "OpenSSH", "version": "", "evidence": ""}], '
        '"notes": "two services", "collected_at": "1970-01-01T00:00:02Z"}, '
        '"suggestions": [{"application": "DemoSrv", "cve_id": "CVE-2021-0001", '
        '"vuln_type": "rce", "confidence": 0.9, '
        '"rationale": "version matches"}], '
        '"plan": {"entries": [{"cve_id": "CVE-2021-0001", '
        '"exploit": {"source_ref": "repo/b", '
        '"effect": "remote code execution", "applicable_versions": "<=2.0", '
        '"requirements": ["python3", "requests"], "local_path": "/poc/b.py"}, '
        '"confidence": 0.75, "effect": "remote code execution", '
        '"application": "DemoSrv"}, {"cve_id": "CVE-2021-0001", '
        '"exploit": {"source_ref": "repo/a", "effect": "file upload", '
        '"applicable_versions": "", "requirements": [], "local_path": ""}, '
        '"confidence": 1, "effect": "file upload", "application": ""}]}, '
        '"outcomes": [{"status": "failed", "evidence": "", "steps_taken": 3, '
        '"error_history": [{"step_no": 2, "command": "python3 b.py", '
        '"error_digest": "abcd1234abcd1234", "error_excerpt": "Traceback", '
        '"fix_applied": "pip install x"}, {"step_no": 3, "command": "ls", '
        '"error_digest": "ff", "error_excerpt": "", "fix_applied": ""}], '
        '"declared_success": false}, {"status": "success", '
        '"evidence": "PFB-token", "steps_taken": 1, "error_history": [], '
        '"declared_success": true}], "success_index": 1, '
        '"ledger": {"input_tokens": 240, "output_tokens": 60, "call_count": 2, '
        '"accumulated_cost": 0.00021}}'
    ),
    "ServiceFingerprint": (
        '{"host": "10.0.0.5", "port": 8080, "protocol": "tcp", '
        '"service": "http", "product": "DemoSrv", "version": "1.2.3", '
        '"evidence": "Server: DemoSrv/1.2.3 ü"}'
    ),
    "StageStatus": '{"status": "complete", "wall_time": 3.0, "cost": 0.0001}',
    "TargetManifest": (
        '{"name": "alpha", "cves": {"CVE-2024-0001": {"epss": 97.19, '
        '"exploitability": 3.9}, "CVE-2024-0002": {"epss": 10.0, '
        '"exploitability": null}}, "application": "DemoSrv", '
        '"version": "1.2.3", "cwe_id": "CWE-502", '
        '"setup_ref": "compose/alpha.yml", "target_address": "10.0.0.5"}'
    ),
    "UsageLedger": (
        '{"input_tokens": 240, "output_tokens": 60, "call_count": 2, '
        '"accumulated_cost": 0.00021}'
    ),
    "VulnerabilityNode": (
        '{"cve_id": "CVE-2021-0001", "vuln_type": "rce", '
        '"affected_versions": ">=1.0,<=2.0", '
        '"summary": "a deserialization flaw", '
        '"exploits": [{"source_ref": "repo/a", "effect": "file upload", '
        '"applicable_versions": "", "requirements": [], "local_path": ""}, '
        '{"source_ref": "repo/b", "effect": "remote code execution", '
        '"applicable_versions": "<=2.0", "requirements": ["python3", '
        '"requests"], "local_path": "/poc/b.py"}], '
        '"sources": ["https://a.example", "https://z.example"], "epss": 12.5}'
    ),
    "VulnerabilityNode-no-epss": (
        '{"cve_id": "UNASSIGNED", "vuln_type": "", "affected_versions": "", '
        '"summary": "", "exploits": [{"source_ref": "repo/a", '
        '"effect": "file upload", "applicable_versions": "", '
        '"requirements": [], "local_path": ""}, {"source_ref": "repo/b", '
        '"effect": "remote code execution", "applicable_versions": "<=2.0", '
        '"requirements": ["python3", "requests"], "local_path": "/poc/b.py"}], '
        '"sources": ["a", "b"]}'
    ),
}
GOLDEN_RECORD_JSON = """{
  "config": {
    "application": "DemoSrv",
    "force_stages": false,
    "knowledge_dir": "",
    "knowledge_mode": "offline_only",
    "max_iterations": 15,
    "max_repairs": 2,
    "max_steps": 20,
    "output_dir": "runs",
    "provider": "replay",
    "provider_config": "",
    "record_dir": "",
    "replay_dir": "",
    "scope": [
      "10.0.0.0/24",
      "10.0.1.1"
    ],
    "target": "10.0.0.5",
    "version": "1.2.3"
  },
  "finished_at": "1970-01-01T00:00:09Z",
  "ledger": {
    "accumulated_cost": 0.00021,
    "call_count": 2,
    "input_tokens": 240,
    "output_tokens": 60
  },
  "outcomes": [
    {
      "declared_success": false,
      "error_history": [
        {
          "command": "python3 b.py",
          "error_digest": "abcd1234abcd1234",
          "error_excerpt": "Traceback",
          "fix_applied": "pip install x",
          "step_no": 2
        },
        {
          "command": "ls",
          "error_digest": "ff",
          "error_excerpt": "",
          "fix_applied": "",
          "step_no": 3
        }
      ],
      "evidence": "",
      "status": "failed",
      "steps_taken": 3
    },
    {
      "declared_success": true,
      "error_history": [],
      "evidence": "PFB-token",
      "status": "success",
      "steps_taken": 1
    }
  ],
  "plan": {
    "entries": [
      {
        "application": "DemoSrv",
        "confidence": 0.75,
        "cve_id": "CVE-2021-0001",
        "effect": "remote code execution",
        "exploit": {
          "applicable_versions": "<=2.0",
          "effect": "remote code execution",
          "local_path": "/poc/b.py",
          "requirements": [
            "python3",
            "requests"
          ],
          "source_ref": "repo/b"
        }
      },
      {
        "application": "",
        "confidence": 1,
        "cve_id": "CVE-2021-0001",
        "effect": "file upload",
        "exploit": {
          "applicable_versions": "",
          "effect": "file upload",
          "local_path": "",
          "requirements": [],
          "source_ref": "repo/a"
        }
      }
    ]
  },
  "run_id": "0123456789ab",
  "stage_statuses": {
    "intelligence_gathering": {
      "cost": 0.0001,
      "status": "complete",
      "wall_time": 3.0
    }
  },
  "started_at": "1970-01-01T00:00:00Z",
  "success_index": 1,
  "suggestions": [
    {
      "application": "DemoSrv",
      "confidence": 0.9,
      "cve_id": "CVE-2021-0001",
      "rationale": "version matches",
      "vuln_type": "rce"
    }
  ],
  "summary": {
    "collected_at": "1970-01-01T00:00:02Z",
    "fingerprints": [
      {
        "evidence": "Server: DemoSrv/1.2.3 ü",
        "host": "10.0.0.5",
        "port": 8080,
        "product": "DemoSrv",
        "protocol": "tcp",
        "service": "http",
        "version": "1.2.3"
      },
      {
        "evidence": "",
        "host": "10.0.0.5",
        "port": 22,
        "product": "OpenSSH",
        "protocol": "tcp",
        "service": "ssh",
        "version": ""
      }
    ],
    "notes": "two services",
    "os_guess": "linux",
    "target": "10.0.0.5"
  }
}
"""
GOLDEN_TRANSCRIPT_LINE = (
    '{"input_tokens":120,"output_tokens":30,"request_digest":"ddddddddddddd'
    'ddddddddddddddddddddddddddddddddddddddddddddddddddd","response_text":"'
    'reply with \\"quotes\\" and ünïcode","sequence_no":0}'
)

# report.md and report.json of RECORD and of a record with nothing in it yet
BARE_RECORD = RunRecord(run_id="0123456789ab", config=CONFIG)
GOLDEN_REPORT_MD_RECORD = """\
# Penetration test report: 10.0.0.5

- Run id: `0123456789ab`
- Started: 1970-01-01T00:00:00Z
- Finished: 1970-01-01T00:00:09Z
- Scope: 10.0.0.0/24, 10.0.1.1
- Provider profile: replay

## Stage outcomes

| Stage | Status | Wall time (s) | Cost (USD) |
|---|---|---:|---:|
| Intelligence gathering | complete | 3 | $0.000100 |
| Vulnerability analysis | skipped | 0 | $0.000000 |
| Exploitation | skipped | 0 | $0.000000 |

## Environment

- OS guess: linux
- Notes: two services

| Host | Port | Service | Product | Version |
|---|---:|---|---|---|
| 10.0.0.5 | 8080 | http | DemoSrv | 1.2.3 |
| 10.0.0.5 | 22 | ssh | OpenSSH |  |

## Attack surfaces considered

- **CVE-2021-0001** (DemoSrv, rce) confidence 0.9: version matches

## Exploit plan and outcomes

1. `repo/b` for CVE-2021-0001 (remote code execution), confidence 0.75: failed
   - steps taken: 3
   - errors encountered: 2
2. `repo/a` for CVE-2021-0001 (file upload), confidence 1: success **<- success**
   - steps taken: 1
   - evidence: `PFB-token`

## Usage

- Provider calls: 2
- Input tokens: 240
- Output tokens: 60
- Accumulated cost: $0.000210
"""
GOLDEN_REPORT_JSON_RECORD = """\
{
  "environment": {
    "collected_at": "1970-01-01T00:00:02Z",
    "fingerprints": [
      {
        "evidence": "Server: DemoSrv/1.2.3 ü",
        "host": "10.0.0.5",
        "port": 8080,
        "product": "DemoSrv",
        "protocol": "tcp",
        "service": "http",
        "version": "1.2.3"
      },
      {
        "evidence": "",
        "host": "10.0.0.5",
        "port": 22,
        "product": "OpenSSH",
        "protocol": "tcp",
        "service": "ssh",
        "version": ""
      }
    ],
    "notes": "two services",
    "os_guess": "linux",
    "target": "10.0.0.5"
  },
  "finished_at": "1970-01-01T00:00:09Z",
  "outcomes": [
    {
      "declared_success": false,
      "error_history": [
        {
          "command": "python3 b.py",
          "error_digest": "abcd1234abcd1234",
          "error_excerpt": "Traceback",
          "fix_applied": "pip install x",
          "step_no": 2
        },
        {
          "command": "ls",
          "error_digest": "ff",
          "error_excerpt": "",
          "fix_applied": "",
          "step_no": 3
        }
      ],
      "evidence": "",
      "status": "failed",
      "steps_taken": 3
    },
    {
      "declared_success": true,
      "error_history": [],
      "evidence": "PFB-token",
      "status": "success",
      "steps_taken": 1
    }
  ],
  "plan": {
    "entries": [
      {
        "application": "DemoSrv",
        "confidence": 0.75,
        "cve_id": "CVE-2021-0001",
        "effect": "remote code execution",
        "exploit": {
          "applicable_versions": "<=2.0",
          "effect": "remote code execution",
          "local_path": "/poc/b.py",
          "requirements": [
            "python3",
            "requests"
          ],
          "source_ref": "repo/b"
        }
      },
      {
        "application": "",
        "confidence": 1,
        "cve_id": "CVE-2021-0001",
        "effect": "file upload",
        "exploit": {
          "applicable_versions": "",
          "effect": "file upload",
          "local_path": "",
          "requirements": [],
          "source_ref": "repo/a"
        }
      }
    ]
  },
  "run_id": "0123456789ab",
  "scope": [
    "10.0.0.0/24",
    "10.0.1.1"
  ],
  "stages": {
    "intelligence_gathering": {
      "cost": 0.0001,
      "status": "complete",
      "wall_time": 3.0
    }
  },
  "started_at": "1970-01-01T00:00:00Z",
  "success_index": 1,
  "suggestions": [
    {
      "application": "DemoSrv",
      "confidence": 0.9,
      "cve_id": "CVE-2021-0001",
      "rationale": "version matches",
      "vuln_type": "rce"
    }
  ],
  "target": "10.0.0.5",
  "usage": {
    "accumulated_cost": 0.00021,
    "call_count": 2,
    "input_tokens": 240,
    "output_tokens": 60
  }
}
"""
GOLDEN_REPORT_MD_BARE = """\
# Penetration test report: 10.0.0.5

- Run id: `0123456789ab`
- Started: 
- Finished: 
- Scope: 10.0.0.0/24, 10.0.1.1
- Provider profile: replay

## Stage outcomes

| Stage | Status | Wall time (s) | Cost (USD) |
|---|---|---:|---:|
| Intelligence gathering | skipped | 0 | $0.000000 |
| Vulnerability analysis | skipped | 0 | $0.000000 |
| Exploitation | skipped | 0 | $0.000000 |

## Environment

- Reconnaissance did not produce a summary.

## Attack surfaces considered

- None identified.

## Exploit plan and outcomes

- No exploit plan was produced.

## Usage

- Provider calls: 0
- Input tokens: 0
- Output tokens: 0
- Accumulated cost: $0.000000
"""
GOLDEN_REPORT_JSON_BARE = """\
{
  "environment": null,
  "finished_at": "",
  "outcomes": [],
  "plan": {
    "entries": []
  },
  "run_id": "0123456789ab",
  "scope": [
    "10.0.0.0/24",
    "10.0.1.1"
  ],
  "stages": {},
  "started_at": "",
  "success_index": null,
  "suggestions": [],
  "target": "10.0.0.5",
  "usage": {}
}
"""


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_dict_text(name):
    assert json.dumps(INSTANCES[name].to_dict(), ensure_ascii=False) == GOLDEN[name]


def test_golden_record_bytes():
    assert record_to_bytes(RECORD).decode("utf-8") == GOLDEN_RECORD_JSON


def test_golden_transcript_line():
    assert transcript_lines([TRANSCRIPT]) == [GOLDEN_TRANSCRIPT_LINE]


@pytest.mark.parametrize(
    "record, markdown, json_text",
    [
        (RECORD, GOLDEN_REPORT_MD_RECORD, GOLDEN_REPORT_JSON_RECORD),
        (BARE_RECORD, GOLDEN_REPORT_MD_BARE, GOLDEN_REPORT_JSON_BARE),
    ],
    ids=["RunRecord", "bare"],
)
def test_golden_report_bytes(tmp_path, record, markdown, json_text):
    assert write_report_files(record, tmp_path) == (markdown, json_text)
    assert (tmp_path / "report.md").read_bytes() == markdown.encode("utf-8")
    assert (tmp_path / "report.json").read_bytes() == json_text.encode("utf-8")


# ---------------------------------------------------------------------------
# Round trip: every record reads back as itself
# ---------------------------------------------------------------------------

text = st.text(max_size=12)
floats = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**12)
fingerprints = st.builds(
    ServiceFingerprint,
    host=text,
    port=st.integers(1, 65535),
    protocol=text,
    service=text,
    product=st.text(min_size=1, max_size=12),
    version=text,
    evidence=text,
)
summaries = st.builds(
    EnvironmentSummary,
    target=text,
    os_guess=text,
    fingerprints=st.lists(fingerprints, max_size=3).map(tuple),
    notes=text,
    collected_at=text,
)
constraints = st.sampled_from(["", "1.*", "<=2.0", ">=1.0,<=2.0", "1.0 - 2.0", "2.4.49"])
exploits = st.builds(
    ExploitNode,
    source_ref=st.text(min_size=1, max_size=12),
    effect=st.sampled_from(EFFECT_VOCABULARY),
    applicable_versions=constraints,
    requirements=st.lists(text, max_size=3).map(tuple),
    local_path=text,
)
vulnerabilities = st.builds(
    VulnerabilityNode,
    cve_id=st.sampled_from(["UNASSIGNED", "CVE-2021-41773", "CVE-2024-123456"]),
    vuln_type=text,
    affected_versions=constraints,
    summary=text,
    exploits=st.lists(exploits, max_size=3),
    sources=st.lists(text, max_size=4),
    epss=st.none() | st.floats(0.0, 100.0),
)
suggestions = st.builds(
    AttackSurfaceSuggestion,
    application=text,
    cve_id=text,
    vuln_type=text,
    confidence=st.floats(0.0, 1.0),
    rationale=text,
)
entries = st.builds(
    PlanEntry,
    cve_id=text,
    exploit=exploits,
    confidence=floats,
    effect=text,
    application=text,
)
plans = st.builds(ExploitPlan, entries=st.lists(entries, max_size=3))
errors = st.builds(
    ErrorHistoryEntry,
    step_no=counts,
    command=text,
    error_digest=text,
    error_excerpt=text,
    fix_applied=text,
)
outcomes = st.builds(
    ExploitOutcome,
    status=st.sampled_from(OutcomeStatus),
    evidence=text,
    steps_taken=counts,
    error_history=st.lists(errors, max_size=3),
    declared_success=st.booleans(),
)
ledgers = st.builds(
    UsageLedger,
    input_tokens=counts,
    output_tokens=counts,
    call_count=counts,
    accumulated_cost=st.floats(0.0, 1e6),
)
transcripts = st.builds(
    TranscriptEntry,
    sequence_no=counts,
    request_digest=text,
    response_text=st.text(),
    input_tokens=counts,
    output_tokens=counts,
)
configs = st.builds(
    RunConfig,
    target=st.sampled_from(["10.0.0.5", "127.0.0.1"]),
    scope=st.lists(text, max_size=2).map(lambda extra: ("10.0.0.0/8", "127.0.0.1", *extra)),
    provider=text,
    application=text,
    version=text,
    knowledge_mode=st.sampled_from([KNOWLEDGE_OFFLINE, KNOWLEDGE_ONLINE]),
    knowledge_dir=text,
    output_dir=text,
    replay_dir=text,
    record_dir=text,
    provider_config=text,
    max_iterations=st.integers(1, 100),
    max_steps=st.integers(1, 100),
    max_repairs=st.integers(0, 5),
    force_stages=st.booleans(),
)
stages = st.builds(
    StageStatus,
    status=st.sampled_from([STATUS_COMPLETE, STATUS_INCOMPLETE]),
    wall_time=floats,
    cost=floats,
)
records = st.builds(
    RunRecord,
    run_id=text,
    config=configs,
    started_at=text,
    finished_at=text,
    stage_statuses=st.dictionaries(st.sampled_from(STAGES), stages),
    summary=st.none() | summaries,
    suggestions=st.lists(suggestions, max_size=2),
    plan=plans,
    outcomes=st.lists(outcomes, max_size=2),
    success_index=st.none() | st.integers(0, 5),
    ledger=ledgers.map(UsageLedger.to_dict),
)
metrics = st.builds(
    CveMetrics,
    epss=st.floats(0.0, 100.0),
    exploitability=st.none() | st.floats(0.0, 4.0),
)
manifests = st.builds(
    TargetManifest,
    name=st.text(min_size=1, max_size=12),
    cves=st.dictionaries(text, metrics, min_size=1, max_size=3),
    application=text,
    version=text,
    cwe_id=text,
    setup_ref=text,
    target_address=text,
)
profiles = st.builds(
    ProviderProfile,
    provider_id=text,
    model_name=text,
    context_window=st.integers(1, 10**6),
    input_price=st.floats(0.0, 1e3),
    output_price=st.floats(0.0, 1e3),
    temperature=st.floats(0.0, 1.0),
)
providers = st.builds(ProviderSpec, profile=profiles, endpoint=text, credential_env=text)


def as_written(node: VulnerabilityNode) -> VulnerabilityNode:
    """The node as its file holds it: exploits sorted by source_ref and
    sources sorted without repeats."""
    return VulnerabilityNode(
        cve_id=node.cve_id,
        vuln_type=node.vuln_type,
        affected_versions=node.affected_versions,
        summary=node.summary,
        exploits=sorted(node.exploits, key=lambda e: e.source_ref),
        sources=sorted(set(node.sources)),
        epss=node.epss,
    )


STRATEGIES = [
    fingerprints,
    summaries,
    exploits,
    vulnerabilities,
    suggestions,
    entries,
    plans,
    errors,
    outcomes,
    ledgers,
    transcripts,
    configs,
    stages,
    records,
    metrics,
    manifests,
    profiles,
    providers,
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.wrapped_strategy.target.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip(strategy, data):
    record = data.draw(strategy)
    again = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
    if isinstance(record, VulnerabilityNode):
        record = as_written(record)
    assert again == record


def test_every_record_class_is_covered():
    """Each record class of the package has an instance above, for its
    golden text and the refusal tests below, and a strategy, for its round
    trip."""
    for module in pkgutil.iter_modules(pentestflow.__path__):
        importlib.import_module(f"pentestflow.{module.name}")
    package = {
        cls for cls in Record.__subclasses__() if cls.__module__.startswith("pentestflow.")
    }
    assert package == {type(x) for x in INSTANCES.values()}
    assert package == {s.wrapped_strategy.target for s in STRATEGIES}


# ---------------------------------------------------------------------------
# Refusals: a malformed mapping names its key
# ---------------------------------------------------------------------------

CLASSES = sorted({type(x) for x in INSTANCES.values()}, key=lambda c: c.__name__)
# a list holding a list is no field's JSON type
WRONG = [[]]


def refusal(cls):
    """What from_dict raises: a bad --config file is a configuration error."""
    from pentestflow.records import RecordError

    return ConfigError if cls is RunConfig else RecordError


def valid_doc(cls) -> dict:
    return json.loads(json.dumps(INSTANCES[cls.__name__].to_dict()))


def names_key(name: str) -> str:
    return re.escape(f"[{name!r}]")


def field_params(required_only: bool = False) -> list:
    return [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in CLASSES
        for f in fields(cls)
        if f.init
        and not (
            required_only
            and (f.default is not MISSING or f.default_factory is not MISSING)
        )
    ]


@pytest.mark.parametrize("cls, name", field_params())
def test_wrong_type_is_refused(cls, name):
    doc = {**valid_doc(cls), name: WRONG}
    with pytest.raises(refusal(cls), match=names_key(name)):
        cls.from_dict(doc)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_unknown_key_is_refused(cls):
    doc = {**valid_doc(cls), "unknown_key": ""}
    with pytest.raises(refusal(cls), match=names_key("unknown_key")):
        cls.from_dict(doc)


@pytest.mark.parametrize("cls, name", field_params(required_only=True))
def test_missing_key_without_default_is_refused(cls, name):
    doc = valid_doc(cls)
    del doc[name]
    with pytest.raises(refusal(cls), match=names_key(name) + " is missing"):
        cls.from_dict(doc)


def test_missing_key_with_default_takes_it():
    assert VulnerabilityNode.from_dict({"cve_id": "UNASSIGNED"}) == VulnerabilityNode(
        "UNASSIGNED"
    )
    assert ExploitPlan.from_dict({}) == ExploitPlan()


# (path into a valid run record, bad value, the key path the message names)
RECORD_PROBES = [
    (["success_index"], "1", "RunRecord['success_index']"),
    (["summary", "fingerprints", 0, "port"], "8080", "['fingerprints'][0]['port']"),
    (["outcomes", 0, "steps_taken"], "3", "RunRecord['outcomes'][0]['steps_taken']"),
    (["outcomes", 0, "steps_taken"], True, "RunRecord['outcomes'][0]['steps_taken']"),
    (["outcomes", 0, "evidense"], "x", "RunRecord['outcomes'][0]['evidense']"),
    (["outcomes", 1, "status"], "won", "RunRecord['outcomes'][1]['status']"),
    (["suggestions", 0, "confidence"], "0.9", "RunRecord['suggestions'][0]['confidence']"),
    (["plan", "entries", 1, "exploit", "requirements"], "x", "['exploit']['requirements']"),
    (["config", "max_steps"], 2.0, "RunRecord['config']['max_steps']"),
    (
        ["stage_statuses", "intelligence_gathering", "wall_time"],
        "fast",
        "RunRecord['stage_statuses']['intelligence_gathering']['wall_time']",
    ),
    (
        ["stage_statuses", "intelligence_gathering", "status"],
        "skipped",
        "RunRecord['stage_statuses']['intelligence_gathering'] is invalid",
    ),
    (["ledger", "call_count"], "many", "UsageLedger['call_count']"),
]


@pytest.mark.parametrize("path, value, named", RECORD_PROBES)
def test_record_probe_names_the_key_path(path, value, named):
    from pentestflow.records import RecordError

    doc = valid_doc(RunRecord)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(RecordError, match=re.escape(named)):
        RunRecord.from_dict(doc)


def test_float_field_takes_an_integer_as_a_float():
    doc = {**valid_doc(AttackSurfaceSuggestion), "confidence": 1}
    confidence = AttackSurfaceSuggestion.from_dict(doc).confidence
    assert confidence == 1.0 and isinstance(confidence, float)
