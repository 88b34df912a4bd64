"""Seeded inputs for the offline replay benchmark.

Everything the program under test reads during a benchmark run is written
here from ``random.Random(seed)``: knowledge trees, proof-of-concept
directories, search fixture documents, recorded transcripts and the files
that scripted commands print. Sizes are fixed per scale and only content
varies with the seed, so call counts and byte totals stay nearly constant
from seed to seed while names, versions and identifiers change.

All paths are relative to the workload directory, which is the working
directory during runs, so records and prompts do not depend on where the
checkout lives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from pentestflow.gateway import TranscriptEntry, write_transcript
from pentestflow.knowledge import ExploitNode, KnowledgeTree, VulnerabilityNode
from pentestflow.search import (
    ROUND_ONE_TEMPLATE,
    ROUND_TWO_TEMPLATE,
    query_fixture_name,
)

TARGET = "127.0.0.1"
ENGAGEMENT_POCS = 3  # the plan's python PoCs; only the last prints the token

WORDS = """
access admin agent alpha archive audit backend banner bearer binary bridge
buffer cache callback channel cipher client cluster config console cookie
daemon debug decode delta digest domain encode endpoint engine export filter
gateway handler header index inject kernel ledger listener loader manifest
module monitor network object parser payload plugin portal proxy query queue
record render request router runtime sandbox schema script secret serial
session shell signal socket stream syntax template thread token upload vector
widget worker
""".split()

# equal-length names keep prompt sizes, and so token counts, steady across seeds
VENDORS = "cobalt dorado harbor falcon zephyr nimbus quartz tundra vertex sierra".split()
PRODUCTS = "portal beacon ledger switch keeper router bridge server broker engine".split()
VULN_TYPES = (
    "remote code execution",
    "authentication bypass",
    "path traversal",
    "information disclosure",
    "file upload",
    "privilege escalation",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes for one scale; the benchmark uses FULL, the smoke check TINY."""

    kb_apps: int = 120
    kb_cves: int = 10
    kb_products: int = 4
    kb_docs: int = 4
    kb_exploit_docs: int = 2
    deep_poc_files: int = 16
    deep_poc_file_bytes: int = 46_000
    deep_params: int = 20
    deep_steps: int = 12
    deep_big_output: int = 16 * 1024 * 1024


FULL = Sizes()
TINY = Sizes(
    kb_apps=6,
    kb_cves=3,
    kb_products=2,
    kb_docs=2,
    kb_exploit_docs=1,
    deep_poc_files=2,
    deep_poc_file_bytes=3_000,
    deep_params=3,
    deep_steps=5,
    deep_big_output=300 * 1024,
)
SCALES = {"full": FULL, "tiny": TINY}


def text(rng: random.Random, size: int, line_words: int = 10) -> str:
    """About ``size`` characters of seeded prose, in lines of a few words."""
    lines: list[str] = []
    used = 0
    while used < size:
        line = " ".join(rng.choices(WORDS, k=line_words))
        lines.append(line)
        used += len(line) + 1
    return "\n".join(lines)[:size]


def version(rng: random.Random) -> str:
    return f"{rng.randint(2, 8)}.{rng.randint(11, 18)}.{rng.randint(1, 8)}"


def constraint(rng: random.Random, ver: str, match: bool) -> str:
    """A constraint in one of the grammar's forms that does (or does not)
    accept ``ver``, which must look like ``M.m.p`` with M, m, p >= 1."""
    major, minor, patch = (int(x) for x in ver.split("."))
    forms = {
        "exact": (ver, f"{major}.{minor}.{patch + 1}"),
        "wildcard": (f"{major}.{minor}.*", f"{major}.{minor + 1}.*"),
        "wildcard_x": (f"{major}.{minor}.x", f"{major + 1}.{minor}.x"),
        "upper": (f"<={major}.{minor}.{patch + 2}", f"<={major - 1}.9.9"),
        "lower": (f">={major}.{minor - 1}.0", f">={major + 1}.0.0"),
        "range": (
            f"{major}.{minor - 1}.0 - {major}.{minor + 1}.9",
            f"{major + 1}.0.0 - {major + 1}.4.0",
        ),
        "conjunction": (
            f">={major}.0.0, <={major}.{minor}.{patch}",
            f">={major}.0.0, <={major}.{minor - 1}.9",
        ),
        "suffix": (f"<={major}.{minor}.{patch + 1}-rc1", f"<={major}.{minor}.{patch}-rc1"),
        "v_prefix": (f">=v{major}.{minor}", f">=v{major + 1}.0"),
    }
    if match:
        forms["any"] = ("", "")
    matching, excluded = forms[rng.choice(sorted(forms))]
    return matching if match else excluded


def _cve(rng: random.Random, used: set[str]) -> str:
    while True:
        cve = f"CVE-{rng.randint(2015, 2024)}-{rng.randint(10000, 99999)}"
        if cve not in used:
            used.add(cve)
            return cve


def _slug(name: str) -> str:
    return "-".join(name.lower().split())


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _transcript(directory: Path, name: str, replies: list, rng: random.Random) -> None:
    entries = [
        TranscriptEntry(
            sequence_no=i,
            request_digest="",  # hand-authored: matches any request
            response_text=json.dumps(reply, sort_keys=True),
            input_tokens=600 + 40 * i + rng.randint(0, 20),
            output_tokens=40 + rng.randint(0, 10),
        )
        for i, reply in enumerate(replies)
    ]
    write_transcript(entries, directory / f"{name}.jsonl")


def evidence_token(rng: random.Random) -> str:
    return f"PFB-{rng.getrandbits(48):012x}"


# ---------------------------------------------------------------------------
# Scripts: what the scripted model (or a transcript) answers per session
# ---------------------------------------------------------------------------


@dataclass
class Script:
    """Per-session answers of the scripted model for one workload.

    ``exploit_steps[i]`` are the commands of plan entry ``i`` in step order;
    ``exploit_finals[i]`` says whether that entry then claims success.
    """

    token: str
    recon_commands: list[str]
    summary: dict
    rank_exploits: bool
    params: list[tuple[str, str]]
    param_values: dict[str, str]
    exploit_steps: list[list[str]]
    exploit_finals: list[bool]
    unusable_consolidation: bool = False
    source_order: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# engagement: the canonical replayed run against a live banner fixture
# ---------------------------------------------------------------------------


@dataclass
class Engagement:
    application: str
    version: str
    token: str
    cve_id: str
    refs: list[str]
    probes: list[str] = field(default_factory=list)


def engagement_files(root: Path, rng: random.Random) -> Engagement:
    """PoC scripts and a one-application tree; transcripts wait for the port."""
    application = f"{rng.choice(VENDORS).title()} {rng.choice(PRODUCTS).title()}"
    ver = version(rng)
    token = evidence_token(rng)
    tree = KnowledgeTree()
    exploits = []
    for i in range(ENGAGEMENT_POCS):
        last = i == ENGAGEMENT_POCS - 1
        body = (
            f'print("session established: {token}")\n'
            if last
            else f'print("stage {i} {rng.choice(WORDS)} failed")\nraise SystemExit({i + 1})\n'
        )
        poc = Path("pocs") / f"poc_{i}.py"
        _write(root / poc, "".join(f"# {line}\n" for line in text(rng, 200).splitlines()) + body)
        exploits.append(
            ExploitNode(
                source_ref=f"exploits/{_slug(application)}-{i}",
                effect="remote command execution",
                local_path=str(poc),
            )
        )
    cve_id = _cve(rng, set())
    tree.upsert(
        application,
        VulnerabilityNode(
            cve_id=cve_id,
            vuln_type="remote code execution",
            affected_versions=f"<={ver}",
            exploits=exploits,
            epss=round(rng.uniform(50, 99), 2),
        ),
    )
    tree.save(root / "kb")
    return Engagement(
        application=application,
        version=ver,
        token=token,
        cve_id=cve_id,
        refs=[e.source_ref for e in exploits],
    )


def engagement_transcripts(root: Path, rng: random.Random, spec: Engagement, port: int) -> None:
    base = f"http://{TARGET}:{port}"
    probes = [
        f"curl -s --max-time 5 {base}/",
        f"curl -sI --max-time 5 {base}/",
        f"curl -s --max-time 5 {base}/version",
        f"curl -s --max-time 5 -o /dev/null -w '%{{http_code}}' {base}/login",
    ]
    spec.probes = probes
    directory = root / "transcripts"
    _transcript(
        directory,
        "recon",
        [{"thought": "probe", "command": p, "done": False} for p in probes]
        + [{"thought": "identified", "command": "", "done": True}],
        rng,
    )
    _transcript(
        directory,
        "recon-summary",
        [
            {
                "os_guess": "linux",
                "fingerprints": [
                    {
                        "port": port,
                        "protocol": "tcp",
                        "service": "http",
                        "product": spec.application,
                        "version": spec.version,
                        "evidence": f"Server: {spec.application}/{spec.version}",
                    }
                ],
                "notes": text(rng, 120),
            }
        ],
        rng,
    )
    _transcript(
        directory,
        "plan-surfaces",
        [{"suggestions": [{"cve_id": spec.cve_id, "app": spec.application, "confidence": 0.9}]}],
        rng,
    )
    _transcript(
        directory,
        "plan-exploits",
        [
            {
                "entries": [
                    {"cve_id": spec.cve_id, "source_ref": ref, "confidence": round(0.9 - 0.1 * i, 2)}
                    for i, ref in enumerate(spec.refs)
                ]
            }
        ],
        rng,
    )
    for i in range(ENGAGEMENT_POCS):
        last = i == ENGAGEMENT_POCS - 1
        _transcript(
            directory,
            f"prep-{i}",
            [
                {"parameters": [{"name": "target"}, {"name": "port"}]},
                {"name": "target", "found": False, "value": ""},
                {"name": "port", "found": True, "value": str(port)},
            ],
            rng,
        )
        _transcript(
            directory,
            f"exploit-{i}",
            [
                {"thought": "fire", "command": f"python3 pocs/poc_{i}.py", "done": False},
                {
                    "thought": "assess",
                    "command": "",
                    "done": True,
                    "success": last,
                    "evidence": spec.token if last else "",
                },
            ],
            rng,
        )


# ---------------------------------------------------------------------------
# kb-acquire: large tree, online acquisition from fixture documents
# ---------------------------------------------------------------------------


@dataclass
class KbAcquire:
    script: Script
    application: str


def kb_acquire_files(root: Path, rng: random.Random, sizes: Sizes) -> KbAcquire:
    tree = KnowledgeTree()
    used: set[str] = set()
    names = [
        f"{rng.choice(VENDORS).title()} {rng.choice(PRODUCTS).title()} {i:03d}"
        for i in range(sizes.kb_apps)
    ]
    detected = rng.sample(range(sizes.kb_apps), sizes.kb_products)
    versions = {i: version(rng) for i in range(sizes.kb_apps)}
    for i, name in enumerate(names):
        for j in range(sizes.kb_cves):
            # detected products match two thirds of their CVEs, so planning
            # sees many; fixed proportions keep prompt sizes steady across seeds
            match = j % 3 != 2 if i in detected else j % 3 == 0
            exploits = [
                ExploitNode(
                    source_ref=f"exploits/{_slug(name)}/{rng.getrandbits(32):08x}",
                    effect=rng.choice(VULN_TYPES),
                    applicable_versions=constraint(rng, versions[i], k == 0 or j % 4 != 3),
                    requirements=tuple(rng.sample(WORDS, 2)),
                )
                for k in range(1 + j % 2)
            ]
            tree.upsert(
                name,
                VulnerabilityNode(
                    cve_id=_cve(rng, used),
                    vuln_type=rng.choice(VULN_TYPES),
                    affected_versions=constraint(rng, versions[i], match),
                    summary=text(rng, 160),
                    exploits=exploits,
                    epss=round(rng.uniform(0, 99), 2),
                ),
            )
    tree.save(root / "kb")

    fixtures = root / "search"
    fingerprints = []
    probes = []
    for n, i in enumerate(detected):
        name = names[i]
        # the last detected product hides its version, which sends its
        # version-bound CVEs down the version_unknown path
        ver = versions[i] if n < len(detected) - 1 else ""
        port = 8000 + n
        fingerprints.append(
            {
                "port": port,
                "protocol": "tcp",
                "service": "http",
                "product": name,
                "version": ver,
                "evidence": f"Server: {name}/{ver}",
            }
        )
        _write(root / "recon" / f"port-{port}.txt", f"HTTP/1.1 200 OK\nServer: {name}/{ver}\n")
        probes.append(f"cat recon/port-{port}.txt")
        known = [node.cve_id for node in tree.vulnerabilities(name)]
        round_one = []
        for d in range(sizes.kb_docs):
            cve = known[d] if d % 2 == 0 else _cve(rng, used)
            affected = constraint(rng, versions[i], True)
            round_one.append(
                {
                    "uri": f"https://advisories.example/{_slug(name)}/{d}",
                    "title": f"{name} advisory {d}",
                    "body": f"{cve} in {name} allows {rng.choice(VULN_TYPES)}.\n"
                    f"Affected versions: {affected}\n" + text(rng, 1400),
                }
            )
            exploit_docs = [
                {
                    "uri": f"https://code.example/{_slug(name)}/{cve.lower()}-{k}",
                    "title": f"{cve} proof of concept {k}",
                    "body": f"Exploit for {cve} in {name}.\n"
                    f"Effect: {rng.choice(VULN_TYPES)}\n"
                    f"Works against: {constraint(rng, versions[i], True)}\n"
                    f"Requires: {rng.choice(WORDS)} access\n" + text(rng, 1000),
                }
                for k in range(sizes.kb_exploit_docs)
            ]
            _write(
                fixtures / query_fixture_name(ROUND_TWO_TEMPLATE.format(cve_id=cve)),
                json.dumps(exploit_docs, indent=1),
            )
        query = " ".join(ROUND_ONE_TEMPLATE.format(application=name, version=ver).split())
        _write(fixtures / query_fixture_name(query), json.dumps(round_one, indent=1))

    token = evidence_token(rng)
    script = Script(
        token=token,
        recon_commands=probes,
        summary={"os_guess": "linux", "fingerprints": fingerprints, "notes": text(rng, 200)},
        rank_exploits=False,
        unusable_consolidation=True,
        params=[("target", "target host"), ("port", "service port")],
        param_values={"target": TARGET, "port": "8000"},
        exploit_steps=[[f"echo {token}"]],
        exploit_finals=[True],
    )
    return KbAcquire(script=script, application=names[detected[0]])


# ---------------------------------------------------------------------------
# deep-exploit: big PoC corpora, many parameters, long exploit loops
# ---------------------------------------------------------------------------


@dataclass
class DeepExploit:
    script: Script
    application: str
    version: str
    refused: list[str]


# each exploit step prints more than the 4,000 characters of stdout and of
# stderr that the next step prompt quotes
STEP_STDOUT_BYTES = 6_000
STEP_STDERR_BYTES = 5_000

PARAM_NAMES = """
target_host target_port base_url admin_path login_path callback_host
callback_port listener_port session_cookie csrf_token api_key username
password upload_path shell_name payload_format encoder timeout_seconds
user_agent proxy_url tls_mode retry_count webroot tenant_id
""".split()


def deep_exploit_files(root: Path, rng: random.Random, sizes: Sizes) -> DeepExploit:
    application = f"{rng.choice(VENDORS).title()} {rng.choice(PRODUCTS).title()}"
    ver = version(rng)
    token = evidence_token(rng)
    used: set[str] = set()
    tree = KnowledgeTree()
    refs = []
    steps: list[list[str]] = []
    refused: list[str] = []
    for x, tag in enumerate(("a", "b")):
        poc_dir = Path("pocs") / f"{_slug(application)}-{tag}"
        _write(root / poc_dir / "README.md", f"# {application} exploit {tag}\n" + text(rng, 3000))
        for k in range(sizes.deep_poc_files):
            _write(root / poc_dir / f"module_{k:02d}.py", text(rng, sizes.deep_poc_file_bytes))
        ref = f"exploits/{_slug(application)}-{tag}"
        refs.append(ref)
        tree.upsert(
            application,
            VulnerabilityNode(
                cve_id=_cve(rng, used),
                vuln_type="remote code execution",
                affected_versions=constraint(rng, ver, True),
                exploits=[
                    ExploitNode(
                        source_ref=ref,
                        effect="remote code execution",
                        applicable_versions="",
                        local_path=str(poc_dir),
                    )
                ],
                epss=round(rng.uniform(50, 99), 2),
            ),
        )
        out = Path("outputs") / tag
        commands = []
        for s in range(1, sizes.deep_steps + 1):
            if s == 2:
                command = f"curl -s --max-time 2 http://203.0.113.{rng.randint(1, 254)}/"
                refused.append(command)
            elif s == 3:
                command = f"vim {out}/notes.txt"
                refused.append(command)
            elif s == 4 and x == 0:
                command = f"yes '{' '.join(rng.sample(WORDS, 4))}' | head -c {sizes.deep_big_output}"
            elif s == sizes.deep_steps and x == 1:
                _write(root / out / "proof.log", f"{text(rng, 300)}\nuid=0 {token}\n")
                command = f"cat {out}/proof.log"
            else:
                _write(root / out / f"s{s:02d}.log", text(rng, STEP_STDOUT_BYTES))
                _write(root / out / f"s{s:02d}e.log", text(rng, STEP_STDERR_BYTES))
                command = f"cat {out}/s{s:02d}.log; cat {out}/s{s:02d}e.log 1>&2 # {TARGET}"
            commands.append(command)
        steps.append(commands)
    # a CVE of the same application whose range excludes the detected version
    tree.upsert(
        application,
        VulnerabilityNode(
            cve_id=_cve(rng, used),
            vuln_type="denial of service",
            affected_versions=constraint(rng, ver, False),
        ),
    )
    tree.save(root / "kb")

    recon_commands = []
    for name, size in (("nmap", 7000), ("headers", 3000), ("tls", 4000)):
        _write(root / "recon" / f"{name}.txt", text(rng, size))
        recon_commands.append(f"cat recon/{name}.txt")
    params = [(name, f"the {name.replace('_', ' ')} the exploit needs") for name in PARAM_NAMES[: sizes.deep_params]]
    param_values = {name: f"{name}-{rng.getrandbits(24):06x}" for name, _ in params}
    fingerprints = [
        {
            "port": 8080,
            "protocol": "tcp",
            "service": "http",
            "product": application,
            "version": ver,
            "evidence": f"Server: {application}/{ver}",
        }
    ] + [
        {
            "port": 9000 + n,
            "protocol": "tcp",
            "service": f"svc{n}",
            "product": "",
            "version": "",
            # hex shares no words with the fill prompts, so these documents
            # rank the same for every seed and fill contexts keep their size
            "evidence": " ".join(f"{rng.getrandbits(32):08x}" for _ in range(9)),
        }
        for n in range(7)
    ]
    notes = "; ".join(f"{name} is {value}" for name, value in param_values.items())
    script = Script(
        token=token,
        recon_commands=recon_commands,
        summary={"os_guess": "linux", "fingerprints": fingerprints, "notes": notes},
        rank_exploits=True,
        params=params,
        param_values=param_values,
        exploit_steps=steps,
        exploit_finals=[False, True],
        source_order=refs,
    )
    return DeepExploit(script=script, application=application, version=ver, refused=refused)
