"""The three benchmark workloads: inputs, one timed run, and its output check.

Each workload owns a directory that is the working directory while it
runs. ``setup`` generates the inputs there and starts fixtures, ``run``
executes one whole pipeline run through the program's public entry points
and returns its wall time, ``check`` inspects what the run left on disk,
and ``reset`` removes the run directory (and restores the knowledge tree)
so the next run starts from the same state and repeats the same run id.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.server
import io
import json
import random
import re
import shutil
import threading
from pathlib import Path
from time import perf_counter

from pentestflow import cli
from pentestflow.pipeline import STAGES, STATUS_COMPLETE, PipelineRunner, ReplayClock, RunConfig
from pentestflow.sandbox import OUTPUT_CAP_BYTES, REJECTED_EXIT_CODE
from pentestflow.search import ConnectorKind, FixtureConnector

import generate
from generate import TARGET, Sizes
from model import ScriptedModel

_AUDIT_NUMBER_RE = re.compile(r'("(?:timestamp|duration)": )[-+0-9.eE]+')


def _file_bytes(path: Path) -> int:
    """Size of one file as the run left it.

    audit.jsonl lines carry a wall-clock timestamp and a duration whose
    printed width changes by a digit or two from run to run; they are
    counted at a fixed width of 17 characters so the total repeats exactly.
    """
    if path.name != "audit.jsonl":
        return path.stat().st_size
    return sum(
        len(_AUDIT_NUMBER_RE.sub(lambda m: m.group(1) + "0" * 17, line).encode("utf-8")) + 1
        for line in path.read_text(encoding="utf-8").splitlines()
    )


def tree_bytes(root: Path) -> int:
    """Bytes of a file, or of every file under a directory."""
    if root.is_file():
        return _file_bytes(root)
    return sum(_file_bytes(p) for p in root.rglob("*") if p.is_file())


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Shared run bookkeeping; subclasses generate inputs and run stages."""

    name = ""
    expected_success_index = 0
    setup_repeats = 5
    warmup_runs = 2
    knowledge_dir = "kb"

    def __init__(self, root: Path, seed: int, sizes: Sizes) -> None:
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.token = ""
        self.kb_bytes = 0
        self.reference: tuple[str, str] | None = None
        self.ledger: dict[str, float] = {}

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        """Generate inputs into the (emptied) workload directory and start
        fixtures. Called with the workload directory as working directory."""
        self.generate(random.Random(self.seed))

    def generate(self, rng: random.Random) -> None:
        raise NotImplementedError

    def record_baseline(self) -> None:
        """Size the knowledge tree as set up, so a run's growth can be told."""
        self.kb_bytes = tree_bytes(self.root / self.knowledge_dir)

    def teardown(self) -> None:
        """Stop fixtures started by setup."""

    def run(self) -> float:
        """One whole run; returns its wall time in seconds."""
        raise NotImplementedError

    def reset(self) -> None:
        shutil.rmtree(self.root / "runs", ignore_errors=True)

    # -- measurement -------------------------------------------------------------

    def run_dir(self) -> Path:
        dirs = [p for p in (self.root / "runs").iterdir() if p.is_dir()]
        if len(dirs) != 1:
            raise RuntimeError(f"expected one run directory, found {len(dirs)}")
        return dirs[0]

    def run_dir_bytes(self) -> int:
        """Bytes the run left: its run directory plus knowledge-tree growth."""
        growth = tree_bytes(self.root / self.knowledge_dir) - self.kb_bytes
        return tree_bytes(self.root / "runs") + growth

    @staticmethod
    def _sum_ledgers(runners: list[PipelineRunner]) -> dict[str, float]:
        """Each construction checkpoints only its own sessions' usage into
        record.json, so a staged run's usage is the sum over constructions."""
        total = {"call_count": 0, "input_tokens": 0, "accumulated_cost": 0.0}
        for runner in runners:
            for key in total:
                total[key] += runner.record.ledger.get(key, 0)
        return total

    # -- output check ------------------------------------------------------------

    def check(self) -> list[str]:
        """Problems with the last run's output; empty when it is correct."""
        errors: list[str] = []
        run_dir = self.run_dir()
        record = json.loads((run_dir / "record.json").read_text(encoding="utf-8"))
        for stage in STAGES:
            status = record["stage_statuses"].get(stage, {}).get("status")
            if status != STATUS_COMPLETE:
                errors.append(f"stage {stage} is {status}")
        if record["success_index"] != self.expected_success_index:
            errors.append(
                f"success_index {record['success_index']} != {self.expected_success_index}"
            )
        report_md = run_dir / "report.md"
        if self.token not in report_md.read_text(encoding="utf-8"):
            errors.append("evidence token missing from report.md")
        entries = record["plan"]["entries"]
        if not entries:
            errors.append("empty plan")
        for entry in entries:
            if not self._in_tree(entry):
                errors.append(f"plan entry {entry['cve_id']} {entry['exploit']['source_ref']} not in tree")
        digests = (_digest(report_md), _digest(run_dir / "record.json"))
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            errors.append("report.md or record.json differs from the first run")
        errors.extend(self.check_extra(run_dir))
        return errors

    def check_extra(self, run_dir: Path) -> list[str]:
        return []

    def _in_tree(self, entry: dict) -> bool:
        wanted = entry["application"].strip().lower()
        for node_path in (self.root / self.knowledge_dir).glob(f"*/{entry['cve_id']}.json"):
            meta = json.loads((node_path.parent / "application.json").read_text(encoding="utf-8"))
            if meta["application"].strip().lower() != wanted:
                continue
            node = json.loads(node_path.read_text(encoding="utf-8"))
            if any(e["source_ref"] == entry["exploit"]["source_ref"] for e in node["exploits"]):
                return True
        return False

    @staticmethod
    def history(run_dir: Path) -> list[dict]:
        lines = (run_dir / "history.jsonl").read_text(encoding="utf-8").splitlines()
        return [json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------


def _banner_handler(application: str, version: str):
    banner = f"{application}/{version}"

    class BannerHandler(http.server.BaseHTTPRequestHandler):
        def version_string(self) -> str:
            return banner

        def _reply(self, send_body: bool) -> None:
            if self.path == "/version":
                body = json.dumps({"product": application, "version": version}).encode()
            else:
                body = f"<html><title>{application} {version}</title>{self.path}</html>\n".encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if send_body:
                self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._reply(True)

        def do_HEAD(self) -> None:  # noqa: N802 - http.server API
            self._reply(False)

        def log_message(self, *args) -> None:
            pass

    return BannerHandler


class EngagementWorkload(Workload):
    """``pentestflow run --replay`` through ``cli.main`` against a live
    HTTP banner fixture that recon probes with curl through the sandbox."""

    name = "engagement"
    expected_success_index = generate.ENGAGEMENT_POCS - 1
    setup_repeats = 7
    server: http.server.ThreadingHTTPServer | None = None
    thread: threading.Thread | None = None

    def generate(self, rng: random.Random) -> None:
        self.spec = generate.engagement_files(self.root, rng)
        self.token = self.spec.token
        self.server = http.server.ThreadingHTTPServer(
            (TARGET, 0), _banner_handler(self.spec.application, self.spec.version)
        )
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        generate.engagement_transcripts(self.root, rng, self.spec, self.server.server_address[1])

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10)
            self.server = self.thread = None

    def run(self) -> float:
        argv = [
            "run",
            "--target", TARGET,
            "--scope", TARGET,
            "--replay", "transcripts",
            "--knowledge", self.knowledge_dir,
            "--application", self.spec.application,
            "--app-version", self.spec.version,
            "--output", "runs",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            started = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - started
        if code != 0:
            raise RuntimeError(f"pentestflow run exited with {code}")
        record = json.loads((self.run_dir() / "record.json").read_text(encoding="utf-8"))
        self.ledger = record["ledger"]
        return elapsed

    def check_extra(self, run_dir: Path) -> list[str]:
        probe = self.spec.probes[0]
        events = [e for e in self.history(run_dir) if e.get("command") == probe]
        if not events or events[0]["exit_code"] != 0:
            return [f"fixture probe missing from history.jsonl or failed: {events}"]
        return []


class KbAcquireWorkload(Workload):
    """A staged online run over a large knowledge tree: three runner
    constructions over one run directory, as the recon, plan and exploit
    subcommands run them."""

    name = "kb-acquire"
    warmup_runs = 4

    def generate(self, rng: random.Random) -> None:
        self.spec = generate.kb_acquire_files(self.root, rng, self.sizes)
        self.token = self.spec.script.token
        kb = self.root / self.knowledge_dir
        self.pristine = {p.relative_to(kb): p.read_bytes() for p in kb.rglob("*") if p.is_file()}

    def _restore(self) -> None:
        """Bring the tree back to its generated content.

        A run's save rewrites every file but changes the content of only the
        few nodes acquisition touched, so only those are written back. The
        pristine content lives in memory, so nothing the program does to
        files on disk can alter it.
        """
        kb = self.root / self.knowledge_dir
        for leftover in (kb.with_name(kb.name + ".staging"), kb.with_name(kb.name + ".discard")):
            shutil.rmtree(leftover, ignore_errors=True)
        present = {p.relative_to(kb) for p in kb.rglob("*") if p.is_file()}
        for rel in present - self.pristine.keys():
            (kb / rel).unlink()
        for rel, content in self.pristine.items():
            path = kb / rel
            if rel not in present or path.read_bytes() != content:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(content)
        for directory in sorted((p for p in kb.rglob("*") if p.is_dir()), reverse=True):
            if not any(directory.iterdir()):
                directory.rmdir()

    def reset(self) -> None:
        super().reset()
        self._restore()

    def run(self) -> float:
        config = RunConfig(
            target=TARGET,
            scope=(TARGET,),
            provider="gpt-4o",
            application=self.spec.application,
            knowledge_mode="online",
            knowledge_dir=self.knowledge_dir,
            output_dir="runs",
            max_repairs=0,
        )
        model = ScriptedModel(self.spec.script)
        runners = []
        started = perf_counter()
        connectors = [FixtureConnector(kind, Path("search")) for kind in ConnectorKind]
        for stage in ("run_intelligence", "run_analysis", "run_exploitation"):
            runner = PipelineRunner(
                config, connectors=connectors, clock=ReplayClock(), backend_factory=model
            )
            getattr(runner, stage)()
            runner.write_report()
            runners.append(runner)
        elapsed = perf_counter() - started
        self.ledger = self._sum_ledgers(runners)
        return elapsed


class DeepExploitWorkload(Workload):
    """Exploitation-heavy: large PoC corpora, many parameters, long loops
    with multi-KB outputs and one output far past the sandbox cap, on the
    small-window gpt-3.5-turbo profile. Recon runs on its own first, as the
    recon subcommand runs it; the full run that follows on the same run
    directory runs recon again, which re-summarises the environment."""

    name = "deep-exploit"
    expected_success_index = 1
    setup_repeats = 7

    def generate(self, rng: random.Random) -> None:
        self.spec = generate.deep_exploit_files(self.root, rng, self.sizes)
        self.token = self.spec.script.token

    def run(self) -> float:
        config = RunConfig(
            target=TARGET,
            scope=(TARGET,),
            provider="gpt-3.5-turbo",
            application=self.spec.application,
            knowledge_dir=self.knowledge_dir,
            output_dir="runs",
        )
        model = ScriptedModel(self.spec.script)
        started = perf_counter()
        first = PipelineRunner(config, clock=ReplayClock(), backend_factory=model)
        first.run_intelligence()
        first.write_report()
        second = PipelineRunner(config, clock=ReplayClock(), backend_factory=model)
        second.run_intelligence()
        second.run_analysis()
        second.run_exploitation()
        second.write_report()
        elapsed = perf_counter() - started
        self.ledger = self._sum_ledgers([first, second])
        self.output_cap = second.executor.output_cap
        return elapsed

    def check_extra(self, run_dir: Path) -> list[str]:
        errors = []
        if self.output_cap != OUTPUT_CAP_BYTES:
            errors.append(f"sandbox output cap is {self.output_cap}")
        events = self.history(run_dir)
        for command in self.spec.refused:
            refusals = [
                e
                for e in events
                if e.get("command") == command
                and e.get("exit_code") == REJECTED_EXIT_CODE
                and e.get("stderr", "").startswith("command rejected")
            ]
            if not refusals:
                errors.append(f"sandbox did not refuse {command!r}")
        return errors


WORKLOADS = {
    w.name: w for w in (EngagementWorkload, KbAcquireWorkload, DeepExploitWorkload)
}
