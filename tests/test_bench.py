"""Benchmark harness tests: difficulty bucketing against an independent
oracle, CVE selection, manifest loading, aggregate arithmetic, and the
run loop's failure policy."""

import csv
import json
import random

import pytest

from pentestflow.bench import (
    DIFFICULTIES,
    BenchmarkReport,
    CveMetrics,
    ManifestError,
    TargetManifest,
    TargetResult,
    classify_difficulty,
    load_manifest,
    load_manifests,
    result_from_record,
    run_benchmark,
    select_cve,
)
from pentestflow.pipeline import (
    STAGE_ANALYSIS,
    STAGE_EXPLOITATION,
    STAGE_INTELLIGENCE,
    STAGES,
    StageStatus,
)

# Independent re-statement of the bucketing rule, kept deliberately separate
# from the implementation so the two cannot drift together.


def oracle_difficulty(score: float) -> str:
    if score >= 3.0:
        return "easy"
    if score >= 2.0:
        return "medium"
    return "hard"


def make_manifest(name="t", exploitability=3.9, epss=50.0, **kwargs):
    cves = kwargs.pop(
        "cves",
        {"CVE-2024-0001": CveMetrics(epss=epss, exploitability=exploitability)},
    )
    defaults = dict(name=name, application="App", version="1.0", cves=cves)
    defaults.update(kwargs)
    return TargetManifest(**defaults)


class StubRecord:
    """Duck-typed stand-in for a run record: statuses, times, ledger."""

    def __init__(self, statuses, times=None, cost=0.0):
        times = times or {}
        self.stage_statuses = {
            stage: StageStatus(status, times.get(stage, 0.0), 0.0)
            for stage, status in statuses.items()
        }
        self.ledger = {"accumulated_cost": cost}


# ---------------------------------------------------------------------------
# Difficulty classification
# ---------------------------------------------------------------------------


def test_classifier_agrees_with_oracle_on_grid():
    for i in range(41):  # 0.0, 0.1, ..., 4.0
        score = i / 10
        assert classify_difficulty(score) == oracle_difficulty(score), score


def test_classifier_boundary_trio():
    assert classify_difficulty(3.0) == "easy"
    assert classify_difficulty(2.0) == "medium"
    assert classify_difficulty(1.9) == "hard"


def test_classifier_examples():
    assert classify_difficulty(3.9) == "easy"
    assert classify_difficulty(2.5) == "medium"
    assert classify_difficulty(1.0) == "hard"


def test_classifier_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_difficulty(-0.1)
    with pytest.raises(ValueError):
        classify_difficulty(4.1)


# ---------------------------------------------------------------------------
# CVE selection
# ---------------------------------------------------------------------------


def test_select_single_candidate():
    manifest = make_manifest(cves={"CVE-2020-1000": CveMetrics(12.0, 2.5)})
    assert select_cve(manifest)[0] == "CVE-2020-1000"


def test_select_highest_epss():
    manifest = make_manifest(
        cves={
            "CVE-2020-1000": CveMetrics(97.19, 2.5),
            "CVE-2020-2000": CveMetrics(12.0, 3.9),
        }
    )
    cve_id, metrics = select_cve(manifest)
    assert cve_id == "CVE-2020-1000"
    assert metrics.epss == 97.19


def test_select_epss_tie_breaks_to_exploitability():
    manifest = make_manifest(
        cves={
            "CVE-2020-1000": CveMetrics(50.0, 2.8),
            "CVE-2020-2000": CveMetrics(50.0, 3.9),
        }
    )
    assert select_cve(manifest)[0] == "CVE-2020-2000"


def test_select_full_tie_breaks_lexicographically():
    manifest = make_manifest(
        cves={
            "CVE-2020-2000": CveMetrics(50.0, 3.0),
            "CVE-2020-1000": CveMetrics(50.0, 3.0),
        }
    )
    assert select_cve(manifest)[0] == "CVE-2020-1000"


def test_select_ignores_candidates_without_exploitability():
    manifest = make_manifest(
        cves={
            "CVE-2020-1000": CveMetrics(99.0, None),  # higher EPSS, ineligible
            "CVE-2020-2000": CveMetrics(10.0, 1.5),
        }
    )
    assert select_cve(manifest)[0] == "CVE-2020-2000"


def test_select_requires_some_exploitability():
    manifest = make_manifest(cves={"CVE-2020-1000": CveMetrics(99.0, None)})
    with pytest.raises(ManifestError):
        select_cve(manifest)


def test_metric_validation():
    with pytest.raises(ManifestError):
        CveMetrics(epss=-1.0)
    with pytest.raises(ManifestError):
        CveMetrics(epss=100.5)
    with pytest.raises(ManifestError):
        CveMetrics(epss=50.0, exploitability=4.5)
    assert CveMetrics(epss=0.0, exploitability=None).exploitability is None


def test_manifest_validation():
    with pytest.raises(ManifestError):
        TargetManifest(name="", application="a", version="1", cves={})
    with pytest.raises(ManifestError):
        make_manifest(cves={})


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------


def test_load_manifest_round_trip(tmp_path):
    doc = {
        "name": "alpha",
        "application": "DemoSrv",
        "version": "1.2.3",
        "cwe_id": "CWE-502",
        "setup_ref": "compose/alpha.yml",
        "target_address": "10.0.0.5",
        "cves": {
            "CVE-2024-0001": {"epss": 97.19, "exploitability": 3.9},
            "CVE-2024-0002": {"epss": 10.0, "exploitability": None},
        },
    }
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    manifest = load_manifest(path)
    assert manifest.name == "alpha"
    assert manifest.application == "DemoSrv"
    assert manifest.cwe_id == "CWE-502"
    assert manifest.setup_ref == "compose/alpha.yml"
    assert manifest.target_address == "10.0.0.5"
    assert manifest.cves["CVE-2024-0001"] == CveMetrics(97.19, 3.9)
    assert manifest.cves["CVE-2024-0002"] == CveMetrics(10.0, None)


def test_load_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_load_manifest_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"application": "x"}), encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_load_manifests_partitions_and_records_reasons(tmp_path):
    (tmp_path / "good.json").write_text(
        json.dumps(
            {
                "name": "good",
                "cves": {"CVE-2024-0001": {"epss": 50.0, "exploitability": 3.0}},
            }
        ),
        encoding="utf-8",
    )
    (tmp_path / "broken.json").write_text("not json", encoding="utf-8")
    (tmp_path / "nocvss.json").write_text(
        json.dumps(
            {"name": "nocvss", "cves": {"CVE-2024-0002": {"epss": 90.0}}}
        ),
        encoding="utf-8",
    )
    included, exclusions = load_manifests(tmp_path)
    assert [m.name for m in included] == ["good"]
    assert sorted(e["name"] for e in exclusions) == ["broken", "nocvss"]
    for entry in exclusions:
        assert entry["reason"]


GOOD_MANIFEST = {
    "name": "good",
    "application": "DemoSrv",
    "version": "1.2.3",
    "cves": {"CVE-2024-0001": {"epss": 50.0, "exploitability": 3.1}},
}


def test_load_manifests_refuses_misspelled_keys_and_wrong_types(tmp_path):
    def cve(**changes):
        metrics = {"epss": 50.0, "exploitability": 3.1, **changes}
        return {"cves": {"CVE-2024-0001": metrics}}

    # file stem -> (changes to a good manifest, the key its exclusion names)
    probes = {
        "setup-reff": ({"setup_reff": "compose/x.yml"}, "['setup_reff']"),
        "prof": ({"prof": "token"}, "['prof']"),
        "epss-bool": (cve(epss=True), "['epss']"),
        "version-number": ({"version": 1.5}, "['version']"),
        "exploitability-string": (cve(exploitability="3.1"), "['exploitability']"),
    }
    for stem, (changes, _) in probes.items():
        doc = {**GOOD_MANIFEST, "name": stem, **changes}
        (tmp_path / f"{stem}.json").write_text(json.dumps(doc), encoding="utf-8")
    bare = {"name": "bare", "cves": GOOD_MANIFEST["cves"]}
    (tmp_path / "bare.json").write_text(json.dumps(bare), encoding="utf-8")

    included, exclusions = load_manifests(tmp_path)
    assert [(m.name, m.application, m.version) for m in included] == [("bare", "", "")]
    reasons = {e["name"]: e["reason"] for e in exclusions}
    assert sorted(reasons) == sorted(probes)
    for stem, (_, key) in probes.items():
        assert key in reasons[stem], reasons[stem]


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def make_result(name, difficulty, statuses, times=None, cost=0.0):
    times = times or {stage: 0.0 for stage in STAGES}
    return TargetResult(
        name=name,
        difficulty=difficulty,
        cve_id="CVE-2024-0001",
        stage_statuses=statuses,
        stage_times=times,
        cost=cost,
        success=statuses.get(STAGE_EXPLOITATION) == "complete",
    )


ALL_COMPLETE = {stage: "complete" for stage in STAGES}


def test_two_targets_one_success_rate_half():
    report = BenchmarkReport(
        results=[
            make_result("a", "easy", ALL_COMPLETE),
            make_result(
                "b",
                "easy",
                {
                    STAGE_INTELLIGENCE: "complete",
                    STAGE_ANALYSIS: "complete",
                    STAGE_EXPLOITATION: "incomplete",
                },
            ),
        ]
    )
    assert report.aggregates()["overall_success_rate"] == 0.5


def test_empty_corpus_yields_empty_metrics():
    report = run_benchmark([], make_config=lambda m: None, runner=lambda c: None)
    aggregates = report.aggregates()
    assert aggregates["targets"] == 0
    assert aggregates["overall_success_rate"] is None
    assert aggregates["mean_cost"] is None
    for difficulty in DIFFICULTIES:
        assert aggregates["per_difficulty"][difficulty] == {
            "targets": 0,
            "success_rate": None,
        }
    for stage in STAGES:
        assert aggregates["stage_completion"][stage]["overall"] is None


def test_easy_easy_hard_example():
    fail = {
        STAGE_INTELLIGENCE: "complete",
        STAGE_ANALYSIS: "incomplete",
        STAGE_EXPLOITATION: "skipped",
    }
    report = BenchmarkReport(
        results=[
            make_result("a", "easy", ALL_COMPLETE),
            make_result("b", "easy", fail),
            make_result("c", "hard", ALL_COMPLETE),
        ]
    )
    aggregates = report.aggregates()
    assert aggregates["per_difficulty"]["easy"]["success_rate"] == 0.5
    assert aggregates["per_difficulty"]["hard"]["success_rate"] == 1.0
    assert aggregates["per_difficulty"]["medium"]["success_rate"] is None
    assert aggregates["overall_success_rate"] == round(2 / 3, 4)


def test_hand_computed_table_exact():
    results = [
        make_result(
            "t1", "easy", ALL_COMPLETE,
            times={STAGE_INTELLIGENCE: 1.0, STAGE_ANALYSIS: 2.0, STAGE_EXPLOITATION: 3.0},
            cost=0.01,
        ),
        make_result(
            "t2", "easy",
            {
                STAGE_INTELLIGENCE: "complete",
                STAGE_ANALYSIS: "complete",
                STAGE_EXPLOITATION: "incomplete",
            },
            times={STAGE_INTELLIGENCE: 1.0, STAGE_ANALYSIS: 1.0, STAGE_EXPLOITATION: 1.0},
            cost=0.02,
        ),
        make_result(
            "t3", "medium",
            {
                STAGE_INTELLIGENCE: "complete",
                STAGE_ANALYSIS: "incomplete",
                STAGE_EXPLOITATION: "skipped",
            },
            times={STAGE_INTELLIGENCE: 2.0, STAGE_ANALYSIS: 2.0, STAGE_EXPLOITATION: 0.0},
            cost=0.03,
        ),
        make_result(
            "t4", "hard", ALL_COMPLETE,
            times={STAGE_INTELLIGENCE: 4.0, STAGE_ANALYSIS: 1.0, STAGE_EXPLOITATION: 1.0},
            cost=0.04,
        ),
    ]
    aggregates = BenchmarkReport(results=results).aggregates()
    assert aggregates == {
        "targets": 4,
        "excluded": 0,
        "overall_success_rate": 0.5,
        "per_difficulty": {
            "easy": {"targets": 2, "success_rate": 0.5},
            "medium": {"targets": 1, "success_rate": 0.0},
            "hard": {"targets": 1, "success_rate": 1.0},
        },
        "stage_completion": {
            STAGE_INTELLIGENCE: {
                "overall": 1.0, "easy": 1.0, "medium": 1.0, "hard": 1.0,
            },
            STAGE_ANALYSIS: {
                "overall": 0.75, "easy": 1.0, "medium": 0.0, "hard": 1.0,
            },
            STAGE_EXPLOITATION: {
                "overall": 0.5, "easy": 0.5, "medium": 0.0, "hard": 1.0,
            },
        },
        "mean_stage_time": {
            STAGE_INTELLIGENCE: 2.0,
            STAGE_ANALYSIS: 1.5,
            STAGE_EXPLOITATION: 1.25,
        },
        "mean_total_time": 4.75,
        "mean_cost": 0.025,
    }


def test_aggregates_match_hand_computation_randomized():
    rng = random.Random(0xBE7C)
    status_pool = ("complete", "incomplete", "skipped", "error")
    for _ in range(60):
        n = rng.randint(0, 12)
        results = []
        for i in range(n):
            statuses = {stage: rng.choice(status_pool) for stage in STAGES}
            times = {stage: round(rng.uniform(0, 30), 3) for stage in STAGES}
            results.append(
                make_result(
                    f"t{i}", rng.choice(DIFFICULTIES), statuses, times,
                    cost=round(rng.uniform(0, 2), 6),
                )
            )
        aggregates = BenchmarkReport(results=results).aggregates()

        # independent recomputation
        def rate(subset):
            if not subset:
                return None
            return round(sum(1 for r in subset if r.success) / len(subset), 4)

        def completion(subset, stage):
            if not subset:
                return None
            done = sum(1 for r in subset if r.stage_statuses[stage] == "complete")
            return round(done / len(subset), 4)

        def mean(values):
            if not values:
                return None
            return round(sum(values) / len(values), 4)

        assert aggregates["targets"] == n
        assert aggregates["overall_success_rate"] == rate(results)
        assert aggregates["mean_total_time"] == mean(
            [sum(r.stage_times.values()) for r in results]
        )
        assert aggregates["mean_cost"] == mean([r.cost for r in results])
        for difficulty in DIFFICULTIES:
            subset = [r for r in results if r.difficulty == difficulty]
            assert aggregates["per_difficulty"][difficulty] == {
                "targets": len(subset),
                "success_rate": rate(subset),
            }
            for stage in STAGES:
                assert (
                    aggregates["stage_completion"][stage][difficulty]
                    == completion(subset, stage)
                )
        for stage in STAGES:
            assert aggregates["stage_completion"][stage]["overall"] == completion(
                results, stage
            )
            assert aggregates["mean_stage_time"][stage] == mean(
                [r.stage_times[stage] for r in results]
            )


def test_bucket_counts_on_annotated_fixture():
    scores = {"m1": 3.9, "m2": 3.0, "m3": 2.5, "m4": 2.0, "m5": 1.9, "m6": 0.0}
    manifests = [
        make_manifest(name, exploitability=score) for name, score in scores.items()
    ]
    report = run_benchmark(
        manifests,
        make_config=lambda m: m.name,
        runner=lambda name: StubRecord(ALL_COMPLETE),
    )
    counts = {
        d: report.aggregates()["per_difficulty"][d]["targets"] for d in DIFFICULTIES
    }
    assert counts == {"easy": 2, "medium": 2, "hard": 2}


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


def test_success_requires_exploitation_complete():
    record = StubRecord(
        {
            STAGE_INTELLIGENCE: "complete",
            STAGE_ANALYSIS: "complete",
            STAGE_EXPLOITATION: "incomplete",
        }
    )
    result = result_from_record(make_manifest(), "easy", "CVE-2024-0001", record)
    assert result.success is False
    result = result_from_record(
        make_manifest(), "easy", "CVE-2024-0001", StubRecord(ALL_COMPLETE)
    )
    assert result.success is True


def test_crashed_run_counts_as_failure_not_exclusion():
    manifests = [make_manifest("ok", 3.5), make_manifest("boom", 3.5)]

    def runner(name):
        if name == "boom":
            raise RuntimeError("container did not start")
        return StubRecord(ALL_COMPLETE, cost=0.5)

    report = run_benchmark(manifests, make_config=lambda m: m.name, runner=runner)
    assert report.exclusions == []
    assert [r.name for r in report.results] == ["ok", "boom"]
    boom = report.results[1]
    assert boom.success is False
    assert boom.stage_statuses == {stage: "error" for stage in STAGES}
    assert report.aggregates()["overall_success_rate"] == 0.5


def test_unbucketable_manifest_excluded_and_never_run():
    manifests = [
        make_manifest("nocvss", cves={"CVE-2024-0009": CveMetrics(90.0, None)}),
        make_manifest("fine", 2.5),
    ]
    ran = []

    def runner(name):
        ran.append(name)
        return StubRecord(ALL_COMPLETE)

    report = run_benchmark(manifests, make_config=lambda m: m.name, runner=runner)
    assert ran == ["fine"]
    assert [e["name"] for e in report.exclusions] == ["nocvss"]
    assert report.aggregates()["excluded"] == 1


def test_setup_ref_never_reaches_run_config():
    secret = "vulhub/activemq/CVE-2023-46604/docker-compose.yml"
    manifests = [
        make_manifest("alpha", 3.5, setup_ref=secret, target_address="127.0.0.1")
    ]
    seen_configs = []

    def make_config(manifest):
        from pentestflow.pipeline import RunConfig

        config = RunConfig(
            target=manifest.target_address,
            scope=(manifest.target_address,),
            application=manifest.application,
            version=manifest.version,
        )
        seen_configs.append(config)
        return config

    run_benchmark(
        manifests, make_config, runner=lambda c: StubRecord(ALL_COMPLETE)
    )
    assert seen_configs
    for config in seen_configs:
        assert secret not in json.dumps(config.to_dict())


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def test_csv_rows_match_results(tmp_path):
    results = [
        make_result(
            "t1", "easy", ALL_COMPLETE,
            times={STAGE_INTELLIGENCE: 1.23456, STAGE_ANALYSIS: 0.5, STAGE_EXPLOITATION: 2.0},
            cost=1.2345678,
        )
    ]
    report = BenchmarkReport(results=results)
    path = tmp_path / "results.csv"
    report.write_csv(path)
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows == [
        {
            "name": "t1",
            "difficulty": "easy",
            "cve_id": "CVE-2024-0001",
            "ig_status": "complete",
            "va_status": "complete",
            "ex_status": "complete",
            "ig_time": "1.2346",
            "va_time": "0.5",
            "ex_time": "2.0",
            "cost": "1.234568",
            "success": "True",
        }
    ]


def test_json_output_holds_aggregates_and_exclusions(tmp_path):
    report = BenchmarkReport(
        results=[make_result("t1", "easy", ALL_COMPLETE)],
        exclusions=[{"name": "left-out", "reason": "no CVSS"}],
    )
    path = tmp_path / "aggregates.json"
    report.write_json(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["aggregates"] == report.aggregates()
    assert doc["exclusions"] == [{"name": "left-out", "reason": "no CVSS"}]
