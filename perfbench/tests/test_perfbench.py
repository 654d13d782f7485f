"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q

The traced-run tests run each workload once untraced and once traced, so the
module takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _generate(name, seed, directory):
    directory.mkdir()
    return workloads.generate(name, seed, directory)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_byte_stable_per_seed(tmp_path, name):
    _generate(name, 5, tmp_path / "a")
    _generate(name, 5, tmp_path / "b")
    _generate(name, 5 + workloads.VARIANTS, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b") == _files(tmp_path / "c")


@pytest.mark.parametrize("name", ["day_storm", "track_steps"])
def test_seeds_select_different_inputs(tmp_path, name):
    _generate(name, 1, tmp_path / "a")
    _generate(name, 2, tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


def test_golden_covers_every_variant():
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == set(WORKLOADS)
    for name in ("day_storm", "track_steps"):
        assert set(golden[name]) == {str(v) for v in range(workloads.VARIANTS)}


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request, tmp_path_factory):
    """One untraced and one traced run of a workload on the same inputs."""
    workdir = tmp_path_factory.mktemp(request.param)
    work = workloads.generate(request.param, 7, workdir)
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))[work.name][str(work.variant)]
    failures = []
    untraced, _ = run.cli_run(work, workdir, golden, failures)
    untraced_hashes = run.output_hashes(work, workdir)
    traced, _ = run.cli_run(work, workdir, golden, failures, traced=True)
    spans = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
    return work, failures, untraced_hashes, traced, run.output_hashes(work, workdir), spans


def test_traced_outputs_equal_untraced(traced_pair):
    _, failures, untraced_hashes, _, traced_hashes, _ = traced_pair
    assert failures == []
    assert traced_hashes == untraced_hashes


def test_self_times_within_traced_wall(traced_pair):
    _, _, _, traced, _, spans = traced_pair
    total_self = sum(s["self_s"] for s in spans.values())
    assert all(s["self_s"] >= -1e-9 for s in spans.values())
    assert total_self <= traced.wall_s
    # the root span covers the whole CLI call, so self times partition it
    assert total_self == pytest.approx(spans["cli.main"]["total_s"], rel=1e-6)


def test_layer_metrics_match_benchmark_json(traced_pair, tmp_path):
    work, _, _, _, _, spans = traced_pair
    kernels = {f"kernels.pure.{k}_us": 1.0 for k in ("diode", "battery", "voc")}
    metrics = run.layer_metrics(spans, run.record_counts(work, tmp_path), kernels, 1.0)
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert [(name, m["unit"]) for name, m in metrics.items()] == declared


def test_altered_output_counts_in_fail_ratio(tmp_path, monkeypatch):
    work = workloads.generate("track_steps", 0, tmp_path)
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))["track_steps"]["0"]
    real_run_child = run.run_child

    def run_and_alter(args, cwd, stdout_path):
        sample = real_run_child(args, cwd, stdout_path)
        if args[:2] == ["-m", "pvbatsim"]:
            with open(cwd / "cmp.csv", "a", encoding="utf-8") as fh:
                fh.write("0.0,0,0,0,0,0,0,0,0\n")
        return sample

    monkeypatch.setattr(run, "run_child", run_and_alter)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    failures = []
    metrics, detail, attempted, failed = run.measure_end_to_end(
        work, tmp_path, golden, 0, failures)
    assert [(name, m["unit"]) for name, m in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert (attempted, failed) == (1, 1)
    assert detail["fail_ratio"] == 1.0
    assert "cmp.csv: sha256" in failures[0]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "day_clear", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
