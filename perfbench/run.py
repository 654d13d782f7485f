"""pvbatsim benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is run
from ``src/`` of the checkout the script sits in. Inputs are generated from
the seed into a scratch directory under ``.perfbench_work/`` that is removed
at exit. Every CLI run happens in a fresh interpreter (the kernel backend is
chosen at import), one at a time: a closed loop with a single client.

``--trace 0`` times untraced CLI runs for about S seconds and reports the
end-to-end metrics. ``--trace 1`` makes pairs of one untraced and one traced
run for about S seconds and reports the per-layer metrics. Either way,
every run's outputs are checked against the hashes in ``golden.json``, and
the last line of standard output is the JSON result; the line before it
holds the run's metadata. See README.md in this directory for the workloads
and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROBE = BENCH_DIR / "probe.py"
GOLDEN = BENCH_DIR / "golden.json"

#: Set-up is short and noisy, so it is repeated and the median reported.
SETUP_REPEATS = 21

#: Ledger closure above this relative residual fails the run.
CLOSURE_TOL = 1e-6


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    """One child process: exit code, wall and CPU seconds, peak RSS in MB."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PVBATSIM_CONFIG", None)
    return env


def run_child(args, cwd, stdout_path):
    """Run ``python3 args...`` to completion and measure it from outside."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(), stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def output_hashes(work, workdir):
    result = {}
    for name in work.outputs:
        with open(workdir / name, "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def check_run(work, workdir, code, stdout_path, golden):
    """Problems with one CLI run's outputs; an empty list means it passed.

    A run fails on a non-zero exit, an output hash other than the golden one
    for its workload and variant, a ledger closure above CLOSURE_TOL, or a
    segment count other than the generated plateau count.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        hashes = output_hashes(work, workdir)
    except OSError as exc:
        return [f"missing output: {exc}"]
    problems = [
        f"{name}: sha256 {digest} != golden {golden.get(name)}"
        for name, digest in hashes.items()
        if digest != golden.get(name)
    ]
    if work.name == "track_steps":
        with open(stdout_path, encoding="utf-8") as fh:
            segments = sum(1 for line in fh if line.startswith("segment "))
        if segments != workloads.PLATEAUS:
            problems.append(f"{segments} segments, expected {workloads.PLATEAUS}")
    else:
        with open(workdir / "run.csv.ledger", encoding="utf-8") as fh:
            closure = dict(line.strip().split(",") for line in fh)["closure_relative"]
        if not float(closure) <= CLOSURE_TOL:
            problems.append(f"ledger closure {closure} > {CLOSURE_TOL}")
    return problems


def cli_run(work, workdir, golden, failures, traced=False):
    """One ``pvbatsim`` run in a fresh interpreter, checked; returns (sample, ok).

    A traced run goes through ``probe.py trace`` and leaves its spans in
    ``spans.json``.
    """
    for name in work.outputs:
        (workdir / name).unlink(missing_ok=True)
    prefix = [str(PROBE), "trace", "spans.json"] if traced else ["-m", "pvbatsim"]
    stdout_path = workdir / "cli.out"
    sample = run_child([*prefix, *work.argv], workdir, stdout_path)
    problems = check_run(work, workdir, sample.code, stdout_path, golden)
    failures.extend(f"{'traced' if traced else 'untraced'}: {p}" for p in problems)
    return sample, not problems


def setup_run(work, workdir):
    sample = run_child([str(PROBE), "setup", work.config or "-"], workdir, workdir / "setup.out")
    if sample.code != 0:
        raise BenchError(f"set-up probe exited {sample.code}: "
                         + (workdir / "setup.out.err").read_text(encoding="utf-8"))
    return sample


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    None when that percentile would not lie above the median (n < 20).
    """
    n = len(values)
    if n < 20:
        return None
    return {"p": round(100.0 * (n - 10) / n, 2), "value": sorted(values)[n - 11]}


def summary(values):
    return {"median": statistics.median(values), "tail": tail(values), "n": len(values)}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_end_to_end(work, workdir, golden, seconds, failures):
    setups = [setup_run(work, workdir).wall_s for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(setups)
    samples = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        sample, ok = cli_run(work, workdir, golden, failures)
        attempted += 1
        failed += not ok
        samples.append(sample)
        elapsed = time.perf_counter() - start
        if elapsed + sample.wall_s > seconds:
            break
    wall = [s.wall_s for s in samples]
    rates = [work.steps / (w - setup_s) for w in wall]
    metrics = {
        "wall_s": metric(statistics.median(wall), "s"),
        "cpu_s": metric(statistics.median(s.cpu_s for s in samples), "s"),
        "setup_s": metric(setup_s, "s"),
        "steps_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": metric(statistics.median(s.rss_mb for s in samples), "MB"),
    }
    detail = {
        "wall_s": summary(wall),
        "cpu_s": summary([s.cpu_s for s in samples]),
        "setup_s": summary(setups),
        "steps_per_s": summary(rates),
        "peak_rss_mb": summary([s.rss_mb for s in samples]),
        "fail_ratio": failed / attempted,
    }
    return metrics, detail, attempted, failed


def record_counts(work, workdir):
    """Supervisor and clamp counters read from a simulate run's records."""
    counts = {f"supervisor.mode_residency.{m}": 0 for m in range(1, 6)}
    counts.update({f"engine.clamp_flags.{b}": 0 for b in (1, 2, 4, 8)})
    counts["supervisor.transitions"] = 0
    if work.name == "track_steps" or not (workdir / "run.csv").is_file():
        return counts
    previous = None
    with open(workdir / "run.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            fields = line.split(",")
            mode, flags = fields[12], int(fields[17])
            counts[f"supervisor.mode_residency.{mode}"] += 1
            if previous is not None and mode != previous:
                counts["supervisor.transitions"] += 1
            previous = mode
            for bit in (1, 2, 4, 8):
                if flags & bit:
                    counts[f"engine.clamp_flags.{bit}"] += 1
    return counts


def layer_metrics(spans, counts, kernels, overhead):
    """Per-layer metrics from a traced run's spans, record counts and kernel timings."""
    span = spans.__getitem__  # probe.py reports every traced name, called or not
    m = {}
    for name in ("engine.step", "profiles.sample", "mppt.step", "converter.pv_port_voltage",
                 "pv.operating_point", "supervisor.select_mode", "supervisor.route_power",
                 "battery.current_for_power", "battery.soc_update", "battery.terminal_voltage"):
        m[f"{name}.calls"] = metric(span(name)["calls"], "count")
        m[f"{name}.self_s"] = metric(span(name)["self_s"], "s")
    for name in ("cli.main", "engine.run", "engine.run_tracking"):
        m[f"{name}.self_s"] = metric(span(name)["self_s"], "s")
    m["profiles.load_csv.s"] = metric(span("profiles.load_csv")["total_s"], "s")
    m["config.build_s"] = metric(span("config.build")["total_s"], "s")
    oracle = span("pv.mpp_oracle")
    m["pv.mpp_oracle.calls"] = metric(oracle["calls"], "count")
    m["pv.mpp_oracle.s"] = metric(oracle["total_s"], "s")
    in_oracle = span("kernels.diode")["parents"].get("pv.mpp_oracle", 0)
    m["pv.oracle_diode_solves_per_call"] = metric(
        in_oracle / oracle["calls"] if oracle["calls"] else 0.0, "count")
    for kernel, residual_unit in (("diode", "A"), ("battery", "W")):
        s = span(f"kernels.{kernel}")
        m[f"kernels.{kernel}.calls"] = metric(s["calls"], "count")
        m[f"kernels.{kernel}.self_s"] = metric(s["self_s"], "s")
        m[f"kernels.{kernel}.iters_mean"] = metric(
            s["iters_sum"] / s["calls"] if s["calls"] else 0.0, "count")
        m[f"kernels.{kernel}.iters_max"] = metric(s["iters_max"], "count")
        m[f"kernels.{kernel}.residual_max"] = metric(s["residual_max"], residual_unit)
    m["engine.records_to_csv.s"] = metric(span("engine.records_to_csv")["total_s"], "s")
    m["engine.csv_bytes"] = metric(span("engine.records_to_csv")["out_chars"], "bytes")
    for name, value in counts.items():
        m[name] = metric(value, "count")
    for kernel in ("diode", "battery", "voc"):
        m[f"kernels.pure.{kernel}_us"] = metric(kernels[f"kernels.pure.{kernel}_us"], "us")
    m["trace.overhead_ratio"] = metric(overhead, "ratio")
    return m


def measure_layers(work, workdir, golden, seconds, failures):
    """Traced/untraced pairs for about ``seconds``; per-metric medians over pairs."""
    kernel_run = run_child([str(PROBE), "kernels"], workdir, workdir / "kernels.out")
    if kernel_run.code != 0:
        raise BenchError(f"kernel probe exited {kernel_run.code}")
    kernels = json.loads((workdir / "kernels.out").read_text(encoding="utf-8"))
    passes = []
    attempted = passed = 0
    start = time.perf_counter()
    while True:
        untraced, ok_untraced = cli_run(work, workdir, golden, failures)
        (workdir / "spans.json").unlink(missing_ok=True)
        traced, ok_traced = cli_run(work, workdir, golden, failures, traced=True)
        try:
            spans = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
        except OSError as exc:
            raise BenchError(f"traced run wrote no spans: {exc}") from None
        attempted += 2
        passed += ok_untraced + ok_traced
        counts = record_counts(work, workdir)
        passes.append(layer_metrics(spans, counts, kernels, traced.wall_s / untraced.wall_s))
        elapsed = time.perf_counter() - start
        if elapsed + untraced.wall_s + traced.wall_s > seconds:
            break
    metrics = {}
    for name, first in passes[0].items():
        values = [p[name]["value"] for p in passes]
        # counts repeat exactly; keep them whole numbers
        value = first["value"] if len(set(values)) == 1 else statistics.median(values)
        metrics[name] = metric(value, first["unit"])
    detail = {
        "pairs": len(passes),
        "trace.overhead_ratio": summary([p["trace.overhead_ratio"]["value"] for p in passes]),
        "kernels": kernels,
        "fail_ratio": (attempted - passed) / attempted,
    }
    return metrics, detail, attempted, attempted - passed


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def load_golden(work):
    with open(GOLDEN, encoding="utf-8") as fh:
        table = json.load(fh)
    try:
        return table[work.name][str(work.variant)]
    except KeyError:
        raise BenchError(f"no golden hashes for {work.name} variant {work.variant}") from None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pvbatsim" / "__init__.py").is_file():
        print(f"run.py: no pvbatsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    failures = []
    try:
        work = workloads.generate(args.workload, args.seed, workdir)
        golden = load_golden(work)
        warmup = setup_run(work, workdir)  # fills the bytecode cache; not counted
        program = json.loads((workdir / "setup.out").read_text(encoding="utf-8"))
        if Path(program["module"]).resolve().parent != ROOT / "src" / "pvbatsim":
            raise BenchError(f"pvbatsim imported from {program['module']}, not this checkout")
        if args.trace:
            metrics, detail, attempted, failed = measure_layers(
                work, workdir, golden, args.seconds, failures)
        else:
            metrics, detail, attempted, failed = measure_end_to_end(
                work, workdir, golden, args.seconds, failures)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in failures[:10]:
        print(f"run.py: FAILED {problem}", file=sys.stderr)
    meta = {
        "workload": work.name, "seed": args.seed, "variant": work.variant,
        "trace": args.trace, "commit": git_commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "backend": program["backend"], "warmup_setup_s": warmup.wall_s,
        "steps": work.steps, "detail": detail,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
