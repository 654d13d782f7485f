"""Record the output hashes of every workload variant into golden.json.

    python3 perfbench/make_golden.py

Runs each variant once on the checked-out program and fails without writing
anything if a run exits non-zero, misses the ledger closure or the segment
count. Run it only on a commit whose outputs are known good: every later
benchmark run is checked against these hashes.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main():
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    table = {}
    for name in sorted(workloads.GENERATORS):
        table[name] = {}
        variants = [0] if name == "day_clear" else range(workloads.VARIANTS)
        for variant in variants:
            workdir = Path(tempfile.mkdtemp(prefix=f"golden-{name}-", dir=scratch))
            try:
                work = workloads.generate(name, variant, workdir)
                stdout_path = workdir / "cli.out"
                sample = run.run_child(["-m", "pvbatsim", *work.argv], workdir, stdout_path)
                hashes = run.output_hashes(work, workdir) if sample.code == 0 else {}
                # checked against its own hashes: only exit, closure and segments count
                problems = run.check_run(work, workdir, sample.code, stdout_path, hashes)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if problems:
                print(f"{name} variant {variant}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            table[name][str(variant)] = hashes
            print(f"{name} {variant} {sample.wall_s:.2f}s", flush=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
