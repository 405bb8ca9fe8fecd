"""Check that two source trees give the same pipeline outputs, bit for bit.

    python3 tools/compare_outputs.py TREE_A TREE_B

For each workload of `perfbench/workloads.py` at seed 0, and for each tree,
this writes the workload's inputs into a fresh directory and runs its CLI
stages (gen, split, train or ablate, report) there, each in a fresh
`python -B` process with `PYTHONPATH=<tree>/src`. It then compares, stage
by stage, the exit code and stdout (the directory's path masked), and, file
by file, the sha256 of everything the stages wrote. `timings.json` holds
wall times and `folds.csv.meta.json` the data file's path, so those two are
left out. Exits 1 on any difference, 0 otherwise.

Each stage line also gives the stage process's peak resident set size
(`ru_maxrss`) in each tree, A -> B, so that a memory change shows which
stage moved; it varies from run to run and is not compared.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
UNCOMPARED = {"timings.json", "folds.csv.meta.json"}


def _workloads() -> dict:
    sys.dont_write_bytecode = True   # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    return WORKLOADS


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def _check_import(tree: Path) -> None:
    """Refuse a tree whose `src/` is not the package the children import."""
    out = subprocess.run([sys.executable, "-B", "-c",
                          "import coupled_labels; print(coupled_labels.__file__)"],
                         env=_env(tree), capture_output=True, text=True, check=True)
    where = Path(out.stdout.strip()).resolve()
    if not where.is_relative_to(tree / "src"):
        raise SystemExit(f"{tree}: coupled_labels imports from {where}")


def _run_stage(tree: Path, argv: list, workdir: Path) -> tuple[int, str, str, int]:
    """(exit code, stdout, stderr, peak RSS in KiB) of one CLI stage process,
    its RSS read from the child's own rusage through `os.wait4`."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen([sys.executable, "-B", "-m", "coupled_labels.cli", *argv],
                                cwd=workdir, env=_env(tree), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


def run_pipeline(tree: Path, workload, workdir: Path) -> tuple[list, dict, list]:
    """(stage name, exit code, masked stdout) per stage, the sha256 of every
    compared file under `workdir` by its relative path, and each stage's
    peak RSS in KiB."""
    paths = workload.write_inputs(workdir, SEED)
    stages, rss = [], []
    for name, argv in workload.stages(paths, SEED):
        code, stdout, stderr, maxrss = _run_stage(tree, argv, workdir)
        stages.append((name, code, stdout.replace(str(workdir), "<work>")))
        rss.append(maxrss)
        if code != 0:
            sys.stderr.write(f"{tree} {workload.name} {name}: exit {code}\n{stderr}")
            break
    digests = {str(p.relative_to(workdir)): _sha256(p)
               for p in sorted(workdir.rglob("*")) if p.is_file() and p.name not in UNCOMPARED}
    return stages, digests, rss


def _sha256(path: Path) -> str:
    # Streamed: Linux starts a spawned child's ru_maxrss at this process's
    # peak RSS, so reading a 25 MB CSV whole would raise every later reading.
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _mib(rss: list, i: int) -> str:
    return f"{rss[i] / 1024:.2f}" if i < len(rss) else "-"


def compare(name: str, a: tuple, b: tuple) -> list[str]:
    """The lines reporting one workload; a line starting `DIFF` is a difference."""
    (stages_a, files_a, rss_a), (stages_b, files_b, rss_b) = a, b
    lines = []
    for i in range(max(len(stages_a), len(stages_b))):
        sa = stages_a[i] if i < len(stages_a) else ("-", None, "")
        sb = stages_b[i] if i < len(stages_b) else ("-", None, "")
        if sa == sb:
            lines.append(f"  {sa[0]}: exit {sa[1]}, stdout the same, "
                         f"ru_maxrss {_mib(rss_a, i)} -> {_mib(rss_b, i)} MiB")
        else:
            lines.append(f"DIFF {name} {sa[0]}/{sb[0]}: exit {sa[1]}/{sb[1]}, "
                         f"stdout {'the same' if sa[2] == sb[2] else 'differs'}")
    common, every = files_a.keys() & files_b.keys(), sorted(files_a.keys() | files_b.keys())
    for f in every:
        if f not in common:
            lines.append(f"DIFF {name} {f}: written in one tree only")
        elif files_a[f] != files_b[f]:
            lines.append(f"DIFF {name} {f}: sha256 differs")
    same = sum(files_a[f] == files_b[f] for f in common)
    lines.append(f"  {same} of {len(every)} files with the same sha256")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    args = parser.parse_args()
    trees = [args.tree_a.resolve(), args.tree_b.resolve()]
    for tree in trees:
        _check_import(tree)
    differs = False
    for workload in _workloads().values():
        outputs = []
        for tree in trees:
            with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
                outputs.append(run_pipeline(tree, workload, Path(tmp)))
        lines = compare(workload.name, *outputs)
        differs |= any(line.startswith("DIFF") for line in lines)
        print(workload.name)
        print("\n".join(lines), flush=True)
    print("DIFFERENT" if differs else "SAME")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
