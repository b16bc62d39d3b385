"""Record alternating parent/change benchmark pairs as two BENCH_*.json files.

Run from anywhere inside a rankmargin checkout:

    python3 tools/bench_pairs.py --base f3ae5b7 --tag pr20 --pairs 3

The parent side is the committed tree of the base revision, the change side
that of HEAD; each is exported with `git archive` into a temporary directory:
nothing is registered in the repository's .git, and the directory is removed
however the runs end. For every workload and pair, both trees run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one after the other, T being BENCHMARK.json's run_seconds; the parent runs first in even pairs, the change in odd
ones. The files BENCH_<tag>_parent.json and BENCH_<tag>_change.json, written to
the repository root, hold every JSON line of every run, the median and
quartiles of each metric, and the Python, numpy, scipy and OpenBLAS versions
and CPU count. When both files of the tag exist, the run merges into them:
its workloads replace those of the same name and the others stay, so
workloads recorded at different --pairs share one tag. After writing them it
prints, for each workload of the files and each end-to-end metric of
BENCHMARK.json, both medians with their quartiles, the relative change, in
how many pairs the change was better, and whether the change median is
inside the metric's bound. The exit status is 1, and no file is written,
when a run fails or its last line is not a JSON result with `correct: true`
and 0 failed, when only one file of the tag exists, or when the existing
files name another parent or change commit. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
# Run by the interpreter that runs the benchmark.
_VERSIONS = (
    "import json, os, platform, numpy, scipy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
    "                  'scipy': scipy.__version__, 'openblas': blas.get('version'),\n"
    "                  'cpu_count': os.cpu_count()}))\n"
)


class RunError(Exception):
    """A benchmark run failed or printed no passing result."""


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def _json_object(line: str):
    """The JSON object `line` holds, or None."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def json_lines(stdout: str) -> list[dict]:
    """Every line of a run's standard output that holds a JSON object; the
    last line must be the run's result, `correct: true` with 0 failed."""
    lines = stdout.strip().splitlines() or [""]
    result = _json_object(lines[-1])
    if result is None or "metrics" not in result:
        raise RunError(f"the last line is not a JSON result: {lines[-1]!r}")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunError(f"the result is not correct with 0 failed: "
                       f"correct={result.get('correct')!r}, failed={result.get('failed')!r}")
    return [obj for obj in map(_json_object, lines) if obj is not None]


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of `values` by linear interpolation between order
    statistics, as numpy.percentile computes by default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(runs: list[dict]) -> dict:
    """{metric: {unit, n, median, q1, q3}} over the results (each run's last
    JSON line) of `runs`, in the order the metrics first appear."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, metric in run["json_lines"][-1]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {
        name: {"unit": units[name], "n": len(v), "median": quantile(v, 0.5),
               "q1": quantile(v, 0.25), "q3": quantile(v, 0.75)}
        for name, v in values.items()
    }


def _pair_values(workload: dict, metric: str) -> dict[int, float]:
    return {run["pair"]: run["json_lines"][-1]["metrics"][metric]["value"]
            for run in workload["runs"]}


def compare(parent: dict, change: dict, benchmark: dict = BENCHMARK) -> list[str]:
    """One line per workload and end-to-end metric of `benchmark`, for the
    parent and change documents of one recording (their workloads in one
    order): each median with its
    quartiles, the relative change of the median, the pairs in which the
    change was better (in the metric's `better` direction; a tie is not
    better), and whether the change median is inside the metric's relative
    `bound`, i.e. worse than the parent's by no more than that share."""
    lines = []
    for old, new in zip(parent["workloads"], change["workloads"]):
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = old["summary"][name], new["summary"][name]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            before, after = _pair_values(old, name), _pair_values(new, name)
            pairs = sorted(before.keys() & after.keys())
            better = sum(sign * (after[p] - before[p]) < 0 for p in pairs)
            relative = b["median"] / a["median"] - 1.0
            lines.append(
                f"{old['workload']} {name} ({metric['better']} is better): "
                f"parent {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] -> "
                f"change {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] {metric['unit']}, "
                f"{relative:+.1%}; better in {better}/{len(pairs)} pairs; "
                f"{'inside' if sign * relative <= bound else 'OUTSIDE'} bound {bound:.0%}"
            )
    return lines


def merge(old: dict | None, new: dict) -> dict:
    """The {side: document} `new` of a recording merged into `old`, the
    documents already under its tag (None if there are none). Each side
    keeps `old`'s workloads in their order, with a workload `new` recorded
    again replaced by the new one, and then `new`'s other workloads; the
    other fields are `new`'s. Raises RunError if the sides name other
    commits."""
    if old is None:
        return new
    merged = {}
    for side in SIDES:
        if old[side]["commit"] != new[side]["commit"]:
            raise RunError(f"the existing {side} file is of commit {old[side]['commit']}, "
                           f"this run of {new[side]['commit']}")
        recorded = {w["workload"]: w for w in new[side]["workloads"]}
        kept = [recorded.pop(w["workload"], w) for w in old[side]["workloads"]]
        merged[side] = {**new[side], "workloads": kept + list(recorded.values())}
    return merged


def _existing(tag: str) -> dict | None:
    """The {side: document} already written under `tag`, or None."""
    paths = {side: ROOT / f"BENCH_{tag}_{side}.json" for side in SIDES}
    found = [side for side in SIDES if paths[side].exists()]
    if not found:
        return None
    if len(found) < len(SIDES):
        raise RunError(f"only {paths[found[0]].name} of tag {tag} exists")
    return {side: json.loads(paths[side].read_text()) for side in SIDES}


def _export(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: int) -> list[dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        if done.returncode != 0:
            raise RunError(f"exit status {done.returncode}")
        return json_lines(done.stdout)
    except RunError as exc:
        tail = "\n".join(done.stderr.strip().splitlines()[-20:])
        raise RunError(f"{workload} in {tree.name}: {exc}\n{tail}") from None


def record(base: str, tag: str, workloads, pairs: int, seed: int) -> None:
    seconds = BENCHMARK["run_seconds"]
    commits = dict(zip(SIDES, (_git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
                               for rev in (base, "HEAD"))))
    existing = _existing(tag)
    # refuse files of other commits before any run
    merge(existing, {side: {"commit": commits[side], "workloads": []} for side in SIDES})
    docs = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            _export(commits[side], trees[side])
        versions = json.loads(subprocess.run([sys.executable, "-c", _VERSIONS], check=True,
                                             capture_output=True, text=True).stdout)
        for side in SIDES:
            docs[side] = {
                "side": side, "commit": commits[side], **versions,
                "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace X",
                "pairs": "each run is paired with the other side's run of the same pair number; "
                         "order 0 ran first in its pair, and the first side alternates",
                "quartiles": "linear interpolation between order statistics, as numpy.percentile",
                "workloads": [],
            }
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for pair in range(pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    lines = _run(trees[side], workload, seed, seconds)
                    runs[side].append({"pair": pair, "order": position, "json_lines": lines})
                    metrics = lines[-1]["metrics"].items()
                    shown = ", ".join(f"{name} {m['value']:.4g}" for name, m in metrics)
                    print(f"{workload} pair {pair} {side}: {shown}", file=sys.stderr, flush=True)
            for side in SIDES:
                docs[side]["workloads"].append({
                    "workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
                    "runs": runs[side], "summary": summarize(runs[side]),
                })
    docs = merge(existing, docs)
    for side in SIDES:
        path = ROOT / f"BENCH_{tag}_{side}.json"
        path.write_text(json.dumps(docs[side], indent=1) + "\n")
        print(f"wrote {path}")
    print("\n".join(compare(docs["parent"], docs["change"])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision; the change is HEAD")
    parser.add_argument("--tag", required=True,
                        help="names the files BENCH_<tag>_<side>.json, merged into if they exist")
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeat for several (default: every workload of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    try:
        record(args.base, args.tag, args.workload or workloads, args.pairs, args.seed)
    except (RunError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
