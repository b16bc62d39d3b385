"""Benchmark of `rankmargin report` and `rankmargin predict`, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload report-r60 --seed 1 --seconds 25 --trace 0

Workloads: report-r60, report-r351, predict-cli (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run is split into an
untraced and a traced half and the metrics are the per-module ones.
"""

import time

_T0 = time.perf_counter()

import os

# One BLAS thread: numpy's default of one per core moves a report call by
# more than 10% from run to run. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import season
import spans
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 3
WARMUP_GAMES = 800
QUERIES = 32
# The criterion-7 report: 3 partitions, 5 folds and its grids.
REPORT_ARGS = [
    "--partitions", "3", "--folds", "5",
    "--span-grid", "0.3,0.5", "--sigma-grid", "12,19,30",
    "--sigma-x-grid", "30,60", "--sigma-y-grid", "8,16",
]
# Model files for predict-cli, pinned at values CV picks on report-r60 seasons.
FIT_ARGS = ["--df", "4", "--span", "0.5", "--sigma", "12", "--sigma-x", "30", "--sigma-y", "8"]
KINDS = spans.PREDICT_KINDS

# workload -> (rank_max, the LOESS span CV picks on its seasons)
WORKLOADS = {
    "report-r60": (60, 0.5),
    "report-r351": (351, 0.3),
    "predict-cli": (60, 0.5),
}


def prepare(workload: str, seed: int, work: Path) -> None:
    """Write the program's inputs for (workload, seed) into `work`."""
    rank_max, span = WORKLOADS[workload]
    s = season.generate(seed, rank_max, span)
    work.mkdir(parents=True, exist_ok=True)
    (work / "season.csv").write_text(s.csv_text())
    meta = {"span_curve": s.span_curve}
    if workload == "predict-cli":
        (work / "train.csv").write_text(s.csv_text(stop=season.TRAIN_COUNT))
        from rankmargin import cli

        argv = ["fit", "--input", str(work / "train.csv"), "--model", "all"]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv + FIT_ARGS + ["--out", str(work / "models")]) != 0:
                raise RuntimeError("fitting the model files failed")
        rng = np.random.default_rng([seed, 1])
        meta["queries"] = rng.integers(1, rank_max + 1, (QUERIES, 2)).astype(float).tolist()
    else:
        (work / "warmup.csv").write_text(s.csv_text(stop=WARMUP_GAMES))
    (work / "inputs.json").write_text(json.dumps(meta))


class Workload:
    """Calls into the CLI for one workload, and what their outputs must be."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.records = []

    def setup(self) -> None:
        cmd = [sys.executable, str(HERE / "run.py"), "--prepare", "--workload", self.name,
               "--seed", str(self.seed), "--work", str(self.work)]
        subprocess.run(cmd, check=True, timeout=150, stdout=subprocess.DEVNULL)
        self.meta = json.loads((self.work / "inputs.json").read_text())
        from rankmargin import cli

        self.cli = cli
        self.warmup()

    def run_calls(self, calls, tracer=None):
        """[(rc, stdout, stderr)] of `cli.main` on each (span name, argv)."""
        results = []
        for name, argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                index = tracer.start(name) if tracer else None
                try:
                    rc = self.cli.main(argv)
                finally:
                    if tracer:
                        tracer.end(index)
            results.append((rc, out.getvalue(), err.getvalue()))
        return results


class Report(Workload):
    def calls(self, i):
        argv = ["report", "--input", str(self.work / "season.csv"), *REPORT_ARGS,
                "--out-dir", str(self.work / "out")]
        return [("cli.report", argv)]

    def warmup(self):
        argv = ["report", "--input", str(self.work / "warmup.csv"), *REPORT_ARGS,
                "--out-dir", str(self.work / "warmup-out")]
        self.run_calls([("cli.report", argv)])

    def record(self, i, results):
        rc = results[0][0]
        files = {}
        for f in verify.REPORT_FILES:
            path = self.work / "out" / f
            files[f] = path.read_text() if path.exists() else ""
        if not self.records:
            self.first_files = files
        digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
        self.records.append((rc, digest))

    def check(self):
        first_rc, first = self.records[0]
        csv_text = (self.work / "season.csv").read_text()
        try:
            problems = verify.check_report(csv_text, self.first_files, self.meta["span_curve"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"report exited {first_rc}; its files do not read: {exc!r}"]
        failed = [rc != 0 or digest != first or bool(problems) for rc, digest in self.records]
        return failed, problems


class Predict(Workload):
    def calls(self, i):
        r, h = self.meta["queries"][i % QUERIES]
        return [
            (f"cli.predict.{kind}", ["predict", "--model-file", str(self.work / "models" / f"{kind}.json"),
                                     "--road-rank", str(r), "--home-rank", str(h)])
            for kind in KINDS
        ]

    def warmup(self):
        for i in range(2):
            self.run_calls(self.calls(i))

    def record(self, i, results):
        self.records.append((i, [(rc, out) for rc, out, _ in results]))

    def check(self):
        docs = {k: json.loads((self.work / "models" / f"{k}.json").read_text()) for k in KINDS}
        want = {}
        failed, problems = [], []
        for i, results in self.records:
            r, h = self.meta["queries"][i % QUERIES]
            bad = []
            for kind, (rc, out) in zip(KINDS, results):
                if (kind, r, h) not in want:
                    want[kind, r, h] = verify.predict_reference(docs[kind], r, h)
                if rc != 0:
                    bad.append(f"{kind} at ({r}, {h}) exited {rc}")
                else:
                    bad += verify.check_prediction(kind, r, h, out, want[kind, r, h])
            failed.append(bool(bad))
            problems += bad
        return failed, problems


def timed_ops(wl: Workload, seconds: float, first: int, tracer=None):
    """Closed loop: one operation at a time, at least one, and no further
    once the next would, at the mean pace so far, end past `seconds` of
    timed calls. A report call that takes more than half of `seconds` is
    then timed once, and predict-cli fills the whole window."""
    times = []
    while not times or sum(times) + statistics.mean(times) <= seconds:
        i = first + len(times)
        gc.collect()
        if tracer:
            tracer.op = i
        calls = wl.calls(i)
        t = time.perf_counter()
        results = wl.run_calls(calls, tracer)
        times.append(time.perf_counter() - t)
        wl.record(i, results)
    return times


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh benchmark process, which stops after set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed)]
    done = subprocess.run(cmd, check=True, timeout=150, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, wl: Workload, setup_s: float) -> dict:
    if args.trace:
        import rankmargin.cli
        import rankmargin.models
        from rankmargin.errors import DegeneratePredictionWarning

        plain = timed_ops(wl, args.seconds / 2, 0)
        tracer = spans.Tracer()
        tracer.install({"cli": rankmargin.cli, "models": rankmargin.models})
        try:
            with tracer.warnings_counted(DegeneratePredictionWarning):
                traced = timed_ops(wl, args.seconds / 2, len(plain), tracer)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(
            tracer, [t * 1e3 for t in traced], [t * 1e3 for t in plain]
        )
    else:
        times = timed_ops(wl, args.seconds, 0)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = [setup_s] + [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "call_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "calls_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    t = time.perf_counter()
    failed, problems = wl.check()
    for p in problems[:20]:
        print(f"mismatch: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: set-up {setup_s:.2f} s, {len(failed)} operations, "
          f"checks {time.perf_counter() - t:.2f} s", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "rankmargin" / "cli.py").is_file():
        print(f"error: {SRC / 'rankmargin'} not found; run from a rankmargin checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.prepare:
        prepare(args.workload, args.seed, args.work)
        return 0

    work = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    cls = Predict if args.workload == "predict-cli" else Report
    try:
        wl = cls(args.workload, args.seed, work)
        wl.setup()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(args, wl, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
