"""Benchmark of the readoutmap data products.

    python3 perfbench/run.py --workload eig-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from `src/` of the same
tree; nothing is installed. The workload's configs are generated from the
seed (see workloads.py) into a scratch directory under perfbench/, which is
removed at the end.

With --trace 0 the run reports the end-to-end metrics: set-up time in fresh
interpreters, then timed passes over the workload's fixed batch of products
until --seconds is spent (after one untimed warm-up product), then the oracle
of every product, outside the timed passes. With --trace 1 it times one
untraced pass, then replays the batch with a span around every public
function of the package, reports the per-layer metrics (layers.py) and writes
the spans, one JSON object per line, to perfbench/.work/spans-<workload>-<seed>.jsonl.

Every metric is printed as `metric <name> <value> <unit>`; the last line is
one JSON object with keys correct, attempted, failed and metrics. The exit
code is 1 when any product fails (raises, exits non-zero, changes output
between passes, or misses its oracle) and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
SETUP_CODE = ("import sys\nimport readoutmap\nfrom readoutmap import cli\n"
              "if not readoutmap.__file__.startswith(sys.argv[2]):\n"
              "    sys.exit('readoutmap imported from ' + readoutmap.__file__)\n"
              "cli.load_config(sys.argv[1])\n")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "item_s_p50": "s", "cpu_s": "s",
             "peak_rss_mb": "MB"}

# One BLAS thread: the only parallelism is the --threads of benchmark-eig.
# One malloc arena: with per-thread arenas the peak RSS of the threaded
# eigensolves depends on how the threads happen to interleave.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "MALLOC_ARENA_MAX": "1"}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def setup_seconds(config: str) -> float:
    """Median wall time of a fresh interpreter importing the package and
    loading one config, as every CLI call does."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, config, SRC], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Batch:
    """Runs the batch pass by pass and keeps what the metrics need."""

    def __init__(self, products, workloads_mod):
        self.products = products
        self.w = workloads_mod
        self.item_s: dict[str, list[float]] = {p.pid: [] for p in products}
        self.pass_s: list[float] = []
        self.cpu_s: list[float] = []
        self.errors: dict[str, list[str]] = {p.pid: [] for p in products}
        self.digests: dict[str, list[str | None]] = {p.pid: [] for p in products}

    def run_pass(self, replay: bool = False, tracer=None) -> float:
        ran = []
        t0, c0 = time.perf_counter(), time.process_time()
        for p in self.products:
            ti = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.product = p.pid
                    with tracer.span("product"):
                        self.w.run(p, replay=True)
                else:
                    self.w.run(p, replay=replay)
            except Exception as exc:  # a failed product is counted, not fatal
                self.errors[p.pid].append(f"{type(exc).__name__}: {exc}")
                ran.append(False)
            else:
                ran.append(True)
            self.item_s[p.pid].append(time.perf_counter() - ti)
        wall = time.perf_counter() - t0
        self.pass_s.append(wall)
        self.cpu_s.append(time.process_time() - c0)
        for p, ok in zip(self.products, ran):
            self.digests[p.pid].append(_digest(p.out) if ok else None)
        return wall

    def run_for(self, seconds: float, start: float, **kw) -> None:
        """At least one pass; another only while it is expected to fit."""
        while True:
            wall = self.run_pass(**kw)
            if time.perf_counter() - start + wall > seconds:
                return

    def verdict(self) -> tuple[int, int, float]:
        """(attempted, failed, worst oracle error) over every attempt made."""
        attempted = failed = 0
        worst = 0.0
        for p in self.products:
            runs = self.digests[p.pid]
            attempted += len(runs)
            ok = bool(runs) and runs[-1] is not None
            if ok:
                try:
                    err = self.w.check(p)
                except Exception as exc:
                    self.errors[p.pid].append(f"oracle {type(exc).__name__}: {exc}")
                    ok = False
                else:
                    worst = max(worst, err)
                    if err > 1.0:
                        self.errors[p.pid].append(f"oracle error {err:.3g} > 1")
                        ok = False
            # an attempt passes when it ran, matched the last pass and the oracle held
            failed += sum(not ok or d != runs[-1] for d in runs)
        return attempted, failed, worst


def environment(args, workload_threads: int, inputs_sha: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "malloc_arena_max": int(os.environ["MALLOC_ARENA_MAX"]),
            "cli_threads": workload_threads, "inputs_sha256": inputs_sha,
            "machine": platform.machine()}


def main() -> int:
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        # BLAS and glibc read these only at start-up: run again with them set
        os.environ.update(PINNED)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "readoutmap", "__init__.py")):
        print(f"error: no readoutmap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.GENERATORS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.GENERATORS)}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    try:
        products, warm, inputs_sha = workloads.generate(args.workload, args.seed, workdir)
        env = environment(args, max(p.threads for p in products), inputs_sha)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        batch, values, units = (trace_run(args, products, warm, workloads) if args.trace
                                else end_to_end(args, products, warm, workloads))
        attempted, failed, oracle_err = batch.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for pid, errs in batch.errors.items():
        for e in errs:
            print(f"failure {pid}: {e}", file=sys.stderr)
    print(f"metric fail_ratio {failed / attempted:.6g} ratio")
    print(f"metric oracle_err {oracle_err:.6g} ratio")
    if args.trace:
        values["check.oracle_err"] = oracle_err
        values["check.fail_ratio"] = failed / attempted
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def end_to_end(args, products, warm, workloads):
    setup = setup_seconds(products[0].config)
    workloads.run(warm)
    batch = Batch(products, workloads)
    batch.run_for(args.seconds, time.perf_counter())
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(batch.pass_s),
        # the batch's median product, each product taken at its median over passes
        "item_s_p50": statistics.median(statistics.median(t) for t in batch.item_s.values()),
        "cpu_s": statistics.median(batch.cpu_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"passes {len(batch.pass_s)}: " + " ".join(f"{t:.4f}" for t in batch.pass_s))
    return batch, values, E2E_UNITS


def trace_run(args, products, warm, workloads):
    import layers
    from readoutmap import liouville, model, spectra
    from tracing import Tracer

    start = time.perf_counter()
    workloads.run(warm)
    # single-threaded baseline: one 784 x 784 eigensolve on its own
    hu = liouville.build_extended_hamiltonian(model.params_from_dict(workloads.BENCH_POINT), 5.0)
    t0 = time.perf_counter()
    spectra.eigendecompose(hu)
    eig_1t = time.perf_counter() - t0

    batch = Batch(products, workloads)
    untraced = batch.run_pass(replay=True)
    tracer = Tracer(layers.OBSERVERS)
    tracer.install(layers.MODULES)
    try:
        batch.run_for(args.seconds, start, tracer=tracer)
    finally:
        tracer.uninstall()
    spans = os.path.join(HERE, ".work", f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(spans)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
    traced = batch.pass_s[1:]

    values = dict.fromkeys((name for name, _ in layers.METRICS), 0.0)
    values.update(layers.layer_values(tracer, len(traced)))
    values["cli.csv_rows"], values["cli.csv_bytes"] = csv_size(products)
    values["spectra.eig_1t_s"] = eig_1t
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.pass_s"] - untraced
    print(f"untraced pass {untraced:.4f}; traced passes {len(traced)}: "
          + " ".join(f"{t:.4f}" for t in traced))
    return batch, values, dict(layers.METRICS)


def csv_size(products) -> tuple[int, int]:
    """Rows and bytes of one pass's CLI outputs."""
    rows = size = 0
    for p in products:
        if p.command != "fidelity-sweep" and os.path.exists(p.out):
            with open(p.out, "rb") as fh:
                data = fh.read()
            rows += data.count(b"\n")
            size += len(data)
    return rows, size


if __name__ == "__main__":
    sys.exit(main())
