"""swerect benchmark: one seeded workload per fresh process, closed loop.

    python3 perfbench/run.py --workload run_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` next to
this directory, never from an installed copy.  ``--trace 0`` times whole
rounds of ops for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs a fixed number of rounds traced and again untraced and
reports the per-layer metrics.  The last line of stdout is the JSON result;
the lines before it are the same numbers for a reader, and a full record
(op samples, machine, layer table, spans) goes to ``.bench_out/``.  The exit
code is nonzero when any op fails its check.
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
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("run_cli", "mms_ladder", "elliptic_sweep", "verify_draws")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 6  # half before the timed loop, half after it
SPAWN_ENV = "PERFBENCH_SPAWN_NS"
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# end-to-end metric -> unit, in the order they are printed (README.md defines them)
END_TO_END = {"setup_s": "s", "throughput": "work/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
WORK_NAMES = {"node_steps": "node_steps_per_s", "solves": "solves_per_s", "draws": "draws_per_s"}


def monotonic_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so a child can subtract its parent's stamp
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def prepare_environment() -> dict:
    """Pin BLAS pools to one thread and clear SWE_RECT_THREADS (so the MMS
    ladder runs its levels in sequence) before numpy loads; returns the
    values found."""
    before = {k: os.environ.get(k) for k in BLAS_VARS + ("SWE_RECT_THREADS",)}
    for k in BLAS_VARS:
        os.environ[k] = "1"
    os.environ.pop("SWE_RECT_THREADS", None)
    return before


def import_swerect():
    init = os.path.join(SRC, "swerect", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no swerect sources under {SRC}")
    sys.path.insert(0, SRC)
    import swerect

    if os.path.realpath(swerect.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported swerect from {swerect.__file__}, not {SRC}")
    return swerect


# --- statistics --------------------------------------------------------------


def tail_percentile(samples):
    """(q, value) for the highest q in TAIL_LADDER with at least ten samples
    beyond it (nearest-rank), or None when there are too few samples."""
    n = len(samples)
    ordered = sorted(samples)
    for q in TAIL_LADDER:
        permille = round(q * 10)
        rank = max(1, -(-permille * n // 1000))  # nearest rank: ceil(q n / 100), 1-based
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


# --- op loops ----------------------------------------------------------------


class Loop:
    """Runs whole rounds of a workload's ops and keeps what they measured."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.samples = []       # (kind, seconds)
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rounds = 0

    @property
    def wall_s(self) -> float:
        return sum(s for _, s in self.samples)

    def round(self, r: int) -> None:
        self.rounds += 1
        for op in self.workload.ops(r):
            self._op(op)

    def _op(self, op) -> None:
        op_id = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.tracer.run_op(op_id, op.run) if self.tracer else op.run()
        except Exception:
            self.samples.append((op.kind, time.perf_counter() - t0))
            self._fail(op.kind, traceback.format_exc())
            return
        self.samples.append((op.kind, time.perf_counter() - t0))
        try:
            op.check(result)
        except Exception:
            self._fail(op.kind, traceback.format_exc())
            return
        self.work += op.work

    def _fail(self, kind: str, text: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{kind}: {text.strip().splitlines()[-1]}")
            print(f"op {kind} failed:\n{text}", file=sys.stderr)

    def run_rounds(self, rounds) -> None:
        for r in rounds:
            self.round(r)

    def for_seconds(self, seconds: float) -> "Loop":
        t_begin = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - t_begin < seconds:
            self.round(r)
            r += 1
        return self


def end_to_end(loop: Loop, setup_s: float) -> dict:
    ms = [s * 1e3 for _, s in loop.samples]
    return {
        "setup_s": setup_s,
        "throughput": loop.work / loop.wall_s,
        "op_p50_ms": statistics.median(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def setup_probes(name: str, seed: int, count: int) -> list:
    """Set-up time of `count` fresh processes, each timed from spawn to the
    moment its inputs are ready."""
    out = []
    for _ in range(count):
        env = dict(os.environ, **{SPAWN_ENV: str(monotonic_ns())})
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def traced_run(cls, seed: int, workdir: str, reference: Loop) -> tuple:
    """Runs cls.trace_rounds rounds twice, untraced into `reference` and with
    every layer span installed into the returned loop.

    The rounds go in cls.trace_blocks blocks whose order alternates, so
    warm-up and drift fall on both sides of trace_overhead_s.  The first
    block runs traced first, so the traced pass sees each op's cold path.
    Set-up runs again under the tracer (op -1), so input generation shows in
    the layer table; wall_s covers the ops only."""
    import tracer as tr

    tracer = tr.Tracer()
    workload = cls(seed, workdir)
    traced = Loop(workload, tracer)

    def under_tracer(fn) -> None:
        tracer.install()
        try:
            fn()
        finally:
            tracer.uninstall()

    under_tracer(lambda: tracer.run_op(-1, workload.setup, name=tr.SETUP_SPAN))
    edges = [cls.trace_rounds * b // cls.trace_blocks for b in range(cls.trace_blocks + 1)]
    for b in range(cls.trace_blocks):
        block = range(edges[b], edges[b + 1])
        steps = [lambda: under_tracer(lambda: traced.run_rounds(block)),
                 lambda: reference.run_rounds(block)]
        for step in (steps if b % 2 == 0 else steps[::-1]):
            step()
    return tracer, workload, traced


def per_layer_names() -> list:
    import tracer as tr

    spans = [f"{name}.{part}" for name in tr.SPANS for part in ("calls", "self_s")]
    return spans + list(tr.COUNTERS) + ["bench.self_s", "wall_s", "trace_overhead_s"]


def per_layer(tracer, workload, loop: Loop, reference: Loop) -> tuple:
    import tracer as tr

    table = tr.layer_table(tracer.spans)
    own = tr.self_times(tracer.spans)
    in_ops = [(span, s) for span, s in zip(tracer.spans, own) if span[4] >= 0]
    wall_s = sum(span[2] - span[1] for span, _ in in_ops if span[0] == tr.ROOT_SPAN)
    op_self = sum(s for _, s in in_ops)
    metrics = {}
    for name in tr.SPANS:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    metrics.update(tracer.finish_counters())
    metrics.update(workload.traced_counters(loop.rounds))
    metrics["bench.self_s"] = table.get(tr.ROOT_SPAN, {"self_s": 0.0})["self_s"]
    metrics["wall_s"] = wall_s
    metrics["trace_overhead_s"] = wall_s - reference.wall_s
    accounting = {"wall_s": wall_s, "sum_self_s": op_self, "unaccounted_s": wall_s - op_self}
    return {name: metrics[name] for name in per_layer_names()}, table, accounting


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "ratio"
    if ".bytes_" in name:
        return "bytes"
    return "count"


# --- machine record ----------------------------------------------------------


def _read(path: str):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_record(env_before: dict) -> dict:
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "swerect")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu0_cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "blas_threads_found": {k: env_before[k] for k in BLAS_VARS},
        "SWE_RECT_THREADS_cleared": env_before["SWE_RECT_THREADS"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --- entry points ------------------------------------------------------------


def run_one(args, env_before: dict) -> int:
    import_swerect()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            cls(args.seed, workdir).setup()
            spawned = int(os.environ[SPAWN_ENV])
            print(f"setup_probe_s {(monotonic_ns() - spawned) / 1e9!r}")
            return 0
        return measure(cls, args, workdir, env_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cls, args, workdir: str, env_before: dict) -> int:
    # set-up probes are split around the timed loop, so they see more of
    # the machine's speed states than back-to-back probes would
    probes = [] if args.trace else setup_probes(args.workload, args.seed, SETUP_PROBES // 2)
    workload = cls(args.seed, workdir)
    workload.setup()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "work_unit": cls.work_unit}
    if args.trace:
        loop = Loop(workload)
        tracer, traced_wl, traced = traced_run(cls, args.seed, workdir, loop)
        metrics, table, accounting = per_layer(tracer, traced_wl, traced, loop)
        attempted, failed = loop.attempted + traced.attempted, loop.failed + traced.failed
        record.update(layer_table=table, accounting=accounting)
        _write_spans(args, tracer.spans)
        failures = loop.failures + traced.failures
    else:
        loop = Loop(workload).for_seconds(args.seconds)
        probes += setup_probes(args.workload, args.seed, SETUP_PROBES - len(probes))
        metrics = end_to_end(loop, statistics.median(probes))
        attempted, failed, failures = loop.attempted, loop.failed, loop.failures
        tail = tail_percentile([s * 1e3 for _, s in loop.samples])
        record.update(setup_probes_s=probes, wall_s=loop.wall_s, rounds=loop.rounds,
                      samples=loop.samples, op_tail_ms=tail)
    record["machine"] = machine_record(env_before)
    record.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures)

    _print_human(record, loop)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _write_spans(args, spans) -> None:
    cols = {"name": [], "start": [], "end": [], "parent": [], "op": []}
    for s in spans:
        for key, val in zip(cols, s):
            cols[key].append(val)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json"), "w",
              encoding="utf-8") as fh:
        json.dump(cols, fh)


def _print_human(record: dict, loop: Loop) -> None:
    name, metrics = record["workload"], record["metrics"]
    print(f"# {name} seed={record['seed']} trace={record['trace']} "
          f"rounds={loop.rounds} ops={record['attempted']} failed={record['failed']}")
    print(f"{name} fail_ratio {record['failed'] / record['attempted']!r} ratio "
          f"(n={record['attempted']})")
    if record["trace"]:
        table = record["layer_table"]
        print(f"{'span':48s} {'calls':>8s} {'self_s':>10s} {'total_s':>10s}")
        for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{span:48s} {row['calls']:8d} {row['self_s']:10.4f} {row['total_s']:10.4f}")
        acc = record["accounting"]
        print(f"{name} traced wall_s {acc['wall_s']:.4f} = layer+bench self {acc['sum_self_s']:.4f} "
              f"(+{acc['unaccounted_s']:.2e})")
        for key in ("trace_overhead_s",) + tuple(k for k in metrics if "." in k
                                                  and not k.endswith((".calls", ".self_s"))):
            print(f"{name} {key} {metrics[key]!r} {unit_of(key)}")
        return
    n = len(loop.samples)
    for key, unit in END_TO_END.items():
        extra = ""
        if key == "throughput":
            extra = f" ({WORK_NAMES[record['work_unit']]})"
        elif key == "op_p50_ms":
            extra = f" (n={n})"
        elif key == "setup_s":
            extra = " (probes " + ", ".join(f"{p:.3f}" for p in record["setup_probes_s"]) + ")"
        print(f"{name} {key} {metrics[key]!r} {unit}{extra}")
    print(f"{name} wall_s {record['wall_s']!r} s (time in timed ops)")
    tail = record["op_tail_ms"]
    if tail is None:
        print(f"{name} op_tail_ms omitted: {n} samples, fewer than 10 beyond any tail percentile")
    else:
        print(f"{name} op_tail_ms {tail[1]!r} ms (p{tail[0]:g}, n={n})")
    print("machine " + json.dumps(record["machine"], sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined result line."""
    if not os.path.isfile(os.path.join(SRC, "swerect", "__init__.py")):
        raise SystemExit(f"perfbench: no swerect sources under {SRC}")
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 10,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if not lines:
            raise SystemExit(f"perfbench: workload {name} printed no result")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        # each child prepares its own environment, so it records the caller's
        return run_all(args)
    return run_one(args, prepare_environment())


if __name__ == "__main__":
    sys.exit(main())
