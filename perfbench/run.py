"""The ordcensus benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Each job runs the real CLI from the checkout's ``src/`` in a fresh process,
one job at a time: a closed loop with one client, and every job starts with
cold caches, as every command a user types does.  ``--trace 0`` runs passes
over the workload's job list until S seconds have gone, at least three, and
reports the end-to-end metrics, rescaled for the machine's speed during the
run (see ``end_to_end``).  ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics; the layer rows come from
``perfbench/layers.py``.  Metric names and units are the ones declared in
``BENCHMARK.json``.

Every job's stdout is checked.  A job fails on a nonzero exit, a timeout, a
stdout digest that differs from ``perfbench/reference.json`` (recorded at the
default seed), or an oracle report whose ``agree`` is not true.

``--record`` runs every workload at the default seed and writes
``perfbench/reference.json``: stdout digests, machine info and the baseline
end-to-end and per-layer figures.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit with its spread over the run's passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, LEAF_LAYERS  # noqa: E402

REFERENCE = HERE / "reference.json"
JOB_TIMEOUT_S = 60
MIN_PASSES = 3
SETUP_EVERY = 3  # jobs per --help start and reference run

# The reference process: fixed pure-Python work that never imports the
# package, so its time moves only with the machine.  Times are rescaled to a
# machine on which its fastest run in the benchmark run takes REF_NOMINAL_S.
REF_CODE = """
def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 3
    return tuple(out)
acc = (1,)
for _ in range(1500):
    acc = mul((1, 2, 0, 1, 1, 2, 1), acc)[:40]
"""
REF_NOMINAL_S = 0.1


def _load_declared() -> dict:
    """Metric name -> unit for the end-to-end and per-layer lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


class Runner:
    """Runs jobs in fresh processes and checks their output."""

    def __init__(self, work: Path, digests: dict):
        self.work = work
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def spawn(self, argv: list, out: Path):
        """Run one process with stdout to ``out``; return
        (wall s, cpu s, maxrss KiB, exit code, stdout)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(out.with_suffix(".err")), flags, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], JOB_TIMEOUT_S)[0]:
                os.kill(pid, signal.SIGKILL)
            _, status, ru = os.wait4(pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
        return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
                os.waitstatus_to_exitcode(status), out.read_bytes())

    def cli(self, launch_opts: list, args: list, out: Path):
        return self.spawn([sys.executable, str(HERE / "launch.py")] + launch_opts
                          + ["--"] + args, out)

    def run_job(self, job: workloads.Job, launch_opts=()) -> dict:
        for fname, text in job.files.items():
            (self.work / fname).write_text(text)
        args = [str(self.work / a) if a in job.files else a for a in job.args]
        wall, cpu, rss, code, stdout = self.cli(list(launch_opts), args, self.work / "job.out")
        problem = self.check(job, code, stdout)
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append(f"{job.key()[:120]}: {problem}")
        return {"wall": wall, "cpu": cpu, "rss": rss, "digest": _digest(stdout)}

    def check(self, job, code, stdout) -> str | None:
        if code != 0:
            return f"exit {code}"
        want = self.digests.get(job.key())
        if want is not None and want != _digest(stdout):
            return "stdout differs from the reference"
        if job.args[0] == "oracle":
            try:
                agree = json.loads(stdout)["agree"]
            except (ValueError, KeyError, TypeError):
                return "oracle output is not a report"
            if agree is not True:
                return "oracle disagreement"
        return None

    def run_pass(self, jobs, launch_opts=lambda i: ()) -> list:
        return [self.run_job(job, launch_opts(i)) for i, job in enumerate(jobs)]

    def setup_time(self) -> float:
        """Wall time of one fresh ``ordcensus --help`` process."""
        wall, _, _, code, stdout = self.cli([], ["--help"], self.work / "help.out")
        self.attempted += 1
        if code != 0 or not stdout.startswith(b"usage: ordcensus"):
            self.failed += 1
            self.failures.append(f"--help: exit {code}")
        return wall


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _spread(values) -> str:
    med = statistics.median(values)
    rel = (max(values) - min(values)) / med if med else 0.0
    return f"over {len(values)}: median {med:.6g}, range {rel:.1%} of median"


def end_to_end(runner: Runner, jobs, seconds: float) -> tuple:
    """Passes over the job list until ``seconds`` have gone, at least
    MIN_PASSES of them.

    Other tenants of the machine slow it down, by up to 1.9x for minutes at a
    time, and only ever add time to a CPU-bound job.  So each job's time is
    its fastest over the passes; wall_s and cpu_s sum these over the job
    list, and slowest_job_s takes the largest.  setup_s is the median of one
    ``--help`` start before every SETUP_EVERY-th job, spread over the run.
    A reference process runs next to each of those starts, and every time is
    rescaled by REF_NOMINAL_S over the reference's fastest run, which follows
    the machine's slowdowns but not the program's.
    """
    setup, ref, passes = [], [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        results = []
        for i, job in enumerate(jobs):
            if i % SETUP_EVERY == 0:
                setup.append(runner.setup_time())
                ref.append(runner.spawn([sys.executable, "-c", REF_CODE],
                                        runner.work / "ref.out")[0])
            results.append(runner.run_job(job))
        passes.append(results)
    scale = REF_NOMINAL_S / min(ref)
    per_job = [{k: min(p[i][k] for p in passes) for k in ("wall", "cpu")}
               for i in range(len(jobs))]
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(j["wall"] for j in per_job),
        "cpu_s": sum(j["cpu"] for j in per_job),
        "slowest_job_s": max(j["wall"] for j in per_job),
    }
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(r["rss"] for p in passes for r in p) / 1024
    metrics["pass_ratio"] = (runner.attempted - runner.failed) / runner.attempted
    notes = {
        "setup_s": "starts " + _spread(setup),
        "wall_s": "passes " + _spread([sum(r["wall"] for r in p) for p in passes]),
        "cpu_s": "passes " + _spread([sum(r["cpu"] for r in p) for p in passes]),
        "slowest_job_s": "passes " + _spread([max(r["wall"] for r in p) for p in passes]),
        "peak_rss_mb": "passes " + _spread([max(r["rss"] for r in p) / 1024 for p in passes]),
        "pass_ratio": f"fail_ratio {runner.failed}/{runner.attempted}",
    }
    for name, value in raw.items():
        notes[name] = f"raw {value:.6g} s, " + notes[name]
    notes["reference"] = (f"fastest {min(ref):.6g} s of {len(ref)} runs, "
                          f"times scaled by {scale:.4g}")
    return metrics, notes, passes


# -- traced run --------------------------------------------------------------

def _outermost_time(trace: dict, names: set) -> float:
    """Total duration of spans with these names that have no ancestor among them."""
    wanted = {i for i, n in enumerate(trace["names"]) if n in names}
    name, parent, start, end = trace["name"], trace["parent"], trace["start"], trace["end"]
    inside = [False] * len(name)
    total = 0.0
    for sid in range(len(name)):
        par = parent[sid]
        nested = par >= 0 and (inside[par] or name[par] in wanted)
        inside[sid] = nested
        if name[sid] in wanted and not nested:
            total += end[sid] - start[sid]
    return total


def span_self_times(trace: dict) -> dict:
    """Span name -> [calls, self seconds], self = duration minus child spans."""
    name, parent, start, end = trace["name"], trace["parent"], trace["start"], trace["end"]
    self_s = [e - s for s, e in zip(start, end)]
    for sid, par in enumerate(parent):
        if par >= 0:
            self_s[par] -= end[sid] - start[sid]
    out = {}
    for sid, nid in enumerate(name):
        entry = out.setdefault(trace["names"][nid], [0, 0.0])
        entry[0] += 1
        entry[1] += self_s[sid]
    return out


STAGES = {
    "oracle.count_points_s": {"oracle.count_points_as", "oracle.count_points_se"},
    "superelliptic.tuple_family_s": {"superelliptic.count_tuple_family"},
    "superelliptic.euler_s": {"superelliptic.census_a_euler"},
    "superelliptic.omega_s": {"superelliptic.census_a_omega"},
    "artin_schreier.analytic_s": {"artin_schreier.census_analytic"},
    "artin_schreier.enumerated_s": {"artin_schreier.census_enumerated"},
}
SPAN_COUNTS = {
    "polys.irreducible_calls": "polys.is_irreducible",
    "polys.factor_calls": "polys.factor",
    "polys.squarefree_calls": "polys.is_squarefree",
    "dirichlet.series_mul_calls": "dirichlet.series_multiply",
}
COUNTERS = {
    "oracle.elems_swept": "elems_swept",
    "artin_schreier.covers_enumerated": "covers_enumerated",
    "polys.ext_fields_built": "ext_fields_built",
}
FIELD_CLASSES = {"ExtField": "fields.ext_ops", "FieldSpec": "fields.base_ops"}


def layer_metrics(traces: list) -> dict:
    """Per-layer metrics summed over the traced jobs."""
    m = dict.fromkeys([f"{layer}.{k}" for layer in LAYERS for k in ("self_s", "calls")]
                      + list(STAGES) + list(SPAN_COUNTS) + list(COUNTERS)
                      + list(FIELD_CLASSES.values()), 0)
    for tr in traces:
        for layer, qualname, calls, tottime in tr["functions"]:
            m[f"{layer}.self_s"] += tottime
            if layer in LEAF_LAYERS and not qualname.startswith("<"):
                m[f"{layer}.calls"] += calls
                cls, _, method = qualname.rpartition(".")
                if cls in FIELD_CLASSES and not method.startswith("_"):
                    m[FIELD_CLASSES[cls]] += calls
        counts = {}
        for nid in tr["name"]:
            counts[tr["names"][nid]] = counts.get(tr["names"][nid], 0) + 1
        for span, n in counts.items():
            m[f"{span.split('.')[0]}.calls"] += n
        for metric, span in SPAN_COUNTS.items():
            m[metric] += counts.get(span, 0)
        for metric, names in STAGES.items():
            m[metric] += _outermost_time(tr, names)
        for metric, counter in COUNTERS.items():
            m[metric] += tr["counters"][counter]
    swept = m["oracle.elems_swept"]
    m["oracle.ns_per_elem"] = m["oracle.count_points_s"] / swept * 1e9 if swept else 0.0
    return m


def traced(runner: Runner, jobs, seed: int) -> tuple:
    plain = runner.run_pass(jobs)
    tdir = runner.work / "trace"
    tdir.mkdir(exist_ok=True)
    traced_pass = runner.run_pass(
        jobs, lambda i: ["--trace", str(tdir / f"job{i}.json"), "--job", str(i)])
    traces = [json.loads((tdir / f"job{i}.json").read_text()) for i in range(len(jobs))]
    metrics = layer_metrics(traces)
    metrics["trace.overhead_ratio"] = (sum(r["wall"] for r in traced_pass)
                                       / sum(r["wall"] for r in plain))
    rows = _layer_rows(runner, seed)
    metrics.update(rows)
    spans = {}
    for tr in traces:
        for name, (calls, self_s) in span_self_times(tr).items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    notes = {name: f"span self time {s:.4f} s over {c} calls"
             for name, (c, s) in sorted(spans.items(), key=lambda kv: -kv[1][1])[:12]}
    return metrics, notes


def _layer_rows(runner: Runner, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "layers.py"), str(seed)]
    *_, code, stdout = runner.spawn(argv, runner.work / "layers.out")
    runner.attempted += 1
    if code != 0:
        runner.failed += 1
        runner.failures.append(f"layer rows: exit {code}")
        return {}
    return json.loads(stdout)


# -- entry -------------------------------------------------------------------

def _machine() -> dict:
    """nproc, Python version and CPU model, for reference.json."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def _load_digests() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["digests"]


def record(work: Path, seconds: float):
    """Write reference.json from runs at the default seed: the digests, then
    a traced run gated by them."""
    seed = workloads.DEFAULT_SEED
    digests, baseline, layers = {}, {}, {}
    for name in workloads.WORKLOADS:
        runner = Runner(work, {})
        jobs = workloads.jobs(name, seed)
        baseline[name], _, passes = end_to_end(runner, jobs, seconds)
        for i, job in enumerate(jobs):
            seen = {p[i]["digest"] for p in passes}
            if len(seen) != 1 or runner.failed:
                sys.exit(f"record: {job.key()[:120]} failed or is not deterministic")
            digests[job.key()] = seen.pop()
        runner = Runner(work, digests)
        layers[name], _ = traced(runner, jobs, seed)
        if runner.failed:
            sys.exit(f"record: traced run failed: {runner.failures}")
    REFERENCE.write_text(json.dumps({"seed": seed, "machine": _machine(),
                                     "baseline": baseline, "per_layer": layers,
                                     "digests": digests},
                                    indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    # let finally blocks stop the running job and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ordcensus" / "cli.py").is_file():
        print(f"error: no ordcensus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    work_root = ROOT / ".perfbench_work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.record:
            record(work, args.seconds)
            return 0
        declared = _load_declared()
        runner = Runner(work, _load_digests())
        jobs = workloads.jobs(args.workload, args.seed)
        if args.trace:
            metrics, notes = traced(runner, jobs, args.seed)
            units = declared["per_layer"]
        else:
            metrics, notes, _ = end_to_end(runner, jobs, args.seconds)
            units = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  python {platform.python_version()}")
    for name in units:
        print(f"  {name:36s} {metrics[name]:14.6g} {units[name]:6s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in units:
            print(f"  {name:36s} {note}")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
