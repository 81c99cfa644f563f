"""Benchmark of the orbitcodes CLI on the paper's three kinds of batch job.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (jobs.py builds the job lists):

* census: orbit censuses checked against the published tables; the orbit
  walk and candidate enumeration do nearly all the work.
* construct: orbit DB, compatibility graph and exact clique, then verify and
  dualize the shipped code files; inter_orbit_distance dominates.
* selfdual: the self-dual quasi-cyclic search for n = 4, 6, 8; orthogonal
  complements dominate and the n = 8 member index sets peak memory.

Jobs run one after another, one child process at a time: a closed loop with
one client.  Where a job's result does not depend on the field polynomial,
the seed picks a primitive polynomial for each field, so the bit layout
changes while the golden checks stay fixed.

--trace 0 measures the end-to-end metrics: passes over the job list until
--seconds have passed (at least one pass), with set-up calls before and after
the passes and one after each job, so that their median spans the run.
A pass that would run past the run's deadline is not started, and one cut by
it is left out of the medians.  Times are taken at a reference CPU speed
(speed.py): the driver and its children share one CPU, whose speed the
driver probes while each child is briefly stopped (set-up calls are scaled
by bare interpreter starts around them), so that the host's changing speed
does not move them; the raw times go to standard error and to the record as
raw_wall_s, raw_cpu_s and raw_setup_s.
--trace 1 runs each job once through the CLI and then replays it in its own
process with spans around each library call (traced_job.py), then runs the
kernel microbenchmarks (micro.py), and reports per-layer metrics.

Every job's output is checked; a job fails when it exits with the wrong code
or its output fails its check, and failures do not stop the run.  Every
metric is printed with its unit on standard error, a stamped record of the
run goes to .perfbench_work/results/, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import jobs as J
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CALLS = 8          # timed set-up calls before the passes, and again after
RUN_DEADLINE_S = 170.0   # a run stops starting jobs after this long

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer span metrics: metric -> span name
SPAN_METRICS = {
    "orbits.classify_s": "orbits.classify",
    "orbits.enumerate_orbits_s": "orbits.enumerate_orbits",
    "orbits.db_write_s": "orbits.write_orbit_db",
    "orbits.db_read_s": "orbits.read_orbit_db",
    "codes.verify_s": "codes.verify_code_file",
    "codes.dualize_s": "codes.dualize",
    "codes.is_self_dual_s": "codes.is_self_dual",
    "reference_tables.compare_census_s": "reference_tables.compare_census",
    "construct.build_graph_s": "construct.build_graph",
    "construct.find_cliques_s": "construct.find_cliques",
    "construct.assemble_code_s": "construct.assemble_code",
    "construct.self_dual_search_s": "construct.self_dual_search",
}
MICRO_METRICS = (
    "gfext.make_field_us", "gfext.make_field_calls",
    "orbits.orbit_of_us", "orbits.orbit_of_calls",
    "subspace.orthogonal_complement_us", "subspace.orthogonal_complement_calls",
    "construct.inter_orbit_distance_us", "construct.inter_orbit_distance_calls",
    "construct.find_cliques_us", "construct.find_cliques_calls",
)
COUNT_METRICS = (
    "orbits.cyclic_orbits", "orbits.candidates", "reference_tables.diffs",
    "construct.graph_pairs", "construct.graph_edges", "construct.clique_size",
    "construct.selfdual_subspaces", "construct.selfdual_hits",
)
SPAN_CALL_METRICS = {"codes.is_self_dual_calls": "codes.is_self_dual"}
LAYERS = ("gfext", "orbits", "subspace", "codes", "construct", "reference_tables")

NOT_YET_MEASURABLE = {
    "orbits.candidate_enumeration_s":
        "candidate enumeration runs inside classify with no public boundary; "
        "needs the run counters of ROADMAP item 5",
    "construct.clique_nodes_per_s":
        "find_cliques does not report its node count; needs the run counters "
        "of ROADMAP item 5",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in ("fail_ratio", "setup_share"):
        return "ratio"
    for suffix, unit in (("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- child processes ----------------------------------------------------------------


class Child(NamedTuple):
    """Outcome of one child process."""

    exit_code: int
    wall: float          # seconds the child ran
    cpu: float           # user + system seconds
    maxrss_mb: float
    stdout: str
    ref_wall: float      # wall at the reference CPU speed (speed.py), or wall

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.ref_wall / self.wall if self.wall else self.cpu


def run_child(args: list, env: dict, deadline: float, name: str,
              calibrate: bool = False) -> Child:
    """Run one child to completion; kill it if it passes the deadline.

    With calibrate, the child is stopped now and then to probe the CPU's
    speed (speed.Timing), and ref_wall is its wall at the reference speed.
    """
    out_path = os.path.join(J.WORK, "child.stdout")
    err_path = os.path.join(J.WORK, f"{name}.stderr")
    timing = speed.Timing() if calibrate else None
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env)
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            left = deadline - time.monotonic()
            wait = min(speed.INTERVAL_S if timing else 1.0, max(left, 0.0))
            if select.select([pidfd], [], [], wait)[0]:
                break                               # the child has ended
            if left <= 0:
                os.kill(proc.pid, signal.SIGKILL)   # reaped below
            elif timing is not None and not timing.pause(proc.pid):
                break
        ended = time.perf_counter()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timing is None:
        wall = ref_wall = ended - t0
    else:
        timing.end(ended)
        wall, ref_wall = timing.wall, timing.reference_wall
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stdout, ref_wall)


class Runner:
    """Runs and checks jobs, keeping the attempted/failed tally of the run."""

    def __init__(self, workload: str, seed: int, deadline: float, calibrate: bool):
        self.seed, self.deadline, self.calibrate = seed, deadline, calibrate
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.attempted = 0
        self.failures = []         # one entry per failed call
        # stdout digest per job id, from this run and from earlier runs of
        # the same seed on the same source
        self.digest_path = os.path.join(
            J.WORK, "digests", f"{source_digest()}-{workload}-{seed}.json")
        try:
            with open(self.digest_path) as fh:
                self.digests = json.load(fh)
        except (OSError, ValueError):
            self.digests = {}

    def _fail(self, what: str, problems: list):
        self.failures.append({"job": what, "problems": problems})

    def _out_of_time(self, job_id: str) -> bool:
        if time.monotonic() < self.deadline:
            return False
        self.attempted += 1
        self._fail(job_id, ["not started: run deadline reached"])
        return True

    def cli(self, job: dict) -> Child | None:
        """One CLI call of a job, with its output checked."""
        if self._out_of_time(job["id"]):
            return None
        self.attempted += 1
        child = run_child([sys.executable, "-m", "orbitcodes.cli"] + J.argv(job),
                          self.env, self.deadline, job["id"], self.calibrate)
        try:
            result = J.parse_cli_output(job, child.stdout) if child.stdout else None
        except ValueError as exc:
            result, problems = None, [f"unparsable output: {exc}"]
        else:
            problems = J.check(job, child.exit_code, result)
        digest = hashlib.sha256(child.stdout.encode()).hexdigest()
        if self.digests.setdefault(job["id"], digest) != digest:
            problems.append("stdout differs from an earlier call with the same seed")
            self.digests[job["id"]] = digest
        if problems:
            self._fail(job["id"], problems)
        return child

    def traced(self, job: dict, run_id: str) -> dict | None:
        """One job replayed in its own process with spans; None if it failed.

        Replays write and read their own files, so the CLI jobs' chain (the
        orbit DB that clique reads, the dual files) stays their own.
        """
        if self._out_of_time("traced " + job["id"]):
            return None
        self.attempted += 1
        job = {key: os.path.join(J.WORK, "traced", os.path.basename(value))
               if key in ("db", "out") and value else value
               for key, value in job.items()}
        args = [sys.executable, os.path.join(HERE, "traced_job.py"),
                json.dumps(job), run_id]
        child = run_child(args, self.env, self.deadline, "traced-" + job["id"])
        try:
            rec = json.loads(child.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self._fail("traced " + job["id"], [f"exit code {child.exit_code}, no trace"])
            return None
        problems = J.check(job, rec["exit"], rec["result"])
        if problems:
            self._fail("traced " + job["id"], problems)
        rec["wall"] = child.wall
        return rec

    def micro(self) -> dict:
        args = [sys.executable, os.path.join(HERE, "micro.py"), str(self.seed)]
        self.attempted += 1
        child = run_child(args, self.env, self.deadline, "micro")
        try:
            return json.loads(child.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self._fail("micro", [f"exit code {child.exit_code}, no output"])
            return {}

    def save_digests(self):
        os.makedirs(os.path.dirname(self.digest_path), exist_ok=True)
        with open(self.digest_path, "w") as fh:
            json.dump(self.digests, fh)


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join("src", "orbitcodes"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# -- measurement ------------------------------------------------------------------------


def measure_setup(runner: Runner, job: dict, calls: int) -> list:
    """(reference, raw) wall of each of calls set-up calls.

    The reference wall is scaled by bare interpreter starts on either side
    of the call (speed.start_probe), not by the loop probe.
    """
    walls = []
    for _ in range(calls):
        before = speed.start_probe(runner.env)
        child = runner.cli(job)
        if child is not None:
            scale = 2 * speed.REFERENCE_START_S / (before + speed.start_probe(runner.env))
            walls.append((child.wall * scale, child.wall))
    return walls


def run_pass(runner: Runner, job_list: list, setup: dict, setup_walls: list) -> dict:
    """One pass over the job list, with a timed set-up call after each job."""
    children = {}
    for job in job_list:
        children[job["id"]] = runner.cli(job)
        setup_walls += measure_setup(runner, setup, 1)
    return summarize(runner, children)


def summarize(runner: Runner, children: dict) -> dict:
    """Totals of one pass over the job list, from each job's CLI call.

    A pass is complete when every job ran and the deadline, which kills a
    running job, had not passed when the last one ended.
    """
    done = [c for c in children.values() if c is not None]
    return {"complete": len(done) == len(children)
                        and time.monotonic() < runner.deadline,
            "wall": sum(c.ref_wall for c in done),
            "cpu": sum(c.ref_cpu for c in done),
            "raw_wall": sum(c.wall for c in done), "raw_cpu": sum(c.cpu for c in done),
            "peak_rss_mb": max((c.maxrss_mb for c in done), default=0.0),
            "jobs": {jid: None if c is None else
                     {"wall": c.ref_wall, "cpu": c.ref_cpu, "raw_wall": c.wall,
                      "raw_cpu": c.cpu, "maxrss_mb": c.maxrss_mb,
                      "exit": c.exit_code}
                     for jid, c in children.items()}}


def end_to_end(runner, job_list, setup, seconds) -> tuple:
    runner.cli(setup)        # warm-up: byte-compiles the package on a fresh checkout
    setup_walls = measure_setup(runner, setup, SETUP_CALLS)
    passes = []
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        passes.append(run_pass(runner, job_list, setup, setup_walls))
        now = time.monotonic()
        # stop when --seconds are up, or when another pass and the closing
        # set-up calls would not end before the deadline
        reserve = (now - started) + SETUP_CALLS * max(
            (raw for _, raw in setup_walls), default=0.0)
        if now - t0 >= seconds or now + reserve >= runner.deadline:
            break
    setup_walls += measure_setup(runner, setup, SETUP_CALLS)
    # a pass cut by the deadline is already counted as failed jobs; leave it
    # out of the medians unless no pass is whole
    timed = [p for p in passes if p["complete"]] or passes
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in timed),
        "cpu_s": statistics.median(p["cpu"] for p in timed),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in timed),
        "setup_s": statistics.median(ref for ref, _ in setup_walls)
                   if setup_walls else 0.0,
    }
    # the same medians of the raw times, which the host's speed moves
    raw = {"raw_wall_s": statistics.median(p["raw_wall"] for p in timed),
           "raw_cpu_s": statistics.median(p["raw_cpu"] for p in timed),
           "raw_setup_s": statistics.median(raw for _, raw in setup_walls)
                          if setup_walls else 0.0}
    detail = {"passes": passes, "setup_walls": setup_walls, "raw": raw}
    return metrics, detail


def layers(runner, job_list, setup, workload, seed) -> tuple:
    runner.cli(setup)        # warm-up: byte-compiles the package on a fresh checkout
    # each job's CLI call and its traced replay run back to back, so that
    # both see the same machine load
    children, records = {}, []
    for i, job in enumerate(job_list):
        children[job["id"]] = runner.cli(job)
        rec = runner.traced(job, f"{workload}-{seed}-{i:02d}-{job['id']}")
        if rec is not None:
            records.append(rec)
    cli_pass = summarize(runner, children)
    micro = runner.micro()

    totals, calls, own = {}, {}, {}
    for rec in records:
        for s in rec["spans"]:
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["total"]
            calls[s["name"]] = calls.get(s["name"], 0) + s["calls"]
        for name, t in rec["self_s"].items():
            own[name] = own.get(name, 0.0) + t
    metrics = {name: totals.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    for name in COUNT_METRICS:
        metrics[name] = sum(rec["counts"].get(name, 0) for rec in records)
    for name, span in SPAN_CALL_METRICS.items():
        metrics[name] = calls.get(span, 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t for name, t in own.items()
                                         if name.split(".")[0] == layer)
    for name in MICRO_METRICS:
        metrics[name] = micro.get(name, 0.0)
    # per traced process, its wall time outside the job span and the untraced
    # work after it: process start, import, reading the job and writing the
    # result, all taken in one process at one moment
    metrics["cli.overhead_s"] = sum(rec["wall"] - rec["job_s"] - rec["after_job_s"]
                                    for rec in records)
    # the replayed calls are the same with or without spans, so traced minus
    # untraced time is the spans' own cost: each process's traced calls times
    # the cost of one traced call, measured in that process
    metrics["trace.spans"] = sum(rec["traced_calls"] for rec in records)
    metrics["trace.overhead_s"] = sum(rec["traced_calls"] * rec["span_cost_s"]
                                      for rec in records)

    detail = {"passes": [cli_pass],
              "traced": {rec["spans"][0]["run"]: {
                  key: rec[key] for key in ("wall", "job_s", "after_job_s",
                                            "span_cost_s", "untraced", "spans")}
                  for rec in records},
              "self_times": own, "not_yet_measurable": NOT_YET_MEASURABLE,
              "untraced": sorted({u for rec in records for u in rec["untraced"]})}
    return metrics, detail


# -- stamp and report ----------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout if it is a git repository, read without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args, polys, job_list, setup, nproc, cpu) -> dict:
    used = {job.get("n") for job in job_list + [setup] if job.get("poly")}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc, "pinned_cpu": cpu,
        "reference_probe_s": speed.REFERENCE_PROBE_S,
        "reference_start_s": speed.REFERENCE_START_S,
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds,
        "field_polys": {
            **{f"q=2,n={job['n']}": "library default"
               for job in job_list if "n" in job and not job.get("poly")},
            **{f"q=2,n={n}": list(p) for n, p in polys.items() if n in used}},
        "jobs": [J.argv(job) for job in job_list],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=J.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "orbitcodes", "cli.py")):
        print("perfbench: no src/orbitcodes here; run from the repository root",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that run_child kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    os.makedirs(os.path.join(J.WORK, "results"), exist_ok=True)
    os.makedirs(os.path.join(J.WORK, "traced"), exist_ok=True)
    polys = J.seeded_polys(args.seed)
    job_list = J.workload_jobs(args.workload, polys)
    setup = J.setup_job(polys)
    nproc = len(os.sched_getaffinity(0))
    cpu = speed.pin_to_one_cpu()
    runner = Runner(args.workload, args.seed, started + RUN_DEADLINE_S,
                    calibrate=not args.trace)
    if args.trace:
        metrics, detail = layers(runner, job_list, setup, args.workload, args.seed)
    else:
        metrics, detail = end_to_end(runner, job_list, setup, args.seconds)
    runner.save_digests()

    failed = len(runner.failures)
    extra = {"fail_ratio": failed / runner.attempted}
    if not args.trace:
        extra["setup_share"] = metrics["setup_s"] * len(job_list) / metrics["wall_s"]
        extra.update(detail["raw"])
    record = {"stamp": stamp(args, polys, job_list, setup, nproc, cpu),
              "passes": len(detail["passes"]),
              "elapsed_s": time.monotonic() - started,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in {**metrics, **extra}.items()},
              "failures": runner.failures, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(J.WORK, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)

    for k, v in record["metrics"].items():
        print(f"{k:40s} {v['value']:>16.6g} {v['unit']}", file=sys.stderr)
    for name, why in (NOT_YET_MEASURABLE.items() if args.trace else ()):
        print(f"{name:40s} not yet measurable: {why}", file=sys.stderr)
    for binding in detail.get("untraced", ()):
        print(f"{binding:40s} not traced: the library has no such binding",
              file=sys.stderr)
    for f in runner.failures:
        print(f"FAILED {f['job']}: {'; '.join(f['problems'])}", file=sys.stderr)
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
