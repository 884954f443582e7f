"""crossfield benchmark: seeded closed-loop workloads, checked job by job.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py          # every workload in turn
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-refs

One process, one caller, one job at a time: the next job starts when the
previous one has returned.  Jobs call ``crossfield`` in-process from the
checkout's ``src/``.  A run times whole passes over the workload's fixed
members and corpus (see workloads.py), in the seed's order, until the jobs'
own time reaches ``--seconds``; it checks every output, prints one line per
metric, and a JSON summary as the last line.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median wall
time of fresh interpreters that import ``crossfield.cli`` and load one round of
the workload's inputs.  ``job_p50_s`` and ``job_tail_s`` are Harrell-Davis
percentiles over the workload's jobs, each job's time the median of its passes;
``jobs_per_s`` counts every job run.  ``pass_ratio`` is 1 - fail_ratio: a
correct commit has fail_ratio 0, which no relative bound can guard, so
fail_ratio and the failing jobs are printed as ``#`` lines.

``--trace 1`` runs whole passes for half of ``--seconds`` untraced, runs the
same jobs again with perfbench/spans.py's wrappers installed, and reports the
per-layer metrics of the traced jobs; spans are written to
``perfbench/out/trace-<workload>-<seed>.json``.

Times are scaled to a reference machine speed: a fixed Fraction kernel is
timed every quarter second of job time, and each job and set-up launch is
reported as its wall time times PROBE_REF_S over the probes around it.  The
unscaled figures and every probe are printed and kept in perfbench/out/;
per-layer self times are not scaled.

Exact outputs must match the digests in ``perfbench/refs/``, recorded from the
commit that defined the benchmark.  ``--record-refs`` rewrites them; run it
only when an output format changes on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs"

JOB_LIMIT_S = 20.0  # a job over this is stopped and counted as failed
SETUP_LAUNCHES = 9  # fresh interpreters per run for setup_s, after one warm-up
TAIL_GRID = (99, 97.5, 95, 90, 75, 50)  # job_tail_s: the first leaving ten jobs beyond
# On a shared host the same job's time swings by up to 1.8x from one minute to
# the next.  A fixed pure-Python Fraction kernel timed between jobs slows down
# with them, so job and set-up times are reported scaled by PROBE_REF_S over
# the probe times around them: seconds at the reference speed.
PROBE_REF_S = 2.0e-3
PROBE_EVERY_S = 0.25  # job seconds between probes

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# name -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "coeff.gq_mul.calls": ("count/job", "job_p50_s, jobs_per_s on sweep and identities"),
    "coeff.gq_add.calls": ("count/job", "job_p50_s, jobs_per_s on sweep and identities"),
    "coeff.laurent_mul.calls": ("count/job", "job_p50_s, jobs_per_s on sweep and identities"),
    "coeff.laurent_mul.self_s": ("s/job", "job_p50_s, jobs_per_s on sweep and identities"),
    "coeff.euler_solve.self_s": ("s/job", "job_p50_s, jobs_per_s on sweep"),
    "coeff.max_bits": ("bits", "job_p50_s on sweep and identities (coefficient growth)"),
    "series.mul.calls": ("count/job", "job_p50_s on sweep and identities"),
    "series.mul.self_s": ("s/job", "job_p50_s on sweep and identities"),
    "series.mul.term_pairs": ("count/job", "job_p50_s on sweep and identities"),
    "series.mul.kept_pair_ratio": ("ratio", "job_p50_s on sweep and identities"),
    "series.scale.self_s": ("s/job", "job_p50_s on sweep and identities"),
    "series.diff_z.self_s": ("s/job", "job_p50_s on sweep and identities"),
    "series.add.self_s": ("s/job", "job_p50_s on sweep and identities"),
    "lie.apply.calls": ("count/job", "job_tail_s, jobs_per_s on sweep"),
    "lie.apply.self_s": ("s/job", "job_tail_s, jobs_per_s on sweep"),
    "lie.apply.shift_ratio": ("ratio", "job_tail_s, jobs_per_s on sweep"),
    "lie.compose.self_s": ("s/job", "job_tail_s, jobs_per_s on sweep"),
    "lie.invert.self_s": ("s/job", "job_p50_s on identities and holonomy"),
    "lie.pushforward.self_s": ("s/job", "job_p50_s on identities and holonomy"),
    "lie.exp.self_s": ("s/job", "job_p50_s on sweep and identities"),
    "lie.exp_ad.self_s": ("s/job", "job_p50_s on sweep and identities"),
    "lie.log.self_s": ("s/job", "job_p50_s on identities"),
    "lie.bracket.self_s": ("s/job", "job_p50_s on sweep and identities"),
    "lie.field_apply.self_s": ("s/job", "job_p50_s on sweep and identities"),
    "normalform.normalize.self_s": ("s/job", "job_p50_s, jobs_per_s on sweep"),
    "normalform.certify_s": ("s/job", "job_p50_s, jobs_per_s on sweep"),
    "normalform.steps": ("count/job", "job_p50_s, jobs_per_s on sweep"),
    "normalform.step_ratio": ("ratio", "job_p50_s, jobs_per_s on sweep"),
    "normalform.normalizer_terms": ("count/job", "job_p50_s, jobs_per_s on sweep"),
    "normalform.normal_terms": ("count/job", "job_p50_s, jobs_per_s on sweep"),
    "normalform.centralizer_check.self_s": ("s/job", "job_tail_s on resonance"),
    "resonance.decide_ntnr.self_s": ("s/job", "job_tail_s on resonance"),
    "resonance.enumerate_resonances.self_s": ("s/job", "job_tail_s on resonance"),
    "resonance.classify_dim3.self_s": ("s/job", "job_tail_s on resonance"),
    "resonance.classify_dim2.self_s": ("s/job", "job_tail_s on resonance"),
    "holonomy.holonomy_jet.self_s": ("s/job", "job_p50_s on holonomy"),
    "holonomy.conjugacy_residual.self_s": ("s/job", "job_p50_s on holonomy"),
    "holonomy.after.self_s": ("s/job", "job_p50_s on holonomy"),
    "holonomy.jet_state_size": ("count/job", "job_p50_s on holonomy"),
    "parsing.parse_field.self_s": ("s/job", "setup_s, and job_p50_s on sweep"),
    "cli.main.self_s": ("s/job", "job_p50_s on every CLI workload, slightly"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced wall time of the same jobs"),
}
NOT_MEASURED = {
    "holonomy integrator accepted/rejected steps, RHS evaluations": (
        "_integrate keeps them in local variables; they need a counter inside "
        "crossfield.holonomy"
    ),
}


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job that ran past JOB_LIMIT_S."""


def _alarm(signum, frame):
    raise JobTimeout()


def probe_s() -> float:
    """Best of three runs of the speed probe's fixed Fraction kernel."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
        best = min(best, time.perf_counter() - t0)
    return best


def run_timed(job):
    """(seconds, exit code, output); a job over the limit is stopped and
    gets exit code None."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    t0 = time.perf_counter()
    try:
        rc, out = job.run()
    except JobTimeout:
        rc, out = None, f"over the {JOB_LIMIT_S:g} s per-job limit"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
    return t1 - t0, rc, out


# --- program under test -----------------------------------------------------


def import_crossfield():
    """Import crossfield from this checkout's src/, or exit 2."""
    if not (SRC / "crossfield" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no crossfield sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import crossfield.cli  # noqa: F401

    if Path(crossfield.cli.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"perfbench: crossfield imported from {crossfield.cli.__file__}\n")
        sys.exit(2)


def stamp() -> dict:
    """Commit (when the checkout is a git repository), source digest, Python, nproc."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:  # no git on this machine
            pass
    h = hashlib.sha256()
    for p in sorted((SRC / "crossfield").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# --- running jobs -------------------------------------------------------------


def load_refs(name):
    path = REFS / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


class Runner:
    """Runs jobs of one workload, times and checks each."""

    def __init__(self, workload, seed, workdir, rounds=None):
        from workloads import WORKLOADS

        workdir.mkdir(parents=True, exist_ok=True)
        self.corpus = WORKLOADS[workload](workdir)
        self.refs = load_refs(workload)
        self.order = self.corpus.order(seed, rounds)
        self.built = {}
        self.ran = []  # jobs in the order they ran
        self.attempted = 0
        self.failures = []  # (job key, reason), one per failed job run
        self.max_bits = 0
        self.tracer = None
        self.probes = []  # probe seconds, one per PROBE_EVERY_S of job time
        self.raw_s = []  # unscaled job seconds, in run order
        self._unprobed_s = math.inf

    def job(self, key):
        if key not in self.built:
            self.built[key] = self.corpus.job(key)
        return self.built[key]

    def check(self, job, rc, out):
        """Record a failure; no job goes unchecked."""
        from workloads import digest

        self.attempted += 1
        reason = out if rc is None else job.check(rc, out)
        if reason is None and job.exact:
            want = self.refs.get(job.key.split(":", 1)[1]) if self.refs else None
            got = digest(out)
            if want is None:
                reason = "no recorded reference (run --record-refs at the defining commit)"
            elif got != want:
                reason = f"output digest {got} differs from the reference {want}"
            self.max_bits = max(self.max_bits, max_bits(out))
        if reason is not None:
            self.failures.append((job.key, reason))

    def run_jobs(self, jobs):
        """Run, time and check each job in turn; return per-job seconds at
        the reference speed, each scaled by the mean of the probes taken
        just before and just after it."""
        raw, before = [], []
        for i, job in enumerate(jobs):
            if self._unprobed_s >= PROBE_EVERY_S:
                self.probes.append(probe_s())
                self._unprobed_s = 0.0
            if self.tracer is not None:
                self.tracer.start_job(i)
            dt, rc, out = run_timed(job)
            self.check(job, rc, out)
            self.ran.append(job)
            raw.append(dt)
            before.append(len(self.probes) - 1)
            self._unprobed_s += dt
        self.probes.append(probe_s())
        self._unprobed_s = 0.0
        self.raw_s += raw
        probes = self.probes
        return [dt * 2 * PROBE_REF_S / (probes[k] + probes[k + 1]) for dt, k in zip(raw, before)]

    def passes(self, seconds):
        """Whole passes (the fixed members, then the corpus in the seed's
        order) until the jobs' summed time reaches `seconds`.  Whole passes
        give every run the same jobs in the same proportions."""
        jobs = [self.job(k) for k in self.corpus.fixed + tuple(self.order)]
        times, start = [], len(self.raw_s)
        while not times or sum(self.raw_s[start:]) < seconds:
            times += self.run_jobs(jobs)
        return times


def write_out(name, doc):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(doc))


def max_bits(text) -> int:
    """Largest bit length of an integer written in the output (numerators
    and denominators of exact coefficients)."""
    return max((int(d).bit_length() for d in re.findall(r"\d+", text)), default=0)


def percentile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile: a Beta-weighted mean
    of all order statistics, so one noisy job near the rank, or a gap in the
    job costs there, moves it less than it moves the nearest-rank value."""
    ordered = sorted(values)
    n, q = len(ordered), pct / 100
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = []
    for i in range(n):  # Simpson's rule for the Beta(a, b) mass of [i/n, (i+1)/n]
        lo, h = i / n, 1 / (16 * n)
        xs = [lo + k * h for k in range(17)]
        fx = [density(x) if 0 < x < 1 else 0.0 for x in xs]
        weights.append(h / 3 * (fx[0] + fx[-1] + 4 * sum(fx[1:-1:2]) + 2 * sum(fx[2:-1:2])))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def warm_up(runner):
    """One untimed job, so lazy imports and first-call costs stay out."""
    job = runner.job(runner.order[0])
    _, rc, out = run_timed(job)
    runner.check(job, rc, out)


# --- setup_s --------------------------------------------------------------------


def setup_probe(workload, seed):
    """In a fresh interpreter: import crossfield.cli and load one round of
    inputs (documents read and parsed, identity objects built)."""
    import_crossfield()
    from crossfield import cli
    from workloads import WORKLOADS

    cat = WORKLOADS[workload](OUT / "work" / f"probe-{workload}-{seed}")
    cat.workdir.mkdir(parents=True, exist_ok=True)
    keys = list(cat.fixed) + cat.order(seed, rounds=1)
    for key in keys:
        job = cat.job(key)
        for flag, path in zip(job.argv, job.argv[1:]):
            if flag in ("--field", "--map"):
                text = Path(path).read_text(encoding="utf-8")
                if flag == "--field":
                    cli.FieldDocument.parse(text, path).field()
                else:
                    cli.MapDocument.parse(text, path).automorphism()


def measure_setup(workload, seed, launches):
    """Median wall time of `launches` set-up launches, after one that writes
    the byte-code caches, each scaled by the speed probes on either side.
    The wait blocks in waitpid (a timeout would poll in 50 ms steps);
    SIGALRM bounds it instead."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    wall, probes = [], [probe_s()]
    signal.signal(signal.SIGALRM, _alarm)
    for _ in range(launches + 1):
        signal.setitimer(signal.ITIMER_REAL, 120.0)
        try:
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, check=True)
            wall.append(time.perf_counter() - t0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        probes.append(probe_s())
    return statistics.median(
        dt * 2 * PROBE_REF_S / (probes[i] + probes[i + 1]) for i, dt in enumerate(wall) if i
    )


# --- modes -------------------------------------------------------------------------


def run_untraced(workload, seed, seconds, rounds, launches):
    setup_s = measure_setup(workload, seed, launches)
    runner = Runner(workload, seed, OUT / "work" / f"{workload}-{seed}", rounds)
    warm_up(runner)
    runner.ran.clear()
    times = runner.passes(seconds)
    write_out(f"run-{workload}-{seed}.json", {
        "stamp": stamp(),
        "probe_ref_s": PROBE_REF_S,
        "probes_s": runner.probes,
        "jobs": [{"key": j.key, "props": j.props, "seconds": t, "unscaled_s": u}
                 for j, t, u in zip(runner.ran, times, runner.raw_s)],
        "failures": runner.failures,
    })
    # per-job statistics over corpus entries, each entry timed once a pass
    per_entry = {}
    for job, t in zip(runner.ran, times):
        per_entry.setdefault(job.key, []).append(t)
    entry_s = [statistics.median(v) for v in per_entry.values()]
    n = len(times)
    failed = len(runner.failures)
    # the corpus is fixed, so every commit gets the same percentile
    tail_pct = next(p for p in TAIL_GRID if len(entry_s) - math.ceil(p / 100 * len(entry_s)) >= 10
                    or p == TAIL_GRID[-1])
    beyond = len(entry_s) - math.ceil(tail_pct / 100 * len(entry_s))
    metrics = {
        "setup_s": setup_s,
        "job_p50_s": percentile(entry_s, 50),
        "job_tail_s": percentile(entry_s, tail_pct),
        "jobs_per_s": n / sum(times),
        "pass_ratio": 1 - failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# {n} job runs: {len(entry_s)} jobs, each the median of its passes")
    print(f"# speed probe: median {statistics.median(runner.probes) * 1e3:.3f} ms "
          f"(min {min(runner.probes) * 1e3:.3f}, max {max(runner.probes) * 1e3:.3f}, "
          f"{len(runner.probes)} probes); times are scaled to {PROBE_REF_S * 1e3:g} ms. "
          f"Unscaled: median job {statistics.median(runner.raw_s):.6g} s, "
          f"{n / sum(runner.raw_s):.6g} jobs/s")
    print(f"# job_tail_s is the Harrell-Davis p{tail_pct:g} of the {len(entry_s)} jobs "
          f"({beyond} beyond it)")
    print(f"# fail_ratio {failed / runner.attempted:.6g} "
          f"({failed} of {runner.attempted} jobs failed, the warm-up job included)")
    return runner, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def run_traced(workload, seed, seconds, rounds):
    from spans import Tracer

    runner = Runner(workload, seed, OUT / "work" / f"{workload}-{seed}", rounds)
    warm_up(runner)
    runner.ran.clear()
    plain = runner.passes(seconds / 2)
    jobs = list(runner.ran)
    runner.max_bits = 0
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        traced = runner.run_jobs(jobs)
    finally:
        tracer.uninstall()
        runner.tracer = None
    n = len(jobs)
    metrics = layer_metrics(tracer, runner, jobs, n)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    dump = tracer.dump()
    dump["stamp"] = stamp()
    dump["jobs"] = [
        {"index": i, "key": j.key, "props": j.props, "untraced_s": a, "traced_s": b}
        for i, (j, a, b) in enumerate(zip(jobs, plain, traced))
    ]
    write_out(f"trace-{workload}-{seed}.json", dump)
    print(f"# traced {n} jobs twice (untraced, then traced); spans in "
          f"perfbench/out/trace-{workload}-{seed}.json")
    for what, why in NOT_MEASURED.items():
        print(f"# not measured: {what}: {why}")
    return runner, {k: (v, PER_LAYER[k][0]) for k, v in metrics.items()}


def layer_metrics(tracer, runner, jobs, n):
    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    per = lambda v: v / n  # noqa: E731
    pairs = k["series.mul.term_pairs"]
    sweep = tracer.sweep
    slots = sum(r["slots"] for r in sweep)
    jets = [j.props["jet_state"] for j in jobs if j.props["jet_state"] is not None]
    out = {
        "coeff.gq_mul.calls": per(k["coeff.gq_mul"]),
        "coeff.gq_add.calls": per(k["coeff.gq_add"]),
        "coeff.laurent_mul.calls": per(c["coeff.laurent_mul"]),
        "coeff.laurent_mul.self_s": per(s["coeff.laurent_mul"]),
        "coeff.euler_solve.self_s": per(s["coeff.euler_solve"]),
        "coeff.max_bits": runner.max_bits,
        "series.mul.calls": per(c["series.mul"]),
        "series.mul.self_s": per(s["series.mul"]),
        "series.mul.term_pairs": per(pairs),
        "series.mul.kept_pair_ratio": k["series.mul.kept_pairs"] / pairs if pairs else 0.0,
        "series.scale.self_s": per(s["series.scale"]),
        "series.diff_z.self_s": per(s["series.diff_z"]),
        "series.add.self_s": per(s["series.add"]),
        "lie.apply.calls": per(c["lie.apply"]),
        "lie.apply.self_s": per(s["lie.apply"]),
        "lie.apply.shift_ratio": (
            k["lie.apply.shift_calls"] / c["lie.apply"] if c["lie.apply"] else 0.0
        ),
        "normalform.certify_s": per(tracer.certify_s()),
        "normalform.steps": per(sum(r["steps"] for r in sweep)),
        "normalform.step_ratio": sum(r["steps"] for r in sweep) / slots if slots else 0.0,
        "normalform.normalizer_terms": per(sum(r["normalizer_terms"] for r in sweep)),
        "normalform.normal_terms": per(sum(r["normal_terms"] for r in sweep)),
        "holonomy.jet_state_size": sum(jets) / len(jets) if jets else 0.0,
    }
    for name in PER_LAYER:
        if name.endswith(".self_s") and name not in out:
            out[name] = per(s[name[: -len(".self_s")]])
    return out


def emit(runner, metrics):
    failed = len(runner.failures)
    for key, reason in runner.failures:
        print(f"# FAILED {key}: {reason}")
    for name, (value, unit) in metrics.items():
        moves = f"  (moves {PER_LAYER[name][1]})" if name in PER_LAYER else ""
        print(f"{name} {value:.6g} {unit}{moves}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def self_check():
    """Every workload at minimal size, untraced and traced; every metric of
    BENCHMARK.json must be printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "0", "--trace", str(trace),
                   "--rounds", "1", "--launches", "1"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{w['name']} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            got = result.get("metrics", {})
            for m in spec[group]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} [{m['unit']}] not printed")
            if proc.returncode != 0 or result.get("correct") is not True:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            print(f"self-check {where}: {len(got)} metrics, exit {proc.returncode}")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


def record_refs(names):
    """Digest every corpus entry's output; entries that fail their own
    checks are reported and get no reference."""
    from workloads import WORKLOADS, digest

    status = 0
    for name in names:
        cat = WORKLOADS[name](OUT / "work" / f"refs-{name}")
        cat.workdir.mkdir(parents=True, exist_ok=True)
        refs = {}
        t0 = time.perf_counter()
        for key in list(cat.fixed) + list(range(cat.size)):
            job = cat.job(key)
            if not job.exact:
                continue
            _, rc, out = run_timed(job)
            reason = out if rc is None else job.check(rc, out)
            if reason is not None:
                print(f"{job.key}: {reason}")
                status = 1
                continue
            refs[str(key)] = digest(out)
        if refs:
            REFS.mkdir(exist_ok=True)
            (REFS / f"{name}.json").write_text(json.dumps(refs, indent=0) + "\n")
        print(f"{name}: {len(refs)} references in {time.perf_counter() - t0:.1f} s")
    return status


def main(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # minimal runs for --self-check: one round of the corpus, one set-up launch
    p.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    p.add_argument("--launches", type=int, default=SETUP_LAUNCHES, help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--record-refs", action="store_true")
    args = p.parse_args(argv)

    import_crossfield()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.self_check:
        return self_check()
    if args.record_refs:
        return record_refs([args.workload] if args.workload else sorted(WORKLOADS))
    if args.workload is None:
        # every workload in turn, each in its own process (peak_rss_mb is per process)
        for name in WORKLOADS:
            print(f"## {name}", flush=True)
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT, check=True)
        return 0
    print("# stamp " + json.dumps(stamp()))
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds, args.rounds)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, args.rounds, args.launches)
    emit(*result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
