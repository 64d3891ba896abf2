#!/usr/bin/env python3
"""End-to-end benchmark of the farkas command line.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each workload is a fixed list of CLI jobs.  Every job is a fresh Python
process (perfbench/job.py), as a user of the CLI pays for it, and the jobs
run one at a time.  The run repeats the list until --seconds have passed
(at least once) and reports medians over those passes.  Every job's exit
code and exact output are compared with perfbench/goldens.json; a mismatch
is counted in `failed` and never stops the run.  Times are scaled to a
reference host speed (see `Reference`); the raw figures are in the record
line printed before the result.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and prints its per-layer metrics.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
GOLDENS = HERE / "goldens.json"

DEFAULT_SEED = 1
SETUP_PROBES = 5  # import-only jobs per run, on top of the workload's own jobs
RUN_LIMIT_S = 170  # no job outlives this many seconds after the run starts
CONFIG = "src/farkas/configs/p37_5_19.json"

# Seed pools.  Every draw from a pool costs the same.  The Kronecker symbol
# runs is_prime(p) on every call, and for p > 47 that is a Miller-Rabin test
# (twice the refute `square` cost), so the slots that call it per
# coefficient draw from p < 47 only.
CHI_POOL = ("quartic-i", "quartic-minus-i")
REFUTE_CONV_PRIMES = (29, 37, 53, 61)
REFUTE_SQUARE_PRIMES = (29, 37)
RATIO_PRIMES = (29, 37)

SIZES = {
    "full": {
        "prove": 15000, "farkas": 10000, "config": 2000, "refute": 200000,
        "scan": 1000, "safe": 5000, "poly": (347, 467), "ratio": 10000,
    },
    "tiny": {
        "prove": 300, "farkas": 300, "config": 40, "refute": 2000,
        "scan": 100, "safe": 500, "poly": (59, 83), "ratio": 300,
    },
}


def prove_jobs(rng, size):
    chi = rng.choice(CHI_POOL)
    n = str(size["prove"])
    return [
        ["verify", "--p", "13", "--kind", "conv", "--chi", chi, "--nmax", n],
        ["verify", "--p", "13", "--kind", "square", "--chi", chi, "--nmax", n],
        ["verify", "--kind", "farkas", "--nmax", str(size["farkas"])],
        ["verify", "--kind", "config", "--config", CONFIG, "--nmax", str(size["config"])],
    ]


def refute_jobs(rng, size):
    conv_a, conv_b = rng.sample(REFUTE_CONV_PRIMES, 2)
    square = rng.choice(REFUTE_SQUARE_PRIMES)
    n = str(size["refute"])
    return [
        ["verify", "--p", str(p), "--kind", kind, "--chi", rng.choice(CHI_POOL), "--nmax", n]
        for p, kind in ((conv_a, "conv"), (square, "square"), (conv_b, "conv"))
    ]


def scan_jobs(rng, size):
    return [
        ["search", "--pmax", str(size["scan"]), "--nmax", "50"],
        ["search", "--safe-primes", "--pmax", str(size["safe"])],
        *(["poly", "--p", str(p)] for p in size["poly"]),
    ]


def ratio_jobs(rng, size):
    p, chi, n = str(rng.choice(RATIO_PRIMES)), rng.choice(CHI_POOL), str(size["ratio"])
    return [
        ["asympt", "--p", p, "--kind", kind, "--chi", chi, "--nmax", n]
        for kind in ("conv", "square")
    ]


# ---------------------------------------------------------------------
# exact output checks
# ---------------------------------------------------------------------

def job_kind(argv):
    return "safe" if "--safe-primes" in argv else argv[0]


# exact fields compared per job kind; timing keys are never among them
FIELDS = {
    "verify": ("outcome", "first_failure"),
    "search": ("outcome", "passing_primes", "discriminant_solutions", "rows"),
    "safe": ("outcome", "safe_primes"),
    "poly": (
        "outcome", "b0", "b1", "b_p_minus_1", "b_p", "divisible_by_xq_plus_1",
        "coprime_with_xq_minus_1", "f_at_one", "flagged_zero_coefficients",
    ),
}


def extract(argv, stdout: bytes) -> dict:
    """The exact, timing-free fields of one job's output."""
    kind = job_kind(argv)
    if kind == "asympt":
        return {
            "sha256": hashlib.sha256(stdout).hexdigest(),
            "rows": stdout.count(b"\n") - 1,
        }
    data = json.loads(stdout)
    fields = {key: data.get(key) for key in FIELDS[kind]}
    if kind == "poly":
        # one "<parity><obstruction>" letter pair per character, e.g. "en" "oz"
        fields["rows"] = "".join(r["parity"][0] + r["obstruction"][0] for r in data["rows"])
    return fields


def golden_key(argv) -> str:
    return " ".join(argv)


def check(goldens, argv, code, stdout) -> bool:
    golden = goldens.get(golden_key(argv))
    if golden is None or code != golden["exit"]:
        return False
    try:
        return extract(argv, stdout) == golden["fields"]
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False


def compared(argv, fields) -> int:
    """Coefficients the job compared (lhs against rhs), from its exact output."""
    kind = job_kind(argv)
    if kind == "verify":
        nmax = int(argv[argv.index("--nmax") + 1])
        start = 1 if "config" in argv else 0
        failure = fields["first_failure"]
        return (failure["n"] if failure else nmax) - start + 1
    if kind == "search":
        nmax = int(argv[argv.index("--nmax") + 1])
        return sum(
            int(row[col][5:]) + 1 if row[col].startswith("fail@") else nmax + 1
            for row in fields["rows"]
            for col in ("id1", "id2")
        )
    if kind == "asympt":
        return fields["rows"]
    return 0


def scan_units(argv, fields):
    kind = job_kind(argv)
    if kind == "search":
        return len(fields["rows"])
    if kind == "safe":
        return len(fields["safe_primes"])
    return 1


# name -> (job list, work units of one correct job)
WORKLOADS = {
    "prove": (prove_jobs, compared),  # coefficients checked
    "refute": (refute_jobs, lambda argv, fields: 1),  # identities refuted
    "scan": (scan_jobs, scan_units),  # primes classified + poly reports
    "ratio-table": (ratio_jobs, compared),  # CSV rows
}


# ---------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------

def job_env() -> dict:
    dropped = ("FARKAS_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    return env


# Host speed.  On a shared machine the same job runs up to 2.5x slower for
# tens of seconds at a time, and set-up, wall and CPU time all slow alike.
# So each job is timed against a fixed reference measured just before and
# just after it, and times are reported in seconds of a host on which the
# reference takes REFERENCE_S (an idle core of the 2.1 GHz Xeon the
# benchmark was written on).  The jobs mix interpreter work with memory
# traffic, so the reference is the geometric mean of a compute loop and a
# random-access loop over a table larger than a core's L2 cache; either loop
# alone tracks them worse.  The reference runs no farkas code, so a change to
# the package moves the scaled times by the same factor as the raw ones.
# The raw figures are printed in the record line of every run.
REFERENCE_S = 0.0043


class Reference:
    """The host's current speed, as the time of two fixed loops."""

    def __init__(self):
        self._table = array("q", range(1 << 21))  # 16 MiB
        self._index = random.Random(0).choices(range(len(self._table)), k=50_000)

    def seconds(self, repeats=5) -> float:
        compute, memory = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            total = 0
            for i in range(100_000):
                total += i * i
            t1 = time.perf_counter()
            for i in self._index:
                total += self._table[i]
            t2 = time.perf_counter()
            compute.append(t1 - t0)
            memory.append(t2 - t1)
        return math.sqrt(statistics.median(compute) * statistics.median(memory))


class Runner:
    """Spawns jobs one at a time in a scratch directory inside the checkout."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = job_env()
        self.goldens = json.loads(GOLDENS.read_text())
        self.reference = Reference()

    def job(self, argv, trace=0) -> dict:
        stamp, out, err = (self.work / name for name in ("stamp.json", "out", "err"))
        stamp.unlink(missing_ok=True)
        ref_before = self.reference.seconds()
        cmd = [sys.executable, str(JOB), str(stamp), str(trace), *argv]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fo, stderr=fe)
            killer = threading.Timer(max(self.deadline - t0, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        ref_after = self.reference.seconds()
        stdout = out.read_bytes()
        try:
            info = json.loads(stamp.read_text())
        except (OSError, ValueError):
            info = {}
        ok = not argv or check(self.goldens, argv, proc.returncode, stdout)
        if not ok:
            sys.stderr.write(
                f"perfbench: wrong result (exit {proc.returncode}) for: {golden_key(argv)}\n"
                + err.read_text(errors="replace")[-2000:]
            )
        return {
            "argv": argv,
            "ok": ok,
            "scale": REFERENCE_S / ((ref_before + ref_after) / 2),
            "wall": t1 - t0,
            "setup": info.get("t_imported", t1) - t0,
            "import_s": info.get("import_s"),
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": (info.get("peak_rss_kb") or usage.ru_maxrss) / 1024.0,
            "bytes": len(stdout),
            "fields": self.goldens[golden_key(argv)]["fields"] if ok and argv else None,
            "trace": info if trace else None,
        }


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def per_job(passes, value):
    """Median over passes of value(job), for each job of the list."""
    return [median([value(p[i]) for p in passes]) for i in range(len(passes[0]))]


def scaled(key):
    return lambda job: job[key] * job["scale"]


def raw(key):
    return lambda job: job[key]


def end_to_end(passes, probes, units, measure=scaled) -> dict:
    """The end-to-end metrics; measure=raw gives them unscaled."""
    wall = sum(per_job(passes, measure("wall")))
    job_setup = sum(per_job(passes, measure("setup")))
    items = median(
        [sum(units(j["argv"], j["fields"]) for j in p if j["ok"]) for p in passes]
    )
    setup = measure("setup")
    return {
        "wall_s": wall,
        "items_per_s": items / (wall - job_setup),
        "setup_s": median([setup(j) for p in passes for j in p] + [setup(j) for j in probes]),
        "cpu_s": sum(per_job(passes, measure("cpu"))),
        "peak_rss_mb": max(per_job(passes, raw("rss_mb"))),
    }


KERNEL = ("qseries.Convolver.F", "qseries.Convolver.H")
COMPARE = (
    "identities.verify_id1", "identities.verify_id2",
    "identities.verify_farkas", "identities.check_configured_identity",
)
SIEVES = (
    "qseries.delta_int_arrays", "qseries.sigma_prime_values",
    "qseries.sigma_tilde_values", "qseries.sigma_hat_values",
)
OBSTRUCTIONS = ("identities.obstruction_id1", "identities.obstruction_id2")
RENDER = (
    "cli.render_report", "cli.write_output", "cli.cmd_asympt",
    "cli.gaussian_exact_str", "cli.gaussian_decimal_str", "cli.decimal_str",
)
MODULES = ("foundations", "characters", "qseries", "identities", "charpoly", "cli")


class PassTrace:
    """Span aggregates of one traced pass, summed over its jobs."""

    def __init__(self, jobs):
        self.spans, self.distinct = {}, {}
        for job in jobs:
            info = job["trace"] or {}
            for name, (calls, self_s, count) in info.get("spans", {}).items():
                agg = self.spans.setdefault(name, [0, 0.0, 0])
                agg[0] += calls
                agg[1] += self_s * job["scale"]
                agg[2] += count
            for name, n in info.get("distinct", {}).items():
                self.distinct[name] = self.distinct.get(name, 0) + n
        self.compared = sum(compared(j["argv"], j["fields"]) for j in jobs if j["ok"])
        self.output_bytes = sum(j["bytes"] for j in jobs)

    def _sum(self, names, field):
        return sum(self.spans[n][field] for n in names if n in self.spans)

    def calls(self, *names):
        return self._sum(names, 0)

    def self_s(self, *names):
        return self._sum(names, 1)

    def count(self, *names):
        return self._sum(names, 2)

    def module_self_s(self, module):
        return self.self_s(*(n for n in self.spans if n.startswith(module + ".")))


def ratio(num, den):
    return num / den if den else 0.0


# per-layer metrics of one traced pass, by BENCHMARK.json name
LAYER = {
    "qseries.kernel.calls": lambda t: t.calls(*KERNEL),
    "qseries.kernel.self_s": lambda t: t.self_s(*KERNEL),
    "qseries.kernel.madds": lambda t: t.count(*KERNEL),
    "identities.compare.self_s": lambda t: t.self_s(*COMPARE),
    "qseries.sieve.self_s": lambda t: t.self_s(*SIEVES),
    "qseries.sieve.coeffs": lambda t: t.count(*SIEVES),
    "qseries.sieve.bytes": lambda t: 8 * t.count(*SIEVES),
    "qseries.sieve_useful_ratio": lambda t: ratio(t.compared, t.count(*SIEVES)),
    "foundations.kronecker.calls": lambda t: t.calls("foundations.kronecker"),
    "foundations.is_prime.calls": lambda t: t.calls("foundations.is_prime"),
    "characters.value.calls": lambda t: t.calls("characters.DirichletCharacter.value"),
    "qseries.delta_constant.calls": lambda t: t.calls("qseries.delta_constant"),
    "qseries.delta_constant.self_s": lambda t: t.self_s("qseries.delta_constant"),
    "qseries.delta0_useful_ratio": lambda t: ratio(
        t.distinct.get("qseries.delta_constant", 0), t.calls("qseries.delta_constant")
    ),
    "identities.constants_for.self_s": lambda t: t.self_s("identities.constants_for"),
    "identities.obstruction.self_s": lambda t: t.self_s(*OBSTRUCTIONS),
    "qseries.bernoulli_B2_psi.self_s": lambda t: t.self_s("qseries.bernoulli_B2_psi"),
    "charpoly.f_poly.self_s": lambda t: t.self_s("charpoly.f_poly"),
    "charpoly.poly_gcd.self_s": lambda t: t.self_s("charpoly.poly_gcd"),
    "charpoly.divmod_exact.calls": lambda t: t.calls("charpoly.IntPolynomial.divmod_exact"),
    "identities.asymptotic_report.self_s": lambda t: t.self_s("identities.asymptotic_report"),
    "cli.render.self_s": lambda t: t.self_s(*RENDER),
    "cli.output_bytes": lambda t: t.output_bytes,
    **{f"{m}.self_s": (lambda t, m=m: t.module_self_s(m)) for m in MODULES},
}


def per_layer(passes, traced, probes) -> dict:
    traces = [PassTrace(p) for p in traced]
    out = {name: median([fn(t) for t in traces]) for name, fn in LAYER.items()}
    jobs = [j for p in passes + traced for j in p] + probes
    out["cli.import_s"] = median([j["import_s"] * j["scale"] for j in jobs if j["import_s"]])
    out["trace_overhead_s"] = sum(per_job(traced, scaled("wall"))) - sum(
        per_job(passes, scaled("wall"))
    )
    return out


# ---------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------

def run_workload(runner, name, seed, seconds, trace, size="full"):
    """Run one workload; returns its counts, metrics and host-speed record."""
    make_jobs, units = WORKLOADS[name]
    jobs = make_jobs(random.Random(seed), SIZES[size])
    runner.job([])  # warm-up: byte-compiles the package, discarded
    probes = [runner.job([]) for _ in range(SETUP_PROBES)]
    passes, traced = [], []
    start = time.monotonic()
    while True:
        passes.append([runner.job(argv) for argv in jobs])
        if trace:
            traced.append([runner.job(argv, trace=1) for argv in jobs])
        if time.monotonic() - start >= seconds:
            break
    done = [j for p in passes + traced for j in p]
    failed = sum(not j["ok"] for j in done)
    layers = per_layer(passes, traced, probes) if trace else None
    return {
        "attempted": len(done),
        "failed": failed,
        "end_to_end": end_to_end(passes, probes, units),
        "raw": end_to_end(passes, probes, units, measure=raw),
        "per_layer": layers,
        "passes": len(passes),
        "host_slowdown": median([1 / j["scale"] for j in done]),
    }


def git_sha():
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def numpy_version():
    """numpy's installed version, read without importing it."""
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(spec, attempted, failed, values, section):
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "farkas" / "cli.py").is_file():
        print(f"perfbench: no farkas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    section = "per_layer" if args.trace else "end_to_end"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    t_start = time.monotonic()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(work, t_start + RUN_LIMIT_S * len(names))
        results = {
            name: run_workload(runner, name, args.seed, seconds, args.trace) for name in names
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    record = {
        "workloads": names, "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": sys.version.split()[0], "numpy": numpy_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "error_rate": failed / attempted, "run_s": time.monotonic() - t_start,
        **{name: {k: r[k] for k in ("passes", "host_slowdown", "raw")} for name, r in results.items()},
    }
    print(json.dumps({"record": record}))
    lines = {
        name: result_line(spec, r["attempted"], r["failed"], r[section], section)
        for name, r in results.items()
    }
    if len(names) > 1:
        for name, line in lines.items():
            print(f"{name:12s} error_rate {line['failed'] / line['attempted']:.3f}  " + "  ".join(
                f"{m} {v['value']:.6g} {v['unit']}" for m, v in line["metrics"].items()
            ))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": (
            lines[names[0]]["metrics"] if len(names) == 1 else
            {f"{name}.{m}": v for name, line in lines.items() for m, v in line["metrics"].items()}
        ),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
