"""Tests of the benchmark's own logic: job lists, golden checks, metrics.

Run from the repository root with the package on the path:
    PYTHONPATH=src python -m pytest perfbench -q
"""
import importlib.util
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return bench.Runner(tmp_path_factory.mktemp("work"), time.monotonic() + 600)


@pytest.fixture(scope="module")
def smoke(runner):
    """Every workload once at tiny size, untraced and traced passes."""
    return {
        name: bench.run_workload(runner, name, seed=7, seconds=0, trace=1, size="tiny")
        for name in bench.WORKLOADS
    }


def test_spec_names_match_the_metrics_the_benchmark_computes():
    spec = bench.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == {
        *bench.LAYER, "cli.import_s", "trace_overhead_s"
    }
    e2e = bench.end_to_end(
        [[{"argv": ["x"], "ok": False, "wall": 2.0, "setup": 1.0, "cpu": 1.0,
           "rss_mb": 1.0, "scale": 1.0, "fields": None}]],
        [], lambda argv, fields: 1,
    )
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_every_seed_draws_jobs_with_goldens_and_fixed_sizes(size):
    goldens = json.loads(bench.GOLDENS.read_text())
    for name, (make_jobs, _) in bench.WORKLOADS.items():
        shapes = set()
        for seed in range(200):
            jobs = make_jobs(random.Random(seed), bench.SIZES[size])
            assert jobs == make_jobs(random.Random(seed), bench.SIZES[size])
            for argv in jobs:
                assert bench.golden_key(argv) in goldens, argv
            # the seed picks primes and characters, never a size or a command
            shapes.add(tuple(
                tuple(a for a in argv if not a.isdigit() and not a.startswith("quartic"))
                for argv in jobs
            ))
            assert [argv[argv.index("--nmax") + 1] for argv in jobs if "--nmax" in argv] == [
                argv[argv.index("--nmax") + 1]
                for argv in make_jobs(random.Random(0), bench.SIZES[size])
                if "--nmax" in argv
            ]
        assert len(shapes) == 1, name


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(smoke, name):
    result = smoke[name]
    e2e, layers = result["end_to_end"], result["per_layer"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    assert all(v > 0 for v in e2e.values()), e2e
    assert all(v > 0 for v in result["raw"].values()), result["raw"]
    assert set(layers) == {m["name"] for m in bench.load_spec()["per_layer"]}
    assert layers["cli.import_s"] > 0 and layers["cli.output_bytes"] > 0


def test_traced_layers_land_on_their_workloads(smoke):
    layers = {name: result["per_layer"] for name, result in smoke.items()}
    assert layers["prove"]["qseries.kernel.madds"] > 0
    assert layers["refute"]["qseries.sieve.coeffs"] > 0
    assert layers["refute"]["qseries.sieve_useful_ratio"] < 0.01
    assert layers["scan"]["qseries.delta_constant.calls"] > layers["prove"]["qseries.delta_constant.calls"]
    assert layers["scan"]["charpoly.divmod_exact.calls"] > 0
    assert layers["ratio-table"]["identities.asymptotic_report.self_s"] > 0
    assert layers["refute"]["charpoly.divmod_exact.calls"] == 0


def test_one_flipped_digit_counts_as_an_error(runner):
    argv = ["verify", "--p", "29", "--kind", "conv", "--chi", "quartic-i", "--nmax", "2000"]
    job = runner.job(argv)
    assert job["ok"]
    stdout = (runner.work / "out").read_bytes()
    assert bench.check(runner.goldens, argv, 1, stdout)
    corrupted = stdout.replace(b'"3/7+0i"', b'"3/8+0i"')
    assert corrupted != stdout
    assert not bench.check(runner.goldens, argv, 1, corrupted)
    assert not bench.check(runner.goldens, argv, 0, stdout)  # wrong exit code

    # the same flipped digit in a run: counted in `failed`, and the run goes on
    corrupt = bench.Runner(runner.work, time.monotonic() + 600)
    golden = corrupt.goldens[bench.golden_key(argv)]["fields"]["first_failure"]
    golden["rhs"] = golden["rhs"].replace("3", "4")
    corrupt.goldens[bench.golden_key(argv)]["fields"]["first_failure"] = golden
    corrupt_seed = next(
        seed for seed in range(100)
        if argv in bench.refute_jobs(random.Random(seed), bench.SIZES["tiny"])
    )
    result = bench.run_workload(corrupt, "refute", corrupt_seed, 0, 0, size="tiny")
    assert result["failed"] == 1 and result["attempted"] == 3
    assert result["failed"] / result["attempted"] > 0

    # a wrong job earns no work units
    bad = dict(job, ok=False, fields=None)
    e2e = bench.end_to_end([[job, bad]], [], lambda argv, fields: 1, measure=bench.raw)
    assert e2e["items_per_s"] == pytest.approx(1 / (2 * job["wall"] - 2 * job["setup"]))


def test_refute_goldens_agree_with_the_slow_oracle():
    from farkas.foundations import GaussianRational
    from farkas.identities import constants_for, resolve_character
    from farkas.qseries import cauchy_product, delta_series, sigma_prime, sigma_tilde, sigma_hat

    goldens = json.loads(bench.GOLDENS.read_text())
    for key, golden in goldens.items():
        argv = key.split()
        if golden["exit"] != 1:
            continue
        p = int(argv[argv.index("--p") + 1])
        chi = resolve_character(p, argv[argv.index("--chi") + 1])
        failure = golden["fields"]["first_failure"]
        n = failure["n"]
        c = constants_for(p, chi)
        d = delta_series(chi, n)
        if "conv" in argv:
            lhs = cauchy_product(d, delta_series(chi.conj(), n))[n]
            rhs = GaussianRational(c.alpha * sigma_prime(p, n))
        else:
            lhs = cauchy_product(d, d)[n]
            rhs = c.alpha_prime * sigma_tilde(p, n) + c.beta_prime * sigma_hat(p, n)
        assert lhs != rhs
        assert (str(lhs), str(rhs)) == (failure["lhs"], failure["rhs"])


def test_command_line_prints_one_result_line(monkeypatch, capsys):
    monkeypatch.setitem(bench.SIZES, "full", bench.SIZES["tiny"])
    code = bench.main(["--workload", "refute", "--seed", "2", "--seconds", "0", "--trace", "0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in bench.load_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    record = json.loads(lines[-2])["record"]
    assert record["python"] and record["numpy"] and record["nproc"] >= 1


def test_traced_job_wraps_submodules_the_cli_has_not_imported(tmp_path):
    """A layer the CLI would import lazily is still traced, and numpy need not be loaded."""
    stamp = tmp_path / "stamp.json"
    probe = (
        "import importlib.util, sys\n"
        "import farkas.cli\n"
        "for name in ('farkas.charpoly', 'numpy'):\n"
        "    sys.modules.pop(name)\n"
        f"spec = importlib.util.spec_from_file_location('job', {str(bench.JOB)!r})\n"
        "job = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(job)\n"
        f"job.main([{str(stamp)!r}, '1'])\n"
        "assert sys.modules['farkas.charpoly'].f_poly.__wrapped__\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe],
        env=bench.job_env(), cwd=bench.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "charpoly.f_poly" in json.loads(stamp.read_text())["spans"]
