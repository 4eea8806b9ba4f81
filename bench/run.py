"""duallink benchmark: run one workload, check its products, print its metrics.

    python3 bench/run.py --workload channel-512 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; the benchmark imports ``src/duallink``
from that checkout and refuses to run without it.  The workload seed drives
every generated config's master seed and the synthetic fading draws.

One run, in one process:

1. writes the workload's inputs under ``.bench_work/<workload>/inputs/``;
2. times ``import duallink.cli`` plus ``load_config`` in fresh interpreters
   (``setup_s``, the median of several);
3. runs one untimed operation, so lazily built kernels and masks exist;
4. repeats the workload's operation until ``--seconds`` have passed and
   reports the median wall time of one operation (``op_s``).  With
   ``--trace 1`` the first half runs plain and the second half with the
   tracing wrappers installed, and the per-layer metrics come from the
   second half; their ratio is the tracing overhead.

Each operation's products are checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines above it repeat every metric with its unit for people, with the
machine block.  ``--smoke`` runs every workload once at a tiny size and
asserts that all metrics appear with their units and nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5

END_TO_END = ("op_s", "setup_s", "peak_rss_mb")

_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import duallink.cli
duallink.cli.load_config(sys.argv[1])
print(repr(time.perf_counter() - start))
"""


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(config: Path, samples: int) -> list[float]:
    """Seconds to import the CLI and load a config, each in a fresh interpreter."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(config)],
            cwd=ROOT,
            env=_environment(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_block() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches_per_core": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _kernel_cache(grid: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Angular-spectrum kernel cache over the whole run, read from outside."""
    from duallink import optics

    info = getattr(getattr(optics, "_angular_spectrum_kernel", None), "cache_info", None)
    if info is None:
        zeros = {"optics.kernel_cache.hit_ratio": (0.0, "ratio"),
                 "optics.kernel_cache.mb_computed": (0.0, "MB")}
        return zeros, ["duallink.optics._angular_spectrum_kernel.cache_info"]
    stats = info()
    lookups = stats.hits + stats.misses
    return {
        "optics.kernel_cache.hit_ratio": (stats.hits / lookups if lookups else 0.0, "ratio"),
        # computed, not measured: each kernel is one N x N complex128 array
        "optics.kernel_cache.mb_computed": (stats.misses * grid * grid * 16 / 1e6, "MB"),
    }, []


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = WORK / name / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workload.prepare(seed, work, smoke)

    setup = measure_setup(run.config, 1 if smoke else SETUP_SAMPLES)

    attempted = failed = 0
    problems: list[str] = []

    def loop(budget: float, tracer=None) -> list[float]:
        nonlocal attempted, failed
        times = []
        deadline = time.perf_counter() + budget
        while True:
            outcome = run.op(tracer)
            attempted += outcome.attempted
            failed += min(len(outcome.problems), outcome.attempted)
            problems.extend(outcome.problems)
            times.append(outcome.seconds)
            if time.perf_counter() >= deadline:
                return times

    loop(0.0)  # warm-up: lazily built kernels, masks and weights
    tracer = Tracer() if trace else None
    if tracer is None:
        times = loop(seconds)
    else:
        times = loop(seconds / 2.0)
        with tracer.installed():
            traced_times = loop(seconds / 2.0, tracer)
        tracer.write(WORK / name / f"spans-seed{seed}.jsonl")

    result = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_block(),
        "working_set_mb_per_field": run.grid * run.grid * 16 / 1e6,
        "op_s_samples": times,
        "setup_s_samples": setup,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    median = statistics.median(times)
    end_to_end = {
        "op_s": (median, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    headline, value, unit = run.headline(median)
    end_to_end[headline] = (value, unit)
    end_to_end["error_rate"] = (failed / attempted, "ratio")
    result["end_to_end"] = end_to_end
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced_times), workload.threads)
        cache, missing = _kernel_cache(run.grid)
        layers.update(cache)
        missing = tracer.missing + missing
        layers["trace.throughput_ratio"] = (
            statistics.median(times) / statistics.median(traced_times), "ratio"
        )
        layers["trace.missing_targets"] = (len(missing), "count")
        result["per_layer"] = layers
        result["missing_targets"] = missing
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines and return the metrics of the JSON line."""
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print(f"why {result['why']}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    if result["working_set_mb_per_field"]:
        caches = result["machine"]["caches_per_core"]
        print(
            f"working set {result['working_set_mb_per_field']:.2f} MB per N x N complex128 "
            f"field; caches {caches}"
        )
    for name in ("op_s", "setup_s"):
        samples = result[f"{name}_samples"]
        q1, median, q3 = _quartiles(samples)
        print(f"{name} samples {len(samples)} median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} s")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    if "per_layer" in result:
        if result["missing_targets"]:
            print("missing trace targets " + ", ".join(result["missing_targets"]))
        for name, (value, unit) in result["per_layer"].items():
            print(f"{name} {value:.6g} {unit}")
        chosen = result["per_layer"]
    else:
        chosen = {k: result["end_to_end"][k] for k in END_TO_END}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}


def smoke() -> int:
    """Every workload once at a tiny size, traced and untraced.

    Each must emit exactly the metrics BENCHMARK.json declares, with the
    declared units, and fail no operation.
    """
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("smoke: BENCHMARK.json and workloads.py name different workloads")
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            metrics = report(result)
            expected = {
                m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]
            }
            emitted = {k: m["unit"] for k, m in metrics.items()}
            if emitted != expected:
                raise SystemExit(
                    f"smoke: {name} trace {trace} emitted {sorted(emitted.items())}, "
                    f"BENCHMARK.json declares {sorted(expected.items())}"
                )
            if result["failed"] or result["end_to_end"]["error_rate"][0] != 0.0:
                raise SystemExit(f"smoke: {name} failed {result['failed']} operations")
            if trace and result["per_layer"]["trace.missing_targets"][0]:
                raise SystemExit(f"smoke: {name} trace targets missing")
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "duallink" / "cli.py").is_file():
        print(f"error: no duallink sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    metrics = report(result)
    with open(WORK / args.workload / f"result-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
