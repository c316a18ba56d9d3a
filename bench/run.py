"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a checkout. The run repeats whole rounds (build,
solve, diagnose), each on the next instance generated from ``--seed``,
until ``--seconds`` have passed, checks every output, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` the run alternates untraced and
traced rounds and reports the per-layer ones. See bench/README.md.
"""

import os
import sys
import time

# One thread everywhere; must be set before NumPy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_run")
IMPORT_RUNS = 7      # fresh interpreters timed for the import in setup_s


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _interquartile_mean(values):
    """Mean of the middle half: steadier than a median when the values
    cluster, and unmoved by a single long instance."""
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return statistics.mean(middle) if middle else float("nan")


def import_seconds():
    """Median wall time of a fresh interpreter that imports ``blockadmm``
    with every layer (``blockadmm.cli``), from its start to its exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(IMPORT_RUNS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import blockadmm.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def measure(workload_name, seed, seconds, trace, workdir, import_s, units):
    """Run whole rounds of a workload for ``seconds``; return the result
    object with the metrics named in ``units`` (name -> unit)."""
    import numpy as np

    import tracing
    from workloads import WORKLOADS, run_round

    workload = WORKLOADS[workload_name]
    attempted = 0
    failures = []
    rounds = []            # (traced, timings, layer metrics or None)
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    k = 0
    while not rounds or time.perf_counter() - start < seconds:
        # Round k solves the k-th instance of the seed; a traced run
        # solves it twice, untraced and then traced.
        instance = int(
            np.random.SeedSequence([seed, k]).generate_state(1)[0])
        k += 1
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.begin_round()
                with tracing.installed(tracer):
                    timings, failed = run_round(workload, instance, workdir)
                layers = tracer.round_metrics()
            else:
                timings, failed = run_round(workload, instance, workdir)
                layers = None
            rounds.append((traced, timings, layers))
            attempted += 2
            failures += failed
    for message in failures:
        print("%s seed %d: %s" % (workload_name, seed, message),
              file=sys.stderr)

    def med(key, traced=False):
        return _median([t[key] for tr, t, _ in rounds
                        if tr == traced and key in t])

    if trace:
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, "spans-%s-seed%d.npz"
                                 % (workload_name, seed)))
        # Counts are those of the first traced round, whose instance the
        # seed fixes; times are medians over every traced round.
        traced_layers = [layers for tr, _, layers in rounds if tr]
        # the overhead compares the package's time (build, solve and
        # diagnose, without the benchmark's checks) in each pair of rounds
        work = [t.get("build_s", 0.0) + t.get("solve_s", 0.0)
                + t.get("diagnose_s", 0.0) for _, t, _ in rounds]
        values = {"tracing.overhead": _median(
            [traced / plain for plain, traced in zip(work[::2], work[1::2])])}
        for name, unit in units.items():
            if name in values:
                continue
            if unit in ("s", "us"):
                values[name] = _median([m[name] for m in traced_layers])
            else:
                values[name] = traced_layers[0][name]
    else:
        values = {
            "setup_s": import_s + med("build_s"),
            "solve_s": med("solve_s"),
            "diagnose_s": med("diagnose_s"),
            "outer_iterations": _interquartile_mean(
                [t["iterations"] for _, t, _ in rounds if "iterations" in t]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "blockadmm", "__init__.py")):
        print("bench/run.py: no blockadmm sources under %s; run it from "
              "the root of a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # every layer, imported here so that no round's timings include it
    import blockadmm.cli  # noqa: F401
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("bench/run.py: unknown workload %r; expected one of %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    import_s = None if args.trace else import_seconds()
    workdir = os.path.join(OUT, "work-%s-seed%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         args.trace, workdir, import_s, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
