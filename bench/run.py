"""Benchmark of the ``pmcperturb`` command line, one workload per run.

Run from the root of a checkout::

    python3 bench/run.py --workload chain-sensitivity --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

A run generates the workload's model file from the seed (in a separate
process), times ``setup_s`` in fresh interpreters, runs the closed loop in
``worker.py`` (another process, so its peak memory is the loop's alone),
checks every output with the independent ``oracle.py`` and prints, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
gives the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its
per-layer metrics. Each failed check is named on stderr. ``--workload all``
runs every workload in turn and prints one summary line each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
#: One BLAS/OpenMP thread in every process, set before numpy loads, so that
#: the benchmark and its children use at most two threads between them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})
sys.path.insert(0, str(BENCH))

from hostspeed import scaled  # noqa: E402
from oracle import Oracle, check_paper_tables  # noqa: E402
from worker import WORKLOADS, op_argv  # noqa: E402

#: Fresh-interpreter imports timed for ``setup_s`` (after one untimed import).
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pmcperturb.cli; "
                "t = time.perf_counter() - t; import hostspeed; "
                "print(t, hostspeed.calibrate())")
#: Seconds allowed for each child process.
CHILD_TIMEOUT = 150

UNITS = {"self_s": "s", "untraced_s": "s", "calls": "count", "reach_positive_states": "count",
         "nnz_a": "count", "input_bytes": "bytes", "output_bytes": "bytes",
         "resolves_per_sample": "ratio", "trace_overhead_frac": "fraction"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
    return env


def run_child(argv: list, env: dict, cwd: Path) -> str:
    done = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def setup_seconds(env: dict, cwd: Path) -> tuple[float, float]:
    """Median import time of ``pmcperturb.cli``, scaled and raw."""
    run_child(["-c", IMPORT_PROBE], env, cwd)
    probes = [[float(x) for x in run_child(["-c", IMPORT_PROBE], env, cwd).split()]
              for _ in range(SETUP_REPEATS)]
    return (statistics.median(scaled(t, cal) for t, cal in probes),
            statistics.median(t for t, _ in probes))


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 layer_names: list[str]) -> tuple[dict, dict]:
    """One run: the result object and the unscaled timings for the summary line."""
    env = child_env(root)
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        model = work / f"{workload}.model"
        run_child([str(BENCH / "generators.py"), workload, str(seed), str(model)], env, root)
        setup_s = None if trace else setup_seconds(env, root)
        run_child([str(BENCH / "worker.py"), "--workload", workload, "--model", str(model),
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
                   "--out", str(work)], env, root)
        summary = json.loads((work / "summary.json").read_text(encoding="utf-8"))
        ops = summary["ops"] + summary.get("traced_ops", [])

        oracle = Oracle(workload, model.read_text(encoding="utf-8"))
        gate = oracle.check_model() + check_paper_tables(
            (work / "paper-tables.out").read_text(encoding="utf-8"),
            (root / "tests" / "golden" / "paper_tables.json").read_text(encoding="utf-8"))
        verdicts: dict[str, list] = {}
        failures = []
        for op in ops:
            text = (work / f"op-{op['index']}.out").read_text(encoding="utf-8")
            argv = op_argv(workload, str(model), seed, op["index"])
            key = f"{op['code']}:{argv[-1]}:{hash(text)}"
            if key not in verdicts:
                verdicts[key] = oracle.check(op["code"], text, argv)
            if verdicts[key]:
                err = work / f"op-{op['index']}.err"
                stderr = err.read_text(encoding="utf-8").strip() if err.exists() else ""
                failures.append((op["index"], verdicts[key], stderr))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, detail in gate:
        print(f"{workload}: gate check {name} failed: {detail}", file=sys.stderr)
    for index, fails, stderr in failures:
        for name, detail in fails[:5]:
            print(f"{workload}: op {index} check {name} failed: {detail}", file=sys.stderr)
        if stderr:
            print(f"{workload}: op {index} stderr: {stderr}", file=sys.stderr)

    untraced = statistics.median(scaled(op["seconds"], op["calibration_s"])
                                 for op in summary["ops"])
    raw = {}
    if not trace:
        cycles = sum(scaled(op["cycle_s"], op["calibration_s"]) for op in summary["ops"])
        metrics = {
            "setup_s": (setup_s[0], "s"),
            "op_p50_s": (untraced, "s"),
            "ops_per_s": (len(summary["ops"]) / cycles, "1/s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        }
        raw = {"setup_s": setup_s[1],
               "op_p50_s": statistics.median(op["seconds"] for op in summary["ops"]),
               "calibration_s": statistics.median(op["calibration_s"] for op in summary["ops"])}
    else:
        layers = summary["layers"]
        traced = statistics.median(scaled(op["seconds"], op["calibration_s"])
                                   for op in summary["traced_ops"])
        metrics = {}
        absent = []
        for name in layer_names:
            if name == "trace_overhead_frac":
                metrics[name] = (traced / untraced - 1.0, unit_of(name))
            elif name in layers[0]:
                values = [layer[name] for layer in layers]
                if unit_of(name) == "s":
                    values = [scaled(v, op["calibration_s"])
                              for v, op in zip(values, summary["traced_ops"])]
                metrics[name] = (statistics.median(values), unit_of(name))
            else:
                absent.append(name)
        if absent:
            print(json.dumps({"absent": absent}))
            print(f"{workload}: absent from the program: {', '.join(absent)}", file=sys.stderr)
    return {
        "correct": not gate and not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pmcperturb" / "cli.py").is_file():
        print(f"bench: no pmcperturb sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = [m["name"] for m in spec["per_layer"]]

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace), layer_names)
               for w in workloads}
    for workload, (result, raw) in results.items():
        line = "  ".join(f"{name}={m['value']:.6g} {m['unit']}"
                         for name, m in result["metrics"].items())
        if raw:
            line += "  unscaled: " + "  ".join(f"{name}={v:.6g} s" for name, v in raw.items())
        failed_frac = result["failed"] / result["attempted"]
        print(f"{workload}: {line}  failed_frac={failed_frac:.6g} fraction "
              f"({result['failed']} of {result['attempted']} operations)")
    if args.workload != "all":
        print(json.dumps(results[args.workload][0]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
