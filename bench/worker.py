"""Timed closed loop over one workload, run in its own process.

Each operation is one in-process call of ``pmcperturb.cli.main(argv)``: it
reads the model file, parses it, computes and renders the output to a
buffer. The next operation starts when the previous one has returned.
Outputs are written to the output directory between operations, so the
process holds at most one at a time and its peak memory does not grow with
the number of operations.

With ``--trace 1`` the first half of the window runs untraced and the
second half under :class:`tracer.Tracer`; the summary then holds the
per-operation layer profile of the traced half.

Writes ``summary.json`` and ``op-<i>.out`` / ``op-<i>.err`` files to
``--out``, and the spans of a traced run next to it, as
``trace-<workload>.json`` and ``.spans``. Run by ``run.py``; by hand::

    PYTHONPATH=src python3 bench/worker.py --workload probe-validate \\
        --model m.model --seed 1 --seconds 5 --trace 0 --out outdir
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
from pathlib import Path

from hostspeed import calibrate
from tracer import OP, Tracer

#: CLI arguments of each workload, before the model path.
WORKLOADS = {
    "chain-sensitivity": ["sensitivity", "--format", "json"],
    "probe-validate": ["validate", "--delta", "0.01", "--samples", "500", "--format", "json"],
    "dense-validate": ["validate", "--delta", "0.01", "--samples", "30", "--format", "json"],
}

#: Untimed operations run first, so lazy imports and caches are settled.
WARMUP_OPS = 1


def op_argv(workload: str, model: str, seed: int, index: int) -> list[str]:
    """argv of operation ``index``; each validate operation gets its own sampling seed."""
    argv = [WORKLOADS[workload][0], model, *WORKLOADS[workload][1:]]
    if argv[0] == "validate":
        argv += ["--seed", str(seed * 1000 + index)]
    return argv


def run_op(cli, argv, call=None):
    """One operation; returns (exit code, seconds, stdout text, stderr text, extra).

    ``call(fn, *args)`` (a :meth:`tracer.Tracer.call`) runs the CLI if given
    and returns its result and ``extra``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        code, extra = call(cli.main, argv) if call else (cli.main(argv), None)
        t1 = time.perf_counter_ns()
    return code, (t1 - t0) / 1e9, out.getvalue(), err.getvalue(), extra


def timed_loop(cli, workload, model, seed, seconds, out_dir, first_index, call=None):
    """Closed loop for ``seconds``; returns one record per operation.

    ``seconds`` is the operation's wall time, ``cycle_s`` that plus the time
    until the next operation could start (writing the output), and
    ``calibration_s`` the mean of the host-speed calibrations run just
    before and just after it (see ``hostspeed``).
    """
    ops = []
    deadline = time.perf_counter() + seconds
    calibration = calibrate()
    index = first_index
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        code, dur, text, err, extra = run_op(cli, op_argv(workload, model, seed, index), call)
        (out_dir / f"op-{index}.out").write_text(text, encoding="utf-8")
        if err:
            (out_dir / f"op-{index}.err").write_text(err, encoding="utf-8")
        cycle = time.perf_counter() - start
        previous, calibration = calibration, calibrate()
        ops.append({"index": index, "code": code, "seconds": dur, "cycle_s": cycle,
                    "calibration_s": (previous + calibration) / 2,
                    "output_bytes": len(text.encode("utf-8")), "extra": extra})
        index += 1
    return ops


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started.

    ``ru_maxrss`` survives ``execve``, so it can report the parent's size;
    ``VmHWM`` belongs to this process image alone. ``ru_maxrss`` is the
    fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_profile(tracer, op, model_bytes):
    """Per-operation layer metrics of one traced operation."""
    profile = tracer.profile(op["extra"])
    metrics = {"cli.untraced_s": profile.pop(OP)[0] / 1e9}
    for name, (self_ns, calls) in profile.items():
        metrics[f"{name}.self_s"] = self_ns / 1e9
        metrics[f"{name}.calls"] = calls
    for name in tracer.traced():
        metrics.setdefault(f"{name}.self_s", 0.0)
        metrics.setdefault(f"{name}.calls", 0)
    metrics.update(op["extra"]["counts"])
    samples = metrics.pop("sampler.samples_evaluated", 0)
    solves = metrics.get("reachability.solve_reachability.calls", 0)
    metrics["sampler.resolves_per_sample"] = solves / samples if samples else 0.0
    metrics["modelfile.input_bytes"] = model_bytes
    metrics["report.output_bytes"] = op["output_bytes"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # Imported here: run.py imports this module without the program on its path.
    import pmcperturb.cli as cli

    _, _, text, _, _ = run_op(cli, ["paper-tables", "--format", "json"])
    (args.out / "paper-tables.out").write_text(text, encoding="utf-8")
    summary = {}
    for index in range(WARMUP_OPS):
        run_op(cli, op_argv(args.workload, args.model, args.seed, -1 - index))

    if not args.trace:
        ops = timed_loop(cli, args.workload, args.model, args.seed, args.seconds, args.out, 0)
        summary["peak_rss_mb"] = peak_rss_mb()
    else:
        half = args.seconds / 2
        ops = timed_loop(cli, args.workload, args.model, args.seed, half, args.out, 0)
        tracer = Tracer()
        tracer.install()
        traced = timed_loop(cli, args.workload, args.model, args.seed, half, args.out,
                            len(ops), call=tracer.call)
        tracer.uninstall()
        model_bytes = Path(args.model).stat().st_size
        summary["layers"] = [layer_profile(tracer, op, model_bytes) for op in traced]
        summary["traced_ops"] = traced
        tracer.dump(args.out.parent / f"trace-{args.workload}")
    summary["ops"] = ops
    (args.out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
