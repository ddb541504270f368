"""semiwalk benchmark: one seeded workload, end to end, in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The run imports semiwalk from this checkout's ``src/`` and refuses to run
against any other copy. It is one closed-loop client on one thread: each op
starts after the previous one returned, and BLAS is pinned to one thread
before numpy is imported. After set-up it repeats full passes over the
workload's fixed op list for about ``--seconds`` seconds, checks every op
against its oracle, and prints the metrics named in ``BENCHMARK.json``.
Times are scaled to a reference host by a calibration kernel timed beside
every op (see ``calibrate``); the unscaled pass time is printed too. The
last line of standard output is the result object. With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are printed
instead; the spans of the first traced pass are written to ``.perfbench/``.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Must happen before numpy is imported, here or in the set-up probes.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# Set-up is timed this many times per run (once here, the rest in fresh
# processes) and reported as the median.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120
# The calibration kernels' times on the reference host (2-vCPU x86_64, numpy
# 2.4.6, scipy-openblas 0.3.31, Python 3.11.7, at its faster phases). Timed
# metrics are scaled to a host on which the kernels take this long.
SMALL_KERNEL_REF_S = 0.0014
DENSE_KERNEL_REF_S = 0.0017


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print the seconds and exit (used for set-up samples)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    workdir = STATE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec: dict, workdir: Path) -> int:
    tracer = spans.Tracer() if args.trace else None
    workload, setup_s = set_up(args.workload, args.seed, workdir, tracer)
    setup_s = to_reference(setup_s, calibrate(workload.dense))
    if args.setup_only:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s]
    setup_spans = tracer.take()[0] if tracer else []
    if not args.trace:
        setup_samples += [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

    passes = measure(workload, args.seconds, tracer)
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["times"]) for p in passes)
    problems = {name: why for p in passes for name, why in p["problems"].items()}
    failed = sum(len(p["problems"]) for p in passes)

    import numpy
    import semiwalk
    env = environment(semiwalk, numpy)
    if args.trace:
        values = layer_values(spec, passes, setup_spans)
        wanted = spec["per_layer"]
    else:
        op_s = typical_op_seconds(plain, "scaled")
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": sum(op_s),
            "slowest_op_s": max(op_s),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "env": env, "problems": problems, "metrics": metrics}
    STATE.mkdir(exist_ok=True)
    stem = STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        first = next(p for p in passes if p["traced"])
        spans.write_tsv(stem.with_suffix(".spans.tsv"), setup_spans, first["spans"])

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{attempted} ops, {failed} failed")
    for name, why in problems.items():
        print(f"  FAIL {name}: {why}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio")
    if not args.trace:
        print(f"  {'wall run_s (unscaled)':40s} {sum(typical_op_seconds(plain)):.6g} s")
        print(f"  {'host speed (reference = 1)':40s} "
              f"{1 / statistics.median(c for p in plain for c in p['calibration']):.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def load_semiwalk():
    """Import semiwalk from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import semiwalk
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import semiwalk from {SRC}: {exc}")
    found = Path(semiwalk.__file__).resolve()
    if found != (SRC / "semiwalk" / "__init__.py").resolve():
        raise SystemExit(f"perfbench: semiwalk resolved to {found}, not to this checkout's {SRC}")
    return semiwalk


def set_up(name: str, seed: int, workdir: Path, tracer=None):
    """Import semiwalk, generate the seeded inputs and run the warm-up op; timed."""
    start = time.perf_counter()
    semiwalk = load_semiwalk()
    import workloads
    if tracer is not None:
        tracer.install(semiwalk)
        tracer.op, tracer.on = "setup", True
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(name, seed, workdir)
    _, problem = run_op(workload.warmup, tracer)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.on = False
        tracer.uninstall()
    if problem:
        raise SystemExit(f"perfbench: warm-up op {workload.warmup.name!r} failed: {problem}")
    return workload, elapsed


def _setup_probe(args) -> float:
    """Time one set-up in a fresh process, so the import is paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def calibrate(dense: bool) -> float:
    """How much slower than the reference host this host runs now (1 = as fast).

    The host is shared: its speed moves by half or more within a minute, for
    every process on it, but not by the same share for every kind of work.
    The small kernel is what most ops spend their time on: a Python loop of
    small array ops and in-cache matmuls. A ``dense`` workload's time is in
    numpy work on arrays larger than the cache, which slows less; its factor
    is the mean of the small kernel's and a 384x384 product's. Neither
    kernel touches semiwalk, so dividing an op's time by the factor measured
    beside it takes the host's speed out and leaves the program's in.
    """
    import numpy as np
    m = np.array([[0.9, 0.3], [0.1, 0.7]])
    x = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160) / 160
    big = np.linspace(0.0, 1.0, 384 * 384).reshape(384, 384) / 384
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        v = np.array([1.0, 0.0])
        for _ in range(300):
            w = m @ v
            if np.abs(w - v).sum() < 0.0:
                break
            v = w
        y = x
        for _ in range(4):
            y = y @ x
        factor = (time.perf_counter() - start) / SMALL_KERNEL_REF_S
        if dense:
            start = time.perf_counter()
            big @ big
            factor = (factor + (time.perf_counter() - start) / DENSE_KERNEL_REF_S) / 2
        samples.append(factor)
    return statistics.median(samples)


def to_reference(seconds: float, slowdown: float) -> float:
    """Seconds on the reference host, given the slowdown measured beside them."""
    return seconds / slowdown


def run_op(op, tracer=None) -> tuple[float, str | None]:
    """Time one op, then judge its output with tracing off."""
    if tracer is not None:
        tracer.op = op.name
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising op counts as a failed op
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    on = tracer is not None and tracer.on
    if on:
        tracer.on = False
    try:
        problem = op.check(result)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        problem = f"output unreadable: {type(exc).__name__}: {exc}"
    if on:
        tracer.on = True
    return elapsed, problem


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Repeat full passes until the next one would overrun ``seconds``.

    Untraced, every pass is plain. Traced, plain and traced passes alternate,
    starting plain, and at least one of each is made.
    """
    import semiwalk
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(semiwalk)
            tracer.on = True
        times, scaled, problems = [], [], {}
        calibration = [calibrate(workload.dense)]
        for op in workload.ops:
            elapsed, problem = run_op(op, tracer if traced else None)
            calibration.append(calibrate(workload.dense))
            times.append(elapsed)
            # The host's speed during the op: the mean of the calibrations either side.
            scaled.append(to_reference(elapsed, (calibration[-2] + calibration[-1]) / 2))
            if problem:
                problems[op.name] = problem
        record = {"traced": traced, "times": times, "scaled": scaled,
                  "calibration": calibration, "problems": problems}
        if traced:
            tracer.on = False
            tracer.uninstall()
            record["spans"], record["counts"] = tracer.take()
        passes.append(record)
        spent = time.perf_counter() - start
        needed = 2 if tracer is not None else 1
        if len(passes) >= needed and spent + spent / len(passes) > seconds:
            return passes


def typical_op_seconds(passes: list[dict], key: str = "times") -> list[float]:
    """Each op's median time (``times``, or ``scaled`` to the reference host) over the passes.

    A pass's time is reported as the sum of these, and the slowest op as
    their largest: a stall on a shared host then shifts one sample of one
    op rather than a whole pass.
    """
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def layer_values(spec: dict, passes: list[dict], setup_spans: list[list]) -> dict[str, float]:
    """Per-layer metrics: times are medians over traced passes, counts come from the first."""
    traced = [p for p in passes if p["traced"]]
    per_pass = [{**spans.span_metrics(p["spans"]), **p["counts"]} for p in traced]
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if m["unit"] == "s":
            values[name] = statistics.median(d.get(name, 0.0) for d in per_pass)
        else:
            values[name] = per_pass[0].get(name, 0)
    plain_s = sum(typical_op_seconds([p for p in passes if not p["traced"]], "scaled"))
    traced_s = sum(typical_op_seconds(traced, "scaled"))
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    values["corpus.generate.s"] = spans.outermost_seconds(setup_spans, "corpus")
    return values


def environment(semiwalk, numpy) -> dict:
    """What was measured, and on what."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC),
        "semiwalk": semiwalk.__version__,
        "semiwalk_file": str(Path(semiwalk.__file__).resolve().relative_to(ROOT)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; an exported tree has none."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def _tree_digest(top: Path) -> str:
    """sha256 over the relative paths and contents of the Python sources under ``top``."""
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
