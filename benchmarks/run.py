"""Benchmark of the ``ebdi`` CLI on seeded synthetic corpora.

    python3 benchmarks/run.py --workload indicators-all --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` times whole workload iterations, each a fixed sequence of
``python -m ebdi.cli`` invocations in fresh interpreters, started one at a
time by this single process (closed loop, one client) until ``--seconds``
have passed. ``--trace 1`` runs the workload in one fresh interpreter with
the tracer of ``tracing.py`` and reports per-layer numbers instead. Both
modes check every artifact (``workloads.py``) and count any failed
invocation or failed check as a failed iteration, whose time is not used.

A child's peak RSS starts at the high-water RSS of the process that spawned
it, so this process generates the inputs in a child and loads the corpus
for the checks only after the last measured child has exited.

Human-readable lines go to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything is written under ``.bench_work/`` of the checkout, and the code
measured is the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
IMPORTTIME_REPEATS = 3
MIN_ITERATIONS = 3
INVOCATION_TIMEOUT_S = 150


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # timed children load current .pyc files
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, its own peak RSS in KiB).

    ``os.wait4`` gives the rusage of exactly this child; RUSAGE_CHILDREN would
    report the largest child reaped so far instead.
    """
    with log.open("ab") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=sink, stderr=sink)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _must(code: int, what: str, log: Path) -> None:
    if code:
        raise RuntimeError(f"{what} exited with {code}; see {log}")


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", p25 {q1:.4g}, p75 {q3:.4g}"


def timed_run(workload, inputs: Path, work: Path, seconds: float) -> dict:
    """Closed loop of whole iterations, each preceded by a set-up probe."""
    log = work / "cli.log"
    python = sys.executable
    run = {"setups": [], "walls": [], "rss": [], "codes": [], "outs": []}
    deadline = time.perf_counter() + seconds

    def typical() -> float:
        return statistics.median(run["setups"]) + statistics.median(run["walls"]) if run["walls"] else 0.0

    # start no iteration that would likely end after the deadline
    while len(run["walls"]) < MIN_ITERATIONS or time.perf_counter() + typical() < deadline:
        # a set-up probe before each iteration spreads its samples over the whole run
        setup_wall, code, _ = spawn([python, "-c", "import ebdi.cli"], log)
        _must(code, "'import ebdi.cli'", log)
        run["setups"].append(setup_wall)
        out = work / "out" / str(len(run["walls"]))
        start = time.perf_counter()
        results = [spawn([python, "-m", "ebdi.cli", *argv], log)
                   for argv in workload.invocations(inputs, out)]
        run["walls"].append(time.perf_counter() - start)
        run["rss"].append(max(peak for _, _, peak in results))
        run["codes"].append([code for _, code, _ in results])
        run["outs"].append(out)
    return run


def end_to_end_metrics(run: dict, passed: list[bool], input_rows: int) -> dict:
    """Metrics of the passing iterations only; with none, only ``setup_s``."""
    metrics = {}
    good = [i for i, ok in enumerate(passed) if ok]
    if good:
        walls = [run["walls"][i] for i in good]
        wall_s = statistics.median(walls)
        invocations = len(good) * len(run["codes"][0])
        metrics = {
            "wall_s": (wall_s, "s", f"median of n={len(good)} passing iterations{_quartiles(walls)}"),
            "rows_per_s": (input_rows / wall_s, "1/s", f"{input_rows} input rows / wall_s"),
            "peak_rss_mb": (max(run["rss"][i] for i in good) / 1024, "MB",
                            f"highest own peak RSS of n={invocations} invocations"),
        }
    metrics["setup_s"] = (statistics.median(run["setups"]), "s",
                          f"median of n={len(run['setups'])} fresh 'import ebdi.cli'{_quartiles(run['setups'])}")
    return metrics


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(cost of ``import ebdi.cli``, cumulative time of ``ebdi.stats``) from ``-X importtime``.

    ``import ebdi.cli`` also imports the package ``ebdi``, and with it all
    that ``ebdi/__init__.py`` pulls in. Its line may be nested under the
    ``ebdi.cli`` line or stand at top level before it, so the cost of the
    statement is the sum of the top-level (not nested) ``ebdi*`` lines.
    ``ebdi.stats`` may be nested anywhere; if it is not imported, its time is 0.
    """
    cli = stats = 0.0
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name, cumulative = parts[2][1:], int(parts[1]) / 1e6  # nesting shows as extra indent
        if name.split(".")[0] == "ebdi":
            cli += cumulative
        if name.strip() == "ebdi.stats":
            stats = cumulative
    return cli, stats


def _import_times(log: Path) -> tuple[float, float]:
    """Medians of ``parse_importtime`` over fresh interpreters."""
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ebdi.cli"],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S, check=False)
        if done.returncode:
            log.write_text(done.stderr)
        _must(done.returncode, "'import ebdi.cli'", log)
        samples.append(parse_importtime(done.stderr))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def traced_run(workload, inputs: Path, work: Path, seconds: float) -> dict:
    """The in-process traced run of ``tracing.py`` in a fresh interpreter."""
    log = work / "cli.log"
    import_times = _import_times(log)
    result_path = work / "trace.json"
    _, code, _ = spawn([sys.executable, str(HERE / "tracing.py"), "--workload", workload.name,
                        "--inputs", str(inputs), "--out", str(work / "out"),
                        "--seconds", str(seconds), "--result", str(result_path)], log)
    _must(code, "the traced run", log)
    run = json.loads(result_path.read_text())
    with result_path.with_suffix(".spans.jsonl").open(encoding="utf-8") as handle:
        run["spans"] = [json.loads(line) for line in handle]
    run["import_times"] = import_times
    run["outs"] = [Path(it["out"]) for it in run["iterations"]]
    run["codes"] = [it["codes"] for it in run["iterations"]]
    return run


def per_layer_metrics(run: dict, corpus) -> dict:
    from tracing import layer_metrics

    bytes_written = sum(path.stat().st_size for path in run["outs"][0].rglob("*") if path.is_file())
    n = sum(1 for it in run["iterations"] if it["mode"] == "traced")
    metrics = {
        name: (value, unit, f"median of n={n} traced iterations" if unit == "s" else "")
        for name, (value, unit) in layer_metrics(
            run["spans"], run["iterations"], run["rss_after_first_load_kb"], corpus, bytes_written).items()
    }
    for name in ("corpus.rows_parsed", "metrics.edge_visits", "metrics.edge_visits_per_edge"):
        metrics[name] = metrics[name][:2] + ("computed from the generated inputs",)
    note = f"median of n={IMPORTTIME_REPEATS} -X importtime"
    metrics["cli.import_s"] = (run["import_times"][0], "s", f"{note}, top-level ebdi* lines")
    metrics["stats.import_s"] = (run["import_times"][1], "s", f"{note}, cumulative")
    return metrics


def check(workload, corpus, seed: int, run: dict, inputs: Path) -> tuple[list[bool], list[str]]:
    """Per-iteration pass/fail: exit codes, byte-identical artifacts, oracle checks."""
    from workloads import artifact_digests

    problems = []  # each of these fails every iteration
    on_disk = json.loads((inputs / "manifest.json").read_text())
    if on_disk["files"] != corpus.manifest["files"]:
        problems.append("the inputs on disk differ from the corpus the checks use")
    ok = [not any(codes) for codes in run["codes"]]
    digests = [artifact_digests(out) if good else None for out, good in zip(run["outs"], ok)]
    reference = next((d for d in digests if d is not None), None)
    if reference is not None:
        problems += workload.verify(corpus, run["outs"][digests.index(reference)], seed)
    passed = [good and d == reference and not problems for good, d in zip(ok, digests)]
    if any(d is not None and d != reference for d in digests):
        problems.append("artifacts differ between iterations")
    problems += [f"iteration {i}: exit codes {codes}" for i, codes in enumerate(run["codes"]) if any(codes)]
    return passed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from gen_corpus import params_to_args, render
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "cli.log"
    inputs = work / "inputs"
    _, code, _ = spawn([sys.executable, str(HERE / "gen_corpus.py"), "--seed", str(seed),
                        "--out", str(inputs), *params_to_args(workload.params)], log)
    _must(code, "the input generator", log)
    # untimed: compiles any changed module of src/ebdi, so timed children load current .pyc files
    _, code, _ = spawn([sys.executable, "-c", "import ebdi.cli"], log)
    _must(code, "'import ebdi.cli'", log)

    run = (traced_run if trace else timed_run)(workload, inputs, work, seconds)
    corpus, _ = render(workload.params, seed)  # only now: this process stays small while children run
    passed, problems = check(workload, corpus, seed, run, inputs)
    if trace:
        metrics = per_layer_metrics(run, corpus)
    else:
        metrics = end_to_end_metrics(run, passed, workload.input_rows(corpus))
    shutil.rmtree(work / "out", ignore_errors=True)
    attempted, failed = len(passed), passed.count(False)

    print(f"workload {name} (seed {seed}): {workload.why}")
    print(f"  inputs: {workload.input_rows(corpus)} rows of {', '.join(workload.input_files)}; "
          f"closed loop, one client, iterations back to back")
    for metric, (value, unit, note) in metrics.items():
        print(f"  {metric:32} {value:14.6g} {unit:6} {note}")
    print(f"  {'failed_ratio':32} {failed / attempted:14.6g} {'ratio':6} {failed}/{attempted} iterations")
    print("  wait time: none; nothing runs concurrently and nothing queues")
    for problem in problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit, _) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process, so none inherits another's memory high-water mark."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/ebdi/cli.py", "tests/oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from an ebdi checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.workload in WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
