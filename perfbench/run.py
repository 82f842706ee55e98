"""levicav benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/levicav``. Workloads are
named in BENCHMARK.json and defined in workloads.py. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment and the raw per-run figures.

``--trace 0`` reports the end-to-end metrics, measured with nothing in the
program rebound. ``--trace 1`` is a separate run that reports the
per-layer metrics: spans (spans.py), the import breakdown of
``python -X importtime``, the size of ``src/levicav`` and the overhead of
tracing itself.

Every child process gets PYTHONPATH=<checkout>/src and one BLAS/OpenMP
thread. Scratch files go to ``.perfbench_run/`` in the checkout and are
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "swap-map")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4    # set-up-only processes before and again after the measured one
IMPORT_SAMPLES = 3  # -X importtime children per traced run, medians reported
DEADLINE_S = 170.0  # a run ends within this, result or not

IMPORT_PROBE = ("import sys; sys.stderr.write('perfbench-mark\\n'); "
                "import levicav.cli, resource; "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,  # no repository above the checkout
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_files() -> list[Path]:
    return sorted((ROOT / "src" / "levicav").rglob("*.py"))


def environment() -> dict:
    import yaml
    lines = sum(path.read_bytes().count(b"\n") for path in source_files())
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "PyYAML": metadata.version("PyYAML"),
            "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "src.lines": lines}


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("run exceeded its deadline")
    return left


def start_worker(args, tmp: Path, env: dict, setup_only: bool):
    """Spawn a worker; return it and the seconds from spawn to READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker set-up failed (exit {proc.wait()})")
    return proc, setup_s


def probe_setups(args, tmp: Path, env: dict, deadline: float) -> list[float]:
    """Set-up seconds of SETUP_PROBES processes that only set up."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc, setup_s = start_worker(args, tmp, env, setup_only=True)
        proc.communicate(timeout=remaining(deadline))
        samples.append(setup_s)
    return samples


def finish_worker(proc, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def _import_tree(stderr: str) -> list:
    """Roots of the -X importtime tree after the probe's mark, as
    (name, self_s, cumulative_s, children) tuples."""
    stack: list = []
    for line in stderr.split("perfbench-mark\n", 1)[1].splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop()[1])
        stack.append((depth, (field.strip(), int(self_us) * 1e-6,
                              int(cum_us) * 1e-6, children)))
    return [node for _, node in stack]


def _outermost(nodes, package: str) -> float:
    """Cumulative seconds of the outermost imports of ``package``."""
    total = 0.0
    for name, _, cum, children in nodes:
        if name == package or name.startswith(package + "."):
            total += cum
        else:
            total += _outermost(children, package)
    return total


def _self_of(nodes, package: str) -> float:
    return sum((s if name == package or name.startswith(package + ".") else 0.0)
               + _self_of(children, package) for name, s, _, children in nodes)


def import_metrics(env: dict, deadline: float) -> dict:
    samples: dict[str, list] = {}
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=remaining(deadline))
        start_s = time.perf_counter() - t0
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=remaining(deadline))
        roots = _import_tree(proc.stderr)
        values = {
            "import.python_start_s": start_s,
            "import.total_s": sum(cum for name, _, cum, _ in roots
                                  if name.split(".")[0] == "levicav"),
            "import.numpy_s": _outermost(roots, "numpy"),
            "import.scipy_s": _outermost(roots, "scipy"),
            "import.yaml_s": _outermost(roots, "yaml"),
            "import.levicav_self_s": _self_of(roots, "levicav"),
            "import.rss_mb": int(proc.stdout.split()[-1]) / 1024.0,
        }
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


def unit(name: str) -> str:
    if name.endswith(".calls") or name.startswith("pulse.grid_"):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac") or name.startswith("op_over_ref"):
        return "ratio"
    if name == "src.lines":
        return "lines"
    return "s"


def run(args, env_record: dict) -> tuple[dict, dict]:
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    tmp = ROOT / ".perfbench_run" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src/levicav", "perfbench"],
                       cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=remaining(deadline))
        setups = [] if args.trace else probe_setups(args, tmp, env, deadline)
        proc, setup_s = start_worker(args, tmp, env, setup_only=False)
        setups.append(setup_s)
        result = finish_worker(proc, deadline)
        if args.trace:
            metrics = {f"{span}.{field}": value
                       for span, (calls, self_s) in result["spans"].items()
                       for field, value in (("calls", calls), ("self_s", self_s))}
            metrics.update(result["counts"])
            metrics.update(import_metrics(env, deadline))
            metrics["src.lines"] = env_record["src.lines"]
            for key in ("bench.trace_overhead_frac", "bench.span_cover_frac"):
                metrics[key] = result[key]
        else:
            setups += probe_setups(args, tmp, env, deadline)
            metrics = {"setup_s": statistics.median(setups),
                       "op_over_ref.p50": result["op_over_ref.p50"],
                       "peak_rss_mb": result["peak_rss_mb"]}
            result["setup_samples"] = setups
        return metrics, result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_run").rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "levicav" / "__init__.py").is_file():
        print(f"error: no levicav sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_record = environment()
    try:
        metrics, result = run(args, env_record)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": env_record, "result": result}))
    correct = result["mismatches"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": unit(k)}
                                  for k, v in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
