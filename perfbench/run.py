"""rktlab benchmark: cold `rktlab run` processes, pass by pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, seed 0

Run from the root of a source checkout (``src/rktlab`` and ``configs/``
must exist).  A *pass* runs each config of the workload once, each in a
fresh ``python`` process that imports ``rktlab.cli`` and calls
``main(["run", ...])``.  Only one process runs at a time.  Passes repeat
until ``--seconds`` is spent (at least MIN_PASSES).  Per pass:

    pass_s       sum over the pass of process wall time, spawn to exit
    solve_s      sum over the pass of time inside cli.main
    setup_s      sum over the pass of time from spawn until rktlab.cli is imported
    peak_rss_mb  largest per-process peak RSS in the pass (MiB)

After each process the benchmark times a fixed probe (speed.py) for half
of that process's wall time.  Each reported time is its mean over
the passes divided by the run's slowdown, the mean probe time over
``speed.REFERENCE_S``: seconds at the reference machine speed.  The
printed lines also give the times as measured.  Peak RSS is the median
over passes.

Every run goes through the correctness gate in gate.py; ``failed`` counts
the runs it rejected and ``fail_rate = failed / attempted``.

With ``--trace 1`` the command instead alternates untraced and traced
passes (tracer.py wraps the public functions of every rktlab module) and
reports the per-layer metrics of the traced passes, the set-up breakdown
from ``python -X importtime``, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with the per-pass samples, the probe times and the environment record is
written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import speed
from workloads import WORKLOADS, generated_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
MIN_TRACED_ROUNDS = 1  # untraced + traced pass pairs in a --trace 1 run
CHILD_TIMEOUT_S = 120
PROBE_SHARE = 0.5  # probe time after each process, as a share of that process's wall time

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TIMED = ("pass_s", "solve_s", "setup_s")  # end-to-end times, divided by the machine slowdown


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, configs: list[tuple[str, Path, bool]], work: Path):
        self.configs = configs  # (name, path, is shipped)
        self.work = work
        self.env = _child_env()
        self.references = {name: gate.load_reference(name) for name, _, shipped in configs if shipped}
        self.digests = {}  # config name -> CSV sha256 of its first good run
        self.verdicts = {}  # (config name, sha256) -> problems found by the reference check
        self.attempted = 0
        self.failures = []
        self.passes = 0
        self.probes = []  # seconds of each machine-speed probe, taken between processes

    def run_pass(self, trace: bool) -> dict:
        pass_dir = self.work / f"pass{self.passes}"
        self.passes += 1
        results = []
        for name, path, _ in self.configs:
            out = pass_dir / name
            result_file = pass_dir / f"{name}.result.json"
            out.mkdir(parents=True)
            cmd = [sys.executable, str(HERE / "child.py"), str(result_file), "1" if trace else "0",
                   "--", "run", "--config", str(path), "--out", str(out)]
            spawn = _now()
            with open(pass_dir / f"{name}.log", "wb") as log:
                try:
                    code = subprocess.run(cmd, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                          timeout=CHILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    code = "timeout"
            exited = _now()
            results.append((name, spawn, exited, code, result_file, out))
            # probe for a fixed share of the time the process took, so the
            # probes sample the machine's speed evenly over the run
            self.probes += speed.probe(max(1, math.ceil(PROBE_SHARE * (exited - spawn) / speed.REFERENCE_S)))
        sample = {"pass_s": 0.0, "solve_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0,
                  "procs": [], "layers": [], "spans": {}}
        for name, spawn, exited, code, result_file, out in results:
            problems = self._collect(name, code, result_file, out, sample, spawn, exited)
            self.attempted += 1
            if problems:
                self.failures.append({"pass": self.passes - 1, "config": name, "problems": problems[:10],
                                      "log_tail": (pass_dir / f"{name}.log").read_text()[-2000:]})
        shutil.rmtree(pass_dir)
        return sample

    def _collect(self, name, code, result_file, out, sample, spawn, exited) -> list[str]:
        """Add one run to the pass sample; return what the gate found wrong."""
        proc = {"config": name, "wall_s": exited - spawn}
        sample["procs"].append(proc)
        sample["pass_s"] += proc["wall_s"]
        try:
            res = json.loads(result_file.read_text())
        except (OSError, json.JSONDecodeError):
            return [f"exit code {code}, no result written"]
        proc["solve_s"] = res["main_end"] - res["main_start"]
        proc["setup_s"] = res["imported"] - spawn
        sample["solve_s"] += proc["solve_s"]
        sample["setup_s"] += proc["setup_s"]
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], res["peak_rss_kb"] / 1024.0)
        problems, summary, csv = gate.check_run(out, code)
        if "layers" in res:
            res["layers"]["cli.csv_rows"] = csv.read_bytes().count(b"\n") - 1 if csv else 0
            sample["layers"].append(res["layers"])
            sample["spans"][name] = res["spans"]
        if problems:
            return problems
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        if digest != self.digests.setdefault(name, digest):
            return [f"CSV bytes differ from an earlier run of {name} in this invocation"]
        if name not in self.references:
            return []
        if (name, digest) not in self.verdicts:
            self.verdicts[name, digest] = gate.compare_to_reference(self.references[name], summary, csv)
        return self.verdicts[name, digest]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _end_to_end(samples: list[dict], slowdown: float) -> dict:
    """Run-level end-to-end metrics from per-pass samples (as measured).

    A time is the mean over passes divided by the run's machine slowdown
    (mean probe time / ``speed.REFERENCE_S``), so it reads as seconds on a
    machine running at the reference speed.  Means, not medians: a core of
    the shared host flips between a fast and a slow state every fraction of
    a second, so a pass time is the fast time plus the share of the pass
    spent slow, and the mean is what divides by the mean probe slowdown.
    Peak RSS does not depend on speed and is the median over passes.
    """
    out = {k: statistics.fmean(s[k] for s in samples) / slowdown for k in TIMED}
    out["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in samples)
    return out


def _layer_metrics(layers: list[dict]) -> dict:
    """Per-layer metrics of one traced pass: each config's tracer output,
    summed (``max_dim`` is a maximum), then the derived ratio."""
    out = {}
    for key in layers[0]:
        values = [d[key] for d in layers]
        out[key] = max(values) if key.endswith(".max_dim") else sum(values)
    calls = out["hardy.rkt_functional.calls"]
    out["hardy.rules_per_kernel_point"] = out["hardy.rules_under_rkt_functional"] / calls if calls else 0.0
    return out


def _import_times(env: dict, repeats: int = 3) -> tuple[float, float]:
    """Median (rktlab import, scipy part of it) from ``python -X importtime``."""
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rktlab.cli"],
                              env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        total, scipy = _parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def _parse_importtime(text: str) -> tuple[float, float]:
    """Seconds to import the rktlab package tree, and the share of it spent
    in the outermost scipy imports (scipy modules nested in another scipy
    import are already counted by their parent)."""
    entries = []  # (nesting level, module, cumulative us) in output order
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        stripped = name[1:]
        level = (len(stripped) - len(stripped.lstrip(" "))) // 2
        entries.append((level, stripped.strip(), int(cum)))
    total = sum(c for lvl, n, c in entries if lvl == 0 and n.split(".")[0] == "rktlab")
    scipy = 0
    stack = []  # (level, inside scipy) of the enclosing imports, outermost first
    for level, module, cum in reversed(entries):  # parents are printed after children
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = any(s for _, s in stack)
        is_scipy = module.split(".")[0] == "scipy"
        if is_scipy and not inside:
            scipy += cum
        stack.append((level, inside or is_scipy))
    return total / 1e6, scipy / 1e6


def _environment(env: dict, seed: int) -> dict:
    probe = (
        "import json, platform, numpy, scipy\n"
        "from rktlab import _kernels\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'backend': _kernels.ACTIVE_BACKEND,"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
    )
    rec = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                    text=True, timeout=CHILD_TIMEOUT_S, check=True).stdout)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rktlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")}
    rec.update({"git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed,
                "nproc": len(os.sched_getaffinity(0)), "blas_threads_env": threads})
    return rec


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    missing = [p for p in [ROOT / "src" / "rktlab" / "cli.py"]
               + [ROOT / "configs" / f"{s}.json" for n in names for s in WORKLOADS[n][0]] if not p.is_file()]
    if missing:
        print(f"error: not a rktlab source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    for name in names:
        work = ROOT / ".perfbench" / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        (work / "configs").mkdir(parents=True)
        try:
            _bench(name, args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def _bench(workload: str, args, work: Path) -> None:
    shipped, _ = WORKLOADS[workload]
    generated = work / "configs" / f"generated-{workload}.json"
    generated.write_text(json.dumps(generated_config(workload, args.seed), indent=1) + "\n")
    configs = [(s, ROOT / "configs" / f"{s}.json", True) for s in shipped]
    configs.append(("generated", generated, False))
    runner = Runner(configs, work)
    env_record = _environment(runner.env, args.seed)
    print(f"rktlab benchmark: workload={workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} configs={[c[0] for c in configs]}")
    print("environment: " + json.dumps(env_record, sort_keys=True))

    samples, traced, per_pass = [], [], []
    if args.trace:
        import_s, scipy_s = _import_times(runner.env)
    speed.probe(3)  # warm up the probe: first-call costs, caches
    start = _now()
    while True:
        samples.append(runner.run_pass(trace=False))
        if args.trace:
            traced.append(runner.run_pass(trace=True))
        rounds = len(samples)
        spent = _now() - start
        if rounds >= (MIN_TRACED_ROUNDS if args.trace else MIN_PASSES) and spent + spent / rounds > args.seconds:
            break

    slowdown = statistics.fmean(runner.probes) / speed.REFERENCE_S
    e2e = _end_to_end(samples, slowdown)
    failed = len(runner.failures)
    print(f"{workload:22s} machine speed: probe mean {statistics.fmean(runner.probes):.5f} s over "
          f"{len(runner.probes)} probes, slowdown {slowdown:.4f} against {speed.REFERENCE_S} s")
    for k, unit in END_TO_END.items():
        vals = sorted(s[k] for s in samples)
        how = "mean / slowdown" if k in TIMED else "median"
        print(f"{workload:22s} {k:12s} {e2e[k]:10.4f} {unit:3s} ({how} of n={len(vals)} passes; "
              f"as measured: mean {statistics.fmean(vals):.4f}, min {vals[0]:.4f}, max {vals[-1]:.4f})")
    print(f"{workload:22s} {'fail_rate':12s} {failed}/{runner.attempted} = "
          f"{failed / runner.attempted:.4f} ratio")
    for f in runner.failures:
        print(f"FAILED pass {f['pass']} {f['config']}: {'; '.join(f['problems'])}")

    if args.trace:
        per_pass = [_layer_metrics(t["layers"]) for t in traced]
        metrics = {k: statistics.median([p[k] for p in per_pass]) for k in per_pass[0]}
        metrics["setup.import_s"], metrics["setup.scipy_import_s"] = import_s, scipy_s
        metrics["trace.solve_s"] = _end_to_end(traced, slowdown)["solve_s"]
        metrics["trace.overhead_s"] = metrics["trace.solve_s"] - e2e["solve_s"]
        out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
        for k, m in out_metrics.items():
            print(f"{workload:22s} {k:42s} {m['value']:14.6g} {m['unit']}")
        quadrature = metrics["numerics.circle_quadrature.self_s"] + metrics["numerics.gauss_legendre_panel.self_s"]
        sinc = metrics["numerics.eigen_hermitian.incl_s"] + metrics["kernels.pw_rkt_grid.self_s"]
        traced_solve = statistics.fmean(t["solve_s"] for t in traced)  # as measured, like the layer times
        print(f"{workload:22s} traced solve_s shares: quadrature build {quadrature / traced_solve:.3f}, "
              f"eigensolve + sinc grid {sinc / traced_solve:.3f}; "
              f"untraced setup_s / solve_s {e2e['setup_s'] / e2e['solve_s']:.3f}")
    else:
        out_metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env_record, "configs": [c[0] for c in configs],
              "generated_config": json.loads(generated.read_text()),
              "probes_s": runner.probes, "slowdown": slowdown,
              "passes": [{k: s[k] for k in END_TO_END} | {"procs": s["procs"]} for s in samples],
              "traced_passes": [p | {"solve_s": t["solve_s"]} for p, t in zip(per_pass, traced)],
              "attempted": runner.attempted, "failures": runner.failures, "metrics": out_metrics}
    stem = results_dir / f"{workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:  # spans of the last traced pass: config -> [name, start, end, parent index]
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(traced[-1]["spans"]) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": out_metrics}))


if __name__ == "__main__":
    sys.exit(main())
