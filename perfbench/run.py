"""Benchmark of the quadlcm CLI: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the code under `src/`.
Each command of a workload is a fresh process started by `launch.py`, as a
user's `quadlcm ...` would be, with its standard output in a file.  The
seed draws the `c` values; the count of `c` values is fixed, so the work
barely changes with the seed.  Every output is checked by `check.py`, which
recomputes each claim with the standard library, outside the timed region.

With `--trace 0` the workload is repeated for `--seconds` seconds and the
end-to-end metrics of BENCHMARK.json are reported as medians over the
repetitions, `setup_s` over every launch plus a few launches that stop
after argument parsing.  Repetitions are short (one to two seconds) so a
run holds many of them: on a shared host single repetitions vary by 20%
or more.  The times are scaled to the reference host's speed by a
calibration loop timed between launches (see `measure`).  With `--trace 1`
the workload runs alternately untraced and under `tracer.py` and the
per-layer metrics are reported.
`--workload all` runs every workload and prints every metric by name and
unit.  The last line of standard output is one JSON object; a result
record with the environment and the sha256 of every output is written to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1  # draws the c values written in the workload comments
SETUP_PROBES = 5
# calibrate()'s median time on the reference host of perfbench/baseline.json, unloaded
CALIBRATION_REF_S = 0.12
TRACE_PAIRS = 3
COMMAND_TIMEOUT_S = 150


def _sweep(c_min: int, n_max: int, policy: str, fmt: str, parallelism: int) -> list[str]:
    return ["sweep", "--c-min", str(c_min), "--c-max", str(c_min + 4), "--n-min", "1",
            "--n-max", str(n_max), "--m-policy", policy, "--format", fmt,
            "--parallelism", str(parallelism)]


# Each workload maps the seed's offset (0, 1 or 2) to its commands.  The
# reasons for each one are the `why` lines of BENCHMARK.json.
WORKLOADS = {
    # c = 1..5, every m for n <= 40: 4100 small triples through the pool
    "sweep_grid": lambda off: [_sweep(1 + off, 40, "all", "csv", 2)],
    # c = 1..5, m = ceil(n/2) for n <= 260: 1300 triples of big integers, no pool
    "sweep_wide": lambda off: [_sweep(1 + off, 260, "half_ceil", "json", 1)],
    # c = 3, one certificate per process at k = 10, 15, 25
    "bezout_ladder": lambda off: [["bezout", "--c", str(3 + off), "--k", str(k)] for k in (10, 15, 25)],
    # c = 1, every (m, n) with n <= 70: 2485 rows
    "table_ratios": lambda off: [["table", "--c", str(1 + off), "--n-max", "70"]],
}


def workload_commands(name: str, seed: int) -> list[list[str]]:
    return WORKLOADS[name](random.Random(seed).randrange(3))


def single_process(argv: list[str]) -> list[str]:
    """The same command with the sweep pool off, so all spans land in one process."""
    if "--parallelism" not in argv:
        return argv
    i = argv.index("--parallelism")
    return argv[: i + 1] + ["1"] + argv[i + 2:]


@dataclass
class Launch:
    argv: list[str]
    wall_s: float
    cpu_s: float  # user + system of the command and its pool workers
    maxrss_kib: int  # the largest RSS of the command or any of its workers
    setup_s: float | None
    code: int
    out: Path


def launch(mode: str, argv: list[str], out: Path, trace: Path | None = None) -> Launch:
    """Run one command in a fresh process and wait for it and its workers."""
    stamp = WORK / "stamp"
    peak = WORK / "stamp.rss"
    stamp.unlink(missing_ok=True)
    peak.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), mode, str(stamp), str(trace or "-"), *argv]
    with open(out, "wb") as stdout, open(WORK / "stderr.txt", "wb") as stderr:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=ROOT, start_new_session=True)
        # a hung command is killed with its whole process group
        killer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    # os.wait4 reaped the child, so tell Popen it is done
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = (WORK / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"command {' '.join(argv)} exited with {code}:\n{tail}", file=sys.stderr)
    setup = float(stamp.read_text()) - started if stamp.exists() else None
    # wait4's maximum also holds this process's size at the fork, so it is
    # only the fallback for a command killed before it could report
    maxrss = int(peak.read_text()) if peak.exists() else usage.ru_maxrss
    return Launch(argv, wall, usage.ru_utime + usage.ru_stime, maxrss, setup, code, out)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Verdicts:
    """Checker verdicts per output; identical bytes get the verdict once."""

    def __init__(self) -> None:
        self.by_sha: dict[str, tuple[int, list]] = {}
        self.attempted = 0
        self.failed = 0
        self.shas: dict[str, list[str]] = {}  # command -> sha256 of each run's output
        self.examples: list[str] = []

    def add(self, run: Launch) -> int:
        """Record one command's output; returns the number of items it should hold."""
        key = " ".join(run.argv)
        sha = sha256(run.out)
        self.shas.setdefault(key, []).append(sha)
        if sha not in self.by_sha:
            self.by_sha[sha] = check.check(run.argv, str(run.out))
        items, failures = self.by_sha[sha]
        failed = items if run.code != 0 else len(failures)
        self.attempted += items
        self.failed += failed
        if failed and len(self.examples) < 5:
            self.examples.append(f"{key}: exit {run.code}, {failures[:3]}")
        return items


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quadlcm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def calibrate() -> float:
    """Wall time of a fixed loop of interpreter and big-integer work, in seconds.

    A shared host's speed drifts by 20% or more over seconds to minutes, and
    a command's wall and CPU time drift with it.  This loop, timed in the
    benchmark's own process right before and after each launch, tells how
    fast the host ran at that moment.  It calls no quadlcm code, so a change
    to the program cannot move it.
    """
    t0 = time.perf_counter()
    x, table = 1, {}
    for i in range(200_000):
        x = (x * 3 + i) % 1_000_000_007
        table[i & 1023] = x
    y = 7 ** 20_000
    for _ in range(100):
        y = y * y % (10 ** 6000 + 7)
    return time.perf_counter() - t0


def measure(name: str, seed: int, seconds: int, verdicts: Verdicts) -> tuple[dict, dict]:
    """Untraced repetitions for `seconds`; returns (metrics, raw figures).

    Every round of launches (a set-up probe, or one repetition of the
    workload) is followed by calibrate().  The times of a round are scaled
    by CALIBRATION_REF_S over the mean of the calibrations on either side
    of it, which gives them at the reference host's speed; the metrics are
    medians of the scaled times.  The unscaled medians are in `raw`.
    """
    argvs = workload_commands(name, seed)
    launch("setup", argvs[0], WORK / "probe.out")  # warm-up: byte-compiles the package
    calibrations = [calibrate()]
    rounds: list[list[Launch]] = []
    for i in range(SETUP_PROBES):
        rounds.append([launch("setup", argvs[i % len(argvs)], WORK / "probe.out")])
        calibrations.append(calibrate())
    begun = time.perf_counter()
    while True:
        rep = [launch("run", argv, WORK / f"out{j}") for j, argv in enumerate(argvs)]
        for run in rep:
            verdicts.add(run)
        rounds.append(rep)
        calibrations.append(calibrate())
        rep_s = sum(run.wall_s for run in rep)
        if time.perf_counter() - begun + rep_s > seconds:
            break
    scales = [2 * CALIBRATION_REF_S / (before + after)
              for before, after in zip(calibrations, calibrations[1:])]
    reps, rep_scales = rounds[SETUP_PROBES:], scales[SETUP_PROBES:]
    launches = [run for rep in reps for run in rep]
    setups = [(run.setup_s, scale) for rnd, scale in zip(rounds, scales) for run in rnd
              if run.setup_s is not None]
    walls = [sum(run.wall_s for run in rep) for rep in reps]
    cpus = [sum(run.cpu_s for run in rep) for rep in reps]
    metrics = {
        "wall_s": statistics.median(w * s for w, s in zip(walls, rep_scales)),
        "setup_s": statistics.median(t * s for t, s in setups),
        "cpu_s": statistics.median(c * s for c, s in zip(cpus, rep_scales)),
        "peak_rss_mib": max(run.maxrss_kib for run in launches) / 1024,
    }
    raw = {"reps": len(reps), "wall_s": walls, "cpu_s": cpus, "setup_s": [t for t, _ in setups],
           "calibration_s": calibrations, "unscaled_median_wall_s": statistics.median(walls),
           "unscaled_median_cpu_s": statistics.median(cpus),
           "unscaled_median_setup_s": statistics.median(t for t, _ in setups)}
    for j, argv in enumerate(argvs):
        if argv[0] == "bezout":
            raw[f"cert_s.k{argv[-1]}"] = statistics.median(
                rep[j].wall_s * s for rep, s in zip(reps, rep_scales))
    return metrics, raw


def trace(name: str, seed: int, verdicts: Verdicts) -> tuple[dict, dict]:
    """Alternate untraced and traced runs of the workload, each command in one process.

    Spans and counts come from the first traced run; trace_overhead is the
    median traced wall time over the median untraced one.
    """
    argvs = [single_process(argv) for argv in workload_commands(name, seed)]
    launch("setup", argvs[0], WORK / "probe.out")  # warm-up: byte-compiles the package
    plain_walls, traced_walls = [], []
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    items = bytes_out = 0
    for pair in range(TRACE_PAIRS):
        plain = [launch("run", argv, WORK / f"out{j}") for j, argv in enumerate(argvs)]
        for run in plain:
            verdicts.add(run)
        plain_walls.append(sum(run.wall_s for run in plain))
        traced_wall = 0.0
        for j, argv in enumerate(argvs):
            summary = WORK / f"trace{j}.json"
            run = launch("trace", argv, WORK / f"out{j}", summary)
            run_items = verdicts.add(run)
            traced_wall += run.wall_s
            if pair:
                continue
            items += run_items
            bytes_out += run.out.stat().st_size
            doc = json.loads(summary.read_text()) if summary.exists() else {"spans": {}, "counts": {}}
            for key, span in doc["spans"].items():
                acc = spans.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for field in acc:
                    acc[field] += span[field]
            for key, value in doc["counts"].items():
                counts[key] = counts.get(key, 0) + value
        traced_walls.append(traced_wall)
    certs = sum(1 for argv in argvs if argv[0] == "bezout")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics = layer_metrics(spans, counts, items, certs, bytes_out, overhead)
    raw = {"commands": [" ".join(a) for a in argvs], "spans": spans, "counts": counts,
           "untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}
    return metrics, raw


def layer_metrics(spans: dict, counts: dict, items: int, certs: int, bytes_out: int,
                  overhead: float) -> dict:
    def secs(key):
        return spans.get(key, {}).get("s", 0.0)

    def calls(key):
        return spans.get(key, {}).get("calls", 0)

    def per(count, base):
        return count / base if base else 0.0

    consts = ("bounds.factorial_bound_const", "bounds.exp_bound_const", "bounds.frontier_bound_const")
    return {
        "items": items,
        "certs": certs,
        "cli.self_s": spans.get("cli.main", {}).get("self_s", 0.0),
        "cli.bytes_out": bytes_out,
        "cli.fmt_log.calls": calls("cli.fmt_log"),
        "cli.fmt_log.s": secs("cli.fmt_log"),
        "bounds.bound_report.s": secs("bounds.bound_report"),
        "bounds.consts.s": sum(secs(k) for k in consts),
        "bounds.consts.calls_per_item": per(sum(calls(k) for k in consts), items),
        "bounds.lcm_range.s": secs("bounds.lcm_range"),
        "bounds.lcm_range.calls_per_item": per(calls("bounds.lcm_range"), items),
        "bounds.verify_divisor.s": secs("bounds.verify_divisor"),
        "bounds.rational_divisor.s": secs("bounds.rational_divisor"),
        "bounds.log_factorial.s": secs("bounds.log_factorial"),
        "ring.shifted_product.s": secs("ring.shifted_product"),
        "ring.shifted_product.calls_per_item": per(calls("ring.shifted_product"), items),
        "ring.divide_exact.s": secs("ring.divide_exact"),
        "ring.quadint_mul.calls": counts.get("ring.quadint_mul", 0),
        "ring.quadrat_mul.calls": counts.get("ring.quadrat_mul", 0),
        "poly.quadpoly_mul.calls": counts.get("poly.quadpoly_mul", 0),
        "poly.bezout_poly.s": secs("poly.bezout_poly"),
        "poly.bezout_poly_interp.s": secs("poly.bezout_poly_interp"),
        "poly.bezout_pair.s": secs("poly.bezout_pair"),
        "poly.bezout_pair.calls": calls("poly.bezout_pair"),
        "poly.shift_product_poly.calls_per_cert": per(calls("poly.shift_product_poly"), certs),
        "poly.certificate_verify.calls_per_cert": per(calls("poly.certificate_verify"), certs),
        "poly.newton_basis.s": secs("poly.newton_basis"),
        "trace_overhead": overhead,
    }


def run_workload(name: str, seed: int, seconds: int, traced: bool, spec: dict, env: dict) -> dict:
    verdicts = Verdicts()
    if traced:
        values, raw = trace(name, seed, verdicts)
        wanted = spec["per_layer"]
        if any(single_process(argv) != argv for argv in workload_commands(name, seed)):
            print(f"{name}: traced at --parallelism 1, so every span lands in one process; "
                  "the pool's cost is in the untraced cpu_s and wall_s")
    else:
        values, raw = measure(name, seed, seconds, verdicts)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": env, "commands": [" ".join(a) for a in workload_commands(name, seed)],
        "failed_frac": verdicts.failed / verdicts.attempted,
        "output_sha256": verdicts.shas, "failure_examples": verdicts.examples,
        "raw": raw, "result": result,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    for command, shas in verdicts.shas.items():
        print(f"{name}: sha256 {sorted(set(shas))} for `quadlcm {command}`")
    for example in verdicts.examples:
        print(f"{name}: FAILED {example}")
    for key, metric in metrics.items():
        print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
    for key, value in raw.items():
        if key.startswith("cert_s."):
            print(f"{name}: {key} = {value:.6g} s (median of {raw['reps']})")
        if key.startswith("unscaled_"):
            print(f"{name}: {key} = {value:.6g} s (not scaled to the reference host's speed)")
    print(f"{name}: failed_frac = {record['failed_frac']:.6g} ({verdicts.failed} of {verdicts.attempted} items)")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "quadlcm" / "cli.py").is_file():
        print(f"no quadlcm sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec, env)
               for name in names}
    for scratch in WORK.iterdir():
        if scratch.is_file():
            scratch.unlink()
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
