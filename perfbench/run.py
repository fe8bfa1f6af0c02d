"""Seeded benchmark for ifk.

    python3 perfbench/run.py --workload integrate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --curve

Run from the repository root; the harness imports the library from
``src/`` and starts ``python -m ifk.cli`` with ``src/`` on PYTHONPATH.
Load is a closed loop with one client: one CLI process at a time from
this single-threaded process.

A run builds the workload's inputs from the seed, then repeats passes
(the fixed CLI invocation list, then the same inputs through the
library, twice) until ``--seconds`` have passed, at least three times.  Every
call is timed between two runs of a calibration loop and scaled to the
reference CPU speed (see ``spans.py``); wall_s and lib_wall_s sum each
call's median over the passes, cmd_p50_ms is the median of every CLI
invocation of the run.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` makes a separate traced run and prints the per-layer ones.

Every answer is checked against ``oracle.py``.  ``failed`` counts every
failed operation, including inputs that expose known defects;
``correct`` is false when any other operation fails.  The last stdout
line is the result object; the line before it, and
``perfbench/_run/BENCH_*.json``, hold the run's context and raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import REFERENCE_CHILD, REFERENCE_CHILD_S, NullTracer, Tracer, calibrate, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_run"
SETUP_REPS = 5
MIN_PASSES = 3
LIB_REPEATS = 2  # library passes per CLI pass: library calls are cheap and noisier
CLI_TIMEOUT_S = 60  # a run must end within 180 s
STARTUP_SAMPLES = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("integrate", "entail", "materialize"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--curve", action="store_true", help="one-shot baseline curve instead")
    args = parser.parse_args(argv)
    if not (SRC / "ifk" / "cli.py").is_file():
        print(f"no ifk sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not args.curve and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.curve:
        import curve

        return curve.main(WORK)
    return Bench(args).run()


# ---------------------------------------------------------------------------
# CLI invocations

class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def invoke(args: list[str], env: dict) -> dict:
    """One ``python`` child, reaped with wait4 for its own max-RSS."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CLI_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except _Timeout:
            child.kill()
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": child.returncode,
        "out": out_path.read_text(errors="replace"),
        "err": err_path.read_text(errors="replace"),
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
    }


def _cli_ok(op, result) -> bool:
    """Exit 0, no traceback, and a report that passes the oracle check."""
    if result["status"] != 0 or "Traceback" in result["err"]:
        return False
    try:
        return bool(op.check(result["out"]))
    except (ValueError, KeyError, TypeError, AttributeError):  # not the documented report
        return False


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, args):
        import workloads

        self.args = args
        self.kind = workloads.WORKLOADS[args.workload]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.empty = WORK / "empty.json"
        self.context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_loc": src_loc(),
            "load": "closed loop, 1 client, 1 CLI process at a time",
            "timing": "each call scaled to the reference CPU speed (spans.py)",
        }
        self.started = time.perf_counter()
        self.totals = {"attempted": 0, "failed": 0, "unexpected": 0}
        self.raw = {}  # per-pass samples, kept in the BENCH file

    def setup(self, reps: int):
        times = []
        for _ in range(reps):
            inputs = WORK / self.args.workload
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir()
            before = calibrate()
            start = time.perf_counter()
            workload = self.kind(inputs, self.args.seed)
            workload.setup()
            elapsed = time.perf_counter() - start
            times.append(scaled(elapsed, before, calibrate()))
        self.empty.write_text("{}")
        self.context["sizes"] = workload.sizes
        self.context["cli_invocations_per_pass"] = len(workload.cli_ops)
        self.context["known_defect_inputs"] = sorted({op.known_defect for op in workload.cli_ops} - {None})
        return workload, times

    def series(self, commands: list[list[str]]) -> list[dict]:
        """Children one after another, each timed between two reference children."""
        reference = ["-c", REFERENCE_CHILD]
        results, before = [], invoke(reference, self.env)["wall"]
        for args in commands:
            result = invoke(args, self.env)
            after = invoke(reference, self.env)["wall"]
            result["scaled"] = scaled(result["wall"], before, after, REFERENCE_CHILD_S)
            result["factor"] = scaled(1.0, before, after, REFERENCE_CHILD_S)
            results.append(result)
            before = after
        return results

    def cli_pass(self, w) -> dict:
        walls, rss, stats, report_bytes = [], [], {"attempted": 0, "failed": 0, "unexpected": 0}, 0
        results = self.series([["-m", "ifk.cli", *op.argv] for op in w.cli_ops])
        for op, result in zip(w.cli_ops, results):
            walls.append(result["scaled"])
            rss.append(result["rss_mb"])
            report_bytes += len(result["out"].encode())
            stats["attempted"] += 1
            if not _cli_ok(op, result):
                stats["failed"] += 1
                stats["unexpected"] += op.known_defect is None
        return {"walls": walls, "rss": rss, "stats": stats, "report_bytes": report_bytes}

    def tally(self, *stats):
        for s in stats:
            for key in ("attempted", "failed", "unexpected"):
                self.totals[key] += s[key]

    def run(self) -> int:
        w, setup_times = self.setup(SETUP_REPS if not self.args.trace else 1)
        invoke(["-m", "ifk.cli", "validate", str(self.empty)], self.env)  # compiles src/ once
        w.lib_pass(NullTracer())  # warms the library process
        metrics = self.traced(w) if self.args.trace else self.untraced(w, setup_times)
        correct = self.totals["unexpected"] == 0
        self.context.update(self.totals, run_s=time.perf_counter() - self.started)
        (WORK / f"BENCH_{self.args.workload}_seed{self.args.seed}_trace{self.args.trace}.json").write_text(
            json.dumps({"context": self.context, "metrics": metrics, "samples": self.raw},
                       indent=1, sort_keys=True))
        print(json.dumps({"context": self.context}, sort_keys=True))
        print(json.dumps({
            "correct": correct,
            "attempted": self.totals["attempted"],
            "failed": self.totals["failed"],
            "metrics": metrics,
        }))
        return 0

    def untraced(self, w, setup_times) -> dict:
        deadline = time.perf_counter() + self.args.seconds
        cli_passes, lib_passes, rss, fail_ratios = [], [], [], []
        while len(cli_passes) < MIN_PASSES or time.perf_counter() < deadline:
            cli = self.cli_pass(w)
            libs = [w.lib_pass(NullTracer()) for _ in range(LIB_REPEATS)]
            self.tally(cli["stats"], *libs)
            cli_passes.append(cli["walls"])
            lib_passes += [lib_scaled(lib) for lib in libs]
            rss += cli["rss"]
            failed = cli["stats"]["failed"] + sum(lib["failed"] for lib in libs)
            attempted = cli["stats"]["attempted"] + sum(lib["attempted"] for lib in libs)
            # add-one smoothing keeps the ratio above 0 once every defect is fixed
            fail_ratios.append((failed + 1) / (attempted + 1))
        cli_ops, lib_ops = per_call(cli_passes), per_call(lib_passes)
        self.context["samples"] = {
            "setup_s": len(setup_times),
            "cli_passes": len(cli_passes),
            "lib_passes": len(lib_passes),
            "cli_invocations": len(cli_ops),
            "lib_calls": len(lib_ops),
        }
        self.raw.update(setup_s=setup_times, cli_s=cli_passes, lib_s=lib_passes)
        return {
            "wall_s": {"value": sum(cli_ops), "unit": "s"},
            "cmd_p50_ms": {"value": statistics.median(sum(cli_passes, [])) * 1e3, "unit": "ms"},
            "lib_wall_s": {"value": sum(lib_ops), "unit": "s"},
            "peak_rss_mb": {"value": max(rss), "unit": "MB"},
            "fail_ratio": {"value": statistics.median(fail_ratios), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }

    def traced(self, w) -> dict:
        import layers

        cli = self.cli_pass(w)
        self.tally(cli["stats"])
        startup = [r["scaled"] for r in self.series([["-m", "ifk.cli", "validate", str(self.empty)]]
                                                        * STARTUP_SAMPLES)]
        probe = ("import time; t = time.perf_counter(); import ifk.cli; "
                 "print(time.perf_counter() - t)")
        imports = [float(r["out"]) * r["factor"] for r in self.series([["-c", probe]] * STARTUP_SAMPLES)]
        deadline = time.perf_counter() + self.args.seconds
        plain, traced, tracers, reissued = [], [], [], []
        while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            plain.append(lib_scaled(w.lib_pass(NullTracer())))
            tracer = Tracer()
            stats = w.lib_pass(tracer)
            traced.append(lib_scaled(stats))
            tracers.append((tracer, scaled(1.0, *[statistics.median(stats["calibrations"])] * 2)))
            self.tally(stats)
            tracer, before = Tracer(), calibrate()
            w.reissue(tracer)
            reissued.append((tracer, scaled(1.0, before, calibrate())))
        self.context["samples"] = {
            "cli.startup_ms": len(startup),
            "cli.import_ms": len(imports),
            "traced_passes": len(traced),
        }
        return layers.per_layer(
            lib=tracers,
            reissued=reissued,
            cli={
                "startup_ms": statistics.median(startup) * 1e3,
                "import_ms": statistics.median(imports) * 1e3,
                "report_bytes": cli["report_bytes"],
                "invocations": len(w.cli_ops),
            },
            validations=layers.validations_per_command(w),
            overhead=sum(per_call(traced)) / sum(per_call(plain)),
        )


def lib_scaled(stats: dict) -> list[float]:
    cal = stats["calibrations"]
    return [scaled(t, cal[k], cal[k + 1]) for k, t in enumerate(stats["times"])]


def per_call(passes: list[list[float]]) -> list[float]:
    """Each call's median over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


if __name__ == "__main__":
    sys.exit(main())
