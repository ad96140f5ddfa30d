"""nullag benchmark: verdict-checked workloads, end-to-end and per-layer metrics.

Run one workload (the last stdout line is the result JSON):

    python3 nullbench/run.py --workload kr-ladder --seed 1 --seconds 20 --trace 0

Run every workload, each in its own process, and print a metric table:

    python3 nullbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The load is one client in a closed loop: each command is called in-process
through ``nullag.cli.main`` and the next starts when it returns.  Passes
over the workload's commands repeat until ``--seconds`` have gone by, with
at least two untraced passes, so every report digest is compared against a
repeat.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics instead of the end-to-end ones.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: the machine has two cores and the load is one client.
# NULLAG_THREADS stays unset so the library runs its default path.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NULLAG_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".nullbench_work"
MIN_PASSES = 2
SETUP_REPEATS = 3
# A command that returns within SAMPLE_S is repeated back to back, up to
# MAX_REPEATS times, so that millisecond commands are not timed by one
# call's jitter.
SAMPLE_S = 0.02
MAX_REPEATS = 5
WORKLOAD_NAMES = ("kr-ladder", "certify-corpus", "sym3-open", "numeric-probes")

END_TO_END = {
    "setup_s": "s",
    "decide_s": "s",
    "decide_p50_ms": "ms",
    "decide_p90_ms": "ms",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "decided_frac": "ratio",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def raw_seconds(t0, t1):
    return t1 - t0


class Runner:
    """Runs commands through ``nullag.cli.main`` and checks their outcome.

    Each call is timed as a (start, end) window of ``time.perf_counter()``,
    taken from outside; a command's sample is the list of windows of its
    back-to-back repeats, and the caller turns windows into seconds.
    """

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.max_repeats = MAX_REPEATS
        self.digests = {}
        self.failures = []

    def call_once(self, argv):
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code, tb = self.cli.main(argv), None
        except SystemExit as exc:
            code, tb = exc.code, "SystemExit(%r)" % exc.code
        except Exception:  # a traceback is a failed command, not a crash of the run
            code, tb = None, traceback.format_exc()
        return (t0, time.perf_counter()), code, tb

    def call(self, argv):
        """(windows, exit code, traceback text or None); stdout is discarded.

        A repeat that exits differently from the first call is reported as
        a failure through ``tb``.
        """
        window, code, tb = self.call_once(argv)
        windows = [window]
        while (tb is None and len(windows) < self.max_repeats
               and windows[-1][1] - windows[0][0] < SAMPLE_S):
            window, again, tb = self.call_once(argv)
            windows.append(window)
            if tb is None and again != code:
                tb = "repeat exited %r after %r" % (again, code)
        return windows, code, tb

    def write_inputs(self, instances):
        for i, inst in enumerate(instances):
            if inst.subspace is not None:
                with open(self.workdir / ("input-%d.json" % i), "w") as fh:
                    json.dump(inst.subspace, fh)

    def report_path(self, i):
        return self.workdir / ("report-%d.json" % i)

    def argv(self, i, inst):
        argv = [inst.command]
        if inst.subspace is not None:
            argv.append(str(self.workdir / ("input-%d.json" % i)))
        return argv + inst.args + ["--json-out", str(self.report_path(i))]

    def fail(self, inst, why):
        self.failures.append("%s: %s" % (inst.name, why))
        print("FAILED %s: %s" % (inst.name, why), file=sys.stderr)

    def decide(self, i, inst):
        """Run the deciding command; returns (windows, exit code, ok)."""
        path = self.report_path(i)
        if path.exists():
            path.unlink()
        windows, code, tb = self.call(self.argv(i, inst))
        if tb is not None:
            self.fail(inst, "raised\n" + tb)
            return windows, code, False
        if code not in inst.expected:
            self.fail(inst, "exit %r, expected one of %s" % (code, sorted(inst.expected)))
            return windows, code, False
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            self.fail(inst, "no readable report: %s" % exc)
            return windows, code, False
        report.pop("timings", None)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            self.fail(inst, "report digest differs from the previous pass")
            return windows, code, False
        if inst.check is not None:
            why = inst.check(report)
            if why:
                self.fail(inst, why)
                return windows, code, False
        return windows, code, True

    def verify(self, i, inst):
        """``nullag verify`` on the emitted report; returns (windows, ok)."""
        windows, code, tb = self.call(["verify", str(self.report_path(i))])
        if tb is not None or code != 0:
            self.fail(inst, "verify exit %r %s" % (code, tb or ""))
            return windows, False
        return windows, True


def verifiable(inst):
    # A grassmann-scan report carries float chart probes and no exact
    # artifact; ``nullag verify`` rejects it with exit 2 (see README), so the
    # benchmark checks the scan's summary against the known answer instead.
    return inst.command != "grassmann-scan"


def run_pass(runner, instances, tracer=None):
    """One closed-loop pass: per-command deciding and verify samples."""
    lat = []
    vlat = []
    decided = 0
    failed = 0
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = "%d/%s" % (i, inst.command)
        windows, code, ok = runner.decide(i, inst)
        lat.append(windows)
        vwindows = None
        if ok and verifiable(inst):
            if tracer is not None:
                tracer.instance = "%d/verify" % i
            vwindows, ok = runner.verify(i, inst)
        vlat.append(vwindows)
        failed += not ok
        decided += ok and code in inst.decided
    return {"lat": lat, "vlat": vlat, "decided": decided, "failed": failed}


def fastest(passes, key, seconds):
    """Per command, its fastest call over all passes (0 if never run)."""
    out = []
    for i in range(len(passes[0][key])):
        times = [seconds(*w) for p in passes if p[key][i] is not None for w in p[key][i]]
        out.append(min(times, default=0.0))
    return out


def percentile(values, q):
    """q-th percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def workdir_for(workload, tag=""):
    path = WORK / (workload + ("-" + tag if tag else ""))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(workload, seed, scale, workdir):
    """Import, generate, write inputs and run the warm-up commands.

    Returns (runner, instances, set-up window from process start).
    """
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from nullag import cli
    import workloads

    instances = workloads.WORKLOADS[workload](cli, seed, scale)
    runner = Runner(cli, workdir)
    runner.write_inputs(instances)
    with open(workdir / "instances.json", "w") as fh:
        json.dump(instance_table(instances), fh, indent=1)
    warm = Runner(cli, workdir / "warmup")
    warm.workdir.mkdir()
    warmups = workloads.warmup(cli, workload)
    warm.write_inputs(warmups)
    run_pass(warm, warmups)
    runner.failures.extend("warm-up " + f for f in warm.failures)
    return runner, instances, (T_START, time.perf_counter())


def child_setup_seconds(args, k):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
           "--tag", "setup%d" % k]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args, seconds):
    """Untraced run: the end-to-end metrics, timed with ``seconds``."""
    runner, instances, setup_window = setup(args.workload, args.seed, args.scale,
                                            workdir_for(args.workload))
    setups = [seconds(*setup_window)]
    setups += [child_setup_seconds(args, k) for k in range(1, SETUP_REPEATS)]
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(runner, instances))
    lat = fastest(passes, "lat", seconds)
    attempted = len(lat) * len(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "decide_s": sum(lat),
        "decide_p50_ms": 1000 * percentile(lat, 0.5),
        "decide_p90_ms": 1000 * percentile(lat, 0.9),
        "verify_s": sum(fastest(passes, "vlat", seconds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_frac": sum(p["decided"] for p in passes) / attempted,
    }
    failed = sum(p["failed"] for p in passes)
    return result(runner, attempted, failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def traced_run(args):
    """Alternate untraced and traced passes; the per-layer metrics.

    Times here are raw wall times: a speed probe would land inside the spans.
    """
    import tracer as tracing

    runner, instances, _ = setup(args.workload, args.seed, args.scale, workdir_for(args.workload))
    runner.max_repeats = 1  # so that every traced pass makes the same calls
    tracer = tracing.Tracer()
    plain = []
    traced = []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        plain.append(run_pass(runner, instances))
        tracer.reset()
        tracer.install()
        try:
            p = run_pass(runner, instances, tracer)
        finally:
            tracer.uninstall()
        p["spans"], p["counts"] = tracer.spans, tracer.counts
        traced.append(p)
    with open(runner.workdir / "spans.json", "w") as fh:
        json.dump([{"spans": p["spans"], "counts": p["counts"]} for p in traced], fh)
    layers = []
    for p in traced:
        layers.append(tracing.layer_metrics(p["spans"], p["counts"]))
        err = tracing.max_self_sum_error(p["spans"])
        if err > 1e-6:
            runner.failures.append("self times miss the command time by %g s" % err)
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith(".self_s"):
            metrics[name] = min(values)
        else:
            if any(v != values[0] for v in values):
                runner.failures.append("count %s differs between traced passes" % name)
            metrics[name] = values[0]
    metrics["trace.decide_s"] = sum(fastest(traced, "lat", raw_seconds))
    metrics["trace.overhead_s"] = metrics["trace.decide_s"] - sum(fastest(plain, "lat", raw_seconds))
    passes = plain + traced
    attempted = sum(len(p["lat"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    return result(runner, attempted, failed, {k: (v, layer_unit(k)) for k, v in metrics.items()})


def result(runner, attempted, failed, metrics):
    return {
        "correct": failed == 0 and not runner.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def instance_table(instances):
    return [{"name": inst.name, "command": inst.command, **inst.props,
             "expected_exit": sorted(inst.expected)} for inst in instances]


def run_all(args):
    """Every workload in its own fresh process; prints a metric table."""
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            ok = False
            sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        with open(WORK / name / "instances.json") as fh:
            res["instances"] = json.load(fh)
        results[name] = res
        print("== %s  correct=%s attempted=%s failed=%s  failed_frac=%.3g" % (
            name, res.get("correct"), res.get("attempted"), res.get("failed"),
            res.get("failed", 0) / max(1, res.get("attempted", 0))))
        for metric, mv in res["metrics"].items():
            print("   %-48s %14.6g %s" % (metric, mv["value"], mv["unit"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                       "workloads": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": ok, "workloads": sorted(results)}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a smoke-test size of every workload")
    parser.add_argument("--out", help="with --workload all: write all results here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tag", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nullag" / "__init__.py").is_file():
        print("nullbench: no nullag sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        res = traced_run(args)
    else:
        sys.path.insert(0, str(HERE))
        import speed

        probe = speed.SpeedProbe()
        probe.start()
        try:
            if args.setup_only:
                window = setup(args.workload, args.seed, args.scale,
                               workdir_for(args.workload, args.tag))[2]
                probe.stop()
                print(json.dumps({"setup_s": probe.scaled(*window)}))
                return 0
            res = run_workload(args, probe.scaled)
        finally:
            probe.stop()
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
