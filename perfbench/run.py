#!/usr/bin/env python3
"""ndrank benchmark: one closed-loop caller per workload, outputs checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload fit-cchs --seed 1 --seconds 10 --trace 0

One process makes one call at a time and waits for it (a closed loop).
With ``--trace 0`` it makes a fixed number of operations, about ``--seconds``
worth on the reference host, and prints the end-to-end metrics, operation
times in reference seconds (see ``hostspeed.py``); with ``--trace 1`` it
runs the workload's first ``fixed_ops`` operations untraced, replays them
with spans around every ndrank layer call and prints the per-layer metrics.
The last line of standard output is one JSON object; the lines before it are a
readable report with units and sample counts.  Details land in
``perfbench/out/``.  The package is imported from ``src/`` of the checkout.
"""

import os

# one BLAS thread, fixed before numpy loads: the arrays are small and a
# single thread keeps run-to-run spread down
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # fresh processes, set up one after another
CAP_FACTOR = 4  # the timed part stops short after this many times its planned seconds
P90_MIN_OPS = 100
SHOWN_REASONS = 10
LAYER_MODULES = ("poset", "tensor", "cone", "isotonic", "factor")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("fit-cchs", "fit-grid", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the monotonic clock and exit (used for setup_s)")
    return ap.parse_args(argv)


def import_package():
    if not (SRC / "ndrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no ndrank package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ndrank

    if Path(ndrank.__file__).resolve().parent != SRC / "ndrank":
        raise SystemExit(f"error: imported ndrank from {ndrank.__file__}, not from {SRC}")
    return ndrank


def set_up(name, seed):
    """Build the workload's inputs and run one untimed warm-up of each kind."""
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    for op in wl.warmup():
        op.run()
    return wl


class Tally:
    """Timings and check outcomes of a sequence of operations.

    Results are kept for the first ``keep`` operations only, so that the
    process's memory does not grow with its throughput.
    """

    def __init__(self, keep):
        self.keep = keep
        self.op_s = array("d")
        self.kind_s = {}
        self.failed = 0
        self.known = 0  # failures in a known-defect input class
        self.unexpected = 0
        self.reasons = []  # the first few unexpected failures
        self.results = []
        self.residual_sum = 0.0
        self.residuals = 0
        self.sweeps = 0
        self.capped = 0

    @property
    def attempted(self):
        return len(self.op_s)

    @property
    def passed(self):
        return self.attempted - self.failed

    def add(self, op, dt, outcome):
        if len(self.op_s) < self.keep:
            self.results.append(f"{op.kind} {outcome.result}")
        if outcome.rel_residual is not None:
            self.residual_sum += outcome.rel_residual
            self.residuals += 1
        self.op_s.append(dt)
        self.kind_s[op.kind] = self.kind_s.get(op.kind, 0.0) + dt
        self.sweeps += outcome.sweeps
        self.capped += outcome.capped
        if outcome.reason is not None:
            self.failed += 1
            if op.known_defect and not outcome.reason.startswith("raised"):
                self.known += 1
            else:
                self.unexpected += 1
                if len(self.reasons) < SHOWN_REASONS:
                    self.reasons.append(f"{op.kind}: {outcome.reason}")

    def absorb(self, other):
        """Count another tally's operations and failures in this one."""
        self.op_s.extend(other.op_s)
        for kind, dt in other.kind_s.items():
            self.kind_s[kind] = self.kind_s.get(kind, 0.0) + dt
        self.failed += other.failed
        self.known += other.known
        self.unexpected += other.unexpected
        self.reasons = (self.reasons + other.reasons)[:SHOWN_REASONS]


def run_ops(ops, tally, clock, n, tracer=None, speed=None, cap_s=math.inf):
    """Run the next ``n`` operations from ``ops``, timing only ``run``.

    ``speed`` gets every operation's seconds, to interleave its reference
    bursts.  After ``cap_s`` seconds of wall time the run stops short.
    """
    from workloads import Outcome

    deadline = time.perf_counter() + cap_s
    while tally.attempted < n and time.perf_counter() < deadline:
        op = next(ops)
        if tracer is not None:
            tracer.active = True
        t0 = clock()
        try:
            out = op.run()
            exc = None
        except Exception as err:  # an operation that raises is a failed operation
            exc = err
        dt = clock() - t0
        if tracer is not None:
            tracer.active = False
        outcome = op.check(out) if exc is None else Outcome(f"raised {exc!r}", "raised")
        tally.add(op, dt, outcome)
        if speed is not None:
            speed.tick(dt)
    return tally


def setup_probe(args):
    """Seconds from the start of a fresh process to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def machine_notes(ndrank, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ndrank": ndrank.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
    }


def end_to_end(args, wl):
    """Untraced run: the end-to-end metrics, as name -> (value, note).

    The timed part makes ``wl.count(--seconds)`` operations.  Times are in
    reference seconds: measured seconds over the host factor around each
    operation.  Set-up time is in measured seconds.
    """
    import numpy as np
    from hostspeed import REF_S, HostSpeed

    setup = [setup_probe(args) for _ in range(SETUP_PROBES)]
    speed = HostSpeed()
    planned = wl.count(args.seconds)
    tally = run_ops(wl.ops(), Tally(wl.fixed_ops), time.perf_counter, planned,
                    speed=speed, cap_s=CAP_FACTOR * planned / wl.RATE)
    if tally.attempted < planned:
        print(f"warning: stopped after {tally.attempted} of {planned} operations, "
              f"{CAP_FACTOR} times the planned time", file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n, timed = tally.attempted, sum(tally.op_s)
    ref_s = speed.reference_seconds(tally.op_s)
    metrics = {
        "setup_s": (statistics.median(setup), "median of fresh processes: "
                    + " ".join(f"{s:.4f}" for s in setup)),
        "ops_per_s": (tally.passed / float(ref_s.sum()),
                      f"{tally.passed} passed ops / {ref_s.sum():.3f} reference s in calls "
                      f"({timed:.3f} s measured)"),
        "op_s_p50": (float(np.median(ref_s)),
                     f"n={n}, {statistics.median(tally.op_s):.6g} s measured"),
        "passed_frac": (tally.passed / n, f"{tally.passed} of {n}"),
        "fit_rel_residual": (tally.residual_sum / tally.residuals,
                             f"mean of {tally.residuals} fits or projections"),
        "peak_rss_mb": (rss_mb, "main process"),
    }
    if n >= P90_MIN_OPS:  # reported for reading only, like failed_frac
        metrics["op_s_p90"] = (float(np.quantile(ref_s, 0.9)), f"n={n}")
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"{args.workload}-seed{args.seed}-times.npz", op_s=np.asarray(tally.op_s),
                        bursts=np.asarray(speed.bursts), at=np.asarray(speed.at),
                        setup=np.asarray(setup))
    return tally, metrics, (f"{speed.factor():.4f} (median of {len(speed.bursts)} reference "
                            f"bursts / {REF_S} s)")


def per_layer(args, wl):
    """Traced run: the per-layer metrics, as name -> (value, note).

    The workload's first ``fixed_ops`` operations run untraced and are then
    replayed with spans, so every count and total covers the same work on
    every run; the ratio of the two call times is the tracing overhead.
    """
    from tracing import Tracer

    n = wl.fixed_ops
    untraced = run_ops(wl.ops(), Tally(n), time.perf_counter, n)
    tracer = Tracer({name: sys.modules["ndrank." + name] for name in LAYER_MODULES})
    tracer.install()
    try:
        traced = run_ops(wl.ops(), Tally(n), tracer.now, n, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{args.workload}-trace.npz")

    layers = tracer.layer_totals()

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[2]

    m = {"isotonic.project.calls": sum(calls(f"isotonic.project.{p}")
                                       for p in ("clamp", "chain", "general"))}
    for name in ("isotonic.project.clamp", "isotonic.project.chain", "isotonic.project.general",
                 "tensor.outer", "factor.hals"):
        m[name + ".calls"] = calls(name)
        if name != "isotonic.project.clamp":
            m[name + ".self_s"] = self_s(name)
    m["isotonic.project.exact_ratio"] = tracer.projections_exact / max(tracer.projections, 1)
    m["tensor.outer.bytes"] = tracer.outer_bytes
    m["tensor.apply_kronecker.self_s"] = self_s("tensor.apply_kronecker")
    m["factor.init.self_s"] = self_s("factor.init")
    m["factor.sweeps"] = traced.sweeps
    m["factor.capped_frac"] = traced.capped / max(calls("factor.hals"), 1)
    for path in ("tree", "halfspace", "dd"):
        m[f"cone.membership.{path}.calls"] = calls(f"cone.membership.{path}")
        m[f"cone.membership.{path}.self_s"] = self_s(f"cone.membership.{path}")
    for name in ("cone.double_description", "cone.is_monotone", "cone.sample", "poset.from_relation",
                 "poset.product", "poset.connected_upsets", "poset.linear_extensions"):
        m[name + ".self_s"] = self_s(name)
    sample_s = layers.get("cone.sample", (0, 0.0, 0.0))[1]
    m["cone.sample.samples_per_s"] = tracer.samples / sample_s if sample_s else 0.0
    m["poset.calls"] = sum(c for name, (c, _, _) in layers.items() if name.startswith("poset."))
    m["trace.overhead_frac"] = sum(traced.op_s) / sum(untraced.op_s) - 1.0
    metrics = {name: (value, "") for name, value in m.items()}
    metrics["trace.overhead_frac"] = (m["trace.overhead_frac"],
                                      f"the first {n} ops, traced against untraced")

    untraced.absorb(traced)  # both phases count toward attempted and failed
    return untraced, metrics, None


def report(args, notes, tally, metrics, host_factor):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    if host_factor is not None:
        print(f"  host factor {host_factor}; operation times below are in reference seconds")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    timed = sum(tally.op_s)
    shares = ", ".join(f"{k} {v / timed:.1%}" for k, v in sorted(tally.kind_s.items()))
    print(f"  op time by kind: {shares}")
    if tally.failed:
        print(f"  failures: {tally.known} in known-defect input classes, "
              f"{tally.unexpected} other")
    for reason in tally.reasons:
        print(f"    unexpected: {reason}")


def main(argv=None):
    args = parse_args(argv)
    ndrank = import_package()
    sys.path.insert(0, str(HERE))
    wl = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    import workloads

    if args.trace:
        tally, measured, host_factor = per_layer(args, wl)
    else:
        tally, measured, host_factor = end_to_end(args, wl)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    p90 = measured.pop("op_s_p90", None)
    if {m["name"] for m in spec} != set(measured):
        raise SystemExit("error: measured metrics do not match BENCHMARK.json")
    metrics = {m["name"]: (measured[m["name"]][0], m["unit"], measured[m["name"]][1]) for m in spec}
    for name, (value, _, _) in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"error: metric {name} is {value}")

    # reported for reading, not compared across commits: see perfbench/README.md
    n = tally.attempted
    shown = dict(metrics)
    shown["failed_frac"] = (tally.failed / n, "frac", f"{tally.failed} of {n}")
    if p90 is not None:
        shown["op_s_p90"] = (p90[0], "s", p90[1])
    notes = machine_notes(ndrank, args.seed)
    report(args, notes, tally, shown, host_factor)
    print(f"  results digest: {workloads.digest(tally.results)} "
          f"over the first {len(tally.results)} ops")

    OUT.mkdir(exist_ok=True)
    record = {
        "args": vars(args), "machine": notes, "host_factor": host_factor,
        "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in shown.items()},
        "unexpected": tally.reasons, "results": tally.results,
    }
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": n,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
