#!/usr/bin/env python3
"""Benchmark of jacobi-reflect: one workload per process, from the repo root.

    python3 perfbench/run.py --workload cli-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics from the spans.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
small inputs once, for the benchmark's own tests.  See README.md.
"""

# numpy, scipy and the program are imported inside functions, after the
# BLAS thread count is pinned and src/ is put on the path
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
WORKLOAD_NAMES = ("cli-grid", "certify", "dynamics")


def _pin_blas_threads():
    """At most two BLAS threads, never more than the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def _use_program_from_checkout():
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _setup_probe(config_path):
    """Child process of a set-up measurement: cold start up to the first call."""
    import jacobi_reflect as jr
    with open(config_path) as fh:
        docs = json.load(fh)
    for doc in docs.values():
        jr.band_intervals(jr.parse_config(json.dumps(doc)).background)
    print("ready", flush=True)


def measure_setup(config_path, probes):
    """Median wall time from spawn to the probe's ``ready`` line."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-probe",
                                 config_path], stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
        times.append(t1 - t0)
    return statistics.median(times)


def machine_info(nproc, threads):
    import numpy
    import scipy
    info = {"nproc": nproc, "blas_threads": threads, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[f"{mod.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError):
            info[f"{mod.__name__}_blas"] = "unknown"
    return info


class Runner:
    """Runs the passes of one workload and keeps what the checks need."""

    def __init__(self, workload, inputs, work, smoke):
        import workloads
        self.W = workloads
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.smoke = smoke
        self.specs = None
        self.first = None          # first untraced pass
        self.first_texts = {}      # cli-grid: output texts of the first pass
        self.first_hashes = None
        self.repeat_failures = []

    def setup(self):
        self.specs = self.W.setup(self.inputs["configs"])

    def one_pass(self, label):
        W = self.W
        if self.workload == "cli-grid":
            p = W.cli_pass(self.inputs, self.work)
            hashes = W.hash_outputs(self.inputs, self.work)
            if self.first_hashes is None:
                self.first_hashes = hashes
                for key in hashes:
                    path = os.path.join(self.work, "{}.{}.{}".format(*key))
                    with open(path) as fh:
                        self.first_texts[key] = fh.read()
            else:
                import checks
                self.repeat_failures += checks.check_repeat(self.first_hashes, hashes, label)
        elif self.workload == "certify":
            p = W.certify_pass(self.inputs, self.specs)
        else:
            p = W.dynamics_pass(self.inputs, self.specs)
        if self.first is None:
            self.first = p
        elif self.workload != "cli-grid":
            p.outputs = None       # only the first pass is checked in full
        return p

    def passes(self, seconds, label, tracer=None):
        out = []
        t_end = time.perf_counter() + seconds
        while True:
            if tracer is None:
                p = self.one_pass(label)
            else:
                lo = len(tracer)
                with tracer.span("bench.pass"):
                    p = self.one_pass(label)
                p.span_range = (lo, len(tracer))
            out.append(p)
            if self.smoke or time.perf_counter() >= t_end:
                return out

    def check(self):
        import checks
        if self.workload == "cli-grid":
            codes = self.first.outputs
            fails = checks.check_cli(self.inputs, self.first_texts, codes)
        elif self.workload == "certify":
            fails = checks.check_certify(self.inputs, self.first.outputs)
        else:
            import jacobi_reflect as jr
            packets = {op: jr.wave_packet(self.specs[op], "l", lam0, self.inputs["dlambda"],
                                          self.inputs["N"]).amplitudes
                       for op, lam0 in self.inputs["runs"]}
            fails = checks.check_dynamics(self.inputs, self.first.outputs, packets)
        return list(fails) + list(self.repeat_failures)


def _median(values):
    return statistics.median(values) if values else 0.0


def op_time(passes, label=None):
    """One pass's time, or its ``label`` operations' time, from per-operation medians.

    Passes repeat the same operations in the same order; each operation's
    median over passes drops the bursts of host noise that hit single
    operations, which a median of pass totals keeps.
    """
    medians = [statistics.median(ts) for ts in zip(*(p.op_times for p in passes))]
    return sum(m for m, lab in zip(medians, passes[0].op_labels) if label in (None, lab))


def end_to_end(setup_s, passes, rss_mb):
    return {"setup_s": (setup_s, "s"),
            "wall_s": (op_time(passes), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def per_layer(runner, tracer, setup_range, untraced, traced):
    """Per-layer metrics from the traced spans (medians over traced passes)."""
    import checks
    import spans
    setup_sum = tracer.summary(*setup_range)
    sums = [tracer.summary(*p.span_range) for p in traced]

    def med(fn):
        return _median([fn(s) for s in sums])

    def get(s, name, field="s"):
        return s.get(name, {}).get(field, 0.0)

    m = {
        "model.parse_config_s": (get(setup_sum, "model.parse_config"), "s"),
        "bands.band_intervals_s": (get(setup_sum, "bands.band_intervals"), "s"),
        "bands.guard_edges_calls": (med(lambda s: get(s, "bands.guard_edges", "calls")), "count"),
        "analysis.explicit_grid_s": (med(lambda s: get(s, "analysis.explicit_grid")), "s"),
        "analysis.reflectionless_report_s":
            (med(lambda s: get(s, "analysis.reflectionless_report")), "s"),
        "scattering.boundary_pieces_calls":
            (med(lambda s: get(s, "scattering.boundary_pieces", "calls")), "count"),
        "mfunc.tail_m_s": (med(lambda s: get(s, "mfunc.tail_m")), "s"),
        "mfunc.tail_m_points": (med(lambda s: get(s, "mfunc.tail_m", "work")), "count"),
        "mfunc.m_boundary_s": (med(lambda s: get(s, "mfunc.m_right_boundary")
                                   + get(s, "mfunc.m_left_boundary")), "s"),
        "mfunc.m_boundary_self_s": (med(lambda s: get(s, "mfunc.m_right_boundary", "self_s")
                                        + get(s, "mfunc.m_left_boundary", "self_s")), "s"),
        "scattering.green_diag_grid_s": (med(lambda s: get(s, "scattering.green_diag_grid")), "s"),
        "scattering.scattering_grid_s": (med(lambda s: get(s, "scattering.scattering_grid")), "s"),
        "jost.alpha_beta_s": (med(lambda s: get(s, "jost.alpha_beta")), "s"),
        "jost.alpha_beta_calls": (med(lambda s: get(s, "jost.alpha_beta", "calls")), "count"),
        "jost.spectral_reflection_mratio_grid_s":
            (med(lambda s: get(s, "jost.spectral_reflection_mratio_grid")), "s"),
        "analysis.landauer_current_s": (med(lambda s: get(s, "analysis.landauer_current")), "s"),
        "analysis.landauer_current_self_s":
            (med(lambda s: get(s, "analysis.landauer_current", "self_s")), "s"),
        "dynamics.make_plan_s": (med(lambda s: get(s, "dynamics.make_plan")), "s"),
        "dynamics.evolve_s": (med(lambda s: get(s, "dynamics.evolve")), "s"),
        "dynamics.wave_packet_s": (med(lambda s: get(s, "dynamics.wave_packet")), "s"),
        "dynamics.plan_bytes": (med(lambda s: get(s, "dynamics.make_plan", "max_work")),
                                "bytes-computed"),
        "cli.run_self_s": (med(lambda s: get(s, "cli.run", "self_s")), "s"),
    }
    for layer in spans.LAYERS[:-1]:
        m[f"{layer}.self_s"] = (med(lambda s: sum(v["self_s"] for k, v in s.items()
                                                   if k.startswith(layer + "."))), "s")
    texts = runner.first_texts
    m["cli.rows_written"] = (checks.count_rows(texts), "count")
    m["cli.bytes_written"] = (sum(len(t.encode()) for t in texts.values()), "bytes")
    for cmd in runner.W.CLI_COMMANDS:
        m[f"cli.{cmd.replace('-', '_')}_s"] = (op_time(untraced, cmd), "s")
    packets = [t for p in untraced for t in p.op_times] if runner.workload == "dynamics" else []
    m["dynamics.packet_run_s"] = (_median(packets), "s")
    m["trace.overhead_s"] = (op_time(traced) - op_time(untraced), "s")
    m["trace.spans"] = (med(lambda s: sum(v["calls"] for v in s.values())), "count")
    return m


def run_workload(args):
    nproc, threads = _pin_blas_threads()
    _use_program_from_checkout()
    import workloads
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
        config_path = os.path.join(work, "configs.json")
        with open(config_path, "w") as fh:
            json.dump(inputs["configs"], fh)
        workloads.write_configs(inputs["configs"], work)
        setup_s = 0.0
        if not args.trace:
            setup_s = measure_setup(config_path, 1 if args.smoke else SETUP_PROBES)

        runner = Runner(args.workload, inputs, work, args.smoke)
        runner.setup()
        untraced = runner.passes(args.seconds, "untraced")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if args.trace:
            import jacobi_reflect as jr
            import spans
            jr.band_intervals.cache_clear()    # band set-up is timed cold
            jr.discriminant.cache_clear()
            tracer = spans.Tracer()
            tracer.install(jr)
            try:
                lo = len(tracer)
                with tracer.span("bench.setup"):
                    runner.setup()
                setup_range = (lo, len(tracer))
                traced = runner.passes(args.seconds, "traced", tracer)
            finally:
                tracer.uninstall()
            tracer.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
            metrics = per_layer(runner, tracer, setup_range, untraced, traced)
        else:
            metrics = end_to_end(setup_s, untraced, rss_mb)

        failures = runner.check()
        all_passes = untraced + traced
        result = {"correct": not failures,
                  "attempted": sum(p.attempted for p in all_passes),
                  "failed": sum(p.failed for p in all_passes),
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "passes": len(untraced), "traced_passes": len(traced),
                "pass_walls_s": [p.wall for p in untraced],
                "machine": machine_info(nproc, threads),
                "commands_s": {c: op_time(untraced, c) for c in workloads.CLI_COMMANDS}
                if args.workload == "cli-grid" else {},
                "failures": failures[:50]}
        with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump({"info": info, "result": result}, fh, indent=1)
        for msg in failures[:20]:
            print(f"check failed: {msg}", file=sys.stderr)
        print(json.dumps({"info": info}))
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args):
    """Each workload in its own fresh process; a table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"== {name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, v in r["metrics"].items():
            print(f"   {metric:40s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, one pass")
    parser.add_argument("--setup-probe", metavar="CONFIGS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _pin_blas_threads()
        _use_program_from_checkout()
        _setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
