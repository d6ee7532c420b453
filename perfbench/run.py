"""Campaign benchmark for the G-Cache reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload fig8-functional --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports
the per-layer metrics from spans around each layer's public functions.
README.md in this directory defines every workload and metric.
"""

import time

START = time.perf_counter()  # the set-up probe times imports from here

import sys  # noqa: E402

import speed  # noqa: E402  (stdlib only)

#: A set-up probe samples the host's speed from here on, every 20 ms.
SETUP_METER = speed.SpeedMeter(interval=0.02) if "--setup-probe" in sys.argv else None
if SETUP_METER is not None:
    SETUP_METER.__enter__()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("fig8-functional", "scenario-sweep", "agreement-timing", "service-mixed")
#: Timed passes per run, fixed per workload and the same for every
#: build, so that parent and change are reduced over the same number of
#: samples; sized so that each run stays near 20 s.  The service's
#: passes are shorter and its job latencies noisier, so it runs more.
PASSES = {"fig8-functional": 4, "scenario-sweep": 4, "agreement-timing": 4,
          "service-mixed": 6}
#: Set-up probes after each untraced pass; ``setup_s`` is their median.
SETUP_PROBES_PER_PASS = 2
#: Passes of each kind (untraced, traced) in a traced run.
TRACED_PASSES = 3
#: Passes stop early only past this many times ``--seconds``.
SAFETY_FACTOR = 2.0
REFERENCE_SEED = 0
END_TO_END_UNITS = {
    "setup_s": "s", "campaign_s": "s", "peak_rss_mb": "MB",
    "verdict_agreement": "share", "cold_job_p50_s": "s", "cold_job_tail_s": "s",
    "warm_job_p50_s": "s", "warm_job_tail_s": "s",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_workloads():
    """Import the program; a checkout without ``src/`` cannot run."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def setup_probe(name: str, seed: int, workdir: Path) -> str:
    """Imports, config and (for the service) daemon start plus connect:
    host seconds and the host's speed ratio over them."""
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    seconds = time.perf_counter() - START
    SETUP_METER.__exit__(None, None, None)
    return f"{seconds} {SETUP_METER.ratio}"


def measure_setup(name: str, seed: int, workdir: Path) -> float:
    """Set-up time in a fresh interpreter, in reference seconds."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe", str(workdir / "probe")],
        capture_output=True, text=True, timeout=60, cwd=str(ROOT))
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    seconds, ratio = map(float, out.stdout.strip().splitlines()[-1].split())
    return seconds * ratio


def metered(fn):
    """``fn()`` under a :class:`speed.SpeedMeter`: (result, meter)."""
    with speed.SpeedMeter() as meter:
        result = fn()
    return result, meter


def job_seconds(jobs: dict, windows: dict, meter) -> dict:
    """Each job's seconds in reference seconds, at the host's speed over
    that job's own window."""
    return {label: seconds * meter.ratio_over(*windows[label])
            for label, seconds in jobs.items()}


def reference_path(name: str) -> Path:
    return HERE / "reference" / f"{name}.json"


def run_passes(workload, seconds: float, tracer, probe):
    """A fixed number of timed passes, each under a speed meter.

    Each untraced pass is followed by warm rounds with a set-up
    ``probe`` between each two, so that warm queries and probes are
    spread over the run and meet the host phases the passes meet.
    With a tracer, passes alternate untraced / traced instead,
    ``TRACED_PASSES`` of each.  ``seconds`` is a safety limit only:
    past ``SAFETY_FACTOR`` times it, passes stop early (at least two of
    each kind).  Returns (untraced, traced, per-pass layers, warm
    rounds, notes); passes and warm rounds are (result, speed meter)
    pairs.
    """
    from layers import layer_metrics

    count = PASSES[workload.name] if tracer is None else TRACED_PASSES
    untraced, traced, layers, warm, notes = [], [], [], [], []
    start = time.perf_counter()
    while len(untraced) < count or (tracer is not None and len(traced) < count):
        if (time.perf_counter() - start > SAFETY_FACTOR * seconds and len(untraced) >= 2
                and (tracer is None or len(traced) >= 2)):
            notes.append(f"safety limit: stopped after {len(untraced)} of {count} passes")
            break
        if tracer is not None and len(traced) < len(untraced):
            tracer.reset()
            tracer.install()
            try:
                result, meter = metered(workload.run_pass)
            finally:
                tracer.uninstall()
            traced.append((result, meter))
            layers.append(layer_metrics(tracer, result))
        else:
            untraced.append(metered(workload.run_pass))
            if tracer is None:
                warm.append(metered(workload.warm_round))
                for _ in range(SETUP_PROBES_PER_PASS):
                    probe()
                    warm.append(metered(workload.warm_round))
    return untraced, traced, layers, warm, notes


def check_results(name: str, seed: int, passes, extra_reference=None):
    """Output check; returns (mismatched label count, notes)."""
    import stats

    failed, notes = 0, []
    want = passes[0].results
    for i, p in enumerate(passes[1:], 1):
        bad = stats.mismatches(p.results, want)
        if bad:
            failed += len(bad)
            notes.append(f"pass {i} differs from pass 0 on {bad[:3]}")
    if extra_reference is not None:
        got = {k: v for p in passes for k, v in p.results.items()}
        bad = stats.mismatches(got, extra_reference)
        if bad:
            failed += len(bad)
            notes.append(f"service differs from in-process on {bad[:3]}")
    ref = reference_path(name)
    if seed == REFERENCE_SEED and ref.exists():
        bad = stats.mismatches(want, json.loads(ref.read_text())["results"])
        if bad:
            failed += len(bad)
            notes.append(f"differs from stored reference on {bad[:3]}")
    return failed, notes


def summarize_jobs(cold: list, warm: list, report: dict) -> dict:
    """p50 and tail metrics per job class; the tail's percentile and
    sample count go to the report."""
    import stats

    out = {}
    for cls, values in (("cold", cold), ("warm", warm)):
        s = stats.latency_summary(values)
        out[f"{cls}_job_p50_s"] = s["p50"]
        out[f"{cls}_job_tail_s"] = s["tail"]
        report[f"{cls}_job_tail"] = {"percentile": s["tail_pct"], "samples": s["n"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's exact counters as the reference")
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, Path(args.setup_probe)))
        shutil.rmtree(args.setup_probe, ignore_errors=True)
        return 0

    load_workloads()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workdir: Path) -> int:
    import stats
    import workloads

    name = args.workload
    # One vCPU for every thread and set-up probe of the run, so that the
    # speed meter samples the very CPU the program runs on (the host's
    # vCPUs change speed independently of each other).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[name](args.seed, workdir)
    tracer = None
    setup: list = []
    if args.trace:
        from layers import Tracer

        tracer = Tracer()

    def probe() -> None:
        setup.append(measure_setup(name, args.seed, workdir))

    untraced, traced, layers, warm_rounds, notes = run_passes(
        workload, args.seconds, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = [p for p, _ in untraced + traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    service = name == "service-mixed"
    in_process = workload.in_process_results() if service else None
    failed_checks, check_notes = check_results(name, args.seed, passes, in_process)
    failed += failed_checks
    notes += check_notes

    if args.write_reference:
        results = in_process if service else passes[0].results
        write_reference(name, {"workload": name, "seed": args.seed, "results": results})

    campaign_s = reference_campaign(untraced)
    report = {"passes": len(untraced), "setup_samples": setup, "notes": notes,
              "pass_walls": [p.wall for p, _ in untraced],
              "pass_speed_ratios": [m.ratio for _, m in untraced]}
    if tracer is None:
        # Cold jobs: every execution of every pass.  Warm jobs: each
        # job's median answer across repeats (README.md, "Jobs").  All
        # in reference seconds: a job at the host's speed over its own
        # window, an in-process warm round at the speed over the round.
        cold = [s for p, m in untraced
                for s in job_seconds(p.cold, p.windows, m).values()]
        if service:
            warm = stats.median_per_label(
                [job_seconds(p.warm, p.windows, m) for p, m in untraced])
        else:
            attempted += sum(len(w) for w, _ in warm_rounds) * workloads.WARM_QUERIES
            warm = stats.median_per_label(
                [{label: s * m.ratio for label, s in w.items()} for w, m in warm_rounds])
        jobs = summarize_jobs(cold, list(warm.values()), report)
        agreement = verdict_agreement(workloads, workload.config)
        attempted += 2 * agreement["points"]
        values = {
            "setup_s": statistics.median(setup),
            "campaign_s": campaign_s,
            "peak_rss_mb": peak_rss_mb,
            "verdict_agreement": agreement["share"],
            **jobs,
        }
        if name == "agreement-timing":
            report["seeded_agreement"] = workload.seeded_agreement
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]}
                   for k in END_TO_END_UNITS}
    else:
        metrics = traced_metrics(workload, tracer, traced, layers, campaign_s, report)
    log(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def reference_campaign(passes) -> float:
    """``campaign_s``: the median pass wall time in reference seconds."""
    return statistics.median(p.wall * meter.ratio for p, meter in passes)


def write_reference(name: str, doc: dict) -> None:
    """Store ``doc`` as JSON with one line per result label."""
    path = reference_path(name)
    path.parent.mkdir(exist_ok=True)
    fields = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(doc.items())
              if k != "results"]
    rows = ",\n".join(f" {json.dumps(label)}: {json.dumps(value, sort_keys=True)}"
                       for label, value in sorted(doc["results"].items()))
    path.write_text("{" + "".join(f"{f}, " for f in fields)
                    + '"results": {\n' + rows + "\n}}\n")
    log(f"wrote {path}")


def verdict_agreement(workloads, config):
    """The pinned-sample agreement: functional side live, timing side stored.

    The timing side is the timing tasks' exact counters in the seed-0
    reference of ``agreement-timing``, which every seed-0 run of that
    workload checks against the live timing engine; so a changed timing
    engine shows there as failed operations.
    """
    functional = workloads.pinned_functional(config)
    timing = json.loads(reference_path("agreement-timing").read_text())["results"]
    return {"share": workloads.pinned_agreement(functional, timing),
            "points": len(functional)}


def traced_metrics(workload, tracer, traced, layers, campaign_s, report) -> dict:
    """Per-layer metrics: the median traced pass's split, plus overhead."""
    from layers import UNITS

    traced_s = reference_campaign(traced)
    mid = sorted(range(len(layers)), key=lambda i: layers[i]["bench.traced_pass_s"])
    chosen = dict(layers[mid[len(mid) // 2]])
    report["self_times"] = chosen.pop("bench.self_times")
    if chosen["timing.run_s"]:
        # Timing-engine component shares: one more traced pass, with the
        # profiler on inside timing simulations only.
        import cProfile

        tracer.profiler = cProfile.Profile()
        tracer.reset()
        tracer.install()
        try:
            workload.run_pass()
        finally:
            tracer.uninstall()
    chosen.update(tracer.component_shares())
    tracer.profiler = None
    chosen["bench.traced_campaign_s"] = traced_s
    chosen["bench.untraced_campaign_s"] = campaign_s
    chosen["bench.trace_overhead"] = traced_s / campaign_s - 1.0
    return {k: {"value": chosen[k], "unit": UNITS[k]} for k in UNITS}


if __name__ == "__main__":
    # On SIGTERM, unwind like an error: a running set-up probe is killed
    # and waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
