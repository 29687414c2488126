"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro figure8 [--scale small] [--apps MM,LIB]
    python -m repro figure8 --scale tiny --set gpu.l1_lines=512
    python -m repro all --scale tiny --jobs 4
    python -m repro figure8 --jobs 4 --no-cache
    python -m repro run MM --config DARSIE --set darsie.skip_ports=4 --trace
    python -m repro sweep darsie.skip_ports --values 1,2,4,8 --apps MM
    python -m repro lint [MM,LIB] [--strict] [--format json] [--melded]
    python -m repro soundness --scale tiny
    python -m repro meld-verify --scale tiny
    python -m repro compare-techniques --scale tiny
    python -m repro bench --scale small --out BENCH_timing.json
    python -m repro bench --scale tiny --baseline benchmarks/BENCH_baseline_tiny.json
    python -m repro config-check
    python -m repro chaos --seed 0
    python -m repro figure8 --timeout 120 --max-retries 2 --resume sweeps/fig8.jsonl
    python -m repro serve --port 8712 --jobs 4 --queue-limit 64
    python -m repro loadtest --duration 10 --concurrency 32 --check

Every command has its own subparser that accepts exactly the flags its
handler reads; any other flag is a usage error (exit 2).  Flags follow
the command name.  The experiment drivers come from
:data:`repro.harness.experiments.EXPERIMENT_REGISTRY` and take their
flags from their signatures: ``--scale`` for a ``scale`` parameter,
``--apps`` for ``abbrs``, ``--set`` (gpu.* only) for ``gpu_config``,
and the sweep-policy flags (:data:`POLICY_FLAGS`) when they declare
either of the last two, since those are the drivers that sweep.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

from repro.config import ConfigError, ExecPolicy, RunConfig, apply_overrides, parse_overrides
from repro.harness import parallel
from repro.harness.experiments import EXPERIMENT_REGISTRY, ablation_sweep
from repro.workloads import ALL_ABBRS, EXTENDED_ABBRS

#: The sweep-policy group: how :mod:`repro.harness.parallel` runs a
#: command's sweeps.  Applied once, in :func:`_configure_sweeps`.
POLICY_FLAGS = ("--jobs", "--no-cache", "--clear-cache", "--timeout",
                "--max-retries", "--resume", "--checkpoint-interval", "--max-cycles")

#: Driver parameter -> the flag that feeds it.
_DRIVER_FLAGS = {"scale": "--scale", "abbrs": "--apps", "gpu_config": "--set"}

#: Extra keys commands may stage for the --stats-dump payload (written in
#: main()'s finally, which would otherwise overwrite a command's dump).
_EXTRA_DUMP: dict = {}


def _app_list(text: str):
    """``--apps`` / ``[APPS]``: comma-separated abbreviations, validated."""
    if not text:
        return None
    abbrs = tuple(a.strip().upper() for a in text.split(","))
    unknown = set(abbrs) - set(EXTENDED_ABBRS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown apps: {sorted(unknown)}; known: {EXTENDED_ABBRS}")
    return abbrs


def _override(text: str):
    """``--set PATH=VALUE`` as a ``(path, value)`` pair."""
    try:
        return parse_overrides([text]).popitem()
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _flag_table() -> dict:
    """``add_argument`` keywords for every flag, by option string."""
    return {
        "--scale": dict(choices=["tiny", "small", "medium"],
                        help="workload problem size (default: %(default)s)"),
        "--apps": dict(type=_app_list, metavar="ABBRS",
                       help="comma-separated workload abbreviations, e.g. MM,LIB"),
        "--set": dict(dest="overrides", type=_override, action="append", default=[],
                      metavar="PATH=VALUE",
                      help="dotted-path config override, e.g. gpu.l1_lines=512 "
                           "(repeatable; only `run` takes non-gpu.* paths)"),
        "--config": dict(default="DARSIE",
                         help="BASE / UV / DAC-IDEAL / DARSIE / variants "
                              "(default: %(default)s)"),
        "--values": dict(required=True, metavar="V1,V2,...",
                         help="comma-separated values of the swept field"),
        "--trace": dict(action="store_true",
                        help="print a pipeline trace of the first cycles"),
        "--pipeline-trace": dict(metavar="PATH",
                                 help="dump per-cycle per-stage occupancy as JSONL to PATH"),
        "--json": dict(action="store_true", help="dump the result counters as JSON"),
        "--jobs": dict(type=int, metavar="N",
                       default=int(os.environ.get("REPRO_JOBS", "1") or 1),
                       help="fan (workload, config) runs across N worker "
                            "processes (default: $REPRO_JOBS or 1)"),
        "--no-cache": dict(action="store_true",
                           help="ignore and do not write the results/.cache result cache"),
        "--clear-cache": dict(action="store_true",
                              help="delete all cached results before running"),
        "--timeout": dict(type=float, default=0.0, metavar="S",
                          help="per-spec wall-clock timeout in seconds; needs "
                               "--jobs > 1 to be enforceable (default: off)"),
        "--max-retries": dict(type=int, default=0, metavar="N",
                              help="retry transient/timeout/crash failures up to N "
                                   "times per run (default: 0)"),
        "--resume": dict(metavar="PATH",
                         help="sweep journal: skip specs already completed in a "
                              "previous (possibly killed) run, append new ones"),
        "--checkpoint-interval": dict(type=int, default=0, metavar="N",
                                      help="write a crash-safe simulation checkpoint "
                                           "every N cycles; killed/timed-out runs resume "
                                           "from the newest checkpoint on retry "
                                           "(default: off)"),
        "--max-cycles": dict(type=int, default=0, metavar="N",
                             help="abort any simulation that exceeds N cycles with a "
                                  "DeadlockError and diagnostic dump (default: the "
                                  "GPU config's built-in limit)"),
        "--strict": dict(action="store_true", help="treat warnings as failures too"),
        "--format": dict(dest="output_format", default="text", choices=["text", "json"],
                         help="report format (default: text)"),
        "--melded": dict(action="store_true",
                         help="lint each kernel after the control-flow melding "
                              "transform as well"),
        "--repeats": dict(type=int, default=2, metavar="N",
                          help="timing repeats per entry (default: 2)"),
        "--out": dict(default="BENCH_timing.json", metavar="PATH",
                      help="where to write the report (default: %(default)s)"),
        "--baseline": dict(metavar="PATH", help="baseline report to gate against"),
        "--tolerance": dict(type=float, metavar="X",
                            help="fail when more than X times slower than the "
                                 "baseline (default: 2.0)"),
        "--seed": dict(type=int, default=0, metavar="N",
                       help="campaign seed (default: 0)"),
        "--budget": dict(type=int, default=200, metavar="M",
                         help="number of random kernels to generate (default: 200)"),
        "--corpus": dict(metavar="DIR",
                         help="corpus directory to replay and save shrunk "
                              "failures into (default: tests/corpus)"),
        "--no-save": dict(action="store_true",
                          help="do not write shrunk failures to the corpus directory"),
        "--workdir": dict(metavar="DIR",
                          help="persistent working directory for the journal (and "
                               "the chaos/loadtest cache); CI keeps it for failure "
                               "artifacts (default: none, or a temp dir)"),
        "--stats-dump": dict(metavar="PATH",
                             help="write the final sweep stats as JSON on exit "
                                  "(CI uploads this when a smoke job fails)"),
        "--host": dict(default="127.0.0.1", help="bind address (default: %(default)s)"),
        "--port": dict(type=int, metavar="N",
                       help="TCP port; 0 picks an ephemeral port (default: 8712)"),
        "--port-file": dict(metavar="PATH",
                            help="write the bound port here once listening"),
        "--queue-limit": dict(type=int, default=64, metavar="N",
                              help="max distinct configs pending simulation "
                                   "before 429 (default: %(default)s)"),
        "--url": dict(metavar="URL",
                      help="target server (default: spawn an in-process server "
                           "on an ephemeral port)"),
        "--duration": dict(type=float, default=10.0, metavar="S",
                           help="timed-phase length (default: %(default)s)"),
        "--concurrency": dict(type=int, default=32, metavar="N",
                              help="concurrent client connections (default: %(default)s)"),
        "--configs": dict(metavar="C1,C2,...",
                          help="variant mix (default: BASE,DARSIE)"),
        "--report": dict(metavar="PATH", help="write the JSON report here"),
        "--check": dict(action="store_true",
                        help="fail unless hits were served, nothing 5xx'd and "
                             "duplicate requests coalesced"),
        "--min-rps": dict(type=float, default=0.0, metavar="X",
                          help="with --check, also require at least X req/s "
                               "(default: off)"),
    }


def build_parser() -> argparse.ArgumentParser:
    """The CLI: one subparser per command, each taking only its own flags."""
    flags = _flag_table()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from the DARSIE paper (ASPLOS 2020).",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, func, *names, scale="small", apps_arg=False, summary=None,
                **defaults):
        sub = commands.add_parser(name, help=summary)
        if apps_arg:
            sub.add_argument("apps_arg", nargs="?", type=_app_list, metavar="APPS",
                             help="same as --apps")
        for flag in names + ("--stats-dump",):
            kwargs = dict(flags[flag], default=scale) if flag == "--scale" else flags[flag]
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=func, parser=sub, **defaults)
        return sub

    for name, fn in EXPERIMENT_REGISTRY.items():
        params = inspect.signature(fn).parameters
        names = tuple(flag for param, flag in _DRIVER_FLAGS.items() if param in params)
        if "abbrs" in params or "gpu_config" in params:
            names += POLICY_FLAGS
        command(name, run_drivers, *names, summary="paper experiment driver", drivers=[name])
    command("all", run_drivers, "--scale", "--apps", *POLICY_FLAGS,
            summary="run every experiment driver", drivers=list(EXPERIMENT_REGISTRY))
    command("list", run_list, summary="list experiments and variants")
    command("config-check", run_config_check, summary="validate committed config blocks")

    run = command("run", run_workload, "--scale", "--config", "--set", "--trace",
                  "--pipeline-trace", "--json", summary="simulate one workload")
    run.add_argument("workload", type=str.upper, choices=EXTENDED_ABBRS, metavar="ABBR",
                     help="a workload abbreviation, e.g. MM")
    sweep = command("sweep", run_sweep, "--values", "--apps", "--scale", "--set",
                    *POLICY_FLAGS, summary="sweep one config field")
    sweep.add_argument("field", help="a dotted config field, e.g. darsie.skip_ports")

    command("lint", run_lint, "--apps", "--scale", "--strict", "--format", "--melded",
            apps_arg=True, summary="lint the kernels")
    command("soundness", run_soundness, "--apps", "--scale", apps_arg=True,
            summary="cross-check static markings dynamically")
    command("meld-verify", run_meld_verify, "--apps", "--scale", "--workdir",
            scale="tiny", apps_arg=True, summary="differentially verify melding")
    command("bench", run_bench_cmd, "--apps", "--scale", "--set", "--repeats", "--out",
            "--baseline", "--tolerance", "--max-retries", apps_arg=True,
            summary="time the Figure-8 matrix")
    command("chaos", run_chaos, "--apps", "--scale", "--seed", "--jobs", "--workdir",
            scale="tiny", apps_arg=True, summary="seeded fault-injection soak")
    command("fuzz", run_fuzz, "--seed", "--budget", "--corpus", "--no-save", "--workdir",
            summary="differential random-kernel fuzzing")
    command("serve", run_serve, "--host", "--port", "--port-file", "--queue-limit",
            *POLICY_FLAGS, summary="serve sweeps over HTTP")
    command("loadtest", run_loadtest_cmd, "--url", "--duration", "--concurrency", "--apps",
            "--configs", "--report", "--check", "--min-rps", "--scale", "--queue-limit",
            "--workdir", *POLICY_FLAGS, scale="tiny", apps_arg=True,
            summary="load-test the sweep service")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "clear_cache" in vars(args):  # the command takes the sweep-policy group
        _configure_sweeps(args)
    try:
        return args.func(args.parser, args)
    finally:
        if args.stats_dump:
            _write_stats_dump(args.stats_dump)


def _configure_sweeps(args) -> None:
    """Apply the sweep-policy flags as the process-wide sweep defaults.

    Negative values come from outside the program and clamp to 0 (off).
    """
    parallel.configure(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        resume=args.resume,
        policy=ExecPolicy(
            timeout_s=max(0.0, args.timeout),
            max_retries=max(0, args.max_retries),
            checkpoint_interval_cycles=max(0, args.checkpoint_interval),
            max_cycles=max(0, args.max_cycles),
        ),
    )
    if args.clear_cache:
        removed = parallel.clear_cache()
        print(f"[cache] removed {removed} cached result(s)")


def _write_stats_dump(path: str) -> None:
    """Persist the last sweep's counters (a CI failure artifact)."""
    import json

    stats = parallel.last_sweep_stats()
    payload = {"last_sweep": stats.to_dict() if stats is not None else None}
    payload.update(_EXTRA_DUMP)
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"[stats-dump] could not write {path}: {exc}", file=sys.stderr)


def _gpu_config(parser, args):
    """The GPU config ``--set`` describes (None without it).

    Only `run` takes frontend/variant overrides; every other command
    with ``--set`` drives a whole machine, so only gpu.* paths apply.
    """
    overrides = dict(args.overrides)
    if not overrides:
        return None
    non_gpu = sorted(p for p in overrides if not p.startswith("gpu."))
    if non_gpu:
        parser.error(f"{args.command} only accepts gpu.* overrides; got {non_gpu} "
                     "(use `run` for frontend/variant overrides)")
    try:
        return apply_overrides(RunConfig(abbr="MM"), overrides).gpu
    except ConfigError as exc:
        parser.error(str(exc))


def _resolve_abbrs(args, default=ALL_ABBRS):
    """Kernel selection: the [APPS] positional, --apps, or ``default``."""
    return args.apps_arg or args.apps or default


def run_drivers(parser, args) -> int:
    """One experiment driver, or every driver for `all`."""
    given = vars(args)
    gpu_config = _gpu_config(parser, args) if "overrides" in given else None
    offered = {"scale": given.get("scale"), "abbrs": given.get("apps"),
               "gpu_config": gpu_config}
    for name in args.drivers:
        fn = EXPERIMENT_REGISTRY[name]
        params = inspect.signature(fn).parameters
        kwargs = {k: v for k, v in offered.items() if k in params and v is not None}
        # perf_counter: monotonic, unlike time.time() under clock adjustment
        start = time.perf_counter()
        result = fn(**kwargs)
        print(result if isinstance(result, str) else result.render())
        stats = getattr(result, "sweep_stats", None)
        if stats is not None:
            print(f"\n{stats.render()}")
        print(f"\n[{name} regenerated in {time.perf_counter() - start:.1f}s]\n")
    return 0


def run_list(parser, args) -> int:
    from repro.variants import REGISTRY

    print("available experiments:")
    for name in EXPERIMENT_REGISTRY:
        print(f"  {name}")
    print("\nregistered variants (for `run --config` / sweeps):")
    for variant in REGISTRY:
        tags = ",".join(variant.tags)
        print(f"  {variant.name:<22} [{tags}] {variant.description}")
    return 0


def run_lint(parser, args) -> int:
    """`python -m repro lint [ABBR,...] [--scale S] [--strict]
    [--format json] [--melded]`."""
    import json

    from repro.staticlib import lint_program, lint_workload
    from repro.workloads import build_workload

    abbrs = _resolve_abbrs(args, default=EXTENDED_ABBRS)
    reports = []   # (abbr, melded?, LintReport)
    for abbr in abbrs:
        workload = build_workload(abbr, args.scale)
        reports.append((abbr, False, lint_workload(workload)))
        if args.melded:
            from repro.staticlib.passes import darm_ideal_pass

            melded = darm_ideal_pass(workload.program)
            reports.append((abbr, True, lint_program(melded, launch=workload.launch)))
    errors = sum(len(r.errors) for _, _, r in reports)
    warnings = sum(len(r.warnings) for _, _, r in reports)
    failed = bool(errors or (args.strict and warnings))

    if args.output_format == "json":
        payload = {
            "kernels": [
                {
                    "abbr": abbr,
                    "scale": args.scale,
                    "melded": melded,
                    "findings": [
                        {
                            "rule": f.rule,
                            "severity": f.severity,
                            "pc": f.pc,
                            "message": f.message,
                        }
                        for f in report.findings
                    ],
                }
                for abbr, melded, report in reports
            ],
            "errors": errors,
            "warnings": warnings,
            "strict": args.strict,
            "failed": failed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for abbr, melded, report in reports:
            tag = f"{abbr}+meld" if melded else abbr
            print(f"{tag:>13}: {report.render()}")
        print(f"\nlint: {len(reports)} kernel(s), {errors} error(s), "
              f"{warnings} warning(s)" + (" [strict]" if args.strict else ""))
    return 1 if failed else 0


def run_soundness(parser, args) -> int:
    """`python -m repro soundness [--scale S] [--apps ABBR,...]`."""
    from repro.staticlib import audit_all

    abbrs = _resolve_abbrs(args, default=EXTENDED_ABBRS)
    report = audit_all(scale=args.scale, abbrs=abbrs)
    print(report.render())
    return 0 if report.ok else 1


def run_meld_verify(parser, args) -> int:
    """`python -m repro meld-verify [--scale S] [--apps ABBR,...]
    [--workdir DIR] [--stats-dump PATH]`.

    Differentially verifies the control-flow melding transform: every
    selected workload runs functionally with and without melding and
    must produce bit-identical memory and register state (plus a
    linter-clean melded program).  Exits nonzero on any mismatch.
    """
    import json

    from repro.staticlib.verify import verify_all

    abbrs = _resolve_abbrs(args, default=EXTENDED_ABBRS)
    journal = None
    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
        journal = open(os.path.join(args.workdir, "journal.jsonl"), "w")
    start = time.perf_counter()

    def progress(check):
        print(f"  {check.summary()}", flush=True)
        if journal is not None:
            journal.write(json.dumps(check.to_dict(), sort_keys=True) + "\n")
            journal.flush()

    try:
        report = verify_all(scale=args.scale, abbrs=abbrs, progress=progress)
    finally:
        if journal is not None:
            journal.close()
    _EXTRA_DUMP["meld_verify"] = report.to_dict()
    print()
    print(report.render())
    print(f"\n[meld-verify done in {time.perf_counter() - start:.1f}s]")
    return 0 if report.ok else 1


def run_bench_cmd(parser, args) -> int:
    """`python -m repro bench [--scale S] [--apps ...] [--repeats N]
    [--out PATH] [--baseline PATH] [--tolerance X]`."""
    from repro.harness import bench

    gpu_config = _gpu_config(parser, args)
    report = bench.run_bench(
        scale=args.scale,
        abbrs=_resolve_abbrs(args),
        repeats=args.repeats,
        gpu_config=gpu_config,
        max_retries=args.max_retries,
        progress=lambda e: print(
            f"  {e.abbr}/{e.config}: {e.wall_s_min:.3f}s ({e.cycles} cycles)",
            flush=True,
        ),
    )
    print()
    print(report.render())
    report.write(args.out)
    print(f"\n[bench report written to {args.out}]")
    if args.baseline is None:
        return 0
    baseline = bench.BenchReport.load(args.baseline)
    tolerance = args.tolerance if args.tolerance is not None else bench.DEFAULT_TOLERANCE
    outcome = bench.compare(report, baseline, tolerance=tolerance)
    print(outcome.render(tolerance))
    return 0 if outcome.ok else 1


def run_chaos(parser, args) -> int:
    """`python -m repro chaos [--seed N] [--scale S] [--apps ...] [--jobs N]`."""
    from repro.harness.chaos import chaos_soak

    # Without an app selection, the chaos module's fast default matrix.
    abbrs = _resolve_abbrs(args, default=None)
    start = time.perf_counter()
    kwargs = {"seed": args.seed, "scale": args.scale,
              "jobs": args.jobs if args.jobs > 1 else 2,
              "workdir": args.workdir}
    if abbrs is not None:
        kwargs["abbrs"] = abbrs
    report = chaos_soak(**kwargs)
    print(report.render())
    print(f"\n[chaos soak done in {time.perf_counter() - start:.1f}s]")
    return 0 if report.ok else 1


def run_fuzz(parser, args) -> int:
    """`python -m repro fuzz [--seed N] [--budget M] [--corpus DIR]
    [--no-save] [--workdir DIR] [--stats-dump PATH]`.

    First replays every committed corpus program (previously shrunk
    counterexamples) through all four differential oracles, then runs a
    fresh hypothesis campaign of ``--budget`` random kernels.  Exits
    nonzero if any corpus program or fresh candidate fails; a shrunk
    reproducer is saved to the corpus directory for triage.
    """
    import json

    from repro.fuzz import fuzz_campaign, replay_corpus

    start = time.perf_counter()
    journal = None
    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
        journal = open(os.path.join(args.workdir, "journal.jsonl"), "w")

    def emit(record) -> None:
        if journal is not None:
            journal.write(json.dumps(record, sort_keys=True) + "\n")
            journal.flush()

    dump = _EXTRA_DUMP.setdefault("fuzz", {})
    try:
        replays = replay_corpus(args.corpus)
        for record in replays:
            status = "ok" if record["ok"] else "FAIL"
            print(f"  corpus {record['name']}: {status}", flush=True)
            emit(dict(record, phase="corpus"))
        corpus_failures = [r for r in replays if not r["ok"]]
        dump["corpus"] = replays
        print(f"corpus: {len(replays)} program(s), "
              f"{len(corpus_failures)} failure(s)")
        for record in corpus_failures:
            print(record["failure"])

        report = fuzz_campaign(
            seed=args.seed,
            budget=args.budget,
            corpus_dir=args.corpus,
            save=not args.no_save,
        )
        dump["campaign"] = report.to_dict()
        emit(dict(report.to_dict(), phase="campaign"))
    finally:
        if journal is not None:
            journal.close()
    print()
    print(report.render())
    print(f"\n[fuzz done in {time.perf_counter() - start:.1f}s]")
    return 0 if report.ok and not corpus_failures else 1


def run_serve(parser, args) -> int:
    """`python -m repro serve [--host H] [--port N] [--queue-limit N]
    [--jobs N] [--resume JOURNAL] [--port-file PATH]`."""
    import asyncio

    from repro.serve import SweepServer
    from repro.serve.server import DEFAULT_PORT, serve_forever

    server = SweepServer(
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        jobs=max(1, args.jobs),
        queue_limit=args.queue_limit,
        journal=args.resume,
    )
    asyncio.run(serve_forever(server, port_file=args.port_file))
    return 0


def run_loadtest_cmd(parser, args) -> int:
    """`python -m repro loadtest [--url U] [--duration S] [--concurrency N]
    [--apps A,B] [--configs C1,C2] [--report PATH] [--check [--min-rps X]]`."""
    from repro.serve import run_loadtest
    from repro.serve.loadgen import DEFAULT_APPS, DEFAULT_CONFIGS
    from repro.variants import REGISTRY

    configs = DEFAULT_CONFIGS
    if args.configs:
        configs = tuple(c.strip().upper() for c in args.configs.split(","))
        unknown = [c for c in configs if c not in REGISTRY]
        if unknown:
            parser.error(f"unknown configs: {unknown}; known: {REGISTRY.names()}")
    report = run_loadtest(
        url=args.url,
        duration_s=args.duration,
        concurrency=args.concurrency,
        apps=_resolve_abbrs(args, default=DEFAULT_APPS),
        configs=configs,
        scale=args.scale,
        jobs=max(1, args.jobs),
        queue_limit=args.queue_limit,
        workdir=args.workdir,
        journal=args.resume,
    )
    if args.check:
        report.check(min_rps=args.min_rps)
    print(report.render())
    if args.report:
        report.write(args.report)
        print(f"\n[loadtest report written to {args.report}]")
    return 0 if report.ok else 1


def run_config_check(parser, args) -> int:
    """`python -m repro config-check`: validate committed config blocks."""
    from repro.harness.config_check import check_all

    report = check_all()
    print(report.render())
    return 0 if report.ok else 1


def run_sweep(parser, args) -> int:
    """`python -m repro sweep FIELD --values V1,V2,... [--apps ABBR]`."""
    values = [text.strip() for text in args.values.split(",")]
    abbr = "MM"
    if args.apps:
        if len(args.apps) > 1:
            parser.error(f"sweep takes one app; got {','.join(args.apps)}")
        abbr = args.apps[0]
        if abbr not in ALL_ABBRS:
            parser.error(f"unknown app {abbr!r}; known: {ALL_ABBRS}")
    gpu_config = _gpu_config(parser, args)
    start = time.perf_counter()
    try:
        result = ablation_sweep(
            args.field, values, abbr=abbr, scale=args.scale, gpu_config=gpu_config
        )
    except ConfigError as exc:
        parser.error(str(exc))
    print(result.render())
    if result.sweep_stats is not None:
        print(f"\n{result.sweep_stats.render()}")
    print(f"\n[sweep of {args.field} done in {time.perf_counter() - start:.1f}s]")
    return 0


def run_workload(parser, args) -> int:
    """`python -m repro run ABBR --config NAME [--set PATH=VALUE] [--trace]`."""
    from repro.harness.runner import WorkloadRunner
    from repro.timing import PipelineTrace
    from repro.timing.gpu import GPU
    from repro.variants import REGISTRY

    cfg = RunConfig(abbr=args.workload, variant=args.config, scale=args.scale)
    try:
        cfg = apply_overrides(cfg, dict(args.overrides))
    except ConfigError as exc:
        parser.error(str(exc))
    if cfg.darsie is None and cfg.variant not in REGISTRY:
        parser.error(f"unknown configuration {cfg.variant!r}; known: {REGISTRY.names()}")
    runner = WorkloadRunner.from_config(cfg)
    base = runner.run("BASE")
    res = runner.run_config(cfg)
    print(f"{cfg.abbr} [{cfg.scale}] under {cfg.variant}:")
    print(f"  cycles  : {res.cycles} (BASE {base.cycles}, "
          f"speedup {base.cycles / res.cycles:.2f}x)")
    print(f"  executed: {res.stats.instructions_executed}  "
          f"skipped: {res.stats.instructions_skipped}  "
          f"eliminated: {res.stats.executions_eliminated}")
    print(f"  energy  : {res.energy_pj / 1e6:.2f} uJ "
          f"({1.0 - res.energy_pj / base.energy_pj:.1%} below BASE)")
    if args.json:
        print(res.sim.to_json(indent=2))
    if args.trace or args.pipeline_trace:
        # Re-run with the tracer attached (traces are not cached).
        # Use the variant's simulation program so transform-based
        # variants (DARM) trace the melded code they actually ran.
        mem, params = runner.workload.fresh()
        gpu = GPU(runner.simulation_program(cfg.variant), runner.workload.launch, mem,
                  params=params, config=runner.gpu_config,
                  frontend_factory=runner.frontend_factory(cfg.variant, cfg.darsie))
        trace = PipelineTrace()
        gpu.attach_trace(trace)
        gpu.run()
        if args.trace:
            print()
            print(trace.render(max_cycles=110, max_warps=10))
        if args.pipeline_trace:
            lines = trace.write_jsonl(args.pipeline_trace)
            print(f"  wrote {lines} stage-occupancy samples to {args.pipeline_trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
