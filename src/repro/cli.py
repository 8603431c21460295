"""Command-line interface: ``python -m repro <command>``.

Every verdict command takes a shipped system (``repro.surface``),
``all`` or a generated ``gen:`` name:

- ``lint``     static pre-flight diagnostics for a system's boundmaps,
               timing conditions and mapping hierarchies;
- ``analyze``  static proofs: symbolic obligation discharge,
               interference rules and closed-form bounds;
- ``check``    full nominal verification — exploration, exhaustive
               Definition 3.2 mapping checks and the proof battery,
               whose zone checks report each declared interval's exact
               bound — verdict-cached;
- ``perturb``  fault injection: how much drift do the proofs survive?;
- ``run``      supervised verification campaign: crash-isolated
               workers, watchdogs, retry/backoff, checkpoint/resume;
- ``gen``      generated-system families and the differential fuzzer;
- ``dist``     the multi-host campaign worker daemon;
- ``serve``    the verification-as-a-service HTTP daemon;
- ``trace``    replayable JSONL telemetry trace of a checked run.

Exit codes follow one convention (the full table is in docs/api.md):
0 — everything requested passed; 1 — at least one requested system or
job failed *unexpectedly* (deliberately-broken systems like
``fischer-tight`` count as expected findings, except under an explicit
``--epsilon`` probe whose exit code reports the raw verdict);
2 — argparse usage errors.

This module imports only the standard library, :mod:`repro.catalog`
and, per command, what that command uses: ``repro --help`` and a warm
verdict-cache hit load no engine.  The ``lint``, ``analyze`` and
``check`` commands import their engines only on a cache miss.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from repro import catalog

__all__ = ["main"]


def _arg_type(validate):
    """An argparse type from a :mod:`repro.catalog` validator: nonsense
    exits 2 before any engine spins up."""

    def parse(text: str):
        try:
            return validate(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


_positive_int = _arg_type(catalog.positive_int)
_nonneg_int = _arg_type(catalog.nonneg_int)
_positive_fraction = _arg_type(lambda text: Fraction(catalog.positive_fraction(text)))


def _gen_aware_system(kind: str):
    """argparse type: ``all`` or a system the job ``kind`` admits
    (:meth:`repro.catalog.KindSpec.admit_system`), a ``gen:`` name in
    its canonical spelling.  Replaces ``choices=`` so generated names
    stay open-ended while nonsense still exits 2."""
    spec = catalog.KIND_SPECS[kind]

    def validate(text: str) -> str:
        from repro.errors import ReproError

        try:
            return text if text == "all" else spec.admit_system(text)
        except (ValueError, ReproError) as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return validate


def _add_cache_argument(parser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk verdict cache (.repro-cache; also "
             "disabled by REPRO_CACHE=0)",
    )


def _cli_cache(args):
    """The verdict cache this invocation should use, or ``None``."""
    from repro.cache import default_cache

    return default_cache(enabled=False if args.no_cache else None)


def _print_cache_stats(cache) -> None:
    if cache is not None:
        print(cache.stats_line(), file=sys.stderr)


def _verdict_command(args, kind, entry_of, failed, render, **extra) -> int:
    """The ``lint``/``analyze``/``check``/``perturb --epsilon`` loop:
    per system, answer from the verdict cache or compute
    ``entry_of(name, args, cache)`` and store it; then print the entries
    as JSON or through ``render``, and exit 1 when ``failed(entry,
    args)`` holds for any of them."""
    names = list(catalog.KIND_SPECS[kind].systems) if args.system == "all" else [args.system]
    cache = _cli_cache(args)
    # The key parts are the kind's spec params as this command set them,
    # minus ``strict`` (an entry records both strictness verdicts), plus
    # the ``extra`` options the command adds.  The ``payload`` part
    # keeps these report entries apart from the verdict payloads that
    # campaign and served jobs of the same kind store.
    base = {
        param: getattr(args, param)
        for param in catalog.KIND_SPECS[kind].params
        if param != "strict"
    }
    base.update(extra, payload="report")
    entries = []
    for name in names:
        parts = dict(base, **catalog.key_parts(name))
        entry = None if cache is None else cache.lookup(kind, name, parts)
        cached = entry is not None
        if entry is None:
            entry = entry_of(name, args, cache)
            # An inconclusive verdict (a budget cut or a truncated
            # exploration) proves nothing either way: never cached.
            if cache is not None and entry.get("conclusive", True):
                cache.store(kind, name, parts, entry)
        entries.append(dict(entry, cached=cached))
    any_failed = any(failed(entry, args) for entry in entries)
    if args.json:
        import json as _json

        print(_json.dumps(entries if args.system == "all" else entries[0], indent=2))
    else:
        render(entries)
        print("verdict: {}".format("FAIL" if any_failed else "ok"))
    _print_cache_stats(cache)
    return 1 if any_failed else 0


def _render_reports(kind):
    """The text renderer of ``lint``/``analyze`` entries."""

    def render(entries) -> None:
        for entry in entries:
            print(
                "{} {}{}:".format(
                    kind, entry["system"], " (cached)" if entry["cached"] else ""
                )
            )
            print(entry["rendered"])
            if entry.get("expected_broken"):
                print(
                    "  ({})".format(
                        "expected-broken: refuted as it should be"
                        if entry["fails"]["default"]
                        else "UNEXPECTED PASS for a deliberately broken system"
                    )
                )
            print()

    return render


def _lint_entry(name: str, args, cache) -> dict:
    """Lint one system: the cache entry a miss computes and stores."""
    from repro.lint import build_target, lint_system

    report = lint_system(build_target(name), max_states=args.max_states)
    return {
        "system": name,
        "diagnostics": report.to_dicts(),
        "summary": report.summary(),
        "fails": {
            "default": report.fails(strict=False),
            "strict": report.fails(strict=True),
        },
        "rendered": report.render(),
    }


def _report_failed(entry, args) -> bool:
    # Expected-broken systems (fischer-tight) must be refuted: only a
    # verdict/expectation mismatch fails the command.
    fails = entry["fails"]["strict" if args.strict else "default"]
    return fails != entry.get("expected_broken", False)


def cmd_lint(args) -> int:
    return _verdict_command(args, "lint", _lint_entry, _report_failed, _render_reports("lint"))


def _analyze_entry(name: str, args, cache) -> dict:
    """Analyze one system: the cache entry a miss computes and stores."""
    from repro.analyze import analyze_system, record_proved_mappings

    report = analyze_system(name)
    # Fully-proved mappings become cache entries that let a warm
    # `repro check` skip their exhaustive sweeps.
    record_proved_mappings(cache, report)
    entry = report.to_dict()
    entry["rendered"] = report.render()
    return entry


def cmd_analyze(args) -> int:
    return _verdict_command(
        args, "analyze", _analyze_entry, _report_failed, _render_reports("analyze")
    )


def _perturb_budget_factory(args):
    def factory():
        from repro.faults.budget import Budget

        return Budget(
            max_states=args.max_states,
            max_steps=args.max_steps,
            wall_time=Fraction(args.wall_time),
        )

    return factory


def _perturb_target(name: str, args):
    from repro.faults import build_perturb_target

    return build_perturb_target(
        name,
        direction=args.direction,
        mode=args.mode,
        seeds=args.seeds,
        steps=args.steps,
        seed=args.seed,
    )


def _probe_entry(name: str, args, cache) -> dict:
    """Probe one system at ``--epsilon``: the cache entry a miss computes."""
    target = _perturb_target(name, args)
    outcome = target.evaluate(Fraction(args.epsilon), _perturb_budget_factory(args)())
    return {
        "system": name,
        "direction": target.direction,
        "mode": target.mode,
        "epsilon": args.epsilon,
        "ok": outcome.ok,
        "conclusive": outcome.conclusive,
        "steps_checked": outcome.steps_checked,
        "exhausted_budget": outcome.exhausted_budget,
        "detail": outcome.detail,
    }


def _render_probes(entries) -> None:
    for entry in entries:
        verdict = "ok" if entry["ok"] else "FAIL"
        if entry["exhausted_budget"]:
            verdict += " (budget exhausted: partial)"
        if entry["cached"]:
            verdict += " (cached)"
        print(
            "{} [{} {} eps={}]: {} {}".format(
                entry["system"],
                entry["direction"],
                entry["mode"],
                entry["epsilon"],
                verdict,
                entry["detail"],
            ).rstrip()
        )


def cmd_perturb(args) -> int:
    # Exit nonzero when *any* probed system fails: with an explicit
    # --epsilon the exit code reports the raw verdict; in search mode a
    # BROKEN nominal system fails unless it is expected_broken
    # (fischer-tight ships deliberately broken — that finding is the
    # point, not a failure).
    if args.epsilon is not None:
        # ``--direction``/``--mode`` key as given: ``None`` means the
        # system's canonical stress, so no target is built to key a hit.
        return _verdict_command(
            args, "perturb", _probe_entry, lambda entry, args: not entry["ok"],
            _render_probes, direction=args.direction, mode=args.mode,
        )
    names = list(catalog.SURFACE_SYSTEMS) if args.system == "all" else [args.system]
    payload = []
    failed = False
    for name in names:
        target = _perturb_target(name, args)
        report = target.search(
            resolution=args.resolution,
            ceiling=args.ceiling,
            budget_factory=_perturb_budget_factory(args),
        )
        failed = failed or (report.broken and not target.expected_broken)
        payload.append(report.to_dict())
        if not args.json:
            print(report.render())
    if args.json:
        import json as _json

        print(_json.dumps(payload if args.system == "all" else payload[0], indent=2))
    return 1 if failed else 0


def cmd_run(args) -> int:
    import json as _json

    from repro.errors import ReproError
    from repro.runner import (
        JOB_KINDS,
        Ledger,
        RetryPolicy,
        Supervisor,
        default_jobs,
        load_ledger,
    )

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in JOB_KINDS]
    if unknown:
        print(
            "unknown job kind(s) {}; choose from {}".format(
                ", ".join(unknown), ", ".join(JOB_KINDS)
            ),
            file=sys.stderr,
        )
        return 2
    try:
        if args.resume:
            state = load_ledger(args.resume)
            if state.foreign_to():
                # Resuming is still fine — verdicts are host-independent
                # — but the operator should know the checkpoint they are
                # continuing was written somewhere else.
                print(
                    "warning: ledger {!r} was written on host {!r} "
                    "(pid {}); resuming on a different host".format(
                        args.resume, state.host, state.pid
                    ),
                    file=sys.stderr,
                )
            jobs = state.pending
            campaign_id = state.campaign_id
            prior = state.outcomes
            ledger_path = args.resume
            write_header = False
        else:
            jobs = default_jobs(
                systems=args.system or None,
                kinds=kinds,
                seeds=args.seeds,
                steps=args.steps,
                seed=args.seed,
                epsilon=args.epsilon,
                max_states=args.max_states,
                max_steps=args.max_steps,
                wall_time=args.wall_time,
                fuzz_count=args.fuzz_count,
                fuzz_shard=args.fuzz_shard,
            )
            campaign_id = None
            prior = None
            ledger_path = args.ledger
            write_header = True
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.dist:
        from repro.dist import DistConfig, DistCoordinator, parse_hosts

        if args.chaos:
            print(
                "--chaos (the local worker self-test) does not combine "
                "with --dist; use 'dist worker --chaos SPEC' for network "
                "chaos instead",
                file=sys.stderr,
            )
            return 2
        try:
            config = DistConfig(
                hosts=parse_hosts(args.dist),
                lease_ms=args.lease_ms,
                heartbeat_ms=args.heartbeat_ms,
                timeout=float(args.timeout),
                fallback_workers=max(1, args.workers),
            )
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        with Ledger(ledger_path) as ledger:
            coordinator = DistCoordinator(
                jobs,
                config,
                retry=RetryPolicy(max_retries=args.max_retries, seed=args.seed),
                ledger=ledger,
                campaign_id=campaign_id,
                prior_outcomes=prior,
                write_header=write_header,
                cache=_cli_cache(args),
                job_cache=False if args.no_cache else None,
            )
            report = coordinator.run()
    else:
        with Ledger(ledger_path) as ledger:
            supervisor = Supervisor(
                jobs,
                workers=args.workers,
                timeout=float(args.timeout),
                retry=RetryPolicy(max_retries=args.max_retries, seed=args.seed),
                ledger=ledger,
                chaos=args.chaos,
                campaign_id=campaign_id,
                prior_outcomes=prior,
                write_header=write_header,
                cache=False if args.no_cache else None,
            )
            report = supervisor.run()
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
        print("ledger: {}".format(ledger_path))
    return 0 if report.ok else 1


def _check_entry(name: str, args, cache) -> dict:
    """Check one system: the cache entry a miss computes.

    The reachability sweep the verdict requires is the zone graph of
    the closed system ``(A, b)``: its timed reachable set is finite even
    where the untimed one is not (rm's manager timer counts down without
    a floor).  The untimed exploration still runs, to its cap, and is
    reported as information.  A system whose bundle declares a
    ``bounded_sweep`` is too big for a full zone sweep: it keeps the
    untimed exploration as its required sweep, and its ``zones`` is
    ``None``."""
    import time as _time

    from repro.analyze import lookup_static_mapping
    from repro.core.checker import check_mapping_exhaustive
    from repro.faults import build_perturb_target
    from repro.ioa.explorer import explore
    from repro.surface import bundle, explore_automaton, mapping_specs
    from repro.zones.zone_graph import explore_zone_graph

    factory = _perturb_budget_factory(args)
    start = _time.perf_counter()
    automaton, cap = explore_automaton(name)
    result = explore(automaton, max_states=cap, budget=factory())
    system = bundle(name)
    if system.bounded_sweep is None:
        zones = explore_zone_graph(system.timed(), budget=factory())
        swept = not zones.truncated
        exhausted = zones.exhausted_budget
    else:
        zones = None
        swept = not result.truncated
        exhausted = result.exhausted_budget
    mappings = []
    mappings_ok = True
    for label, mapping, grid, horizon in mapping_specs(name):
        # A mapping the static analyzer already proved (all
        # obligations PROVED under the current analyze closure)
        # needs no exhaustive sweep.
        if lookup_static_mapping(cache, name, label) is not None:
            mappings.append(
                {
                    "mapping": label,
                    "ok": True,
                    "static": True,
                    "steps_checked": 0,
                    "exhausted_budget": False,
                    "detail": "statically proved (repro.analyze)",
                }
            )
            continue
        outcome = check_mapping_exhaustive(
            mapping, grid=grid, horizon=horizon, budget=factory()
        )
        mappings_ok = mappings_ok and outcome.ok
        exhausted = exhausted or outcome.exhausted_budget
        mappings.append(
            {
                "mapping": label,
                "ok": outcome.ok,
                "steps_checked": outcome.steps_checked,
                "exhausted_budget": outcome.exhausted_budget,
                "detail": outcome.detail,
            }
        )
    target = build_perturb_target(
        name, seeds=args.seeds, steps=args.steps, seed=args.seed
    )
    battery = target.evaluate(Fraction(0), factory())
    exhausted = exhausted or battery.exhausted_budget
    return {
        "system": name,
        "states": len(result.reachable),
        "transitions": result.transitions_explored,
        "truncated": result.truncated,
        "zones": None
        if zones is None
        else {
            "nodes": zones.nodes,
            "transitions": zones.transitions,
            "truncated": zones.truncated,
        },
        "mappings": mappings,
        "battery": {
            "ok": battery.ok,
            "conclusive": battery.conclusive,
            "steps_checked": battery.steps_checked,
            "exhausted_budget": battery.exhausted_budget,
            "detail": battery.detail,
        },
        "expected_broken": target.expected_broken,
        "ok": swept and mappings_ok and battery.ok,
        # A required sweep cut at its cap proves nothing either way: the
        # verdict is not conclusive, so it is never cached.
        "conclusive": battery.conclusive and not exhausted and swept,
        "wall": _time.perf_counter() - start,
    }


def _render_check(entries) -> None:
    from repro.table import Table

    table = Table("check — full nominal verification", [
        "system", "states", "zones", "mappings", "battery", "cached", "verdict",
    ])
    for entry in entries:
        if entry["ok"]:
            verdict = "unexpected-pass" if entry["expected_broken"] else "ok"
        else:
            verdict = "expected-broken" if entry["expected_broken"] else "FAIL"
        table.add_row(
            entry["system"],
            "{}+".format(entry["states"]) if entry["truncated"] else entry["states"],
            "-" if entry["zones"] is None else entry["zones"]["nodes"],
            "{}/{}".format(
                sum(1 for m in entry["mappings"] if m["ok"]),
                len(entry["mappings"]),
            ),
            "ok" if entry["battery"]["ok"] else "FAIL",
            "yes" if entry["cached"] else "no",
            verdict,
        )
    table.print()
    for entry in entries:
        if entry["battery"]["detail"]:
            print("{} battery:".format(entry["system"]))
            for line in entry["battery"]["detail"].split("; "):
                print("  " + line)
    print()


def cmd_check(args) -> int:
    # A deliberately-broken system (fischer-tight) is *expected* to
    # fail: only a mismatch between verdict and expectation counts
    # against the exit code.
    return _verdict_command(
        args, "check", _check_entry, lambda entry, args: entry["ok"] == entry["expected_broken"],
        _render_check,
    )


def cmd_serve(args) -> int:
    from repro.serve.app import ServeConfig, serve_main

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        timeout_s=float(args.timeout),
        max_retries=args.max_retries,
        journal_path=args.journal,
        backend=args.backend,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=float(args.breaker_cooldown),
        drain_grace_s=float(args.drain_grace),
        isolation=not args.inline,
        seed=args.seed,
    )
    return serve_main(config)


def cmd_dist_worker(args) -> int:
    from repro.dist import DistWorker, parse_plan
    from repro.errors import ReproError

    plan = None
    cache = None
    try:
        if args.chaos:
            plan = parse_plan(args.chaos)
        if args.backend:
            from repro.serve.backends import backend_cache

            cache = backend_cache(args.backend)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    worker = DistWorker(
        host=args.host,
        port=args.port,
        isolation=not args.inline,
        once=args.once,
        chaos=plan,
        cache=cache,
    )
    return worker.serve_forever()


def _resolve_gen_name(args) -> str:
    """``gen emit`` target: a full ``gen:`` name, or a family plus its
    parameter flags (``fischer --n 4``)."""
    from repro.errors import ReproError
    from repro.gen import GEN_PREFIX, family_specs, parse

    target = args.family
    if target.startswith(GEN_PREFIX):
        return parse(target).name
    specs = family_specs()
    if target not in specs:
        raise ReproError(
            "unknown family {!r}; choose from {} (or pass a full gen: name)".format(
                target, ", ".join(sorted(specs))
            )
        )
    flags = {
        "n": args.n,
        "k": args.k,
        "depth": args.depth,
        "fanout": args.fanout,
        "width": args.width,
    }
    wanted = specs[target]["params"]
    for key, value in flags.items():
        if value is not None and key not in wanted:
            raise ReproError(
                "family {!r} does not take --{} (its parameters: {})".format(
                    target, key, ", ".join("--" + p for p in wanted)
                )
            )
    values = []
    for key in wanted:
        if flags.get(key) is None:
            raise ReproError("family {!r} needs --{}".format(target, key))
        values.append(flags[key])
    name = GEN_PREFIX + target + "-" + "x".join(str(v) for v in values)
    return parse(name).name


def cmd_gen(args) -> int:
    import json as _json

    from repro.errors import ReproError
    from repro.gen import GEN_VERSION, build_bundle, family_specs, sample_names

    if args.gen_command == "list":
        specs = family_specs()
        if args.json:
            payload = {
                "gen_version": GEN_VERSION,
                "families": specs,
                "samples": sample_names(),
            }
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("generated-system families (gen_version {}):".format(GEN_VERSION))
            for family, spec in sorted(specs.items()):
                ranges = ", ".join(
                    "{} in [{}, {}]".format(key, lo, hi)
                    for key, lo, hi in spec["ranges"]
                )
                print("  gen:{:<12} {}".format(family, ranges))
            print("samples: " + ", ".join(sample_names()))
        return 0

    if args.gen_command == "emit":
        try:
            name = _resolve_gen_name(args)
            bundle = build_bundle(name)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(_json.dumps(bundle.describe_dict(), indent=2, sort_keys=True))
        return 0

    # gen fuzz
    from repro.gen.fuzzer import _instance_rng, run_campaign, sample_recipe

    if args.emit_only:
        recipes = [
            sample_recipe(_instance_rng(args.seed, index))
            for index in range(args.start, args.start + args.count)
        ]
        print(_json.dumps(recipes, indent=2, sort_keys=True))
        return 0
    report = run_campaign(
        count=args.count,
        seed=args.seed,
        start=args.start,
        artifact_dir=args.artifacts,
    )
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.detail)
        for inst in report.disagreements:
            print(
                "DISAGREEMENT at index {}: expected {}, verdicts {}{}".format(
                    inst.index,
                    inst.expected,
                    inst.verdicts,
                    " (reproducer in {})".format(args.artifacts)
                    if args.artifacts
                    else "",
                )
            )
        print("verdict: {}".format("ok" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def cmd_trace(args) -> int:
    from repro.obs.tracing import trace_system
    from repro.serialize import events_to_jsonl

    recorder, summary = trace_system(
        args.system, seed=args.seed, steps=args.steps
    )
    text = events_to_jsonl(recorder.events)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("trace {}: {} events -> {}".format(
            args.system, summary["events"], args.out
        ))
        for key in sorted(summary):
            if key != "events":
                print("  {}: {}".format(key, summary[key]))
    else:
        sys.stdout.write(text)
    return 0 if summary.get("ok", True) else 1


#: Help of the proof battery's flags; budget lines name their unit.
_BATTERY_HELP = {
    "seeds": "uniform-strategy seeds",
    "steps": "events per run",
    "seed": "base RNG seed",
    "max_states": "budget: states/nodes per {}",
    "max_steps": "budget: steps per {}",
    "wall_time": "budget: seconds of wall time per {}",
}


def _add_battery_arguments(parser, per: str, **defaults) -> None:
    """The proof battery's flags, typed by the ``check`` spec's
    validators: ``--seeds/--steps/--seed`` and the budget per ``per``.
    ``defaults`` replaces a flag's spec default."""
    for param, (default, validate) in catalog.KIND_SPECS["check"].params.items():
        parser.add_argument(
            "--" + param.replace("_", "-"),
            type=_arg_type(validate),
            default=defaults.get(param, default),
            help=_BATTERY_HELP[param].format(per),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lynch & Attiya (PODC 1990) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser(
        "lint", help="static pre-flight diagnostics for a shipped system"
    )
    lint.add_argument(
        "system", type=_gen_aware_system("lint"),
        help="a shipped system, 'all', or a generated name (gen:fischer-4)",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable diagnostics"
    )
    lint.add_argument(
        "--strict", action="store_true", help="treat warnings as failures"
    )
    lint.add_argument(
        "--max-states",
        type=_positive_int,
        default=catalog.LINT_MAX_STATES,
        help="cap on bounded exploration per automaton",
    )
    _add_cache_argument(lint)
    lint.set_defaults(func=cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: symbolic obligation discharge "
             "(Fourier–Motzkin), interference rules R015–R019 and "
             "closed-form Theorem 6.4 bounds — no state exploration",
    )
    analyze.add_argument(
        "system", type=_gen_aware_system("analyze"),
        help="a shipped system, 'all', or a generated name (gen:fischer-4)",
    )
    analyze.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    analyze.add_argument(
        "--strict", action="store_true", help="treat warnings as failures"
    )
    _add_cache_argument(analyze)
    analyze.set_defaults(func=cmd_analyze)

    check = sub.add_parser(
        "check",
        help="full nominal verification of a shipped system "
             "(exploration + exhaustive mapping checks + proof battery)",
    )
    check.add_argument(
        "system", type=_gen_aware_system("check"),
        help="a shipped system, 'all', or a generated name (gen:fischer-4)",
    )
    _add_battery_arguments(check, "phase", seeds=3, steps=80)
    check.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    _add_cache_argument(check)
    check.set_defaults(func=cmd_check)

    perturb = sub.add_parser(
        "perturb",
        help="fault-injection: how much clock drift do the proofs survive?",
    )
    perturb.add_argument(
        "system", type=_gen_aware_system("perturb"),
        help="a shipped system, 'all', or a generated name (gen:fischer-4)",
    )
    group = perturb.add_mutually_exclusive_group()
    group.add_argument(
        "--epsilon",
        type=_arg_type(catalog.nonneg_fraction),
        default=None,
        help="evaluate all checks at one exact drift ε (exit 1 on failure)",
    )
    group.add_argument(
        "--search",
        action="store_true",
        help="binary-search the largest passing ε (the default)",
    )
    perturb.add_argument(
        "--direction",
        choices=list(catalog.DIRECTIONS),
        default=None,
        help="override the system's canonical stress direction",
    )
    perturb.add_argument(
        "--mode",
        choices=list(catalog.MODES),
        default=None,
        help="rate drift (scale) or offset jitter (shift)",
    )
    perturb.add_argument(
        "--ceiling", type=_arg_type(catalog.exact), default=None, help="search cap on ε"
    )
    perturb.add_argument(
        "--resolution",
        type=_arg_type(catalog.exact),
        default=Fraction(1, 64),
        help="bracket width at which the search stops",
    )
    perturb.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    _add_battery_arguments(perturb, "probe", seeds=3, steps=80)
    _add_cache_argument(perturb)
    perturb.set_defaults(func=cmd_perturb)

    run = sub.add_parser(
        "run",
        help="supervised verification campaign with checkpoint/resume",
    )
    run.add_argument(
        "system", nargs="*", metavar="SYSTEM",
        help="systems to campaign over (default: all; 'all' accepted)",
    )
    run.add_argument(
        "--kinds", default=",".join(catalog.JOB_KINDS),
        help="comma-separated job kinds (default: {})".format(
            ",".join(catalog.JOB_KINDS)
        ),
    )
    run.add_argument(
        "--workers", type=_nonneg_int, default=2,
        help="concurrent isolated worker processes (0 = inline, no isolation)",
    )
    run.add_argument(
        "--timeout", type=_positive_fraction, default=Fraction(30),
        help="per-job watchdog seconds before the worker is killed",
    )
    run.add_argument(
        "--max-retries", type=_nonneg_int, default=2,
        help="retries per job for transient failures (crash/timeout/malformed/budget)",
    )
    run.add_argument(
        "--ledger", default="repro-ledger.jsonl", metavar="FILE.jsonl",
        help="checkpoint ledger path (appended as jobs settle)",
    )
    run.add_argument(
        "--resume", default=None, metavar="LEDGER",
        help="resume an interrupted campaign from its ledger (re-runs only unfinished jobs)",
    )
    run.add_argument(
        "--chaos", action="store_true",
        help="self-test: inject a worker crash, hang, and malformed result",
    )
    run.add_argument(
        "--dist", default=None, metavar="HOST:PORT,...",
        help="distribute the campaign over these 'repro dist worker' "
             "daemons (comma-separated); falls back to the local pool "
             "when none are reachable",
    )
    run.add_argument(
        "--lease-ms", type=_positive_int, default=5000,
        help="dist: job lease duration; a lease not renewed by a "
             "heartbeat within this window is reclaimed and reassigned",
    )
    run.add_argument(
        "--heartbeat-ms", type=_positive_int, default=1000,
        help="dist: worker heartbeat interval (must be < --lease-ms)",
    )
    run.add_argument(
        "--epsilon", type=_arg_type(catalog.nonneg_fraction), default=None,
        help="drift probed by 'perturb' jobs (default {})".format(
            catalog.KIND_SPECS["perturb"].params["epsilon"][0]
        ),
    )
    # None leaves each job kind's spec default in force.
    _add_battery_arguments(
        run, "job", **dict.fromkeys(("seeds", "steps", "max_states", "max_steps", "wall_time"))
    )
    run.add_argument(
        "--fuzz-count", type=_positive_int, default=catalog.FUZZ_CAMPAIGN,
        help="instances per 'fuzz'-kind campaign",
    )
    run.add_argument(
        "--fuzz-shard", type=_positive_int, default=50,
        help="instances per fuzz shard job (shards resume independently)",
    )
    run.add_argument("--json", action="store_true", help="machine-readable report")
    _add_cache_argument(run)
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser(
        "gen",
        help="parametric generated systems (gen:<family>-<params>) and "
             "the differential proof-method fuzzer",
    )
    gen_sub = gen.add_subparsers(dest="gen_command", required=True)
    gen_list = gen_sub.add_parser(
        "list", help="families, parameter ranges and sample names"
    )
    gen_list.add_argument("--json", action="store_true", help="machine-readable roster")
    gen_list.set_defaults(func=cmd_gen)
    gen_emit = gen_sub.add_parser(
        "emit",
        help="emit one generated system's bundle (automaton, bounds, "
             "obligations) as deterministic JSON",
    )
    gen_emit.add_argument(
        "family",
        help="a family name with parameter flags (fischer --n 4) or a "
             "full generated name (gen:fischer-4)",
    )
    gen_emit.add_argument(
        "--n", type=_positive_int, default=None, help="fischer: process count"
    )
    gen_emit.add_argument(
        "--k", type=_positive_int, default=None,
        help="relay_line / relay_ring: stage or station count",
    )
    gen_emit.add_argument(
        "--depth", type=_positive_int, default=None, help="relay_tree: depth"
    )
    gen_emit.add_argument(
        "--fanout", type=_positive_int, default=None, help="relay_tree: fanout"
    )
    gen_emit.add_argument(
        "--width", type=_positive_int, default=None, help="tournament: bracket width"
    )
    gen_emit.set_defaults(func=cmd_gen)
    gen_fuzz = gen_sub.add_parser(
        "fuzz",
        help="differential fuzz campaign: random well-formed instances "
             "through four independent proof methods; any split fails",
    )
    gen_fuzz.add_argument(
        "--count", type=_positive_int, default=100, help="instances to fuzz"
    )
    gen_fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    gen_fuzz.add_argument(
        "--start", type=_nonneg_int, default=0,
        help="first instance index (for manual sharding)",
    )
    gen_fuzz.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="write a JSON reproducer per disagreement here",
    )
    gen_fuzz.add_argument(
        "--emit-only", action="store_true",
        help="print the sampled instance recipes without running the oracle",
    )
    gen_fuzz.add_argument("--json", action="store_true", help="machine-readable report")
    gen_fuzz.set_defaults(func=cmd_gen)

    dist = sub.add_parser(
        "dist",
        help="multi-host campaign distribution (leases, heartbeats, "
             "partition-safe merge; see docs/distribution.md)",
    )
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)
    dist_worker = dist_sub.add_parser(
        "worker",
        help="campaign worker daemon: serves 'repro run --dist' "
             "coordinators jobs-at-a-time over TCP",
    )
    dist_worker.add_argument("--host", default="127.0.0.1", help="bind address")
    dist_worker.add_argument(
        "--port", type=_nonneg_int, default=0,
        help="TCP port (0 = ephemeral; the bound port is printed on start)",
    )
    dist_worker.add_argument(
        "--inline", action="store_true",
        help="execute attempts in-process (no subprocess isolation or "
             "hang protection; tests and benchmarks)",
    )
    dist_worker.add_argument(
        "--once", action="store_true",
        help="exit after the first cleanly completed coordinator session",
    )
    dist_worker.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic network fault plan for outbound frames, "
             "e.g. 'sever@result:2,dup@result:1' (see docs/distribution.md)",
    )
    dist_worker.add_argument(
        "--backend", default=None, metavar="SPEC",
        help="verdict-cache backend for warm-start sync (dir:<root> or "
             "sqlite:<path>; default: no worker-side pool)",
    )
    dist_worker.set_defaults(func=cmd_dist_worker)

    serve = sub.add_parser(
        "serve",
        help="verification-as-a-service HTTP daemon (journaled, "
             "deadline-aware, circuit-broken; see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=_nonneg_int, default=8421,
        help="TCP port (0 = ephemeral; the bound port is printed on start)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="worker threads executing jobs",
    )
    serve.add_argument(
        "--queue-depth", type=_positive_int, default=64,
        help="bounded admission queue depth (overflow answers 429)",
    )
    serve.add_argument(
        "--timeout", type=_positive_fraction, default=Fraction(30),
        help="per-attempt watchdog seconds before the worker is killed",
    )
    serve.add_argument(
        "--max-retries", type=_nonneg_int, default=1,
        help="default retries per job for transient failures",
    )
    serve.add_argument(
        "--journal", default="repro-serve-journal.jsonl", metavar="FILE.jsonl",
        help="durable request journal (replayed on restart after a crash)",
    )
    serve.add_argument(
        "--backend", default="dir:.repro-cache", metavar="SPEC",
        help="verdict-cache backend: dir:<root> or sqlite:<file.db>",
    )
    serve.add_argument(
        "--breaker-threshold", type=_positive_int, default=3,
        help="consecutive infrastructure failures before a system's "
             "circuit breaker opens",
    )
    serve.add_argument(
        "--breaker-cooldown", type=_positive_fraction, default=Fraction(30),
        help="seconds an open breaker waits before a half-open probe",
    )
    serve.add_argument(
        "--drain-grace", type=_positive_fraction, default=Fraction(30),
        help="seconds a SIGTERM drain waits for in-flight jobs "
             "(exit 4 when exceeded; unfinished jobs stay journaled)",
    )
    serve.add_argument(
        "--inline", action="store_true",
        help="run jobs in worker threads instead of isolated "
             "subprocesses (faster, but no crash/hang isolation)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="retry-backoff jitter seed"
    )
    serve.set_defaults(func=cmd_serve)

    trace = sub.add_parser(
        "trace", help="replayable JSONL telemetry trace of a checked run"
    )
    trace.add_argument("system", choices=list(catalog.SURFACE_SYSTEMS))
    trace.add_argument("--seed", type=int, default=0, help="RNG seed")
    trace.add_argument("--steps", type=int, default=80, help="events per run")
    trace.add_argument(
        "--out", default=None, metavar="FILE.jsonl",
        help="write the trace here (default: stdout)",
    )
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
