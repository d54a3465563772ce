"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiment <name>`` — run one paper experiment (table1, fig3, ...) and
  print its table/series. ``--scale small|default|paper``, ``--seed N``.
- ``suite`` — run every experiment at one scale and print all outputs
  (this regenerates the EXPERIMENTS.md numbers).
- ``generate <dir>`` — build the synthetic sources, run the merge
  pipeline, and save the merged dataset as CSV tables.
- ``serve-demo`` — fit BPR and answer a few sample recommendation
  requests through the application service.
- ``health <path>`` — verify the checksum manifests of saved artefacts
  (datasets, models, and versioned model stores) and print a health
  report; exits 1 on corruption. For a model store the report lists every
  version, its manifest status, and which one ``CURRENT`` points at, and
  fails when ``CURRENT`` dangles or its version is corrupt.
- ``lifecycle <action> <store>`` — manage a versioned model store:
  ``publish`` fits BPR (warm-started from the current version when
  possible) and publishes it as the next version, ``rollback`` repoints
  ``CURRENT`` at an earlier intact version, ``list`` prints the version
  table, ``gc`` sweeps old/broken versions.
- ``metrics <path>`` — run the instrumented demo (pipeline → fit →
  evaluate → serve), write the metrics snapshot JSON to ``<path>``, and
  optionally export the span trace (``--trace out.jsonl``) plus a
  per-stage timing table. ``--deterministic`` pins the tracer/service
  clocks so the output is bit-reproducible (the golden-test setting).
- ``corpus <dir>`` — generate a sharded, out-of-core synthetic corpus
  (columnar npz shards behind checksum manifests) for the paper-scale
  data path; ``--resume`` continues an interrupted write, reusing every
  shard that already verifies.
- ``check [paths]`` — run the static analyzer (determinism, layering,
  lock discipline, seed lineage, dtype tiers, lock ordering, resource
  lifetimes, exception hygiene, docs integrity) over the given paths
  (default ``src``); exits 1 when findings survive suppression. Warm
  re-runs hit the incremental cache (``--no-cache`` to bypass); output
  formats are text, JSON, and SARIF 2.1.0, and ``--explain
  <fingerprint>`` prints a finding's interprocedural witness path.

The global ``--jobs N`` flag parallelises the merge pipeline and the
grid search across N worker processes; results are bit-identical to
``--jobs 1`` (see ``docs/determinism.md``). Performance is measured by
the end-to-end benchmark in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import ExperimentContext
from repro.experiments.config import config_for_scale
from repro.experiments.registry import available_experiments, run_experiment


#: Shown under ``python -m repro --help`` so every subcommand is
#: discoverable from the top level (argparse otherwise hides them behind
#: ``<command> --help``). Keep in sync with the subparsers below — the
#: CLI test asserts each registered command appears here.
EPILOG = """\
commands:
  experiment <name>   run one paper experiment (table1, fig3, ...)
  suite               run every experiment at one scale
  generate <dir>      build + merge the synthetic sources, save as CSV
  serve-demo          fit BPR and answer sample requests
  corpus <dir>        generate a sharded synthetic corpus (npz shards + manifests)
  health <path>       verify artefact checksum manifests (exit 1 = corrupt)
  lifecycle <action> <store>
                      versioned model store: publish | rollback | list | gc
  metrics <path>      instrumented demo -> metrics snapshot JSON
  check [paths]       run the static analyzer (exit 1 = findings)

run `python -m repro <command> --help` for per-command options.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Recommendation Systems in Libraries' "
            "(EDBT 2023)"
        ),
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scale", choices=("small", "default", "paper"), default="default",
        help="dataset scale preset (default: default)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="world seed override"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the merge pipeline and grid search "
        "(default: 1 = serial; -1 = all CPUs; results are bit-identical "
        "for every value)",
    )
    parser.add_argument(
        "--output", default=None, metavar="DIR",
        help="also write each experiment's rendered output to DIR/<name>.txt",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser("experiment", help="run one experiment")
    experiment.add_argument("name", choices=available_experiments())

    sub.add_parser("suite", help="run every experiment")

    generate = sub.add_parser(
        "generate", help="generate and save the merged dataset"
    )
    generate.add_argument("directory")

    sub.add_parser("serve-demo", help="fit BPR and serve sample requests")

    corpus = sub.add_parser(
        "corpus",
        help="generate a sharded synthetic corpus (npz shards + manifests)",
    )
    corpus.add_argument("directory", help="where to write the corpus")
    corpus.add_argument(
        "--loans", type=int, default=None, metavar="N",
        help="number of BCT loan events (default: 100000)",
    )
    corpus.add_argument(
        "--ratings", type=int, default=None, metavar="N",
        help="number of Anobii rating events (default: 100000)",
    )
    corpus.add_argument(
        "--books", type=int, default=None, metavar="N",
        help="catalogue size (default: 2000)",
    )
    corpus.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shards per event stream (default: 8; row-identical for "
        "every value)",
    )
    corpus.add_argument(
        "--rows-per-chunk", type=int, default=None, metavar="N",
        help="rows per deterministic generation chunk (default: 65536)",
    )
    corpus.add_argument(
        "--resume", action="store_true",
        help="keep shards that already verify against their manifests "
        "and only regenerate the rest",
    )

    health = sub.add_parser(
        "health",
        help="verify artefact checksums and print a health report",
    )
    health.add_argument(
        "target",
        help="artefact to check: a dataset/model directory, a model store, "
        "or a file",
    )

    lifecycle = sub.add_parser(
        "lifecycle",
        help="manage a versioned model store (publish/rollback/list/gc)",
    )
    lifecycle.add_argument(
        "action", choices=("publish", "rollback", "list", "gc"),
        help="publish: fit + publish the next version (warm-started from "
        "CURRENT when possible); rollback: repoint CURRENT at an earlier "
        "intact version; list: print the version table; gc: sweep "
        "old/broken versions",
    )
    lifecycle.add_argument("store", help="model store directory")
    lifecycle.add_argument(
        "--to", default=None, metavar="VERSION",
        help="rollback target version name (default: newest intact "
        "version older than CURRENT)",
    )
    lifecycle.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="intact versions gc keeps besides CURRENT (default: 2)",
    )
    lifecycle.add_argument(
        "--cold", action="store_true",
        help="publish without warm-starting from the current version",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run the instrumented demo and write a metrics snapshot",
    )
    metrics.add_argument(
        "snapshot", help="where to write the metrics snapshot JSON"
    )
    metrics.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also export the span trace as JSONL and print a stage table",
    )
    metrics.add_argument(
        "--deterministic", action="store_true",
        help="pin tracer/service clocks for bit-reproducible output",
    )

    check = sub.add_parser(
        "check",
        help="run the static analyzer over source paths",
    )
    check.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    check.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    check.add_argument(
        "--rule", action="append", default=None, metavar="RULE-ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    check.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file of grandfathered findings to ignore",
    )
    check.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write surviving findings as a new baseline and exit 0",
    )
    check.add_argument(
        "--root", default=None, metavar="DIR",
        help="repository root (default: auto-detected from the first path)",
    )
    check.add_argument(
        "--explain", default=None, metavar="FINGERPRINT",
        help="print the witness path of one finding (any unique "
        "fingerprint prefix) instead of the report",
    )
    check.add_argument(
        "--no-cache", action="store_true",
        help="bypass the incremental cache under .cache/repro-check/",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "health":
        return _health(args.target)
    if args.command == "lifecycle":
        return _lifecycle(args)
    if args.command == "metrics":
        return _metrics(args)
    if args.command == "corpus":
        return _corpus(args)
    if args.command == "check":
        return _check(args)
    config = config_for_scale(args.scale, seed=args.seed, n_jobs=args.jobs)
    context = ExperimentContext(config)
    if args.command == "experiment":
        result = run_experiment(args.name, context)
        _print_result(result)
        if args.output:
            _write_result(args.output, args.name, result)
    elif args.command == "suite":
        for name in available_experiments():
            started = time.perf_counter()
            result = run_experiment(name, context)
            elapsed = time.perf_counter() - started
            print(f"===== {name} ({elapsed:.1f}s) =====")
            _print_result(result)
            print()
            if args.output:
                _write_result(args.output, name, result)
    elif args.command == "generate":
        _generate(context, args.directory)
    elif args.command == "serve-demo":
        _serve_demo(context)
    return 0


def _print_result(result: object) -> None:
    print(_render_result(result))


def _render_result(result: object) -> str:
    if isinstance(result, tuple):
        return "\n".join(item.render() for item in result)  # type: ignore[attr-defined]
    return result.render()  # type: ignore[attr-defined]


def _write_result(directory: str, name: str, result: object) -> None:
    from pathlib import Path

    from repro.resilience.artefacts import atomic_write

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"{name}.txt"
    with atomic_write(path, "w", encoding="utf-8") as handle:
        handle.write(_render_result(result) + "\n")
    print(f"(written to {path})")


def _generate(context: ExperimentContext, directory: str) -> None:
    from repro.app.persistence import save_dataset

    merged = context.merged
    print(context.merge_report)
    save_dataset(merged, directory)
    print(
        f"saved merged dataset to {directory}: {merged.n_books} books, "
        f"{merged.n_users} users, {merged.n_readings} readings"
    )


def _serve_demo(context: ExperimentContext) -> None:
    from repro.app.service import RecommendationRequest, RecommendationService

    model = context.model("bpr")
    service = RecommendationService(model, context.split.train, context.merged)
    users = context.merged.bct_user_ids[:3]
    for user_id in users:
        books = service.recommend(RecommendationRequest(user_id=user_id, k=5))
        print(f"user {user_id}:")
        for book in books:
            print(f"  {book.rank:2d}. {book.title} — {book.author}")
    print(
        f"served {service.stats.requests} requests, "
        f"mean latency {service.stats.mean_seconds * 1000:.1f} ms"
    )


def _health(target: str) -> int:
    """Verify artefact manifests under ``target``; 0 = healthy, 1 = not."""
    from pathlib import Path

    from repro.errors import PersistenceError
    from repro.resilience.artefacts import MANIFEST_NAME, verify_manifest

    from repro.app.lifecycle import ModelStore

    root = Path(target)
    if not root.exists():
        print(f"health: {root} does not exist")
        return 1
    if ModelStore.is_store(root):
        return _health_store(ModelStore(root))
    checks: list[tuple[str, Path]] = []
    if root.is_file():
        checks.append((root.name, root))
    else:
        if (root / MANIFEST_NAME).exists():
            checks.append((f"{root.name}/", root))
        for manifest in sorted(root.glob("*.manifest.json")):
            artefact = manifest.with_name(manifest.name[: -len(".manifest.json")])
            checks.append((artefact.name, artefact))
        for sub in sorted(p for p in root.iterdir() if p.is_dir()):
            if (sub / MANIFEST_NAME).exists():
                checks.append((f"{sub.name}/", sub))
    print(f"artefact health report for {root}")
    if not checks:
        print("  no manifested artefacts found")
        print("status: unknown")
        return 1
    failures = 0
    for label, artefact in checks:
        try:
            manifest = verify_manifest(artefact)
        except PersistenceError as exc:
            failures += 1
            print(f"  {label:<24} FAIL  {type(exc).__name__}: {exc}")
        else:
            kind = manifest.get("kind", "artefact")
            n_files = len(manifest.get("files", {}))
            print(f"  {label:<24} ok    {kind}, {n_files} file(s) verified")
    if failures:
        print(f"status: corrupt ({failures} of {len(checks)} artefacts failed)")
        return 1
    print(f"status: ok ({len(checks)} artefact(s) verified)")
    return 0


def _health_store(store) -> int:
    """Report a model store's versions and ``CURRENT`` pointer.

    Exit 0 only when ``CURRENT`` resolves to an intact version. Broken
    *non-current* versions are listed (they are ``lifecycle gc`` fodder)
    but do not fail the store.
    """
    report = store.health_report()
    print(f"model store health report for {report['root']}")
    if not report["versions"]:
        print("  no versions published")
    for version in report["versions"]:
        marker = "  <- CURRENT" if version["name"] == report["current"] else ""
        state = "ok   " if version["status"] == "ok" else "FAIL "
        detail = "" if version["status"] == "ok" else f" {version['status']}"
        print(f"  {version['name']:<12} {state}{detail}{marker}")
    if report["current"] is None:
        print("  CURRENT: (unpublished)")
    else:
        print(f"  CURRENT: {report['current']} [{report['current_status']}]")
    print(f"status: {report['status']}")
    return 0 if report["status"] == "ok" else 1


def _lifecycle(args: argparse.Namespace) -> int:
    """Drive the versioned model store; exit 1 on lifecycle failures."""
    from repro.app.lifecycle import DEFAULT_GC_KEEP, ModelStore
    from repro.errors import PersistenceError, ReproError

    store = ModelStore(args.store)
    try:
        if args.action == "publish":
            return _lifecycle_publish(args, store)
        if args.action == "rollback":
            target = store.rollback(args.to)
            print(f"rolled back: CURRENT -> {target.name}")
            return 0
        if args.action == "gc":
            keep = args.keep if args.keep is not None else DEFAULT_GC_KEEP
            removed = store.gc(keep=keep)
            names = ", ".join(v.name for v in removed) if removed else "nothing"
            print(f"gc removed: {names} (kept {keep} + CURRENT)")
            return 0
    except (PersistenceError, ReproError) as exc:
        print(f"lifecycle: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # list
    report = store.health_report()
    if not report["versions"]:
        print(f"model store {args.store}: no versions published")
        return 0
    print(f"model store {args.store}")
    for version in report["versions"]:
        marker = "  <- CURRENT" if version["name"] == report["current"] else ""
        print(f"  {version['name']:<12} {version['status']}{marker}")
    return 0


def _lifecycle_publish(args: argparse.Namespace, store) -> int:
    """Fit BPR at the configured scale and publish it as the next version."""
    from repro.errors import PersistenceError

    config = config_for_scale(args.scale, seed=args.seed, n_jobs=args.jobs)
    context = ExperimentContext(config)
    warm = None
    if not args.cold:
        try:
            warm, _ = store.load()
        except PersistenceError:
            warm = None  # first publish, or broken current: cold start
        if warm is not None and warm.config.n_factors != config.bpr.n_factors:
            print(
                f"warm start skipped: current version has "
                f"{warm.config.n_factors} factors, config wants "
                f"{config.bpr.n_factors}"
            )
            warm = None
    from repro.core.bpr import BPR

    model = BPR(config.bpr)
    train = context.split.train
    model.fit(train, context.merged, warm_start=warm)
    version = store.publish(model, train)
    mode = "warm-started" if warm is not None else "cold"
    print(
        f"published {version.name} ({mode}): "
        f"{train.n_users} users x {train.n_items} items, "
        f"CURRENT -> {version.name}"
    )
    return 0


def _check(args: argparse.Namespace) -> int:
    """Run the static analyzer; 0 = clean, 1 = findings, 2 = usage error."""
    from pathlib import Path

    from repro.analysis import run_check, write_baseline
    from repro.analysis.cache import CACHE_DIRNAME
    from repro.analysis.runner import detect_root, explain_finding

    path_list = [Path(p) for p in args.paths]
    resolved_root = (
        Path(args.root).resolve() if args.root else detect_root(path_list)
    )
    cache_dir = None if args.no_cache else resolved_root / CACHE_DIRNAME
    try:
        result = run_check(
            args.paths,
            root=resolved_root,
            rule_ids=args.rule,
            baseline=args.baseline,
            cache_dir=cache_dir,
        )
    except ValueError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 2
    if args.explain:
        explanation = explain_finding(result, args.explain)
        if explanation is None:
            print(
                f"check: no finding matches fingerprint {args.explain!r}",
                file=sys.stderr,
            )
            return 2
        print(explanation)
        return 0
    if args.write_baseline:
        write_baseline(result.all_findings, Path(args.write_baseline))
        print(
            f"baseline written to {args.write_baseline} "
            f"({len(result.all_findings)} finding(s))"
        )
        return 0
    if args.format == "json":
        print(result.render_json())
    elif args.format == "sarif":
        print(result.render_sarif())
    else:
        print(result.render_text())
    return 0 if result.ok else 1


def _metrics(args: argparse.Namespace) -> int:
    """Run the instrumented demo; write snapshot JSON and optional trace."""
    import json

    from repro.obs.demo import run_instrumented_demo
    from repro.obs.report import render_stage_table
    from repro.resilience.artefacts import atomic_write

    kwargs = {"deterministic": args.deterministic}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    run = run_instrumented_demo(**kwargs)

    snapshot = run.metrics.snapshot()
    with atomic_write(args.snapshot) as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"metrics snapshot written to {args.snapshot}")
    print(
        f"  {len(snapshot['counters'])} counters, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{len(snapshot['histograms'])} histograms"
    )
    if args.trace:
        run.tracer.export_jsonl(args.trace)
        spans = [span.as_dict() for span in run.tracer.spans]
        print(f"trace ({len(spans)} spans) written to {args.trace}")
        print(render_stage_table(spans))
    print(f"service health: {run.health['status']}")
    return 0


def _corpus(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.datasets.corpus import CorpusConfig, ShardedCorpusWriter

    config = CorpusConfig()
    if args.seed is not None:
        config = dc_replace(config, seed=args.seed)
    if args.loans is not None:
        config = dc_replace(config, n_loans=args.loans)
    if args.ratings is not None:
        config = dc_replace(config, n_ratings=args.ratings)
    if args.books is not None:
        config = dc_replace(config, n_books=args.books)
    if args.shards is not None:
        config = dc_replace(config, n_shards=args.shards)
    if args.rows_per_chunk is not None:
        config = dc_replace(config, rows_per_chunk=args.rows_per_chunk)
    corpus = ShardedCorpusWriter(args.directory, config).write(
        resume=args.resume
    )
    meta = corpus.meta
    print(
        f"corpus written to {args.directory}: "
        f"{meta['n_loans']} loans in {meta['loan_shards']} shard(s), "
        f"{meta['n_ratings']} ratings in {meta['rating_shards']} shard(s)"
    )
    print(f"verify with: python -m repro health {args.directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
