"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``profile <csv>`` (alias: ``discover``) — discover dependencies in a
  CSV and report them (see :mod:`repro.profiler`);
* ``check <csv> --fd X->Y [--fd ...] [--rules rules.json]`` — validate
  declared dependencies (FDs inline, any Table-2 notation via a JSON
  rule file; see :mod:`repro.rules_io`) and print their violations;
* ``watch <csv> --rules rules.json [--log batches.jsonl]`` — replay a
  mutation log (JSONL, one batch per line; ``-`` or no ``--log`` reads
  stdin) through the incremental validation engine and print the
  violation changefeed per batch;
* ``lint <rules.json> [--csv data.csv] [--fix]`` — statically analyze a
  rule file without touching data: unsatisfiable/trivial rules, schema
  mismatches, implied/duplicate/conflicting rules (stable ``DD0xx``
  diagnostic codes, see :mod:`repro.analysis`); exits 1 on
  error-severity findings, ``--fix`` writes the minimized rule set;
* ``serve [--host H] [--port P] [--data-dir D] [--fsync P]`` — run the
  multi-tenant dependency-checking HTTP service (tenants, rule upload,
  batch ingestion, background discovery/repair jobs, Prometheus
  ``/metrics``; with ``--data-dir``, a per-tenant write-ahead log plus
  snapshots and crash recovery; see :mod:`repro.server` and
  ``docs/server.md``);
* ``tree`` — print the family tree of extensions (Fig. 1A);
* ``survey`` — print the regenerated Tables 2/3 and Figs 1B/2/3.

Column types: numerical columns are auto-detected (every non-empty cell
parses as a number) unless ``--text`` / ``--numerical`` overrides are
given.

``profile``/``check``/``watch`` all take ``--timeout SECONDS`` and
``--max-candidates N``: a resource :class:`~repro.runtime.budget.Budget`
governing the whole run.  On exhaustion the command reports what it
finished (marked partial) and exits 3 where partiality matters, instead
of dying mid-way with nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .core.categorical import FD
from .profiler import profile_relation
from .relation import Attribute, AttributeType, Relation, Schema
from .relation.io import read_csv
from .runtime.budget import Budget, checkpoint, governed
from .runtime.errors import BudgetExhausted, ReproError
from .runtime.execution import current_scope, execution


def _detect_schema(path: str, numerical: set[str], text: set[str]) -> Schema:
    """Infer column types from the CSV head, honouring overrides."""
    raw = read_csv(path)

    def is_number(v: object) -> bool:
        try:
            float(str(v))
        except (TypeError, ValueError):
            return False
        return True

    attrs = []
    for name in raw.schema.names():
        if name in numerical:
            dtype = AttributeType.NUMERICAL
        elif name in text:
            dtype = AttributeType.TEXT
        else:
            column = [v for v in raw.column(name) if v is not None]
            dtype = (
                AttributeType.NUMERICAL
                if column and all(is_number(v) for v in column)
                else AttributeType.TEXT
            )
        attrs.append(Attribute(name, dtype))
    return Schema(attrs)


def load_relation(path: str, numerical: Sequence[str] = (),
                  text: Sequence[str] = ()) -> Relation:
    """Load a CSV with auto-detected (or overridden) column types."""
    schema = _detect_schema(path, set(numerical), set(text))
    return read_csv(path, schema)


def _parse_fd(spec: str) -> FD:
    """Parse ``a,b->c`` into an FD."""
    if "->" not in spec:
        raise argparse.ArgumentTypeError(
            f"FD spec must look like 'a,b->c', got {spec!r}"
        )
    lhs, __, rhs = spec.partition("->")
    return FD(
        [a.strip() for a in lhs.split(",") if a.strip()],
        [a.strip() for a in rhs.split(",") if a.strip()],
    )


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return int(text)


def _budget_from_args(args: argparse.Namespace) -> Budget | None:
    """A :class:`Budget` from ``--timeout``/``--max-candidates``, if any."""
    timeout = getattr(args, "timeout", None)
    max_candidates = getattr(args, "max_candidates", None)
    if timeout is None and max_candidates is None:
        return None
    if timeout is not None and timeout <= 0:
        raise ReproError(f"--timeout must be positive, got {timeout}")
    if max_candidates is not None and max_candidates <= 0:
        raise ReproError(
            f"--max-candidates must be positive, got {max_candidates}"
        )
    return Budget(deadline_s=timeout, max_candidates=max_candidates)


def cmd_profile(args: argparse.Namespace) -> int:
    relation = load_relation(args.csv, args.numerical, args.text)
    report = profile_relation(
        relation,
        epsilon=args.epsilon,
        max_lhs_size=args.max_lhs,
        budget=_budget_from_args(args),
    )
    print(report.render())
    return 0


def _gather_rules(args: argparse.Namespace) -> list:
    """Inline ``--fd`` specs plus any ``--rules`` file, in that order."""
    rules = list(args.fd)
    if getattr(args, "rules", None):
        from .rules_io import load_rules

        rules.extend(load_rules(args.rules))
    return rules


def _screen(args: argparse.Namespace, rules: list) -> dict[int, str]:
    """Index -> reason for the rules the static screen skips.

    Raises InputError (exit 2 via main) on unsatisfiable rules; skips
    nothing under ``--no-analyze``.
    """
    if getattr(args, "no_analyze", False):
        return {}
    from .analysis import screen_rules

    return screen_rules(rules)


def cmd_check(args: argparse.Namespace) -> int:
    from .rules_io import RuleFileError

    try:
        rules = _gather_rules(args)
    except RuleFileError as exc:
        print(f"[error] {exc}")
        return 2
    if not rules:
        print("[error] nothing to check: give --fd and/or --rules")
        return 2
    relation = load_relation(args.csv, args.numerical, args.text)
    skipped = _screen(args, rules)
    exit_code = 0
    budget = _budget_from_args(args)
    checked = 0
    with governed(budget):
        try:
            for idx, dep in enumerate(rules):
                if idx in skipped:
                    checked += 1
                    print(f"[skip] {dep}: statically {skipped[idx]}")
                    continue
                checkpoint(candidates=1)
                try:
                    dep.validate_schema(relation.schema)
                except KeyError as exc:
                    print(f"[error] {dep}: {exc}")
                    return 2
                violations = dep.violations(relation)
                checked += 1
                if violations:
                    exit_code = 1
                    print(f"[FAIL] {dep}: {len(violations)} violations")
                    print("  " + violations.summary(limit=args.limit)
                          .replace("\n", "\n  "))
                else:
                    print(f"[ok]   {dep}")
        except BudgetExhausted as exc:
            print(
                f"[partial] budget exhausted ({exc.reason}): "
                f"{len(rules) - checked} of {len(rules)} rules unchecked"
            )
            return 3
    if skipped:
        print(
            f"[info] {len(skipped)} of {len(rules)} rules skipped by "
            "static analysis (see 'repro lint' for details)"
        )
    return exit_code


def cmd_watch(args: argparse.Namespace) -> int:
    from .incremental import DeltaError, IncrementalDetector, parse_mutation_log
    from .rules_io import RuleFileError, load_rules

    try:
        rules = load_rules(args.rules)
    except RuleFileError as exc:
        print(f"[error] {exc}")
        return 2
    relation = load_relation(args.csv, args.numerical, args.text)
    for dep in rules:
        try:
            dep.validate_schema(relation.schema)
        except KeyError as exc:
            print(f"[error] {dep}: {exc}")
            return 2

    skipped = _screen(args, rules)
    for idx, why in skipped.items():
        print(f"[skip] {rules[idx].label()}: statically {why}")
    detector = IncrementalDetector(
        [dep for idx, dep in enumerate(rules) if idx not in skipped],
        relation,
    )
    print(
        f"watching {args.csv}: {len(relation)} rows, {len(rules)} rules"
        + (
            f" ({len(skipped)} skipped by static analysis)"
            if skipped
            else ""
        )
        + f", {len(detector.violations())} initial violations"
    )

    if args.log in (None, "-"):
        lines = sys.stdin
        close = None
    else:
        close = open(args.log, "r", encoding="utf-8")
        lines = close
    budget = _budget_from_args(args)
    partial = False
    try:
        deltas = parse_mutation_log(lines, relation.schema)
        with governed(budget):
            try:
                for change in detector.replay(deltas):
                    print(change.render(limit=args.limit))
                    # Between batches: stop replaying when the budget is
                    # gone (mid-batch exhaustion is already handled by
                    # the detector itself, which flags the change).
                    checkpoint(candidates=1)
            except BudgetExhausted as exc:
                partial = True
                print(
                    f"[partial] budget exhausted ({exc.reason}): "
                    "replay stopped"
                )
    except DeltaError as exc:
        print(f"[error] bad mutation batch: {exc}")
        return 2
    finally:
        if close is not None:
            close.close()

    remaining = len(detector.violations())
    print(
        f"done: {len(detector.history)} batches, "
        f"{len(detector.relation)} rows, {remaining} violations remaining"
    )
    if partial:
        return 3
    return 0 if remaining == 0 else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import Severity, lint_entries
    from .rules_io import RuleFileError, load_rules_with_meta

    try:
        entries = load_rules_with_meta(args.rules)
    except RuleFileError as exc:
        print(f"[error] {exc}")
        return 2
    schema = None
    if args.csv:
        schema = load_relation(args.csv, args.numerical, args.text).schema
    report = lint_entries(entries, schema=schema)

    for diag in report.diagnostics:
        print(diag.render())
    counts = {s: 0 for s in Severity}
    for diag in report.diagnostics:
        counts[diag.severity] += 1
    if report.diagnostics:
        print(
            f"{len(report.diagnostics)} finding(s): "
            f"{counts[Severity.ERROR]} error(s), "
            f"{counts[Severity.WARNING]} warning(s), "
            f"{counts[Severity.INFO]} info"
        )
    else:
        print(f"no findings: {len(entries)} rule(s) clean")

    if args.fix:
        import json

        kept = report.minimized()
        out_path = args.output or args.rules
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report.minimized_payload(), fh, indent=2)
            fh.write("\n")
        print(
            f"[fix] wrote {len(kept)} of {len(entries)} rule(s) to "
            f"{out_path}"
        )
    return 1 if report.has_errors else 0


def cmd_staticcheck(args: argparse.Namespace) -> int:
    import json

    from .analysis.staticcheck import (
        load_baseline,
        render_json,
        render_text,
        run_paths,
    )

    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"[error] cannot read baseline {args.baseline}: {exc}")
            return 2
    report = run_paths(paths, baseline=baseline)
    if args.format == "json":
        print(json.dumps(render_json(report), indent=2))
    else:
        print(render_text(report))
    return 1 if report.has_findings else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .server import OverloadConfig, ReproApp, configure_logging

    configure_logging(level=args.log_level.upper())
    overload = OverloadConfig(
        max_inflight_per_tenant=args.max_inflight,
        max_rss_mb=args.max_rss_mb,
    )
    app = ReproApp(
        max_workers=args.threads,
        data_dir=args.data_dir,
        fsync=args.fsync,
        recover=args.recover,
        overload=overload,
    )
    try:
        asyncio.run(app.serve(host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    finally:
        app.shutdown()
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    from .core.familytree import DEFAULT_TREE

    print(DEFAULT_TREE.to_text())
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    from .survey import (
        render_fig1b,
        render_fig2,
        render_fig3,
        render_table2,
        render_table3,
    )

    for block in (
        render_table2(),
        render_table3(),
        render_fig1b(),
        render_fig2(),
        render_fig3(),
    ):
        print(block)
        print()
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from .plan import PlanCompileError, compile_dependency
    from .relation.encoding import HAS_NUMPY

    from .rules_io import RuleFileError, load_rules

    try:
        rules = load_rules(args.rules)
    except RuleFileError as exc:
        print(f"[error] {exc}")
        return 2
    mode = current_scope().backend
    substrate = "numpy" if HAS_NUMPY else "no numpy (scalar only)"
    print(f"kernel backend: {mode} [{substrate}]")
    exit_code = 0
    for dep in rules:
        try:
            plan = compile_dependency(dep)
        except PlanCompileError as exc:
            # Non-pairwise notations (MVDs, CFD pattern parts, SDs)
            # evaluate through their own engines, not pair plans.
            print(dep.label())
            print(f"  no pair plan: {exc}")
            exit_code = 1
            continue
        print(plan.describe())
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data-dependency profiling and checking "
        "(Song et al.'s family tree, executable).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--timeout", type=float, default=None,
            help="wall-clock budget in seconds; on expiry the command "
            "returns partial results instead of failing",
        )
        p.add_argument(
            "--max-candidates", type=int, default=None,
            dest="max_candidates",
            help="cap on candidate checks across the run",
        )

    def add_workers_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=_positive_int, default=None,
            help="forked processes for sharded pairwise checking on "
            "relations of at least 2048 rows (default: serial); results "
            "are order-identical to serial execution; pays on "
            "verify-heavy rules such as an MD over edit distance, not "
            "on vectorized ones",
        )

    p_profile = sub.add_parser(
        "profile", aliases=["discover"],
        help="discover dependencies in a CSV",
    )
    p_profile.add_argument("csv")
    p_profile.add_argument(
        "--epsilon", type=float, default=0.05,
        help="AFD g3 tolerance (default 0.05)",
    )
    p_profile.add_argument(
        "--max-lhs", type=int, default=2, dest="max_lhs",
        help="max determinant size (default 2)",
    )
    p_profile.add_argument("--numerical", action="append", default=[],
                           help="force a column numerical")
    p_profile.add_argument("--text", action="append", default=[],
                           help="force a column textual")
    add_budget_args(p_profile)
    add_workers_arg(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_check = sub.add_parser("check", help="validate declared dependencies")
    p_check.add_argument("csv")
    p_check.add_argument(
        "--fd", action="append", default=[], type=_parse_fd,
        help="an FD like 'zip->city' (repeatable)",
    )
    p_check.add_argument(
        "--rules", default=None,
        help="JSON rule file with mixed Table-2 notations "
        "(see docs/api.md)",
    )
    p_check.add_argument("--limit", type=int, default=5,
                         help="violations to print per rule")
    p_check.add_argument("--numerical", action="append", default=[])
    p_check.add_argument("--text", action="append", default=[])
    p_check.add_argument(
        "--no-analyze", action="store_true", dest="no_analyze",
        help="skip the static pre-screen (trivial, duplicate and implied "
        "rule skipping and the unsatisfiable-rule gate)",
    )
    add_budget_args(p_check)
    add_workers_arg(p_check)
    p_check.set_defaults(func=cmd_check)

    p_watch = sub.add_parser(
        "watch", help="replay a mutation log through incremental checking"
    )
    p_watch.add_argument("csv", help="initial relation state")
    p_watch.add_argument(
        "--rules", required=True,
        help="JSON rule file with mixed Table-2 notations",
    )
    p_watch.add_argument(
        "--log", default=None,
        help="JSONL mutation log; '-' or omitted reads stdin",
    )
    p_watch.add_argument("--limit", type=int, default=10,
                         help="changefeed lines to print per batch")
    p_watch.add_argument("--numerical", action="append", default=[])
    p_watch.add_argument("--text", action="append", default=[])
    p_watch.add_argument(
        "--no-analyze", action="store_true", dest="no_analyze",
        help="skip the static pre-screen (trivial, duplicate and implied "
        "rule skipping and the unsatisfiable-rule gate)",
    )
    add_budget_args(p_watch)
    p_watch.set_defaults(func=cmd_watch)

    p_lint = sub.add_parser(
        "lint",
        help="statically analyze a rule file (no data access)",
    )
    p_lint.add_argument(
        "rules",
        help="JSON rule file with mixed Table-2 notations "
        "(see docs/api.md)",
    )
    p_lint.add_argument(
        "--csv", default=None,
        help="CSV whose schema enables the DD001/DD002 checks",
    )
    p_lint.add_argument(
        "--fix", action="store_true",
        help="write the minimized rule set (drops unsatisfiable, "
        "trivial, duplicate, and implied rules)",
    )
    p_lint.add_argument(
        "--output", default=None,
        help="where --fix writes (default: overwrite the rule file)",
    )
    p_lint.add_argument("--numerical", action="append", default=[])
    p_lint.add_argument("--text", action="append", default=[])
    p_lint.set_defaults(func=cmd_lint)

    p_static = sub.add_parser(
        "staticcheck",
        help="run the repo-wide invariant analyzer over source trees",
    )
    p_static.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src)",
    )
    p_static.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format (default text)",
    )
    p_static.add_argument(
        "--baseline", default=None,
        help="JSON report (or fingerprint list) of known findings to "
        "waive; new findings still fail",
    )
    p_static.set_defaults(func=cmd_staticcheck)

    p_plan = sub.add_parser(
        "plan",
        help="print the compiled evaluation plan of each rule",
    )
    p_plan.add_argument(
        "rules",
        help="JSON rule file with mixed Table-2 notations "
        "(see docs/api.md)",
    )
    p_plan.set_defaults(func=cmd_plan)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant dependency-checking HTTP service",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8095,
        help="TCP port (default 8095; 0 binds an ephemeral port, "
        "reported in the startup log line)",
    )
    p_serve.add_argument(
        "--workers", type=_positive_int, default=4, dest="threads",
        help="engine and job worker threads (default 4); rule checks "
        "run in-process on these threads, never in a process pool",
    )
    p_serve.add_argument(
        "--log-level", default="info", dest="log_level",
        choices=["debug", "info", "warning", "error"],
        help="JSON log verbosity (default info)",
    )
    p_serve.add_argument(
        "--data-dir", default=None, dest="data_dir",
        help="durable state directory (per-tenant WAL + snapshots); "
        "omit for in-memory-only operation",
    )
    p_serve.add_argument(
        "--fsync", default="batch",
        choices=["always", "batch", "off"],
        help="WAL fsync policy: always (per record), batch "
        "(amortized, default), off (flush to OS only)",
    )
    p_serve.add_argument(
        "--recover", dest="recover", action="store_true", default=True,
        help="replay snapshot + WAL tail at startup (default)",
    )
    p_serve.add_argument(
        "--no-recover", dest="recover", action="store_false",
        help="skip startup recovery (existing durable state is kept "
        "but not loaded)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=8, dest="max_inflight",
        help="per-tenant in-flight batch ceiling before shedding with "
        "429 (default 8; 0 disables)",
    )
    p_serve.add_argument(
        "--max-rss-mb", type=float, default=0.0, dest="max_rss_mb",
        help="resident-set watermark in MiB: above it the server goes "
        "read-only and sheds mutating requests (default off)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_tree = sub.add_parser("tree", help="print the family tree")
    p_tree.set_defaults(func=cmd_tree)

    p_survey = sub.add_parser(
        "survey", help="print the regenerated tables and figures"
    )
    p_survey.set_defaults(func=cmd_survey)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_serve:
            # serve stays in the root scope, whose counters /metrics
            # reports: its startup WAL replay runs kernels on this
            # thread.  Its --workers sizes thread pools, and checks off
            # the main thread never fan out.  Reading the root scope
            # here rejects a bad REPRO_KERNEL_BACKEND before it serves.
            current_scope()
            return cmd_serve(args)
        # check/profile fan out from this (main) thread; each fan-out
        # forks a fresh worker set once its job is bound.
        with execution(workers=getattr(args, "workers", None)):
            return args.func(args)
    except ReproError as exc:
        # Typed library errors (bad input, engine faults) are user
        # messages, not tracebacks.
        print(f"[error] {exc}")
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; standard
        # CLI etiquette is a quiet exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
