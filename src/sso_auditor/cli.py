"""Command line interface.

Subcommands: ``analyze`` and ``privacy`` walk a trace directory, ``spar``
decodes one value, ``landscape`` handles scan records, ``report render``
re-renders a stored report.  Exit codes: 0 completed without vulnerability
findings, 2 completed with at least one vulnerability finding, 1
operational error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import landscape as landscape_mod
from . import privacy as privacy_mod
from . import report as report_mod
from . import security, spar
from .classify import IdpRegistry, decode_trace, default_registry, load_registry
from .exceptions import AuditError, MalformedInput
from .trace import (
    PROFILE_CONSENT_VISIT, PROFILE_NO_CONSENT_VISIT, Trace, load_json,
    parse_trace_bundle,
)

CONFIG_ENV_VAR = "SSO_AUDITOR_CONFIG"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VULNERABLE = 2

_PROFILE_DIRS = {
    "consent": PROFILE_CONSENT_VISIT,
    "noconsent": PROFILE_NO_CONSENT_VISIT,
}


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_ERROR
    try:
        return args.func(args)
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sso-auditor",
        description="Offline analyzer for single sign-on login traffic.")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--idp-registry", metavar="PATH",
                       help="JSON file with identity provider endpoint patterns")
        p.add_argument("--entropy-bits", type=float, metavar="N",
                       help="CSRF entropy threshold in bits (default 96)")
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")

    p_analyze = sub.add_parser("analyze", help="security-analyze login runs")
    p_analyze.add_argument("trace_dir")
    add_common(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_privacy = sub.add_parser("privacy", help="detect privacy leaks in visits")
    p_privacy.add_argument("trace_dir")
    add_common(p_privacy)
    p_privacy.set_defaults(func=_cmd_privacy)

    p_spar = sub.add_parser("spar", help="decode one parameter value")
    p_spar.add_argument("value")
    p_spar.add_argument("--max-depth", type=int, default=spar.DEFAULT_MAX_DEPTH)
    p_spar.add_argument("--max-nodes", type=int, default=spar.DEFAULT_MAX_NODES)
    p_spar.set_defaults(func=_cmd_spar)

    p_land = sub.add_parser("landscape", help="scan record utilities")
    land_sub = p_land.add_subparsers(dest="landscape_command")
    p_land.set_defaults(func=lambda args: (_print_err("landscape needs a "
                                                      "subcommand"), EXIT_ERROR)[1])

    p_diff = land_sub.add_parser("diff", help="diff two scan record files")
    p_diff.add_argument("prev")
    p_diff.add_argument("next")
    p_diff.add_argument("--format", choices=("json", "markdown"),
                        default="json")
    p_diff.add_argument("--out", metavar="PATH")
    p_diff.set_defaults(func=_cmd_landscape_diff)

    p_queries = land_sub.add_parser("queries",
                                    help="print login page search queries")
    p_queries.add_argument("domain")
    p_queries.set_defaults(func=_cmd_landscape_queries)

    p_report = sub.add_parser("report", help="re-render a stored report")
    report_sub = p_report.add_subparsers(dest="report_command")
    p_report.set_defaults(func=lambda args: (_print_err("report needs a "
                                                        "subcommand"), EXIT_ERROR)[1])
    p_render = report_sub.add_parser("render")
    p_render.add_argument("report_file")
    p_render.add_argument("--format", default="json")
    p_render.add_argument("--out", metavar="PATH")
    p_render.set_defaults(func=_cmd_report_render)

    return parser


def _print_err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# configuration

def _load_config(args) -> tuple[security.RuleConfig, IdpRegistry, str]:
    doc = {}
    config_path = os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        doc = load_json(Path(config_path).read_bytes(), "config file")
        if not isinstance(doc, dict):
            raise MalformedInput("config file must hold a JSON object")

    entropy = args.entropy_bits if getattr(args, "entropy_bits", None) is not None \
        else doc.get("entropy_threshold_bits", 96.0)
    if isinstance(entropy, bool) or not isinstance(entropy, (int, float)) \
            or not math.isfinite(entropy):
        raise MalformedInput(f"entropy_threshold_bits must be a finite number, "
                             f"got {entropy!r}")
    pkce = doc.get("treat_pkce_as_csrf_protection", True)
    if not isinstance(pkce, bool):
        raise MalformedInput(f"treat_pkce_as_csrf_protection must be true or "
                             f"false, got {pkce!r}")
    cfg = security.RuleConfig(
        entropy_threshold_bits=float(entropy),
        treat_pkce_as_csrf_protection=pkce,
        max_spar_depth=_budget("max_spar_depth", doc.get(
            "max_spar_depth", spar.DEFAULT_MAX_DEPTH)),
        max_spar_nodes=_budget("max_spar_nodes", doc.get(
            "max_spar_nodes", spar.DEFAULT_MAX_NODES)),
    )

    registry_path = getattr(args, "idp_registry", None) or doc.get("idp_registry")
    if registry_path is not None and (not isinstance(registry_path, str)
                                      or "\0" in registry_path):
        raise MalformedInput(f"idp_registry must be a path string, "
                             f"got {registry_path!r}")
    if registry_path:
        registry = load_registry(Path(registry_path).read_bytes())
        source = str(registry_path)
    else:
        registry = default_registry()
        source = "built-in"
    return cfg, registry, source


def _budget(name: str, value: object) -> int:
    """A SPAR depth or node budget: an integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MalformedInput(f"{name} must be an integer >= 1, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# trace directory walking

def _read_bundle(bundle_dir: Path) -> Trace:
    har_path = bundle_dir / "trace.har"
    meta_path = bundle_dir / "meta.json"
    ibc_path = bundle_dir / "ibc.json"
    if not har_path.is_file():
        raise MalformedInput(f"no trace.har in {bundle_dir}")
    if not meta_path.is_file():
        raise MalformedInput(f"no meta.json in {bundle_dir}")
    ibc = ibc_path.read_bytes() if ibc_path.is_file() else None
    return parse_trace_bundle(har_path.read_bytes(), meta_path.read_bytes(), ibc)


def _unit_dirs(root: Path) -> list[Path]:
    """<root>/<domain>/<idp> directories, in sorted order."""
    if not root.is_dir():
        raise MalformedInput(f"not a directory: {root}")
    return [idp_dir
            for domain_dir in sorted(p for p in root.iterdir() if p.is_dir())
            for idp_dir in sorted(p for p in domain_dir.iterdir() if p.is_dir())]


def _cmd_analyze(args) -> int:
    # one thread: the work is pure Python and holds the GIL throughout
    cfg, registry, source = _load_config(args)
    captured = []
    analyses = []
    for idp_dir in _unit_dirs(Path(args.trace_dir)):
        run1_dir = idp_dir / "run1"
        run2_dir = idp_dir / "run2"
        if not run1_dir.is_dir():
            raise MalformedInput(f"no run1 directory in {idp_dir}")
        run1 = _read_bundle(run1_dir)
        run2 = _read_bundle(run2_dir) if run2_dir.is_dir() else None
        captured += [trace.metadata.captured_at for trace in (run1, run2)
                     if trace is not None]
        analyses.append(security.run_all(run1, run2, cfg, registry))

    report = report_mod.build_report(security=analyses, cfg=cfg,
                                     registry_source=source,
                                     generated_at=max(captured, default=None))
    _emit(report_mod.render_report(report, args.format), args.out)
    if report_mod.report_vulnerability_count(report) > 0:
        return EXIT_VULNERABLE
    return EXIT_OK


def _cmd_privacy(args) -> int:
    cfg, registry, source = _load_config(args)
    findings = []
    captured = []
    for idp_dir in _unit_dirs(Path(args.trace_dir)):
        for profile_dir_name in sorted(_PROFILE_DIRS):
            bundle_dir = idp_dir / profile_dir_name
            if not bundle_dir.is_dir():
                continue
            trace = _read_bundle(bundle_dir)
            captured.append(trace.metadata.captured_at)
            view = decode_trace(trace, cfg.max_spar_depth, cfg.max_spar_nodes)
            findings.extend(privacy_mod.detect_lal(view, registry))
            findings.extend(privacy_mod.detect_tel(view, registry))

    table = privacy_mod.aggregate_privacy(findings)
    table["findings"] = [asdict(f) for f in findings]
    report = report_mod.build_report(privacy=table, cfg=cfg,
                                     registry_source=source,
                                     generated_at=max(captured, default=None))
    _emit(report_mod.render_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_spar(args) -> int:
    tree = spar.decode(args.value, _budget("--max-depth", args.max_depth),
                       _budget("--max-nodes", args.max_nodes))
    print(tree.to_json())
    return EXIT_OK


def _cmd_landscape_diff(args) -> int:
    prev = landscape_mod.load_scan_records(Path(args.prev).read_bytes())
    next_ = landscape_mod.load_scan_records(Path(args.next).read_bytes())
    diff = landscape_mod.diff_scans(prev, next_)
    if args.format == "markdown":
        text = landscape_mod.render_diff_markdown(diff)
    else:
        text = report_mod.canonical_json(asdict(diff))
    _emit(text, getattr(args, "out", None))
    return EXIT_OK


def _cmd_landscape_queries(args) -> int:
    for query in landscape_mod.build_search_queries(args.domain):
        print(query)
    return EXIT_OK


def _cmd_report_render(args) -> int:
    doc = load_json(Path(args.report_file).read_bytes(), "report file")
    if not isinstance(doc, dict):
        raise MalformedInput("report file must hold a JSON object")
    try:
        text = report_mod.render_report(doc, args.format)
    except (AttributeError, TypeError) as exc:
        # parts that are not the objects and lists the renderers read
        raise MalformedInput(f"report file does not have the report "
                             f"shape: {exc}") from exc
    _emit(text, getattr(args, "out", None))
    return EXIT_OK


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
