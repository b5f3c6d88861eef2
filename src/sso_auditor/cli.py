"""Command line interface.

Subcommands: ``analyze`` and ``privacy`` walk a trace directory, ``spar``
decodes one value, ``landscape queries`` builds login-page search queries,
``report render`` re-renders a stored report and ``report diff`` compares
two stored ``analyze`` reports.

A trace directory holds one unit per ``<domain>/<idp>`` directory.  A unit
that cannot be read or analyzed is left out of the report and named, with
its error message, in the report's ``errors`` list; the other units are
reported as if it were absent.  Exit codes: 0 completed without
vulnerability findings, 2 completed with at least one vulnerability
finding, 1 operational error: a usage error, bad configuration or
registry, no trace directory, or units of which none could be analyzed.

Every launch pays for the imports at the top of this module, so the
modules of ``privacy`` and ``landscape queries`` are imported inside those
commands only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import report as report_mod
from . import security, spar
from .classify import (
    IdpRegistry, decode_trace, default_registry, find_logins, load_registry,
)
from .exceptions import AuditError, MalformedInput
from .trace import Trace, load_json, parse_trace_bundle

CONFIG_ENV_VAR = "SSO_AUDITOR_CONFIG"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VULNERABLE = 2

# the visit bundles of a privacy unit, in the order they are read
_VISIT_DIRS = ("consent", "noconsent")


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_ERROR
        return args.func(args)
    except (AuditError, OSError) as exc:
        _print_err(str(exc))
        return EXIT_ERROR


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error exits 1, as MalformedInput; 2 means "vulnerable"."""

    def error(self, message: str):
        raise MalformedInput(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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

    p_land = sub.add_parser("landscape", help="login page discovery")
    land_sub = p_land.add_subparsers(dest="landscape_command")
    p_land.set_defaults(func=lambda args: (_print_err("landscape needs a "
                                                      "subcommand"), EXIT_ERROR)[1])
    p_queries = land_sub.add_parser("queries",
                                    help="print login page search queries")
    p_queries.add_argument("domain")
    p_queries.set_defaults(func=_cmd_landscape_queries)

    p_report = sub.add_parser("report",
                              help="re-render or compare stored reports")
    report_sub = p_report.add_subparsers(dest="report_command")
    p_report.set_defaults(func=lambda args: (_print_err("report needs a "
                                                        "subcommand"), EXIT_ERROR)[1])
    p_render = report_sub.add_parser("render")
    p_render.add_argument("report_file")
    p_render.add_argument("--format", default="json")
    p_render.add_argument("--out", metavar="PATH")
    p_render.set_defaults(func=_cmd_report_render)

    p_diff = report_sub.add_parser("diff",
                                   help="compare two stored analyze reports")
    p_diff.add_argument("old_report")
    p_diff.add_argument("new_report")
    p_diff.add_argument("--format", default="json")
    p_diff.add_argument("--out", metavar="PATH")
    p_diff.set_defaults(func=_cmd_report_diff)

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
    if not registry_path:
        return cfg, default_registry(), "built-in"
    return cfg, load_registry(Path(registry_path).read_bytes()), registry_path


def _budget(name: str, value: object) -> int:
    """A SPAR depth or node budget: an integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MalformedInput(f"{name} must be an integer >= 1, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# trace directory walking

def _read_bundle(unit_dir: Path, name: str) -> Trace:
    """The trace bundle ``<unit_dir>/<name>``.  Errors name its files relative
    to the unit, so they do not depend on the trace directory's path."""
    bundle_dir = unit_dir / name

    def read(file: str) -> bytes:
        try:
            return (bundle_dir / file).read_bytes()
        except OSError as exc:
            raise MalformedInput(
                f"cannot read {name}/{file}: {exc.strerror}") from exc

    for file in ("trace.har", "meta.json"):
        if not (bundle_dir / file).is_file():
            raise MalformedInput(f"no {file} in {name}")
    ibc = read("ibc.json") if (bundle_dir / "ibc.json").is_file() else None
    return parse_trace_bundle(read("trace.har"), read("meta.json"), ibc)


def _each_unit(root: Path, analyze_unit) -> tuple[list, list, list[dict]]:
    """Run ``analyze_unit(idp_dir) -> (traces read, result)`` on each
    <root>/<domain>/<idp> directory, in sorted order.

    Returns the results and the capture times of the traces of the units
    that succeeded, and ``{"unit", "error"}`` for each unit that raised, in
    unit order.  When every unit raised, the first error is raised instead.
    """
    if not root.is_dir():
        raise MalformedInput(f"not a directory: {root}")
    units = [idp_dir
             for domain_dir in sorted(p for p in root.iterdir() if p.is_dir())
             for idp_dir in sorted(p for p in domain_dir.iterdir() if p.is_dir())]
    results, captured, errors = [], [], []
    for idp_dir in units:
        try:
            traces, result = analyze_unit(idp_dir)
        except (AuditError, OSError) as exc:
            errors.append({"unit": f"{idp_dir.parent.name}/{idp_dir.name}",
                           "error": str(exc)})
            continue
        results.append(result)
        captured += [trace.metadata.captured_at for trace in traces]
    if units and len(errors) == len(units):
        raise AuditError(f"{errors[0]['unit']}: {errors[0]['error']}")
    return results, captured, errors


def _cmd_analyze(args) -> int:
    # one thread: the work is pure Python and holds the GIL throughout
    cfg, registry, source = _load_config(args)

    def analyze_unit(idp_dir: Path):
        # a missing run1 fails in _read_bundle like a missing trace.har
        run1 = _read_bundle(idp_dir, "run1")
        run2 = (_read_bundle(idp_dir, "run2") if (idp_dir / "run2").is_dir()
                else None)
        traces = [trace for trace in (run1, run2) if trace is not None]
        return traces, security.run_all(run1, run2, cfg, registry)

    analyses, captured, errors = _each_unit(Path(args.trace_dir), analyze_unit)
    report = report_mod.build_report(security=analyses, errors=errors, cfg=cfg,
                                     registry_source=source,
                                     generated_at=max(captured, default=None))
    _emit(report_mod.render_report(report, args.format), args.out)
    return (EXIT_VULNERABLE if report_mod.report_vulnerability_count(report)
            else EXIT_OK)


def _cmd_privacy(args) -> int:
    from . import privacy as privacy_mod

    cfg, registry, source = _load_config(args)

    def analyze_unit(idp_dir: Path):
        traces, findings = [], []
        for dir_name in _VISIT_DIRS:
            if not (idp_dir / dir_name).is_dir():
                continue
            trace = _read_bundle(idp_dir, dir_name)
            traces.append(trace)
            view = decode_trace(trace, cfg.max_spar_depth, cfg.max_spar_nodes)
            logins = find_logins(view, registry)
            findings += privacy_mod.detect_lal(view, logins)
            findings += privacy_mod.detect_tel(view, logins, registry)
        return traces, findings

    per_unit, captured, errors = _each_unit(Path(args.trace_dir), analyze_unit)
    findings = [finding for unit in per_unit for finding in unit]
    table = privacy_mod.aggregate_privacy(findings)
    table["findings"] = [f.to_dict() for f in findings]
    report = report_mod.build_report(privacy=table, errors=errors, cfg=cfg,
                                     registry_source=source,
                                     generated_at=max(captured, default=None))
    _emit(report_mod.render_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_spar(args) -> int:
    tree = spar.decode(args.value, _budget("--max-depth", args.max_depth),
                       _budget("--max-nodes", args.max_nodes))
    _emit(tree.to_json() + "\n", None)
    return EXIT_OK


def _cmd_landscape_queries(args) -> int:
    from . import landscape as landscape_mod

    for query in landscape_mod.build_search_queries(args.domain):
        print(query)
    return EXIT_OK


def _read_report(path: str) -> dict:
    doc = load_json(Path(path).read_bytes(), "report file")
    if not isinstance(doc, dict):
        raise MalformedInput("report file must hold a JSON object")
    return doc


def _report_shaped(call, *args):
    """``call(*args)``; a report part that is not the object or list it
    reads gives MalformedInput."""
    try:
        return call(*args)
    except (AttributeError, KeyError, TypeError) as exc:
        raise MalformedInput(f"report file does not have the report "
                             f"shape: {exc}") from exc


def _cmd_report_render(args) -> int:
    doc = _read_report(args.report_file)
    _emit(_report_shaped(report_mod.render_report, doc, args.format), args.out)
    return EXIT_OK


def _cmd_report_diff(args) -> int:
    old, new = _read_report(args.old_report), _read_report(args.new_report)
    diff = _report_shaped(report_mod.diff_reports, old, new)
    _emit(_report_shaped(report_mod.render_diff, diff, args.format), args.out)
    return EXIT_OK


def _emit(text: str, out_path: str | None) -> None:
    # A lone surrogate (a recorded "\ud800" escape) has no UTF-8 form.  It
    # is written as that escape, which inside a JSON string is the same
    # character; text without one keeps its exact bytes.  Standard output
    # is tried as is first, so only such a report is copied.
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8",
                                  errors="backslashreplace")
        return
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:
        sys.stdout.write(text.encode("utf-8", "backslashreplace")
                         .decode("utf-8"))


if __name__ == "__main__":
    entry()
