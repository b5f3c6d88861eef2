"""Report assembly and rendering.

Reports are plain dictionaries with a pinned schema version and a stable
field set, serialized as canonical JSON (sorted keys) so identical inputs
produce identical bytes.  The Markdown renderer derives every table from
the stored rows, so a stored report re-renders to the same Markdown: per
identity provider, findings in the columns that ``data/rules.json`` assigns
to rules, privacy leaks, the SSO landscape (websites and logins by
protocol and requested flow), and the units that could not be analyzed.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__
from .classify import (
    FLOW_CODE, FLOW_HYBRID, FLOW_IMPLICIT, FLOW_UNKNOWN, PROTOCOL_OAUTH2,
    PROTOCOL_OIDC,
)
from .exceptions import UnknownFormat
from .security import RULES, RuleConfig, SecurityAnalysis
from .trace import format_timestamp

SCHEMA_VERSION = 2

FORMAT_JSON = "json"
FORMAT_MARKDOWN = "markdown"

# rule id -> Markdown summary column counting it; columns are laid out in
# the order they first appear in the catalog
SUMMARY_COLUMNS: dict[str, str] = {
    rule_id: rule["column"] for rule_id, rule in RULES.items() if "column" in rule
}
_SUMMARY_LABELS = tuple(dict.fromkeys(SUMMARY_COLUMNS.values()))

# Markdown landscape columns: (header, login row field, value counted)
_LANDSCAPE_COLUMNS = (
    ("OAuth 2.0", "protocol", PROTOCOL_OAUTH2),
    ("OIDC", "protocol", PROTOCOL_OIDC),
    *((flow, "requested_flow", flow)
      for flow in (FLOW_CODE, FLOW_HYBRID, FLOW_IMPLICIT, FLOW_UNKNOWN)),
)


def build_report(security: list[SecurityAnalysis] | None = None,
                 privacy: dict | None = None,
                 errors: list[dict] | None = None,
                 cfg: RuleConfig | None = None,
                 registry_source: str = "built-in",
                 generated_at: datetime | None = None) -> dict:
    cfg = cfg or RuleConfig()
    fragments = sorted(security or [], key=lambda a: (a.domain, a.idp))
    if generated_at is None:
        generated_at = datetime.fromtimestamp(0, tz=timezone.utc)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "sso-auditor", "version": __version__},
        "generated_at": format_timestamp(generated_at),
        "config": {**asdict(cfg), "idp_registry": registry_source},
        "security": [fragment.to_dict() for fragment in fragments],
        "privacy": privacy,
        "errors": errors or [],
    }


def report_vulnerability_count(report: dict) -> int:
    return sum(fragment.get("vulnerabilities", 0)
               for fragment in report.get("security", []))


def render_report(report: dict, format: str = FORMAT_JSON) -> str:
    if format == FORMAT_JSON:
        return canonical_json(report)
    if format == FORMAT_MARKDOWN:
        return _render_markdown(report)
    raise UnknownFormat(f"unsupported report format: {format!r}")


def canonical_json(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _render_markdown(report: dict) -> str:
    labels = _SUMMARY_LABELS
    per_idp: dict[str, dict[str, int]] = {}
    for fragment in report.get("security", []):
        for finding in fragment.get("findings", []):
            idp = finding.get("idp", "unknown")
            counts = per_idp.setdefault(idp, dict.fromkeys(labels, 0))
            label = SUMMARY_COLUMNS.get(finding.get("rule_id"))
            if label is not None:
                counts[label] += 1

    totals = [sum(per_idp[idp][label] for idp in per_idp) for label in labels]
    tool = report.get("tool", {})
    lines = ["# Login security summary", "",
             f"Tool: {tool.get('name', '?')} {tool.get('version', '?')}, "
             f"schema {report.get('schema_version', '?')}, "
             f"generated {report.get('generated_at', '?')}", ""]
    lines += markdown_table(
        ["IdP", *labels],
        [[idp, *per_idp[idp].values()] for idp in sorted(per_idp)]
        + [["Total", *totals]])

    privacy = report.get("privacy")
    if privacy:
        keys = [(profile, kind) for profile in ("no-consent-visit",
                                                "consent-given-visit")
                for kind in ("LAL", "TEL")]
        rows = [(row.get("idp", "?"), row) for row in privacy.get("rows", [])]
        rows.append(("Total", privacy.get("totals", {})))
        lines += ["", "# Privacy leaks", ""]
        lines += markdown_table(
            ["IdP", "LAL (no consent)", "TEL (no consent)", "LAL (consent)",
             "TEL (consent)"],
            [[label, *(row.get(profile, {}).get(kind, 0)
                       for profile, kind in keys)] for label, row in rows])

    lines += _landscape_table(report.get("security", []))

    errors = report.get("errors")
    if errors:
        lines += ["", "# Skipped units", ""]
        lines += markdown_table(
            ["Unit", "Error"],
            [[error.get("unit", "?"), error.get("error", "?")]
             for error in errors])

    return "\n".join(lines) + "\n"


def _landscape_table(fragments: list[dict]) -> list[str]:
    """The "SSO landscape" section, counted from the fragments' ``logins``
    rows; no lines when there are none."""
    logins = [(login.get("idp", "unknown"), fragment.get("domain"), login)
              for fragment in fragments for login in fragment.get("logins", [])]
    if not logins:
        return []

    def row(label: str, group: list[tuple]) -> list[object]:
        return [label, len({domain for _, domain, _ in group}), len(group),
                *(sum(login.get(key) == value for _, _, login in group)
                  for _, key, value in _LANDSCAPE_COLUMNS)]

    header = ["IdP", "Websites", "Logins",
              *(label for label, _, _ in _LANDSCAPE_COLUMNS)]
    idps = sorted({idp for idp, _, _ in logins})
    return ["", "# SSO landscape", ""] + markdown_table(
        header,
        [row(idp, [entry for entry in logins if entry[0] == idp])
         for idp in idps] + [row("Total", logins)])


def _cell(text: object) -> str:
    """A value as one table cell: ``str`` of it on one line, with ``|``
    escaped.  Labels come from outside input (an IdP name in ``meta.json``
    or a registry, a directory name, an error message)."""
    return " ".join(str(text).split()).replace("|", "\\|")


def markdown_table(header: list[object], rows: list[list[object]]) -> list[str]:
    """The lines of a Markdown table; every cell is written with ``_cell``."""
    def line(cells) -> str:
        return "| " + " | ".join(map(_cell, cells)) + " |"
    return [line(header), "|" + "|".join([" --- "] * len(header)) + "|",
            *map(line, rows)]
