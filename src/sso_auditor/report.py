"""Report assembly and rendering.

Reports are plain dictionaries with a pinned schema version and a stable
field set, serialized as canonical JSON (sorted keys) so identical inputs
produce identical bytes.  The Markdown renderer summarizes findings per
identity provider in the columns that ``data/rules.json`` assigns to rules.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__
from .exceptions import UnknownFormat
from .security import RULES, RuleConfig, SecurityAnalysis
from .trace import format_timestamp

SCHEMA_VERSION = 1

FORMAT_JSON = "json"
FORMAT_MARKDOWN = "markdown"

# rule id -> Markdown summary column counting it; columns are laid out in
# the order they first appear in the catalog
SUMMARY_COLUMNS: dict[str, str] = {
    rule_id: rule["column"] for rule_id, rule in RULES.items() if "column" in rule
}
_SUMMARY_LABELS = tuple(dict.fromkeys(SUMMARY_COLUMNS.values()))


def build_report(security: list[SecurityAnalysis] | None = None,
                 privacy: dict | None = None,
                 landscape: dict | None = None,
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
        "landscape": landscape,
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

    landscape_table = report.get("landscape")
    if landscape_table:
        keys = ("sso_logins", "oauth2", "oidc", "code", "hybrid", "implicit",
                "unknown")
        rows = [(row.get("idp", "?"), row)
                for row in landscape_table.get("rows", [])]
        rows.append(("Total", landscape_table.get("totals", {})))
        lines += ["", "# SSO landscape", ""]
        lines += markdown_table(
            ["IdP", "Logins", "OAuth 2.0", "OIDC", "code", "hybrid",
             "implicit", "unknown"],
            [[label, *(row.get(key, 0) for key in keys)] for label, row in rows])

    return "\n".join(lines) + "\n"


def markdown_table(header: list[str], rows: list[list[object]]) -> list[str]:
    """The lines of a Markdown table; cells are written with ``str``."""
    def line(cells) -> str:
        return "| " + " | ".join(str(cell) for cell in cells) + " |"
    return [line(header), "|" + "|".join([" --- "] * len(header)) + "|",
            *map(line, rows)]
