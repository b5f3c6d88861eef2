"""Report assembly and rendering.

Reports are plain dictionaries with a pinned schema version and a stable
field set, serialized as canonical JSON (sorted keys) so identical inputs
produce identical bytes.  The Markdown renderer summarizes findings per
identity provider in the columns that ``data/rules.json`` assigns to rules.
"""

from __future__ import annotations

import json
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
        "config": {**cfg.to_dict(), "idp_registry": registry_source},
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

    lines = []
    lines.append("# Login security summary")
    lines.append("")
    lines.append(f"Tool: {report.get('tool', {}).get('name', '?')} "
                 f"{report.get('tool', {}).get('version', '?')}, "
                 f"schema {report.get('schema_version', '?')}, "
                 f"generated {report.get('generated_at', '?')}")
    lines.append("")
    lines.append("| IdP | " + " | ".join(labels) + " |")
    lines.append("|" + "|".join([" --- "] * (len(labels) + 1)) + "|")
    for idp in sorted(per_idp):
        counts = per_idp[idp]
        lines.append(f"| {idp} | " +
                     " | ".join(str(counts[label]) for label in labels) + " |")
    totals = [sum(per_idp[idp][label] for idp in per_idp) for label in labels]
    lines.append("| Total | " + " | ".join(str(t) for t in totals) + " |")

    privacy = report.get("privacy")
    if privacy:
        lines.append("")
        lines.append("# Privacy leaks")
        lines.append("")
        lines.append("| IdP | LAL (no consent) | TEL (no consent) | "
                     "LAL (consent) | TEL (consent) |")
        lines.append("|" + "|".join([" --- "] * 5) + "|")
        for row in privacy.get("rows", []):
            nc = row.get("no-consent-visit", {})
            cg = row.get("consent-given-visit", {})
            lines.append(f"| {row.get('idp', '?')} | {nc.get('LAL', 0)} | "
                         f"{nc.get('TEL', 0)} | {cg.get('LAL', 0)} | "
                         f"{cg.get('TEL', 0)} |")
        totals_row = privacy.get("totals", {})
        nc = totals_row.get("no-consent-visit", {})
        cg = totals_row.get("consent-given-visit", {})
        lines.append(f"| Total | {nc.get('LAL', 0)} | {nc.get('TEL', 0)} | "
                     f"{cg.get('LAL', 0)} | {cg.get('TEL', 0)} |")

    landscape_table = report.get("landscape")
    if landscape_table:
        lines.append("")
        lines.append("# SSO landscape")
        lines.append("")
        lines.append("| IdP | Logins | OAuth 2.0 | OIDC | code | hybrid | "
                     "implicit | unknown |")
        lines.append("|" + "|".join([" --- "] * 8) + "|")
        for row in landscape_table.get("rows", []):
            lines.append(f"| {row.get('idp', '?')} | {row.get('sso_logins', 0)} "
                         f"| {row.get('oauth2', 0)} | {row.get('oidc', 0)} | "
                         f"{row.get('code', 0)} | {row.get('hybrid', 0)} | "
                         f"{row.get('implicit', 0)} | {row.get('unknown', 0)} |")
        totals_row = landscape_table.get("totals", {})
        lines.append(f"| Total | {totals_row.get('sso_logins', 0)} | "
                     f"{totals_row.get('oauth2', 0)} | {totals_row.get('oidc', 0)} | "
                     f"{totals_row.get('code', 0)} | {totals_row.get('hybrid', 0)} | "
                     f"{totals_row.get('implicit', 0)} | "
                     f"{totals_row.get('unknown', 0)} |")

    return "\n".join(lines) + "\n"
