"""Report assembly and rendering.

Reports are plain dictionaries with a pinned schema version and a stable
field set, serialized as canonical JSON (sorted keys) so identical inputs
produce identical bytes.  The Markdown renderer derives every table from
the stored rows, so a stored report re-renders to the same Markdown: per
identity provider, findings in the columns that ``data/rules.json`` assigns
to rules, privacy leaks, the SSO landscape (websites and logins by
protocol and requested flow), and the units that could not be analyzed.

``diff_reports`` compares two stored ``analyze`` reports for monitoring:
units added and removed, rule ids gained and lost and login rows changed
per unit, the change in each landscape cell (counted by the same
``_landscape_rows`` as the Markdown table), and the ``config`` keys that
differ.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

from . import __version__
from .classify import (
    FLOW_CODE, FLOW_HYBRID, FLOW_IMPLICIT, FLOW_UNKNOWN, PROTOCOL_OAUTH2,
    PROTOCOL_OIDC, TOTAL_LABEL,
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
_LANDSCAPE_HEADERS = ("Websites", "Logins",
                      *(label for label, _, _ in _LANDSCAPE_COLUMNS))


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
        "config": {**cfg._asdict(), "idp_registry": registry_source},
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
        + [[TOTAL_LABEL, *totals]])

    privacy = report.get("privacy")
    if privacy:
        keys = [(profile, kind) for profile in ("no-consent-visit",
                                                "consent-given-visit")
                for kind in ("LAL", "TEL")]
        rows = [(row.get("idp", "?"), row) for row in privacy.get("rows", [])]
        rows.append((TOTAL_LABEL, privacy.get("totals", {})))
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
    """The "SSO landscape" section; no lines when there are no login rows."""
    rows = _landscape_rows(fragments)
    if not rows:
        return []
    return ["", "# SSO landscape", ""] + markdown_table(
        ["IdP", *_LANDSCAPE_HEADERS],
        [[label, *cells.values()] for label, cells in rows])


def _landscape_rows(fragments: list[dict]) -> list[tuple[object, dict]]:
    """The landscape table's rows, counted from the fragments' ``logins``
    rows: ``(IdP, {column header: count})`` for each IdP in sorted order,
    then the ``TOTAL_LABEL`` row.  Empty when there are no login rows."""
    logins = [(login.get("idp", "unknown"), fragment.get("domain"), login)
              for fragment in fragments for login in fragment.get("logins", [])]
    if not logins:
        return []

    def cells(group: list[tuple]) -> dict[str, int]:
        return dict(zip(_LANDSCAPE_HEADERS, (
            len({domain for _, domain, _ in group}), len(group),
            *(sum(login.get(key) == value for _, _, login in group)
              for _, key, value in _LANDSCAPE_COLUMNS))))

    idps = sorted({idp for idp, _, _ in logins})
    return [(idp, cells([entry for entry in logins if entry[0] == idp]))
            for idp in idps] + [(TOTAL_LABEL, cells(logins))]


def diff_reports(old: dict, new: dict) -> dict:
    """What changed from the ``analyze`` report ``old`` to ``new``.

    Only ``security`` and ``config`` are read.  A unit is keyed
    ``<domain>/<idp>`` by its fragment's detected IdP; fragments that share
    a key count as one unit.  Every section is empty when nothing changed.
    """
    before, after = _units(old), _units(new)
    common = sorted(before.keys() & after.keys())
    rules = [{"unit": unit,
              "gained": sorted(after[unit][0] - before[unit][0]),
              "lost": sorted(before[unit][0] - after[unit][0])}
             for unit in common if before[unit][0] != after[unit][0]]
    old_rows, new_rows = (dict(_landscape_rows(doc.get("security", [])))
                          for doc in (old, new))
    zero = dict.fromkeys(_LANDSCAPE_HEADERS, 0)
    landscape = {label: {header: new_rows.get(label, zero)[header]
                         - old_rows.get(label, zero)[header]
                         for header in _LANDSCAPE_HEADERS}
                 for label in old_rows.keys() | new_rows.keys()}
    old_cfg, new_cfg = old.get("config", {}), new.get("config", {})
    return {
        "units_added": sorted(after.keys() - before.keys()),
        "units_removed": sorted(before.keys() - after.keys()),
        "rules": rules,
        "logins": [{"unit": unit, "old": before[unit][1],
                    "new": after[unit][1]}
                   for unit in common if before[unit][1] != after[unit][1]],
        "landscape": {label: cells for label, cells in landscape.items()
                      if any(cells.values())},
        "config": {key: {"old": old_cfg.get(key), "new": new_cfg.get(key)}
                   for key in old_cfg.keys() | new_cfg.keys()
                   if old_cfg.get(key) != new_cfg.get(key)},
    }


def _units(report: dict) -> dict[str, tuple[set, list]]:
    """``<domain>/<idp>`` -> (rule ids, login rows in report order)."""
    units: dict[str, tuple[set, list]] = {}
    for fragment in report.get("security", []):
        rule_ids, logins = units.setdefault(
            f"{fragment['domain']}/{fragment['idp']}", (set(), []))
        rule_ids.update(finding["rule_id"]
                        for finding in fragment.get("findings", []))
        logins += fragment.get("logins", [])
    return units


def render_diff(diff: dict, format: str = FORMAT_JSON) -> str:
    """``diff_reports`` output as canonical JSON, or in Markdown as one
    table per section."""
    if format == FORMAT_JSON:
        return canonical_json(diff)
    if format != FORMAT_MARKDOWN:
        raise UnknownFormat(f"unsupported report format: {format!r}")

    def compact(value: object) -> str:
        return json.dumps(value, sort_keys=True, ensure_ascii=False,
                          separators=(",", ":"))

    sections = (
        ("Units added", ["Unit"], [[unit] for unit in diff["units_added"]]),
        ("Units removed", ["Unit"],
         [[unit] for unit in diff["units_removed"]]),
        ("Rules", ["Unit", "Gained", "Lost"],
         [[row["unit"], " ".join(map(str, row["gained"])),
           " ".join(map(str, row["lost"]))] for row in diff["rules"]]),
        ("Logins", ["Unit", "Old", "New"],
         [[row["unit"], compact(row["old"]), compact(row["new"])]
          for row in diff["logins"]]),
        ("Landscape", ["IdP", *_LANDSCAPE_HEADERS],
         [[label, *cells.values()]
          for label, cells in sorted(diff["landscape"].items())]),
        ("Config", ["Key", "Old", "New"],
         [[key, compact(change["old"]), compact(change["new"])]
          for key, change in sorted(diff["config"].items())]),
    )
    lines: list[str] = []
    for title, header, rows in sections:
        lines += ["", f"# {title}", "", *markdown_table(header, rows)]
    return "\n".join(lines[1:]) + "\n"


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
