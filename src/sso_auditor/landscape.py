"""SSO landscape bookkeeping: finding login pages and tracking them over time.

This module builds search engine queries for a website's login pages and
reads per-domain scan records (which IdPs a website offered, and how that
was seen), which can be diffed across monitoring runs.  The per-IdP table
of analyzed logins by protocol and flow is not kept here: the report
renderer derives it from the ``logins`` rows of an ``analyze`` report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .domains import registrable_domain
from .exceptions import InvalidDomain, MalformedInput
from .report import markdown_table
from .trace import load_json

METHOD_KEYWORD = "keyword"
METHOD_IMAGE = "image"
METHOD_MANUAL = "manual"
DETECTION_METHODS = frozenset({METHOD_KEYWORD, METHOD_IMAGE, METHOD_MANUAL})

_DOMAIN_RE = re.compile(r"[a-z0-9]([a-z0-9-]*[a-z0-9])?"
                        r"(\.[a-z0-9]([a-z0-9-]*[a-z0-9])?)+")


# ---------------------------------------------------------------------------
# search queries

def build_search_queries(domain: str) -> list[str]:
    """The five login-page query templates for one website.

    The short site name (registrable label) drives the free-text variants,
    the full domain drives the site: filters.
    """
    domain = domain.strip().lower()
    if not domain or not _DOMAIN_RE.fullmatch(domain):
        raise InvalidDomain(f"not a usable domain: {domain!r}")
    name = registrable_domain(domain).split(".")[0]
    return [
        f"{domain} login site:{domain}",
        f"{name} login site:{domain}",
        f"log in {name} site:*.{domain}",
        f"{name} login signin signup register account site:{domain}",
        f'site:{domain} (intitle:"login" OR intitle:"log in" OR '
        f'intitle:"signin" OR intitle:"sign in")',
    ]


# ---------------------------------------------------------------------------
# scan records

@dataclass(frozen=True)
class IdpObservation:
    idp: str
    method: str
    login_page: str

    def __post_init__(self):
        if self.method not in DETECTION_METHODS:
            raise MalformedInput(f"unknown detection method: {self.method!r}")


@dataclass(frozen=True)
class ScanRecord:
    domain: str
    scanned_at: str
    login_pages: tuple[str, ...] = ()
    idps: tuple[IdpObservation, ...] = ()

    def __post_init__(self):
        seen = set()
        for obs in self.idps:
            key = (obs.idp, obs.login_page)
            if key in seen:
                raise MalformedInput(
                    f"duplicate idp observation: {key}")
            seen.add(key)

    def idp_names(self) -> set[str]:
        return {obs.idp for obs in self.idps}

    @classmethod
    def from_dict(cls, doc: dict) -> "ScanRecord":
        if not isinstance(doc, dict) or "domain" not in doc:
            raise MalformedInput("scan record needs a domain")
        login_pages = doc.get("login_pages", [])
        idps = doc.get("idps", [])
        if not isinstance(login_pages, list):
            raise MalformedInput("scan record login_pages must be a list")
        if not isinstance(idps, list) \
                or not all(isinstance(i, dict) and "idp" in i for i in idps):
            raise MalformedInput(
                "scan record idps must be a list of objects with an idp")
        return cls(
            domain=str(doc["domain"]),
            scanned_at=str(doc.get("scanned_at", "")),
            login_pages=tuple(login_pages),
            idps=tuple(IdpObservation(idp=str(i["idp"]),
                                      method=str(i.get("method", METHOD_MANUAL)),
                                      login_page=str(i.get("login_page", "")))
                       for i in idps),
        )


def load_scan_records(data: bytes | str) -> list[ScanRecord]:
    """One JSON object per line; blank lines are skipped."""
    return [ScanRecord.from_dict(load_json(line, f"line {line_no}"))
            for line_no, line in enumerate(data.splitlines(), start=1)
            if line.strip()]


# ---------------------------------------------------------------------------
# diffing scans

@dataclass(frozen=True)
class LandscapeDiff:
    added: tuple[tuple[str, str], ...]
    removed: tuple[tuple[str, str], ...]
    websites_added: tuple[str, ...]
    websites_removed: tuple[str, ...]


def _pair_set(records: Iterable[ScanRecord]) -> set[tuple[str, str]]:
    return {(record.domain, obs.idp) for record in records for obs in record.idps}


def diff_scans(prev: Iterable[ScanRecord],
               next_: Iterable[ScanRecord]) -> LandscapeDiff:
    prev_pairs = _pair_set(prev)
    next_pairs = _pair_set(next_)
    prev_domains = {domain for domain, _ in prev_pairs}
    next_domains = {domain for domain, _ in next_pairs}
    return LandscapeDiff(
        added=tuple(sorted(next_pairs - prev_pairs)),
        removed=tuple(sorted(prev_pairs - next_pairs)),
        websites_added=tuple(sorted(next_domains - prev_domains)),
        websites_removed=tuple(sorted(prev_domains - next_domains)),
    )


def render_diff_markdown(diff: LandscapeDiff) -> str:
    idps = sorted({idp for _, idp in diff.added} |
                  {idp for _, idp in diff.removed})
    rows = [[label] + [sum(1 for _, i in pairs if i == idp) for idp in idps]
            + [len(websites)]
            for label, pairs, websites in (
                ("Added", diff.added, diff.websites_added),
                ("Removed", diff.removed, diff.websites_removed))]
    return "\n".join(markdown_table(["Change"] + idps + ["Websites"], rows)) + "\n"
