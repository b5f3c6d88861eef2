"""SSO landscape bookkeeping: finding login pages and tracking them over time.

This module builds search engine queries for a website's login pages,
extracts SSO button candidates from login page HTML, and stores per-domain
scan records that can be diffed across monitoring runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from html.parser import HTMLParser
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
# SSO candidate extraction from login page HTML

@dataclass(frozen=True)
class SsoCandidate:
    element: str
    text: str
    matched_keyword: str
    idp: str
    position: int


@dataclass(frozen=True)
class KeywordConfig:
    """Phrases carry an IdP guess; bare names are the fallback."""

    idp_names: tuple[str, ...] = ("google", "facebook", "apple")
    phrase_templates: tuple[str, ...] = (
        "sign in with {idp}",
        "sign up with {idp}",
        "log in with {idp}",
        "login with {idp}",
        "continue with {idp}",
    )
    extra_phrases: tuple[tuple[str, str], ...] = ()

    def phrases(self) -> list[tuple[str, str]]:
        out = [(template.format(idp=name), name)
               for name in self.idp_names
               for template in self.phrase_templates]
        out.extend(self.extra_phrases)
        return out


_CLICKABLE_TAGS = frozenset({"a", "button"})
_TEXT_ATTRS = ("title", "aria-label", "value", "alt", "data-provider")


class _ClickableCollector(HTMLParser):
    """Lenient scan for clickable elements and their visible text."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.position = 0
        self.stack: list[dict] = []
        self.elements: list[dict] = []

    def _is_clickable(self, tag: str, attrs: dict[str, str | None]) -> bool:
        if tag in _CLICKABLE_TAGS:
            return True
        if tag == "input" and (attrs.get("type") or "").lower() in (
                "submit", "button", "image"):
            return True
        if "onclick" in attrs:
            return True
        if (attrs.get("role") or "").lower() == "button":
            return True
        return False

    def handle_starttag(self, tag, attrs):
        attr_map = {k.lower(): v for k, v in attrs}
        attr_text = " ".join(v for k in _TEXT_ATTRS
                             if (v := attr_map.get(k)))
        if self._is_clickable(tag, attr_map):
            element = {"tag": tag, "text": [attr_text] if attr_text else [],
                       "position": self.position}
            self.position += 1
            if tag in ("input", "img"):  # void elements never get an endtag
                self.elements.append(element)
            else:
                self.stack.append(element)
        elif attr_text and self.stack:
            self.stack[-1]["text"].append(attr_text)

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if self.stack and self.stack[-1]["tag"] == tag:
            self.elements.append(self.stack.pop())

    def handle_data(self, data):
        if self.stack and data.strip():
            self.stack[-1]["text"].append(data)

    def handle_endtag(self, tag):
        for index in range(len(self.stack) - 1, -1, -1):
            if self.stack[index]["tag"] == tag:
                element = self.stack.pop(index)
                self.elements.append(element)
                break

    def close(self):
        super().close()
        while self.stack:  # unclosed markup still counts
            self.elements.append(self.stack.pop())
        self.elements.sort(key=lambda el: el["position"])


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


def extract_sso_candidates(html: str, config: KeywordConfig | None = None,
                           ) -> list[SsoCandidate]:
    """Clickable elements that look like SSO entry points.

    Full phrases ("sign in with google") are authoritative; bare provider
    names are only consulted when no phrase matched anywhere on the page.
    Purely graphical buttons without text or labels are invisible here.
    """
    config = config or KeywordConfig()
    collector = _ClickableCollector()
    try:
        collector.feed(html)
        collector.close()
    except Exception:
        pass  # lenient by contract: broken markup yields what was seen so far

    phrase_hits: list[SsoCandidate] = []
    name_hits: list[SsoCandidate] = []
    phrases = config.phrases()
    for element in collector.elements:
        text = _normalize(" ".join(element["text"]))
        if not text:
            continue
        matched = False
        for phrase, idp in phrases:
            if phrase in text:
                phrase_hits.append(SsoCandidate(
                    element=element["tag"], text=text, matched_keyword=phrase,
                    idp=idp, position=element["position"]))
                matched = True
                break
        if matched:
            continue
        for name in config.idp_names:
            if re.search(rf"\b{re.escape(name)}\b", text):
                name_hits.append(SsoCandidate(
                    element=element["tag"], text=text, matched_keyword=name,
                    idp=name, position=element["position"]))
                break
    hits = phrase_hits if phrase_hits else name_hits
    return sorted(hits, key=lambda c: c.position)


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


def dump_scan_records(records: Iterable[ScanRecord]) -> str:
    return "".join(json.dumps(asdict(r), sort_keys=True) + "\n"
                   for r in records)


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
    pairs = set()
    for record in records:
        for obs in record.idps:
            pairs.add((record.domain, obs.idp))
    return pairs


def diff_scans(prev: Iterable[ScanRecord],
               next_: Iterable[ScanRecord]) -> LandscapeDiff:
    prev = list(prev)
    next_ = list(next_)
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


# ---------------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class ClassifiedLogin:
    """One analyzed login procedure, as the classification stage reports it."""

    domain: str
    idp: str
    protocol: str
    flow: str


def aggregate_landscape(scans: Iterable[ScanRecord],
                        classifications: Iterable[ClassifiedLogin]) -> dict:
    """Per-provider table: observed logins plus protocol and flow counts."""
    login_keys: set[tuple[str, str, str]] = set()
    for record in scans:
        for obs in record.idps:
            login_keys.add((record.domain, obs.idp, obs.login_page))

    class_keys: dict[tuple[str, str], ClassifiedLogin] = {}
    for item in classifications:
        class_keys.setdefault((item.domain, item.idp), item)

    idps = sorted({idp for _, idp, _ in login_keys} |
                  {idp for _, idp in class_keys})
    rows = []
    for idp in idps:
        row = {
            "idp": idp,
            "sso_logins": sum(1 for _, i, _ in login_keys if i == idp),
            "oauth2": 0, "oidc": 0,
            "code": 0, "hybrid": 0, "implicit": 0, "unknown": 0,
        }
        for (_, i), item in class_keys.items():
            if i != idp:
                continue
            if item.protocol in ("oauth2", "oidc"):
                row[item.protocol] += 1
            if item.flow in ("code", "hybrid", "implicit", "unknown"):
                row[item.flow] += 1
        rows.append(row)
    totals = {key: sum(row[key] for row in rows)
              for key in ("sso_logins", "oauth2", "oidc", "code", "hybrid",
                          "implicit", "unknown")}
    return {"rows": rows, "totals": totals}
