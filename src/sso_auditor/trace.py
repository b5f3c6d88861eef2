"""Typed model of one recorded login attempt.

A trace bundles a browser HTTP archive (HAR 1.2), a small metadata document
describing the capture, and an optional list of in-browser communication
events (postMessage calls and URL fragment changes).  Entries are kept in
start-time order; ties keep file order.  All timestamps are UTC; naive
timestamps are assumed UTC.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import NamedTuple
from urllib.parse import urljoin

from .domains import split_url
from .exceptions import EntryError, MalformedInput, MissingMetadataField

PROFILE_LOGIN_RUN = "login-run"
PROFILE_CONSENT_VISIT = "consent-given-visit"
PROFILE_NO_CONSENT_VISIT = "no-consent-visit"
PROFILE_KINDS = frozenset({
    PROFILE_LOGIN_RUN, PROFILE_CONSENT_VISIT, PROFILE_NO_CONSENT_VISIT,
})

IBC_POST_MESSAGE = "post-message"
IBC_FRAGMENT_CHANGE = "fragment-change"
IBC_KINDS = frozenset({IBC_POST_MESSAGE, IBC_FRAGMENT_CHANGE})

REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})

# Rules only scan retained bytes; larger response bodies are cut here.
MAX_BODY_CHARS = 5 * 1024 * 1024


class TraceMetadata(NamedTuple):
    """Checked by ``parse_metadata``: a known profile kind and a run index
    of at least 1, and 1 or 2 for a login run."""

    domain: str
    page_url: str
    captured_at: datetime
    profile_kind: str
    run_index: int
    idp_label: str | None = None


class HttpRequest(NamedTuple):
    method: str
    url: str
    headers: tuple[tuple[str, str], ...] = ()
    body: str | None = None
    body_mime: str | None = None

    def header(self, name: str) -> str | None:
        return _header_value(self.headers, name.lower())


class HttpResponse(NamedTuple):
    status: int
    headers: tuple[tuple[str, str], ...] = ()
    redirect_target: str | None = None
    body: str | None = None
    body_mime: str | None = None
    body_truncated: bool = False


class HttpEntry(NamedTuple):
    request: HttpRequest
    response: HttpResponse
    started_at: datetime


class IbcEvent(NamedTuple):
    """``kind`` is one of ``IBC_KINDS``, checked by ``_parse_ibc_list``."""

    kind: str
    source_origin: str
    target_origin: str
    payload: str
    at: datetime


class Trace(NamedTuple):
    metadata: TraceMetadata
    entries: tuple[HttpEntry, ...] = ()
    ibc_events: tuple[IbcEvent, ...] = ()


# ---------------------------------------------------------------------------
# timestamps

def parse_timestamp(text: str) -> datetime:
    """ISO 8601, tolerant of a trailing Z.  Naive values become UTC."""
    if not isinstance(text, str) or not text:
        raise MalformedInput(f"bad timestamp: {text!r}")
    candidate = text.strip()
    if candidate.endswith(("Z", "z")):
        candidate = candidate[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(candidate)
    except ValueError as exc:
        raise MalformedInput(f"bad timestamp: {text!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def format_timestamp(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


# ---------------------------------------------------------------------------
# HAR parsing

def parse_har(data: bytes | str, metadata: TraceMetadata) -> Trace:
    """Parse a HAR 1.2 document.  Unknown fields are ignored, never fatal.

    Raises MalformedInput when the document is not JSON or has no
    log.entries list, and EntryError for the first unreadable entry.
    """
    doc = load_json(data)
    log = doc.get("log") if isinstance(doc, dict) else None
    raw_entries = log.get("entries") if isinstance(log, dict) else None
    if not isinstance(raw_entries, list):
        raise MalformedInput("document has no log.entries list")

    entries = []
    for index, raw in enumerate(raw_entries):
        entries.append(_parse_entry(index, raw))
    entries.sort(key=lambda pair: pair[1].started_at)  # stable: keeps file order
    ordered = tuple(entry for _, entry in entries)

    ibc = tuple(_parse_ibc_list(log.get("_ibc"))) if isinstance(log, dict) else ()
    return Trace(metadata=metadata, entries=ordered, ibc_events=ibc)


def load_json(data: bytes | str, what: str = "input") -> object:
    """Parse an untrusted JSON document.

    Bytes that are not UTF-8, text that is not JSON and nesting too deep to
    load all raise MalformedInput naming ``what``.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{what} is not UTF-8: {exc}") from exc
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{what} is not JSON: {exc}") from exc


def _parse_entry(index: int, raw: object) -> tuple[int, HttpEntry]:
    if not isinstance(raw, dict):
        raise EntryError(index, "entry is not an object")
    request = raw.get("request")
    response = raw.get("response")
    if not isinstance(request, dict) or not isinstance(response, dict):
        raise EntryError(index, "entry lacks request or response")

    url = request.get("url")
    if not isinstance(url, str) or not url:
        raise EntryError(index, "request has no url")
    parts = split_url(url)
    if not parts.scheme or not parts.netloc:
        raise EntryError(index, f"url is not absolute: {url!r}")

    method = request.get("method") or "GET"
    try:
        started_at = parse_timestamp(raw.get("startedDateTime", ""))
    except MalformedInput as exc:
        raise EntryError(index, str(exc)) from exc

    status = response.get("status")
    if not isinstance(status, int) or not 100 <= status <= 599:
        raise EntryError(index, f"status out of range: {status!r}")

    req_headers = _parse_headers(request.get("headers"))
    resp_headers = _parse_headers(response.get("headers"))

    body, body_mime = _parse_post_data(request.get("postData"))
    resp_body, resp_mime, truncated = _parse_content(response.get("content"))

    redirect_target = None
    if status in REDIRECT_STATUSES:
        location = _header_value(resp_headers, "location")
        if location is None:
            redirect_url = response.get("redirectURL")
            if isinstance(redirect_url, str) and redirect_url:
                location = redirect_url
        if location:
            try:
                redirect_target = urljoin(url, location)
            except ValueError:  # unsplittable, e.g. "https://[::1/x"
                redirect_target = location

    entry = HttpEntry(
        request=HttpRequest(
            method=str(method),
            url=url,
            headers=req_headers,
            body=body,
            body_mime=body_mime,
        ),
        response=HttpResponse(
            status=status,
            headers=resp_headers,
            redirect_target=redirect_target,
            body=resp_body,
            body_mime=resp_mime,
            body_truncated=truncated,
        ),
        started_at=started_at,
    )
    return index, entry


def _parse_headers(raw: object) -> tuple[tuple[str, str], ...]:
    if not isinstance(raw, list):
        return ()
    out = []
    for item in raw:
        if isinstance(item, dict):
            name, value = item.get("name"), item.get("value")
            if isinstance(name, str) and isinstance(value, str):
                out.append((name, value))
    return tuple(out)


def _header_value(headers: tuple[tuple[str, str], ...], name: str) -> str | None:
    for key, value in headers:
        if key.lower() == name:
            return value
    return None


def _parse_post_data(raw: object) -> tuple[str | None, str | None]:
    if not isinstance(raw, dict):
        return None, None
    text = raw.get("text")
    mime = raw.get("mimeType")
    return (text if isinstance(text, str) else None,
            mime if isinstance(mime, str) else None)


def _parse_content(raw: object) -> tuple[str | None, str | None, bool]:
    if not isinstance(raw, dict):
        return None, None, False
    text = raw.get("text")
    mime = raw.get("mimeType")
    truncated = False
    if isinstance(text, str) and len(text) > MAX_BODY_CHARS:
        text = text[:MAX_BODY_CHARS]
        truncated = True
    return (text if isinstance(text, str) else None,
            mime if isinstance(mime, str) else None,
            truncated)


# ---------------------------------------------------------------------------
# bundles: HAR + metadata + optional IBC sidecar

_METADATA_REQUIRED = ("domain", "page_url", "captured_at", "profile_kind",
                      "run_index")


def parse_metadata(data: bytes | str) -> TraceMetadata:
    doc = load_json(data)
    if not isinstance(doc, dict):
        raise MalformedInput("metadata document is not a JSON object")
    for key in _METADATA_REQUIRED:
        if key not in doc:
            raise MissingMetadataField(key)
    run_index = doc["run_index"]
    if not isinstance(run_index, int):
        raise MalformedInput(f"run_index is not an integer: {run_index!r}")
    idp = doc.get("idp")
    captured_at = parse_timestamp(doc["captured_at"])
    profile_kind = str(doc["profile_kind"])
    if profile_kind not in PROFILE_KINDS:
        raise MalformedInput(f"unknown profile_kind: {profile_kind!r}")
    if run_index < 1:
        raise MalformedInput("run_index must be >= 1")
    if profile_kind == PROFILE_LOGIN_RUN and run_index not in (1, 2):
        raise MalformedInput("login-run traces use run_index 1 or 2")
    return TraceMetadata(
        domain=str(doc["domain"]),
        page_url=str(doc["page_url"]),
        captured_at=captured_at,
        profile_kind=profile_kind,
        run_index=run_index,
        idp_label=str(idp) if idp is not None else None,
    )


def parse_ibc(data: bytes | str) -> tuple[IbcEvent, ...]:
    doc = load_json(data)
    if not isinstance(doc, list):
        raise MalformedInput("ibc document is not a JSON array")
    return tuple(_parse_ibc_list(doc))


def _parse_ibc_list(raw: object) -> list[IbcEvent]:
    if not isinstance(raw, list):
        return []
    events = []
    for item in raw:
        if not isinstance(item, dict):
            raise MalformedInput("ibc event is not an object")
        for key in ("kind", "source_origin", "target_origin", "payload", "at"):
            if key not in item:
                raise MalformedInput(f"ibc event lacks {key}")
        target = str(item["target_origin"])
        if target != "*" and not _is_origin(target):
            raise MalformedInput(f"bad target_origin: {target!r}")
        source = str(item["source_origin"])
        if not _is_origin(source):
            raise MalformedInput(f"bad source_origin: {source!r}")
        kind, payload = str(item["kind"]), str(item["payload"])
        at = parse_timestamp(item["at"])
        if kind not in IBC_KINDS:
            raise MalformedInput(f"unknown ibc event kind: {kind!r}")
        events.append(IbcEvent(kind=kind, source_origin=source,
                               target_origin=target, payload=payload, at=at))
    events.sort(key=lambda ev: ev.at)
    return events


def _is_origin(value: str) -> bool:
    parts = split_url(value)
    return parts.scheme in ("http", "https") and bool(parts.netloc) \
        and not parts.path and not parts.query and not parts.fragment


def parse_trace_bundle(har: bytes | str, metadata: bytes | str,
                       ibc: bytes | str | None = None) -> Trace:
    meta = parse_metadata(metadata)
    trace = parse_har(har, metadata=meta)
    if ibc is not None:
        trace = trace._replace(ibc_events=parse_ibc(ibc))
    return trace
