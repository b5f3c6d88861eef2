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
from urllib.parse import SplitResult, urljoin

from .domains import origin_of, split_url
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
    """Checked by ``parse_metadata``: a known profile kind.  It also requires
    ``page_url`` and ``run_index`` (an integer of at least 1, and 1 or 2 for
    a login run), which no reader uses, so they are not kept."""

    domain: str
    captured_at: datetime
    profile_kind: str
    idp_label: str | None = None


class HttpRequest(NamedTuple):
    """``parts`` is ``url`` split, once, at parse time, and ``host`` its
    lowercased host name; every reader of the request URL takes them from
    here instead of splitting ``url`` again."""

    url: str
    parts: SplitResult
    host: str
    headers: tuple[tuple[str, str], ...] = ()
    body: str | None = None
    body_mime: str | None = None

    def header(self, name: str) -> str | None:
        return _header_value(self.headers, name.lower())


class HttpResponse(NamedTuple):
    status: int
    redirect_target: str | None = None
    body: str | None = None
    body_mime: str | None = None
    body_truncated: bool = False


class HttpEntry(NamedTuple):
    request: HttpRequest
    response: HttpResponse
    started_at: datetime


class IbcEvent(NamedTuple):
    """``kind`` is one of ``IBC_KINDS``, checked by ``_parse_ibc_list``,
    which also writes both origins as ``domains.origin_of`` does
    (``target_origin`` may be ``"*"``)."""

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
    """ISO 8601, tolerant of a trailing Z.  Naive values become UTC; a value
    whose UTC time falls outside ``datetime``'s range is MalformedInput."""
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
        return stamp.replace(tzinfo=timezone.utc)
    try:
        return stamp.astimezone(timezone.utc)
    except OverflowError as exc:  # e.g. 0001-01-01T00:00:00+05:00
        raise MalformedInput(f"timestamp out of range: {text!r}") from exc


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

    entries = [_parse_entry(index, raw)
               for index, raw in enumerate(raw_entries)]
    entries.sort(key=lambda entry: entry.started_at)  # stable: keeps file order

    ibc = tuple(_parse_ibc_list(log.get("_ibc")))
    return Trace(metadata=metadata, entries=tuple(entries), ibc_events=ibc)


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


def _parse_entry(index: int, raw: object) -> HttpEntry:
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

    return HttpEntry(
        request=HttpRequest(
            url=url,
            parts=parts,
            host=(parts.hostname or "").lower(),
            headers=req_headers,
            body=body,
            body_mime=body_mime,
        ),
        response=HttpResponse(
            status=status,
            redirect_target=redirect_target,
            body=resp_body,
            body_mime=resp_mime,
            body_truncated=truncated,
        ),
        started_at=started_at,
    )


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
    if isinstance(run_index, bool) or not isinstance(run_index, int):
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
        captured_at=captured_at,
        profile_kind=profile_kind,
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
        if target != "*":
            target = _origin(target, "target_origin")
        source = _origin(str(item["source_origin"]), "source_origin")
        kind, payload = str(item["kind"]), item["payload"]
        if not isinstance(payload, str):
            payload = json.dumps(payload, separators=(",", ":"),
                                 ensure_ascii=False)
        at = parse_timestamp(item["at"])
        if kind not in IBC_KINDS:
            raise MalformedInput(f"unknown ibc event kind: {kind!r}")
        events.append(IbcEvent(kind=kind, source_origin=source,
                               target_origin=target, payload=payload, at=at))
    events.sort(key=lambda ev: ev.at)
    return events


def _origin(value: str, key: str) -> str:
    """The http(s) origin ``value`` as ``origin_of`` writes it, so that
    spellings of one origin compare equal; MalformedInput naming ``key``
    for anything but scheme://host[:port], or a port out of range."""
    parts = split_url(value)
    origin = (parts.scheme in ("http", "https") and parts.netloc
              and not parts.path and not parts.query and not parts.fragment
              and origin_of(parts))
    if not origin:
        raise MalformedInput(f"bad {key}: {value!r}")
    return origin


def parse_trace_bundle(har: bytes | str, metadata: bytes | str,
                       ibc: bytes | str | None = None) -> Trace:
    meta = parse_metadata(metadata)
    trace = parse_har(har, metadata=meta)
    if ibc is not None:
        trace = trace._replace(ibc_events=parse_ibc(ibc))
    return trace
