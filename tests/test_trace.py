"""Tests for HAR parsing, metadata handling, and the trace model."""

import json
import random
from datetime import timezone
from urllib.parse import urlsplit

import pytest

from sso_auditor import trace as trace_mod
from sso_auditor.exceptions import (
    EntryError, MalformedInput, MissingMetadataField,
)
from sso_auditor.synth import (
    LoginShape, build_har, build_meta, har_entry, synth_login_entries,
)
from sso_auditor.trace import (
    parse_har, parse_ibc, parse_metadata, parse_timestamp, parse_trace_bundle,
)


def _har_bytes(entries, ibc=None):
    return json.dumps(build_har(entries, ibc)).encode("utf-8")


def _meta_bytes(**kwargs):
    return json.dumps(build_meta("shop.example", **kwargs)).encode("utf-8")


_META = parse_metadata(_meta_bytes())


# ---------------------------------------------------------------------------
# timestamps

def test_parse_timestamp_accepts_zulu_and_offsets():
    a = parse_timestamp("2026-01-17T12:00:00Z")
    b = parse_timestamp("2026-01-17T13:00:00+01:00")
    assert a == b
    assert a.tzinfo == timezone.utc


def test_parse_timestamp_naive_is_utc():
    stamp = parse_timestamp("2026-01-17T12:00:00.250")
    assert stamp.tzinfo == timezone.utc
    assert stamp.microsecond == 250_000


def test_parse_timestamp_rejects_garbage():
    for bad in ("", "yesterday", "2026-13-40T99:00:00Z",
                # valid ISO 8601 whose UTC time falls outside datetime's range
                "0001-01-01T00:00:00+05:00", "9999-12-31T23:59:59-05:00"):
        with pytest.raises(MalformedInput):
            parse_timestamp(bad)


# ---------------------------------------------------------------------------
# HAR documents

def test_parse_har_full_login_run():
    entries = synth_login_entries(random.Random(1), "shop.example",
                                  LoginShape())
    trace = parse_trace_bundle(_har_bytes(entries), _meta_bytes())
    assert len(trace.entries) == 3
    assert trace.metadata.domain == "shop.example"
    assert trace.metadata.idp_label == "google"
    # entries are sorted by start time
    stamps = [e.started_at for e in trace.entries]
    assert stamps == sorted(stamps)
    post = trace.entries[2]
    assert post.request.body_mime == "application/x-www-form-urlencoded"
    assert "code=" in post.request.body


def test_parse_har_rejects_non_json():
    with pytest.raises(MalformedInput):
        parse_har(b"this is not json", _META)


def test_parse_har_rejects_missing_entries():
    with pytest.raises(MalformedInput):
        parse_har(json.dumps({"log": {"version": "1.2"}}), _META)


def test_entry_error_carries_index():
    entries = [har_entry("https://a.example/"), "bogus"]
    with pytest.raises(EntryError) as exc_info:
        parse_har(_har_bytes(entries), _META)
    assert exc_info.value.index == 1


def test_entry_error_on_relative_url():
    entries = [har_entry("/relative/path")]
    with pytest.raises(EntryError):
        parse_har(_har_bytes(entries), _META)


def test_entry_error_on_unsplittable_url():
    with pytest.raises(EntryError, match="not absolute"):
        parse_har(_har_bytes([har_entry("https://[::1/cb")]), _META)


def test_entry_error_on_bad_status():
    entries = [har_entry("https://a.example/", status=999)]
    with pytest.raises(EntryError):
        parse_har(_har_bytes(entries), _META)


def test_header_lookup_is_case_insensitive():
    # items that are not objects, or whose name or value is not a string,
    # are skipped on both sides
    junk = ["Location: /x", {"name": 7, "value": "/x"},
            {"name": "Location", "value": ["/x"]},
            {"name": "Referer", "value": None}]
    first = har_entry("https://a.example/start", status=302,
                      request_headers=[("X-Custom", "yes"),
                                       ("REFERER", "https://b.example/")])
    first["request"]["headers"][:0] = junk
    first["response"]["headers"] = [*junk, {"name": "LOCATION",
                                            "value": "/next"}]
    assert first["response"]["redirectURL"] == ""
    second = har_entry("https://a.example/",
                       request_headers=[("X-Custom", "yes")])
    trace = parse_har(_har_bytes([first, second]), _META)
    assert [entry.request.referer for entry in trace.entries] == \
        ["https://b.example/", None]
    assert trace.entries[0].response.redirect_target == "https://a.example/next"


def test_redirect_target_resolves_relative_location():
    entries = [har_entry("https://a.example/start", status=302,
                         location="/next")]
    trace = parse_har(_har_bytes(entries), _META)
    assert trace.entries[0].response.redirect_target == "https://a.example/next"
    # only a redirect status reads the response headers
    entries = [har_entry("https://a.example/start", location="/next")]
    trace = parse_har(_har_bytes(entries), _META)
    assert trace.entries[0].response.redirect_target is None


def test_redirect_target_keeps_unsplittable_location():
    entries = [har_entry("https://a.example/start", status=302,
                         location="https://[::1/cb?code=x")]
    trace = parse_har(_har_bytes(entries), _META)
    assert trace.entries[0].response.redirect_target == "https://[::1/cb?code=x"


def test_redirect_target_ignored_for_success_status():
    entry = har_entry("https://a.example/", status=200)
    entry["response"]["redirectURL"] = "https://b.example/"
    trace = parse_har(_har_bytes([entry]), _META)
    assert trace.entries[0].response.redirect_target is None


def test_response_body_truncation_flag():
    big = "x" * (trace_mod.MAX_BODY_CHARS + 10)
    entries = [har_entry("https://a.example/", body_text=big)]
    trace = parse_har(_har_bytes(entries), _META)
    response = trace.entries[0].response
    assert response.body_truncated
    assert len(response.body) == trace_mod.MAX_BODY_CHARS


# ---------------------------------------------------------------------------
# metadata

def test_metadata_requires_every_field():
    doc = build_meta("shop.example")
    for key in ("domain", "page_url", "captured_at", "profile_kind",
                "run_index"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(MissingMetadataField) as exc_info:
            parse_metadata(json.dumps(broken))
        assert exc_info.value.field == key


def test_metadata_idp_is_optional():
    meta = parse_metadata(json.dumps(build_meta("shop.example", idp=None)))
    assert meta.idp_label is None


@pytest.mark.parametrize("key, value", [
    ("domain", None), ("domain", 7), ("idp", ["x"]), ("idp", None),
])
def test_metadata_rejects_non_string_domain_and_idp(key, value):
    doc = build_meta("shop.example")
    doc[key] = value
    with pytest.raises(MalformedInput, match=f"{key} is not a string"):
        parse_metadata(json.dumps(doc))


def test_metadata_rejects_unknown_profile():
    doc = build_meta("shop.example")
    doc["profile_kind"] = "weekend-visit"
    with pytest.raises(MalformedInput):
        parse_metadata(json.dumps(doc))
    doc["profile_kind"] = "Login-Run"
    with pytest.raises(MalformedInput):
        parse_metadata(json.dumps(doc))


def test_metadata_rejects_bad_run_index():
    doc = build_meta("shop.example")
    doc["run_index"] = "1"
    with pytest.raises(MalformedInput):
        parse_metadata(json.dumps(doc))
    doc["run_index"] = 3
    with pytest.raises(MalformedInput):
        parse_metadata(json.dumps(doc))
    # bool is a subclass of int; true is no run index
    doc["run_index"] = True
    with pytest.raises(MalformedInput, match="not an integer"):
        parse_metadata(json.dumps(doc))
    doc["run_index"] = 0
    with pytest.raises(MalformedInput, match=">= 1"):
        parse_metadata(json.dumps(doc))


@pytest.mark.parametrize("url, host", [
    ("https://Login.Example:8443/a/b?x=1#f", "login.example"),
    ("http://[::1]:8080/cb", "::1"),
    ("https://user@shop.example", "shop.example"),
])
def test_requests_carry_their_split_url(url, host):
    trace = parse_har(_har_bytes([har_entry(url)]), _META)
    request = trace.entries[0].request
    assert request.parts == urlsplit(url)
    assert request.host == host


# ---------------------------------------------------------------------------
# in-browser communication events

def _ibc_event(**overrides):
    event = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:02Z",
        "source_origin": "https://accounts.google.com",
        "target_origin": "https://shop.example",
        "payload": "{\"id_token\": \"x\"}",
    }
    event.update(overrides)
    return event


def test_parse_ibc_sidecar():
    events = parse_ibc(json.dumps([_ibc_event()]))
    assert len(events) == 1
    assert events[0].kind == "post-message"


def test_parse_ibc_writes_non_string_payloads_as_compact_json():
    payloads = [{"id_token": "x", "name": "\u00e9"}, ["a", 1], 5, None, True,
                "{\"kept\": \"as is\"}"]
    events = parse_ibc(json.dumps([_ibc_event(payload=p) for p in payloads]))
    assert [event.payload for event in events] == [
        '{"id_token":"x","name":"\u00e9"}', '["a",1]', "5", "null", "true",
        '{"kept": "as is"}']


def test_parse_ibc_accepts_wildcard_target():
    events = parse_ibc(json.dumps([_ibc_event(target_origin="*")]))
    assert events[0].target_origin == "*"


def test_parse_ibc_rejects_bad_kind_and_origin():
    with pytest.raises(MalformedInput):
        parse_ibc(json.dumps([_ibc_event(kind="carrier-pigeon")]))
    with pytest.raises(MalformedInput, match="kind"):
        parse_ibc(json.dumps([_ibc_event(kind="Post-Message")]))
    with pytest.raises(MalformedInput):
        parse_ibc(json.dumps([_ibc_event(source_origin="not an origin")]))
    with pytest.raises(MalformedInput):
        parse_ibc(json.dumps([_ibc_event(source_origin="https://[::1")]))


@pytest.mark.parametrize("recorded, origin", [
    ("https://shop.example", "https://shop.example"),
    ("https://shop.example:443", "https://shop.example"),
    ("HTTPS://Shop.Example", "https://shop.example"),
    ("http://shop.example:80", "http://shop.example"),
    ("https://shop.example:8443", "https://shop.example:8443"),
    ("http://[::1]:8080", "http://[::1]:8080"),
])
def test_parse_ibc_writes_origins_as_origin_of(recorded, origin):
    (event,) = parse_ibc(json.dumps([_ibc_event(source_origin=recorded,
                                                target_origin=recorded)]))
    assert (event.source_origin, event.target_origin) == (origin, origin)


@pytest.mark.parametrize("key", ["source_origin", "target_origin"])
@pytest.mark.parametrize("recorded", [
    "https://shop.example:99999", "https://shop.example:port",
    "https://shop.example/cb", "ftp://shop.example",
])
def test_parse_ibc_rejects_an_origin_it_cannot_normalize(key, recorded):
    with pytest.raises(MalformedInput, match=f"bad {key}"):
        parse_ibc(json.dumps([_ibc_event(**{key: recorded})]))


def test_ibc_sidecar_overrides_embedded_events():
    entries = [har_entry("https://a.example/")]
    har = _har_bytes(entries, ibc=[_ibc_event()])
    embedded = parse_trace_bundle(har, _meta_bytes())
    assert len(embedded.ibc_events) == 1

    sidecar = json.dumps([_ibc_event(), _ibc_event(kind="fragment-change")])
    replaced = parse_trace_bundle(har, _meta_bytes(), sidecar)
    assert len(replaced.ibc_events) == 2
