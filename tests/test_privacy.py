"""Unit tests for visit-trace leak detection and aggregation."""

import json
import random

import pytest

from sso_auditor import classify, privacy, spar
from sso_auditor.exceptions import ProfileMismatch
from sso_auditor.synth import (
    build_har, build_meta, har_entry, make_id_token, synth_visit_entries,
)
from sso_auditor.trace import parse_trace_bundle


def _visit_trace(*, consented, domain="news.example", extra_ibc=None,
                 seed=5):
    entries, ibc = synth_visit_entries(random.Random(seed), domain,
                                       consented=consented)
    ibc = ibc + (extra_ibc or [])
    profile = "consent-given-visit" if consented else "no-consent-visit"
    har = json.dumps(build_har(entries, ibc)).encode("utf-8")
    meta = json.dumps(build_meta(domain, profile_kind=profile,
                                 run_index=1)).encode("utf-8")
    return parse_trace_bundle(har, meta)


def _login_run_trace():
    har = json.dumps(build_har([har_entry("https://news.example/login")]))
    meta = json.dumps(build_meta("news.example"))
    return parse_trace_bundle(har.encode(), meta.encode())


def _lal(trace):
    view = classify.decode_trace(trace)
    return privacy.detect_lal(view, classify.find_logins(view))


def _tel(trace):
    view = classify.decode_trace(trace)
    return privacy.detect_tel(view, classify.find_logins(view))


def test_detectors_reject_login_runs():
    trace = _login_run_trace()
    with pytest.raises(ProfileMismatch):
        _lal(trace)
    with pytest.raises(ProfileMismatch):
        _tel(trace)


def test_lal_fires_on_widget_probe_without_consent():
    findings = _lal(_visit_trace(consented=False))
    assert len(findings) == 1
    finding = findings[0]
    assert finding.kind == privacy.LEAK_LAL
    assert finding.idp == "Google"
    assert finding.domain == "news.example"
    assert finding.profile_kind == "no-consent-visit"
    assert finding.evidence.ref_kind == "entry"
    assert finding.evidence.detail.startswith("https://accounts.google.com/")


def test_lal_deduplicates_per_provider():
    trace = _visit_trace(consented=False)
    # the same provider probed twice still leaks the visit exactly once
    entries, _ = synth_visit_entries(random.Random(5), "news.example",
                                     consented=False)
    entries.append(entries[1])
    har = json.dumps(build_har(entries)).encode()
    meta = json.dumps(build_meta("news.example",
                                 profile_kind="no-consent-visit")).encode()
    doubled = parse_trace_bundle(har, meta)
    assert len(_lal(doubled)) == len(_lal(trace))


def test_tel_absent_without_consent():
    assert _tel(_visit_trace(consented=False)) == []


def test_tel_fires_on_consented_token_delivery():
    findings = _tel(_visit_trace(consented=True))
    assert len(findings) == 1
    finding = findings[0]
    assert finding.kind == privacy.LEAK_TEL
    assert finding.idp == "Google"
    assert finding.annotation is None
    assert finding.evidence.ref_kind == "ibc"
    assert finding.evidence.detail == "token via post-message"


def _bare_visit_trace(ibc, domain="news.example"):
    """A visit with no login widget, so IBC token events cannot be matched."""
    entries = [har_entry(f"https://{domain}/")]
    har = json.dumps(build_har(entries, ibc)).encode()
    meta = json.dumps(build_meta(domain,
                                 profile_kind="no-consent-visit")).encode()
    return parse_trace_bundle(har, meta)


def test_tel_flags_orphan_token_messages():
    orphan = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:09.000Z",
        "source_origin": "https://sso.partner.example",
        "target_origin": "https://news.example",
        "payload": spar.encode_json(
            {"access_token": "t0k3n!", "token_type": "bearer"}),
    }
    findings = _tel(_bare_visit_trace([orphan]))
    assert len(findings) == 1
    finding = findings[0]
    assert finding.annotation == privacy.ANNOTATION_NO_REQUEST
    assert finding.idp == "unknown"  # origin not in the provider registry
    assert finding.evidence.detail == "token via post-message"


def test_tel_known_origin_orphan_is_attributed():
    orphan = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:09.000Z",
        "source_origin": "https://accounts.google.com",
        "target_origin": "https://news.example",
        "payload": spar.encode_json(
            {"id_token": make_id_token("RS256", {"sub": "2"})}),
    }
    findings = _tel(_bare_visit_trace([orphan]))
    assert [f.idp for f in findings] == ["Google"]
    assert findings[0].annotation == privacy.ANNOTATION_NO_REQUEST


def test_tel_matched_delivery_under_no_consent_still_counts():
    # a provider that recognizes a returning user and pushes a token on a
    # plain visit is exactly the leak this detector exists for
    entries, _ = synth_visit_entries(random.Random(5), "news.example",
                                     consented=False)
    push = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:09.000Z",
        "source_origin": "https://accounts.google.com",
        "target_origin": "https://news.example",
        "payload": spar.encode_json(
            {"id_token": make_id_token("RS256", {"sub": "2"})}),
    }
    har = json.dumps(build_har(entries, [push])).encode()
    meta = json.dumps(build_meta("news.example",
                                 profile_kind="no-consent-visit")).encode()
    findings = _tel(parse_trace_bundle(har, meta))
    assert [f.kind for f in findings] == ["TEL"]
    assert findings[0].annotation is None  # matched to the widget request


def test_tel_ignores_tokenless_messages():
    chatter = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:09.000Z",
        "source_origin": "https://accounts.google.com",
        "target_origin": "https://news.example",
        "payload": spar.encode_json({"status": "ready"}),
    }
    assert _tel(_visit_trace(consented=False, extra_ibc=[chatter])) == []


# ---------------------------------------------------------------------------
# aggregation

def _finding(kind, idp, domain, profile):
    return privacy.PrivacyFinding(
        kind=kind, idp=idp, domain=domain, profile_kind=profile,
        evidence=privacy.PrivacyEvidence("entry", 0, "x"))


def test_aggregate_counts_and_totals():
    findings = [
        _finding("LAL", "Google", "a.example", "no-consent-visit"),
        _finding("LAL", "Google", "b.example", "no-consent-visit"),
        _finding("TEL", "Google", "a.example", "consent-given-visit"),
        _finding("LAL", "Apple", "a.example", "consent-given-visit"),
    ]
    table = privacy.aggregate_privacy(findings)
    assert [row["idp"] for row in table["rows"]] == ["Apple", "Google"]
    google = table["rows"][1]
    assert google["no-consent-visit"] == {"LAL": 2, "TEL": 0}
    assert google["consent-given-visit"] == {"LAL": 0, "TEL": 1}
    assert table["totals"]["no-consent-visit"] == {"LAL": 2, "TEL": 0}
    assert table["totals"]["consent-given-visit"] == {"LAL": 1, "TEL": 1}


def test_aggregate_deduplicates_repeat_findings():
    one = _finding("TEL", "Google", "a.example", "consent-given-visit")
    table = privacy.aggregate_privacy([one, one, one])
    assert table["totals"]["consent-given-visit"]["TEL"] == 1


def test_aggregate_ignores_unexpected_profiles():
    stray = _finding("LAL", "Google", "a.example", "login-run")
    table = privacy.aggregate_privacy([stray])
    assert table["rows"][0]["no-consent-visit"] == {"LAL": 0, "TEL": 0}
    assert table["rows"][0]["consent-given-visit"] == {"LAL": 0, "TEL": 0}
