"""Unit tests for login-page discovery and scan bookkeeping."""

import json
from dataclasses import asdict

import pytest

from sso_auditor.exceptions import InvalidDomain, MalformedInput
from sso_auditor.landscape import (
    IdpObservation, LandscapeDiff, ScanRecord, build_search_queries,
    diff_scans, load_scan_records, render_diff_markdown,
)

REDDIT_QUERIES = [
    "reddit.com login site:reddit.com",
    "reddit login site:reddit.com",
    "log in reddit site:*.reddit.com",
    "reddit login signin signup register account site:reddit.com",
    'site:reddit.com (intitle:"login" OR intitle:"log in" OR '
    'intitle:"signin" OR intitle:"sign in")',
]


def test_query_strings_are_frozen():
    assert build_search_queries("reddit.com") == REDDIT_QUERIES


def test_query_builder_normalizes_case_and_whitespace():
    assert build_search_queries("  Reddit.COM ") == REDDIT_QUERIES


def test_query_builder_uses_registrable_label_for_subdomains():
    queries = build_search_queries("forums.reddit.co.uk")
    assert queries[0] == "forums.reddit.co.uk login site:forums.reddit.co.uk"
    assert queries[1] == "reddit login site:forums.reddit.co.uk"
    assert queries[2] == "log in reddit site:*.forums.reddit.co.uk"


@pytest.mark.parametrize("bad", ["", "nodots", "-bad.example", "has space.com",
                                 "trailing.dot."])
def test_query_builder_rejects_junk(bad):
    with pytest.raises(InvalidDomain):
        build_search_queries(bad)


# ---------------------------------------------------------------------------
# scan records

def _record(domain, *idps, at="2026-01-17T00:00:00Z"):
    return ScanRecord(
        domain=domain, scanned_at=at,
        login_pages=(f"https://{domain}/login",),
        idps=tuple(IdpObservation(idp=i, method="keyword",
                                  login_page=f"https://{domain}/login")
                   for i in idps))


def test_scan_record_rejects_duplicate_observations():
    obs = IdpObservation("google", "keyword", "https://a.example/login")
    with pytest.raises(MalformedInput):
        ScanRecord(domain="a.example", scanned_at="t", idps=(obs, obs))


def test_idp_observation_validates_method():
    with pytest.raises(MalformedInput):
        IdpObservation("google", "guesswork", "https://a.example/login")


def test_scan_records_jsonl_roundtrip():
    records = [_record("a.example", "google", "apple"),
               _record("b.example", "facebook")]
    text = "".join(json.dumps(asdict(r)) + "\n" for r in records)
    assert text.count("\n") == 2
    loaded = load_scan_records(text)
    assert loaded == records
    assert loaded[0].idp_names() == {"google", "apple"}


def test_load_scan_records_reports_bad_lines():
    text = json.dumps(asdict(_record("a.example", "google"))) + "\n"
    with pytest.raises(MalformedInput, match="line 3"):
        load_scan_records(text + "\n{broken\n")
    with pytest.raises(MalformedInput):
        load_scan_records('{"scanned_at": "t"}\n')  # no domain
    with pytest.raises(MalformedInput, match="line 1"):
        load_scan_records("[" * 100_000 + "]" * 100_000)
    assert load_scan_records("\n\n") == []


# ---------------------------------------------------------------------------
# diffing

def test_diff_scans_set_semantics():
    prev = [_record("a.example", "google"), _record("c.example", "apple")]
    next_ = [_record("a.example", "google", "facebook"),
             _record("b.example", "apple")]
    diff = diff_scans(prev, next_)
    assert diff.added == (("a.example", "facebook"), ("b.example", "apple"))
    assert diff.removed == (("c.example", "apple"),)
    assert diff.websites_added == ("b.example",)
    assert diff.websites_removed == ("c.example",)


def test_diff_scans_symmetry():
    prev = [_record("a.example", "google")]
    next_ = [_record("a.example", "apple")]
    forward = diff_scans(prev, next_)
    backward = diff_scans(next_, prev)
    assert forward.added == backward.removed
    assert forward.removed == backward.added
    assert forward.websites_added == backward.websites_removed


def test_render_diff_markdown_table():
    diff = LandscapeDiff(
        added=(("a.example", "facebook"), ("b.example", "apple")),
        removed=(),
        websites_added=("b.example",),
        websites_removed=())
    text = render_diff_markdown(diff)
    assert text == (
        "| Change | apple | facebook | Websites |\n"
        "| --- | --- | --- | --- |\n"
        "| Added | 1 | 1 | 1 |\n"
        "| Removed | 0 | 0 | 0 |\n")


def test_render_diff_markdown_empty():
    # each row has as many cells as the header, also with no IdP columns
    assert render_diff_markdown(diff_scans([], [])) == (
        "| Change | Websites |\n"
        "| --- | --- |\n"
        "| Added | 0 |\n"
        "| Removed | 0 |\n")
