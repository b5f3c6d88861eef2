"""Unit tests for login-page discovery and scan bookkeeping."""

import pytest

from sso_auditor import landscape
from sso_auditor.exceptions import InvalidDomain, MalformedInput
from sso_auditor.landscape import (
    ClassifiedLogin, IdpObservation, KeywordConfig, LandscapeDiff, ScanRecord,
    aggregate_landscape, build_search_queries, diff_scans, dump_scan_records,
    extract_sso_candidates, load_scan_records, render_diff_markdown,
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
# SSO candidate extraction

def test_extract_phrase_hit_from_anchor():
    html = '<a href="/sso">Sign in with Google</a>'
    (hit,) = extract_sso_candidates(html)
    assert hit.idp == "google"
    assert hit.element == "a"
    assert hit.matched_keyword == "sign in with google"
    assert hit.text == "sign in with google"


def test_extract_phrase_survives_nested_markup():
    html = '<button>Continue with <b>Facebook</b></button>'
    (hit,) = extract_sso_candidates(html)
    assert (hit.idp, hit.element) == ("facebook", "button")


def test_extract_reads_attribute_text():
    html = ('<input type="submit" value="Log in with Apple">'
            '<div role="button" aria-label="Sign in with Google"></div>')
    hits = extract_sso_candidates(html)
    assert [h.idp for h in hits] == ["apple", "google"]
    assert [h.element for h in hits] == ["input", "div"]


def test_extract_name_fallback_only_without_phrases():
    names_only = '<button>Google</button><a href="/x">Apple ID</a>'
    hits = extract_sso_candidates(names_only)
    assert [h.idp for h in hits] == ["google", "apple"]
    assert all(h.matched_keyword == h.idp for h in hits)

    mixed = names_only + '<a>continue with facebook</a>'
    hits = extract_sso_candidates(mixed)
    # one real phrase on the page demotes every bare-name guess
    assert [h.idp for h in hits] == ["facebook"]


def test_extract_ignores_unclickable_and_graphical():
    html = ('<p>sign in with google</p>'
            '<a href="/x"><img src="google.png"></a>'
            '<span>facebook</span>')
    assert extract_sso_candidates(html) == []


def test_extract_is_lenient_about_broken_markup():
    html = '<a href="/sso">sign in with google<div><button>apple</'
    hits = extract_sso_candidates(html)
    assert [h.idp for h in hits] == ["google"]


def test_extract_sorts_by_document_position():
    html = ('<button>login with apple</button>'
            '<a>sign in with google</a>'
            '<a>continue with facebook</a>')
    hits = extract_sso_candidates(html)
    assert [h.idp for h in hits] == ["apple", "google", "facebook"]
    assert [h.position for h in hits] == [0, 1, 2]


def test_extract_with_custom_keywords():
    config = KeywordConfig(idp_names=("github",),
                           extra_phrases=(("enter via github", "github"),))
    html = '<a>Enter via GitHub</a>'
    (hit,) = extract_sso_candidates(html, config)
    assert hit.idp == "github"
    assert hit.matched_keyword == "enter via github"


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
    text = dump_scan_records(records)
    assert text.count("\n") == 2
    loaded = load_scan_records(text)
    assert loaded == records
    assert loaded[0].idp_names() == {"google", "apple"}


def test_load_scan_records_reports_bad_lines():
    text = dump_scan_records([_record("a.example", "google")])
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


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_landscape_counts():
    scans = [_record("a.example", "google", "apple"),
             _record("b.example", "google")]
    classifications = [
        ClassifiedLogin("a.example", "google", "oidc", "code"),
        ClassifiedLogin("b.example", "google", "oauth2", "implicit"),
        ClassifiedLogin("a.example", "apple", "oidc", "hybrid"),
    ]
    table = aggregate_landscape(scans, classifications)
    assert [row["idp"] for row in table["rows"]] == ["apple", "google"]
    google = table["rows"][1]
    assert google["sso_logins"] == 2
    assert (google["oidc"], google["oauth2"]) == (1, 1)
    assert (google["code"], google["implicit"]) == (1, 1)
    assert table["totals"]["sso_logins"] == 3
    assert table["totals"]["oidc"] == 2


def test_aggregate_landscape_deduplicates():
    scans = [_record("a.example", "google"), _record("a.example", "google")]
    classifications = [
        ClassifiedLogin("a.example", "google", "oidc", "code"),
        ClassifiedLogin("a.example", "google", "oauth2", "implicit"),
    ]
    table = aggregate_landscape(scans, classifications)
    (row,) = table["rows"]
    # same login page scanned twice counts once; first classification wins
    assert row["sso_logins"] == 1
    assert (row["oidc"], row["oauth2"]) == (1, 0)
