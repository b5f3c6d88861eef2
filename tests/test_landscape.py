"""Unit tests for login-page discovery and for the landscape diff of two
stored reports."""

import pytest

from sso_auditor import report
from sso_auditor.exceptions import InvalidDomain
from sso_auditor.landscape import build_search_queries

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



def _fragment(domain, idp, *rule_ids):
    """A stored report's security fragment with one login row."""
    return {"domain": domain, "idp": idp,
            "findings": [{"rule_id": rule} for rule in rule_ids],
            "logins": [{"idp": idp, "protocol": "oidc",
                        "requested_flow": "code"}]}


def _report(*fragments):
    return {"config": {}, "security": list(fragments)}


def test_diff_scans_set_semantics():
    old = _report(_fragment("a.example", "Google", "csrf.weak"),
                  _fragment("c.example", "Apple"))
    new = _report(_fragment("a.example", "Google", "csrf.missing"),
                  _fragment("a.example", "Facebook"),
                  _fragment("b.example", "Apple"))
    diff = report.diff_reports(old, new)
    assert diff["units_added"] == ["a.example/Facebook", "b.example/Apple"]
    assert diff["units_removed"] == ["c.example/Apple"]
    assert diff["rules"] == [{"unit": "a.example/Google",
                              "gained": ["csrf.missing"], "lost": ["csrf.weak"]}]
    assert diff["logins"] == []
    # Apple keeps one website and one login, so its row drops out; the
    # total keeps two websites (a, c -> a, b) and gains a login
    one_login = {"Websites": 1, "Logins": 1, "OAuth 2.0": 0, "OIDC": 1,
                 "code": 1, "hybrid": 0, "implicit": 0, "unknown": 0}
    assert diff["landscape"] == {
        "Facebook": one_login,
        "Total": {**one_login, "Websites": 0}}
    assert diff["config"] == {}


def test_diff_scans_symmetry():
    old = _report(_fragment("a.example", "Google", "csrf.weak"))
    new = _report(_fragment("a.example", "Apple"),
                  _fragment("a.example", "Google"))
    forward = report.diff_reports(old, new)
    backward = report.diff_reports(new, old)
    assert forward["units_added"] == backward["units_removed"] == \
        ["a.example/Apple"]
    assert forward["units_removed"] == backward["units_added"] == []
    assert [(row["gained"], row["lost"]) for row in forward["rules"]] == \
        [(row["lost"], row["gained"]) for row in backward["rules"]]
    assert {label: {header: -delta for header, delta in cells.items()}
            for label, cells in forward["landscape"].items()} == \
        backward["landscape"]


def test_render_diff_markdown_table():
    old = _report(_fragment("a.example", "Google"))
    new = _report(_fragment("a.example", "Google"),
                  _fragment("b.example", "Apple", "csrf.missing"))
    text = report.render_diff(report.diff_reports(old, new), "markdown")
    assert text == (
        "# Units added\n\n"
        "| Unit |\n"
        "| --- |\n"
        "| b.example/Apple |\n\n"
        "# Units removed\n\n"
        "| Unit |\n"
        "| --- |\n\n"
        "# Rules\n\n"
        "| Unit | Gained | Lost |\n"
        "| --- | --- | --- |\n\n"
        "# Logins\n\n"
        "| Unit | Old | New |\n"
        "| --- | --- | --- |\n\n"
        "# Landscape\n\n"
        "| IdP | Websites | Logins | OAuth 2.0 | OIDC | code | hybrid "
        "| implicit | unknown |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| Apple | 1 | 1 | 0 | 1 | 1 | 0 | 0 | 0 |\n"
        "| Total | 1 | 1 | 0 | 1 | 1 | 0 | 0 | 0 |\n\n"
        "# Config\n\n"
        "| Key | Old | New |\n"
        "| --- | --- | --- |\n")


def test_render_diff_markdown_keeps_each_idp_label_in_one_cell():
    diff = report.diff_reports(_report(),
                               _report(_fragment("a.example", "Go|og\nle")))
    lines = report.render_diff(diff, "markdown").splitlines()
    assert "| a.example/Go\\|og le |" in lines
    assert "| Go\\|og le | 1 | 1 | 0 | 1 | 1 | 0 | 0 | 0 |" in lines
    # every table row has as many cells as its header
    assert all(line.replace("\\|", "").count("|") in (2, 4, 10)
               for line in lines if line.startswith("|"))


def test_render_diff_markdown_empty():
    # each section keeps its header rows, also with nothing changed
    diff = report.diff_reports(_report(), _report())
    assert not any(diff.values())
    lines = report.render_diff(diff, "markdown").splitlines()
    assert [line for line in lines if line.startswith("#")] == [
        "# Units added", "# Units removed", "# Rules", "# Logins",
        "# Landscape", "# Config"]
    assert [line for line in lines if line.startswith("|")
            and "---" not in line] == [
        "| Unit |", "| Unit |", "| Unit | Gained | Lost |",
        "| Unit | Old | New |",
        "| IdP | Websites | Logins | OAuth 2.0 | OIDC | code | hybrid "
        "| implicit | unknown |",
        "| Key | Old | New |"]
