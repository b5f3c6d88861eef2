"""Unit tests for login-page discovery."""

import pytest

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
