"""Login-page discovery: search engine queries for a website's login pages.

This is the offline half of finding the login pages of a set of websites:
running the queries and crawling the result pages needs the network and is
not part of this package.  ``landscape queries`` on the command line prints
them.  The per-IdP table of analyzed logins by protocol and flow is not
kept here: the report renderer derives it from the ``logins`` rows of an
``analyze`` report, and ``report diff`` compares two such reports.
"""

from __future__ import annotations

import re

from .domains import registrable_domain
from .exceptions import InvalidDomain

_DOMAIN_RE = re.compile(r"[a-z0-9]([a-z0-9-]*[a-z0-9])?"
                        r"(\.[a-z0-9]([a-z0-9-]*[a-z0-9])?)+")


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

