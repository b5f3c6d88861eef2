"""Host name helpers: registrable domains, origins, loopback detection.

The registrable domain ("site") of a host is the public suffix plus one
label.  A full public-suffix list is overkill for an offline analyzer, so a
curated set of common multi-label suffixes is built in; everything else
falls back to the last two labels.  Extend ``EXTRA_SUFFIXES`` at runtime if
a deployment needs more.
"""

from __future__ import annotations

import ipaddress
import re
from urllib.parse import SplitResult, urlsplit

# Multi-label public suffixes seen often enough to matter.  Single-label
# suffixes (com, org, de, ...) need no table: last-two-labels already wins.
_MULTI_LABEL_SUFFIXES = frozenset({
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk", "ltd.uk", "plc.uk",
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
    "com.au", "net.au", "org.au", "edu.au", "gov.au",
    "co.nz", "net.nz", "org.nz",
    "com.br", "net.br", "org.br", "gov.br",
    "com.cn", "net.cn", "org.cn", "gov.cn",
    "com.tw", "com.hk", "com.sg", "com.my", "com.ph", "com.vn",
    "com.mx", "com.ar", "com.co", "com.pe", "com.ve",
    "com.tr", "com.sa", "com.eg", "com.ng", "com.pk", "com.bd",
    "co.in", "net.in", "org.in", "co.za", "co.ke",
    "co.kr", "or.kr", "co.th", "or.th", "co.id", "web.id",
    "co.il", "org.il", "com.ua", "com.pl",
    # common hosting platforms that act as suffixes
    "github.io", "gitlab.io", "appspot.com", "blogspot.com", "herokuapp.com",
})

EXTRA_SUFFIXES: set[str] = set()

_DOTTED_DIGITS = re.compile(r"[0-9.]+")


def registrable_domain(host: str) -> str:
    """Collapse a host name to its registrable domain.

    IP literals and single-label hosts are returned unchanged.
    """
    host = host.strip().strip(".").lower()
    if not host:
        return host
    # ip_address accepts only IPv6 (a ":") or dotted ASCII digits; asking
    # it about every other name would raise and catch for nothing
    bare = host.strip("[]")
    if ":" in bare or _DOTTED_DIGITS.fullmatch(bare):
        try:
            ipaddress.ip_address(bare)
            return host
        except ValueError:
            pass
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    tail2 = ".".join(labels[-2:])
    if tail2 in _MULTI_LABEL_SUFFIXES or tail2 in EXTRA_SUFFIXES:
        return ".".join(labels[-3:])
    return tail2


_UNSPLIT = SplitResult("", "", "", "", "")


def split_url(url: str) -> SplitResult:
    """``urlsplit`` that yields all-empty parts for a URL it cannot split.

    Recorded traffic carries hostile URLs such as ``https://[::1/cb``;
    callers treat the empty result as "not a URL" instead of crashing.
    """
    try:
        return urlsplit(url)
    except ValueError:
        return _UNSPLIT


def url_host(url: str) -> str:
    return (split_url(url).hostname or "").lower()


def origin_of(url: str) -> str:
    """scheme://host[:port] of a URL, lowercased, default ports dropped.

    Empty when the port is out of range.
    """
    parts = split_url(url)
    scheme = parts.scheme.lower()
    host = (parts.hostname or "").lower()
    try:
        port = parts.port
    except ValueError:
        return ""
    if port is None or (scheme, port) in (("http", 80), ("https", 443)):
        return f"{scheme}://{host}"
    return f"{scheme}://{host}:{port}"


def is_loopback_host(host: str) -> bool:
    host = host.strip("[]").lower()
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False
