import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sso_auditor import domains
from sso_auditor.domains import registrable_domain


def _reference_registrable_domain(host: str) -> str:
    """``registrable_domain`` as it was before its IP test was guarded:
    ``ip_address`` asked about every host."""
    host = host.strip().strip(".").lower()
    if not host:
        return host
    try:
        ipaddress.ip_address(host.strip("[]"))
        return host
    except ValueError:
        pass
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    tail2 = ".".join(labels[-2:])
    if tail2 in domains._MULTI_LABEL_SUFFIXES or tail2 in domains.EXTRA_SUFFIXES:
        return ".".join(labels[-3:])
    return tail2


@pytest.mark.parametrize("host", [
    "[1.2.3.4]", "[::1]", "::1", "fe80::1%eth0", "[fe80::1%eth0]", "1.2.3",
    "1.2.3.4", "10.0.0.1.", "256.1.1.1", "01.2.3.4", "1.2.3.4.5",
    "١.٢.٣.٤", "١٢٣.example.com", "[]",
    "[1234]", "1234", "::ffff:1.2.3.4", "[::ffff:1.2.3.4]", "...", ".", "",
    " 1.2.3.4 ", "1..2.3", "a.b.example.co.uk", "login.example.com",
    "x.github.io", "localhost", "[shop.example.com]", "2001:db8::1:2",
    "1.2.3.4:80", "[1.2.3.4]:80", "1e.2.3.4",
])
def test_registrable_domain_equals_the_unguarded_reference(host):
    assert registrable_domain(host) == _reference_registrable_domain(host)


def test_registrable_domain_keeps_ip_literals():
    assert registrable_domain("[1.2.3.4]") == "[1.2.3.4]"
    assert registrable_domain("10.0.0.1") == "10.0.0.1"
    assert registrable_domain("fe80::1%eth0") == "fe80::1%eth0"
    assert registrable_domain("1.2.3") == "2.3"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789abcdef.:[]%", max_size=24)
       | st.text(alphabet="0123456789.١٢ ", max_size=16))
def test_registrable_domain_equals_the_reference_on_drawn_hosts(host):
    assert registrable_domain(host) == _reference_registrable_domain(host)
