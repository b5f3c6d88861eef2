"""Unit tests for every passive security rule and the orchestrator."""

import json
import math
import random
from collections import Counter
from urllib.parse import urlsplit

import pytest

from sso_auditor import classify, domains, security, spar
from sso_auditor.exceptions import ProfileMismatch
from sso_auditor.synth import (
    IDP_NAME, LoginShape, build_har, build_meta, fixture_domain, har_entry,
    make_id_token, synth_login_entries,
)
from sso_auditor.trace import parse_trace_bundle


def _trace(entries, ibc=None, domain="shop.example", **meta_kwargs):
    har = json.dumps(build_har(entries, ibc)).encode("utf-8")
    meta = json.dumps(build_meta(domain, **meta_kwargs)).encode("utf-8")
    return parse_trace_bundle(har, meta)


def _login_trace(shape=LoginShape(), seed=1, domain="shop.example"):
    return _trace(synth_login_entries(random.Random(seed), domain, shape),
                  domain=domain)


CFG = security.RuleConfig()


def _msg(channel=classify.CHANNEL_QUERY, entry_ref=1, **params):
    return classify.SsoMessage(
        entry_ref=entry_ref, ref_kind=classify.REF_ENTRY,
        channel=channel, idp="Google", params=classify.SsoParams(**params),
        locations={name: classify.ParamLocation(channel, (name,),
                                                spar.decode(value))
                   for name, value in params.items()})


def _request(**params):
    params.setdefault("client_id", "client-1")
    params.setdefault("redirect_uri", "https://shop.example/cb")
    return _msg(**params)


def _response(**params):
    return _msg(entry_ref=2, **params)


def _login(request, response=None, **kwargs):
    return classify.Login(request=request, response=response, **kwargs)


def _rule_ids(findings):
    return sorted(f.rule_id for f in findings)


# ---------------------------------------------------------------------------
# entropy estimation

def test_charset_class_ladder():
    assert security.charset_class("0123") == "digits"
    assert security.charset_class("0f3c") == "hex"
    assert security.charset_class("0F3C") == "hex"
    assert security.charset_class("aF") == "alphanumeric"
    assert security.charset_class("a-b_c") == "base64url"
    assert security.charset_class("a b!") == "printable"


def test_estimate_entropy_exact_values():
    estimate = security.estimate_entropy(spar.decode("83749274"))
    assert estimate.basis == security.BASIS_CHARSET
    assert estimate.bits == 8 * math.log2(10)

    hex_estimate = security.estimate_entropy(spar.decode("deadbeefdeadbeef"))
    assert hex_estimate.bits == 16 * math.log2(16)


def test_estimate_entropy_absent_and_static():
    # without a paired value, a value is never judged static
    absent = security.estimate_entropy(spar.decode("samevalue!"))
    assert absent.basis == security.BASIS_CHARSET

    static = security.estimate_entropy(spar.decode("samevalue!"),
                                       "samevalue!")
    assert (static.bits, static.basis) == (0.0, security.BASIS_STATIC)

    differing = security.estimate_entropy(spar.decode("abc"), "xyz")
    assert differing.basis == security.BASIS_CHARSET


def test_estimate_entropy_uses_best_leaf_of_structure():
    value = spar.encode_form([("sid", "12"), ("tok", "xyzqrs")])
    estimate = security.estimate_entropy(spar.decode(value))
    assert estimate.bits == 6 * math.log2(62)


# ---------------------------------------------------------------------------
# CSRF rules

def test_csrf_missing_when_all_parameters_absent():
    login = classify.Login(request=_request(response_type="code"))
    findings = security.check_csrf(login, CFG)
    assert _rule_ids(findings) == ["csrf.missing"]
    assert findings[0].category == "vulnerability"


def test_csrf_weak_on_short_digit_state():
    login = classify.Login(request=_request(state="83749274"))
    findings = security.check_csrf(login, CFG)
    assert _rule_ids(findings) == ["csrf.weak"]
    assert "26.58" in findings[0].message


def test_csrf_strong_state_passes():
    login = classify.Login(request=_request(state="f" * 16 + "0a1b2c3d" * 3))
    assert security.check_csrf(login, CFG) == []


def test_csrf_static_state_is_weak_even_when_long():
    strong = "c0ffee" * 8
    login = classify.Login(request=_request(state=strong),
                           request2=_request(state=strong))
    findings = security.check_csrf(login, CFG)
    assert _rule_ids(findings) == ["csrf.weak"]
    assert "repeats across recordings" in findings[0].message


def test_csrf_pkce_suppression_and_override():
    login = classify.Login(request=_request(code_challenge="ab1"))
    assert security.check_csrf(login, CFG) == []

    cfg = security.RuleConfig(treat_pkce_as_csrf_protection=False)
    findings = security.check_csrf(login, cfg)
    assert _rule_ids(findings) == ["csrf.weak"]


def test_csrf_threshold_is_inclusive_and_configurable():
    state = "a1" * 12  # 24 hex chars, exactly 96.0 bits
    login = classify.Login(request=_request(state=state))
    # a value sitting exactly on the threshold still counts as guessable
    assert _rule_ids(security.check_csrf(login, CFG)) == ["csrf.weak"]
    cfg = security.RuleConfig(entropy_threshold_bits=95.0)
    assert security.check_csrf(login, cfg) == []


# ---------------------------------------------------------------------------
# flow rules

def test_obsolete_flow_on_returned_implicit():
    request = _request(response_type="token")
    response = _response(access_token="t0k3n!")
    findings = security.check_obsolete_flow(_login(request, response), CFG)
    assert _rule_ids(findings) == ["flow.obsolete"]


def test_obsolete_flow_on_hybrid_with_access_token():
    request = _request(response_type="code token")
    response = _response(code="c!", access_token="t!")
    findings = security.check_obsolete_flow(_login(request, response), CFG)
    assert _rule_ids(findings) == ["flow.obsolete"]


def test_hybrid_without_access_token_is_not_obsolete():
    request = _request(response_type="code id_token")
    response = _response(code="c!", id_token="i.j.k")
    assert security.check_obsolete_flow(_login(request, response), CFG) == []
    assert security.check_obsolete_flow(_login(request), CFG) == []


def test_an_empty_access_token_is_an_obsolete_flow():
    # the callback carries the parameter with an empty value: it is still
    # returned, as returned_token_kinds reads it
    state = "Zq8vN2xT5rLw0pKdM4yH7cJ1bF6gS3aE"
    authorize = "https://accounts.google.com/o/oauth2/v2/auth?" + \
        spar.encode_form([("client_id", "client-1"),
                          ("redirect_uri", "https://shop.example/cb"),
                          ("response_type", "token"), ("state", state)])
    trace = _trace([har_entry(authorize),
                    har_entry(f"https://shop.example/cb#access_token=&"
                              f"state={state}",
                              started_at="2026-01-17T12:00:05Z")])
    analysis = security.run_all(trace)
    assert analysis.rule_ids() == {"flow.obsolete"}
    (finding,) = analysis.findings
    assert finding.evidence[0].spar_path == "http-fragment:access_token"
    assert classify.classify_protocol(_request(), _response(id_token="")) \
        == classify.PROTOCOL_OIDC


def test_protocol_mixup_id_token_without_openid_scope():
    request = _request(response_type="code id_token", scope="email")
    response = _response(code="c!", id_token="i.j.k")
    findings = security.check_mixups(_login(request, response), CFG)
    assert "protocol.mixup" in _rule_ids(findings)

    request_ok = _request(response_type="code id_token", scope="openid email")
    assert "protocol.mixup" not in _rule_ids(
        security.check_mixups(_login(request_ok, response), CFG))


def test_flow_mixup_on_extra_returned_tokens():
    request = _request(response_type="code", scope="openid")
    response = _response(code="c!", id_token="i.j.k")
    findings = security.check_mixups(_login(request, response), CFG)
    assert _rule_ids(findings) == ["flow.mixup"]


def test_flow_mixup_on_visible_token_exchange():
    request = _request(response_type="code", scope="openid")
    response = _response(code="c!")
    assert security.check_mixups(_login(request, response), CFG) == []
    login = _login(request, response, token_exchange_visible=True)
    findings = security.check_mixups(login, CFG)
    assert _rule_ids(findings) == ["flow.mixup"]


def _token_endpoint_entry(url):
    return har_entry(url, started_at="2026-01-17T12:00:05Z",
                     body_text=json.dumps({"code": "c-1", "id": "42"}),
                     body_mime="application/json")


def test_flow_mixup_token_exchange_is_scoped_to_the_login_idp():
    entries = synth_login_entries(random.Random(1), "shop.example",
                                  LoginShape())
    own = _token_endpoint_entry("https://oauth2.googleapis.com/token")
    other = _token_endpoint_entry(
        "https://graph.facebook.com/v19.0/1234/activities")

    assert "flow.mixup" not in security.run_all(_trace(entries)).rule_ids()
    assert "flow.mixup" not in security.run_all(
        _trace(entries + [other])).rule_ids()
    assert "flow.mixup" in security.run_all(_trace(entries + [own])).rule_ids()


def test_no_mixup_when_flows_agree():
    request = _request(response_type="code", scope="openid")
    response = _response(code="c!")
    assert security.check_mixups(_login(request, response), CFG) == []
    assert security.check_mixups(_login(request), CFG) == []


# ---------------------------------------------------------------------------
# open redirect

def test_open_redirect_nested_url():
    request = _request(
        redirect_uri="https://shop.example/cb?next=https%3A%2F%2Fevil.example%2F")
    findings = security.check_open_redirect(_login(request), CFG)
    assert _rule_ids(findings) == ["redirect.nested-url"]
    assert findings[0].evidence[0].excerpt == "https://evil.example/"


def test_open_redirect_ignores_plain_redirect_uri():
    assert security.check_open_redirect(_login(_request()), CFG) == []
    no_uri = _msg(client_id="x")
    assert security.check_open_redirect(_login(no_uri), CFG) == []


def test_open_redirect_reads_redirect_uri_as_the_view_cut_it():
    # redirect_uri is a child of its query, so it has max_spar_depth - 1
    # levels left; the nested URL sits two levels below it (query-string,
    # next), which a depth of 2 leaves out, though a fresh decode of the
    # value under the same depth would reach it
    redirect_uri = "https://shop.example/cb?next=https%3A%2F%2Fevil.example%2F"
    trace = _trace([har_entry(
        "https://accounts.google.com/o/oauth2/v2/auth?" + spar.encode_form([
            ("client_id", "c"), ("redirect_uri", redirect_uri)]))])
    assert spar.find_nested_urls(spar.decode(redirect_uri, 2)) == \
        [(("query-string", "next"), "https://evil.example/")]
    for depth, expected in ((3, ["redirect.nested-url"]), (2, [])):
        view = classify.decode_trace(trace, max_depth=depth)
        (login,) = classify.find_logins(view)
        (hits,) = view.entries[0].surfaces.values()
        assert login.request.locations["redirect_uri"].node \
            is hits["redirect_uri"][0][1]
        cfg = security.RuleConfig(max_spar_depth=depth)
        assert _rule_ids(security.check_open_redirect(login, cfg)) == expected
        assert sorted(security.run_all(trace, cfg=cfg).rule_ids()
                      & {"redirect.nested-url"}) == expected


# ---------------------------------------------------------------------------
# injection protection

def test_code_unprotected_without_pkce_or_nonce():
    request = _request(response_type="code")
    response = _response(code="c!")
    def check(request, response=None):
        return security.check_injection_protection(_login(request, response),
                                                   CFG)

    findings = check(request, response)
    assert _rule_ids(findings) == ["inject.code-unprotected"]

    shielded = _request(response_type="code", nonce="n0nce!")
    assert check(shielded, response) == []
    pkce = _request(response_type="code", code_challenge="ch")
    assert check(pkce, response) == []
    assert check(request) == []


def test_at_hash_missing_when_tokens_travel_together():
    request = _request(response_type="token id_token")
    bare = make_id_token("RS256", {"sub": "1"})
    response = _response(access_token="t!", id_token=bare)
    def check(response):
        return security.check_injection_protection(_login(request, response),
                                                   CFG)

    findings = check(response)
    assert _rule_ids(findings) == ["inject.at-hash-missing"]

    bound = make_id_token("RS256", {"sub": "1", "at_hash": "xyz"})
    response_ok = _response(access_token="t!", id_token=bound)
    assert check(response_ok) == []

    # an unparseable id_token is the malformed rule's business, not this one
    response_bad = _response(access_token="t!", id_token="garbage")
    assert check(response_bad) == []


@pytest.mark.parametrize("claims, bound, missing", [
    ({"at_hash": 5}, False, False),
    ({"at_hash": "xyz"}, True, False),
    ({}, False, True),
], ids=["number", "string", "absent"])
def test_at_hash_column_needs_a_string_and_the_rule_any_claim(claims, bound,
                                                              missing):
    entries = synth_login_entries(random.Random(1), "shop.example", LoginShape(
        response_type="token id_token", id_token="rs256"))
    entries[2]["request"]["postData"]["text"] = spar.encode_form([
        ("access_token", "ya29-t"),
        ("id_token", make_id_token("RS256", {"sub": "1", **claims}))])
    analysis = security.run_all(_trace(entries))
    (login,) = analysis.logins
    assert login.countermeasures["at_hash"] is bound
    assert ("inject.at-hash-missing" in analysis.rule_ids()) is missing


# ---------------------------------------------------------------------------
# id_token algorithm

def test_id_token_alg_rules():
    def check(response):
        return security.check_id_token_alg(_login(_request(), response), CFG)

    assert check(None) == []
    assert check(_response(code="c!")) == []

    rs = _response(id_token=make_id_token("RS256", {"sub": "1"}))
    assert check(rs) == []

    hs = _response(id_token=make_id_token("HS256", {"sub": "1"}))
    findings = check(hs)
    assert _rule_ids(findings) == ["idtoken.symmetric-alg"]
    assert findings[0].category == "vulnerability"

    unsigned = _response(id_token=make_id_token("none", {"sub": "1"}))
    assert _rule_ids(check(unsigned)) == ["idtoken.alg-none"]

    broken = _response(id_token="three.dot separated.but not base64url!")
    findings = check(broken)
    assert _rule_ids(findings) == ["idtoken.malformed"]
    assert findings[0].category == "potential-issue"

    def part(text):
        return spar.encode_base64url(text).rstrip("=")

    deep = "[" * 100 + "]" * 100
    for header, payload, reason in (
            ("{alg:RS256}", '{"sub":"1"}',
             "header is not a JSON object with an alg claim"),
            ('{"alg":"RS256"}', f'{{"sub":"1","x":{deep}}}',
             "payload is not a JSON object"),
            ('{"alg":"RS256"}', '["sub"]', "payload is not a JSON object")):
        token = f"{part(header)}.{part(payload)}.c2ln"
        (finding,) = check(_response(id_token=token))
        assert finding.message == f"id_token does not decode as a JWT: {reason}"


# ---------------------------------------------------------------------------
# secret leakage

def test_client_secret_in_query_is_flagged():
    url = "https://accounts.google.com/o/oauth2/v2/auth?" + spar.encode_form([
        ("client_id", "c"), ("client_secret", "s3cr3t!")])
    trace = _trace([har_entry(url)])
    findings = security.check_secret_leakage(classify.decode_trace(trace), [],
                                             "Google")
    assert _rule_ids(findings) == ["secret.client-secret-fc"]
    assert findings[0].evidence[0].excerpt == "s3cr3t!"


def test_client_secret_evidence_is_entries_then_post_messages():
    auth = "https://accounts.google.com/o/oauth2/v2/auth"
    entries = [
        har_entry(f"{auth}?client_secret=q!",
                  started_at="2026-01-17T12:00:00Z"),
        har_entry(f"{auth}#client_secret=f!",
                  started_at="2026-01-17T12:00:01Z"),
        har_entry("https://oauth2.googleapis.com/token", method="POST",
                  post_text="client_secret=b!",
                  started_at="2026-01-17T12:00:02Z"),
    ]
    ibc = [{"kind": "post-message", "source_origin": "https://shop.example",
            "target_origin": "*", "payload": payload,
            "at": f"2026-01-17T12:00:0{n}Z"}
           for n, payload in enumerate(["hello", {"client_secret": "m!"}])]
    view = classify.decode_trace(_trace(entries, ibc))
    (finding,) = security.check_secret_leakage(view, [], "Google")
    assert finding.rule_id == "secret.client-secret-fc"
    assert [tuple(item) for item in finding.evidence] == [
        (0, "http-query:client_secret", "q!"),
        (1, "http-fragment:client_secret", "f!"),
        (1, "post-message:client_secret", "m!"),
    ]


def test_client_secret_in_post_body_is_back_channel():
    entry = har_entry("https://oauth2.googleapis.com/token", method="POST",
                      post_mime="application/x-www-form-urlencoded",
                      post_text="grant_type=authorization_code&client_secret=s")
    assert security.check_secret_leakage(
        classify.decode_trace(_trace([entry])), [], "Google") == []


def test_referer_leak_to_third_party():
    view = classify.decode_trace(_login_trace(LoginShape(referer_leak=True)))
    messages = classify.detect_login_requests(view)
    findings = security.check_secret_leakage(view, messages, "Google")
    assert _rule_ids(findings) == ["secret.referer-leak"]
    assert findings[0].category == "vulnerability"


def test_referer_to_first_party_or_idp_is_fine():
    entries = synth_login_entries(random.Random(1), "shop.example",
                                  LoginShape())
    entries.append(har_entry(
        "https://shop.example/account",
        request_headers=[("Referer", "https://shop.example/cb?code=abc!")],
        started_at="2026-01-17T12:00:04Z"))
    entries.append(har_entry(
        "https://accounts.google.com/logo.png",
        request_headers=[("Referer", "https://shop.example/cb?code=abc!")],
        started_at="2026-01-17T12:00:05Z"))
    view = classify.decode_trace(_trace(entries))
    messages = classify.detect_login_requests(view)
    assert security.check_secret_leakage(view, messages, "Google") == []


def test_referer_leak_between_ipv4_shorthand_hosts():
    # "10.2.3" and "11.2.3" are the addresses 10.2.0.3 and 11.2.0.3, two
    # sites, not two names under "2.3"
    entry = har_entry("http://11.2.3/pixel.gif", request_headers=[
        ("Referer", "http://10.2.3/cb?code=abc!")])
    view = classify.decode_trace(_trace([entry], domain="10.2.3"))
    findings = security.check_secret_leakage(view, [], "Google")
    assert _rule_ids(findings) == ["secret.referer-leak"]


def test_each_distinct_referer_is_decoded_once(decoded):
    referer = "https://shop.example/cb?code=abc!"
    entries = [har_entry(f"https://tracker.example/p{n}.gif",
                         request_headers=[("Referer", referer)])
               for n in range(3)]
    view = classify.decode_trace(_trace(entries))
    findings = security.check_secret_leakage(view, [], "Google")
    assert [len(f.evidence) for f in findings
            if f.rule_id == "secret.referer-leak"] == [3]
    assert decoded[referer] == 1


def test_token_in_url_query_only():
    entries = [
        har_entry("https://shop.example/cb?code=abc!",
                  started_at="2026-01-17T12:00:00Z"),
        har_entry("https://shop.example/done?access_token=t!",
                  started_at="2026-01-17T12:00:01Z"),
        har_entry("https://shop.example/cb#code=frag!",
                  started_at="2026-01-17T12:00:02Z"),
    ]
    findings = security.check_secret_leakage(
        classify.decode_trace(_trace(entries)), [], "Google")
    assert _rule_ids(findings) == ["secret.token-in-url"]
    # one finding, one evidence item per offending entry, fragments exempt
    assert len(findings[0].evidence) == 2
    assert findings[0].category == "potential-issue"


# ---------------------------------------------------------------------------
# transport

def test_plain_redirect_uri_is_vulnerability():
    login = _login(_request(redirect_uri="http://shop.example/cb"))
    findings = security.check_plain_redirect_uri(login, CFG)
    assert _rule_ids(findings) == ["tls.plain-redirect-uri"]
    assert findings[0].category == "vulnerability"


def test_loopback_redirect_uri_is_exempt():
    for uri in ("http://127.0.0.1:8123/cb", "http://localhost/cb",
                "http://[::1]/cb", "https://shop.example/cb"):
        login = _login(_request(redirect_uri=uri))
        assert security.check_plain_redirect_uri(login, CFG) == []


def test_plain_request_entries_are_flagged():
    entries = [
        har_entry("https://shop.example/", started_at="2026-01-17T12:00:00Z"),
        har_entry("http://shop.example/metrics",
                  started_at="2026-01-17T12:00:01Z"),
    ]
    findings = security.check_transport(classify.decode_trace(_trace(entries)),
                                        "Google")
    assert _rule_ids(findings) == ["tls.plain-request"]
    assert findings[0].evidence[0].entry_index == 1


def test_307_relay_of_token_bearing_redirect():
    relay = har_entry("https://accounts.google.com/o/oauth2/v2/auth",
                      status=307,
                      location="https://shop.example/cb#code=abc!&state=s")
    findings = security.check_transport(classify.decode_trace(_trace([relay])),
                                        "Google")
    assert _rule_ids(findings) == ["redirect.307-authz-response"]

    benign = har_entry("https://accounts.google.com/o/oauth2/v2/auth",
                       status=307, location="https://shop.example/start")
    assert security.check_transport(classify.decode_trace(_trace([benign])),
                                    "Google") == []

    ordinary = har_entry("https://accounts.google.com/o/oauth2/v2/auth",
                         status=302,
                         location="https://shop.example/cb#code=abc!")
    assert security.check_transport(classify.decode_trace(_trace([ordinary])),
                                    "Google") == []


# ---------------------------------------------------------------------------
# orchestration

def _decodable_values(trace):
    """The values ``run_all`` may decode at the top level: request surfaces,
    Referer headers and the query and fragment of a 307 ``Location``."""
    values = {event.payload for event in trace.ibc_events}
    for entry in trace.entries:
        parts = urlsplit(entry.request.url)
        values |= {parts.query, parts.fragment, entry.request.body,
                   entry.request.referer}
        target = entry.response.redirect_target
        if entry.response.status == 307 and target:
            parts = urlsplit(target)
            values |= {parts.query, parts.fragment}
    return values


@pytest.mark.parametrize("rule_id", ["csrf.weak", "redirect.nested-url"])
def test_run_all_decodes_no_login_parameter_again(fixture_pack, bundle_loader,
                                                  decoded, rule_id):
    # the CSRF entropy bound and the nested-URL check read the view's nodes
    root, _ = fixture_pack
    unit = root / fixture_domain(rule_id) / IDP_NAME
    run1, run2 = bundle_loader(unit / "run1"), bundle_loader(unit / "run2")
    (login,) = classify.find_logins(classify.decode_trace(run1), None, run2)
    state, redirect_uri = (login.request.params.state,
                           login.request.params.redirect_uri)
    assert state and redirect_uri
    decoded.clear()
    assert rule_id in security.run_all(run1, run2).rule_ids()
    assert (decoded[state], decoded[redirect_uri]) == (0, 0)
    assert set(decoded) <= _decodable_values(run1) | _decodable_values(run2)

def test_run_all_rejects_visit_traces():
    trace = _login_trace()
    visit = _trace(synth_login_entries(random.Random(1), "shop.example",
                                       LoginShape()),
                   profile_kind="consent-given-visit")
    with pytest.raises(ProfileMismatch):
        security.run_all(visit)
    with pytest.raises(ProfileMismatch):
        security.run_all(trace, visit)


def test_run_all_implicit_without_state():
    shape = LoginShape(response_type="token", scope="email profile",
                       state_kind="absent", pkce=False, delivery="fragment")
    analysis = security.run_all(_login_trace(shape))
    assert analysis.rule_ids() == {"flow.obsolete", "csrf.missing"}
    assert analysis.vulnerability_count == 1  # csrf.missing
    (login,) = analysis.logins
    assert login.requested_flow == "implicit"
    assert login.returned_flow == "implicit"
    assert login.protocol == "oauth2"


def test_run_all_fills_domain_and_sorts_findings():
    shape = LoginShape(state_kind="weak", pkce=False, delivery="none",
                       plain_http_entry=True)
    analysis = security.run_all(_login_trace(shape, seed=1),
                                _login_trace(shape, seed=2))
    assert analysis.domain == "shop.example"
    assert all(f["domain"] == "shop.example"
               for f in analysis.to_dict()["findings"])
    assert _rule_ids(analysis.findings) == ["csrf.weak", "tls.plain-request"]
    assert analysis.rule_ids() == {"csrf.weak", "tls.plain-request"}


def test_run_all_is_deterministic():
    shape = LoginShape(delivery="query")
    first = security.run_all(_login_trace(shape, 1), _login_trace(shape, 2))
    second = security.run_all(_login_trace(shape, 1), _login_trace(shape, 2))
    assert [f.to_dict() for f in first.findings] == \
        [f.to_dict() for f in second.findings]
    assert first.to_dict() == second.to_dict()


# a login on which every per-login rule group reports exactly one rule
_EVERY_GROUP_FIRES = LoginShape(
    response_type="token id_token", scope="email", state_kind="weak",
    pkce=False, delivery="fragment", id_token="hs256",
    include_access_token=True,
    redirect_uri="http://shop.example/cb?next=https%3A%2F%2Fevil.example%2F")


def _every_group_fires_trace():
    """A login on which every rule group fires.  synth delivers to an https
    callback, so the delivery is moved to the plain-http redirect_uri's."""
    entries = synth_login_entries(random.Random(1), "shop.example",
                                  _EVERY_GROUP_FIRES)
    delivery = entries[-1]["request"]
    assert delivery["url"].startswith("https://shop.example/cb#")
    delivery["url"] = "http" + delivery["url"][len("https"):]
    return _trace(entries)


@pytest.mark.parametrize("group", [name for name, _ in security.LOGIN_RULES])
def test_run_all_survives_a_crashing_rule(monkeypatch, group):
    def boom(login, cfg):
        raise RuntimeError("rule exploded")

    trace = _every_group_fires_trace()
    (login,) = classify.find_logins(classify.decode_trace(trace))
    own = {name: {f.rule_id for f in rule(login, CFG)}
           for name, rule in security.LOGIN_RULES}
    assert all(len(rule_ids) == 1 for rule_ids in own.values())
    intact = security.run_all(trace).rule_ids()

    # run_all reads the table, not the module's check_x names
    monkeypatch.setattr(security, "LOGIN_RULES", tuple(
        (name, boom if name == group else rule)
        for name, rule in security.LOGIN_RULES))
    analysis = security.run_all(trace)
    (finding,) = [f for f in analysis.findings
                  if f.rule_id == "analyzer.error"]
    assert finding.evidence[0].spar_path == group
    assert "rule exploded" in finding.message
    assert finding.category == "potential-issue"
    assert analysis.rule_ids() - {"analyzer.error"} == intact - own[group]


@pytest.mark.parametrize("redirect_uri", ["https://shop.example:99999/cb",
                                          "https://[::1/cb"])
def test_run_all_survives_unsplittable_redirect_uri(redirect_uri):
    analysis = security.run_all(
        _login_trace(LoginShape(redirect_uri=redirect_uri)))
    (login,) = analysis.logins
    assert login.response_ref is None
    assert "analyzer.error" not in analysis.rule_ids()


def test_run_all_decodes_each_request_surface_once(fixture_pack,
                                                   bundle_loader, decoded):
    # query delivery: detection, response matching and the secret rules all
    # read run 1's login and callback queries, and each is decoded once.
    # Run 2 only supplies the login's partner: its login query, on the IdP
    # endpoint, is decoded once; its callback query is never decoded.
    root, _ = fixture_pack
    unit = root / fixture_domain("secret.token-in-url") / IDP_NAME
    run1, run2 = (bundle_loader(unit / name) for name in ("run1", "run2"))
    analysis = security.run_all(run1, run2)
    assert analysis.rule_ids() == {"secret.token-in-url"}

    def surfaces(trace):
        found = Counter()
        for entry in trace.entries:
            parts = urlsplit(entry.request.url)
            found.update(value for value in (parts.query, parts.fragment,
                                             entry.request.body) if value)
        return found

    surfaces1 = surfaces(run1)
    assert len(surfaces1) == 2  # login and callback query
    assert {value: decoded[value] for value in surfaces1} == surfaces1
    login2, callback2 = (urlsplit(entry.request.url).query
                         for entry in run2.entries[1:3])
    assert login2.startswith("client_id=") and callback2.startswith("code=")
    assert surfaces(run2) == Counter([login2, callback2])
    assert (decoded[login2], decoded[callback2]) == (1, 0)


def test_run_all_decodes_no_run2_without_a_run1_login(decoded):
    # nothing in run 2 can be a partner, so the analysis is run 1's alone
    run1 = _trace([
        har_entry("https://shop.example/login"),
        har_entry("http://shop.example/metrics?event=view&client_id=x",
                  body_text="ok", body_mime="text/plain"),
    ])
    run2 = _login_trace(LoginShape(delivery="query"), seed=2)
    analysis = security.run_all(run1, run2)
    run2_values = [urlsplit(entry.request.url).query for entry in run2.entries]
    assert [decoded[value] for value in run2_values if value] == [0, 0]
    assert analysis.logins == []
    assert analysis.rule_ids() == {"tls.plain-request"}
    assert analysis.to_dict() == security.run_all(run1).to_dict()


def test_run_all_countermeasure_summary():
    analysis = security.run_all(_login_trace())
    (login,) = analysis.logins
    assert login.countermeasures == {"pkce": True, "nonce": False,
                                     "at_hash": False}
    assert login.response_channel == classify.CHANNEL_BODY


# ---------------------------------------------------------------------------
# rule catalog

def test_rule_catalog_covers_every_rule():
    catalog = security.load_rule_catalog()
    ids = {item["rule_id"] for item in catalog}
    constants = {
        value for name, value in vars(security).items()
        if name.startswith("RULE_") and isinstance(value, str)
    }
    assert ids == constants
    for item in catalog:
        assert item["category"] in ("vulnerability", "potential-issue")
        assert item["title"]
        assert item["reference"]


def test_catalog_categories_match_emitted_findings():
    def finding(rule_id):
        return security.Finding(
            rule_id=rule_id, idp="google",
            evidence=(security.Evidence(0, "url", "x"),), message="m")

    assert finding("csrf.missing").category == "vulnerability"
    assert finding("secret.token-in-url").category == "potential-issue"
    assert finding("idtoken.symmetric-alg").category == "vulnerability"
    assert finding("flow.obsolete").category == "potential-issue"
    for rule_id, rule in security.RULES.items():
        assert finding(rule_id).category == rule["category"]


def test_evidence_excerpt_is_cut_and_findings_need_evidence():
    evidence = security.Evidence(0, "url", "x" * 250)
    assert evidence.excerpt == "x" * security.MAX_EXCERPT == "x" * 200
    assert security.Evidence(0, "url", "short").excerpt == "short"
    with pytest.raises(ValueError):
        security.Finding(rule_id="csrf.missing", idp="Google", evidence=(),
                         message="m")


def _beacon(index):
    """A third-party beacon with nested URLs in its query, sent from the
    login page."""
    page = f"https://shop.example/p{index}?utm_source=mail&utm_term={index}"
    relay = spar.encode_url(f"sync{index % 5}.example", "/redir",
                            [("r", page), ("pid", str(index))])
    url = f"https://collect{index % 7}.example/g?" + spar.encode_form(
        [("v", "2"), ("dl", page), ("r", relay)])
    return har_entry(url, started_at=f"2026-01-17T12:00:{index % 60:02d}Z",
                     request_headers=[("Referer", f"https://shop.example/"
                                                  f"login?ref={index}")])


# splits of a login's redirect_uri, not of a request URL: its login key when
# each recording's requests are deduplicated (2), its base and origin for the
# response match (1), and its scheme and host for the plain-http rule (1)
SPLITS_PER_LOGIN = 4


def test_each_request_url_is_split_once(monkeypatch):
    shape = LoginShape(delivery="query")
    runs = []
    for run_index, seed in ((1, 1), (2, 2)):
        entries = synth_login_entries(random.Random(seed), "shop.example",
                                      shape)
        entries += [_beacon(index) for index in range(200)]
        runs.append((json.dumps(build_har(entries)),
                     json.dumps(build_meta("shop.example",
                                           run_index=run_index))))
    calls = Counter()

    def counting(url, *args, **kwargs):
        calls[url] += 1
        return urlsplit(url, *args, **kwargs)

    monkeypatch.setattr(domains, "urlsplit", counting)
    run1, run2 = (parse_trace_bundle(har, meta) for har, meta in runs)
    analysis = security.run_all(run1, run2)
    requests = len(run1.entries) + len(run2.entries)
    assert requests >= 400
    assert len(analysis.logins) == 1
    assert sum(calls.values()) <= requests \
        + SPLITS_PER_LOGIN * len(analysis.logins)
