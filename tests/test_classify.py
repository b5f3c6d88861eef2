"""Tests for login request/response detection and flow classification."""

import dataclasses
import json
import random
from urllib.parse import urlsplit

import pytest

from sso_auditor import classify, spar
from sso_auditor.domains import split_url, url_host
from sso_auditor.exceptions import MalformedInput
from sso_auditor.synth import (
    AUTH_URL, IDP_NAME, TRIGGER_SHAPES, LoginShape, build_har, build_meta,
    har_entry, synth_login_entries,
)
from sso_auditor.trace import parse_trace_bundle

from conftest import from_deeper


def _trace(entries, ibc=None, domain="shop.example", **meta_kwargs):
    har = json.dumps(build_har(entries, ibc)).encode("utf-8")
    meta = json.dumps(build_meta(domain, **meta_kwargs)).encode("utf-8")
    return parse_trace_bundle(har, meta)


def _login_trace(shape=LoginShape(), seed=1, domain="shop.example"):
    entries = synth_login_entries(random.Random(seed), domain, shape)
    return _trace(entries, domain=domain)


# ---------------------------------------------------------------------------
# request detection

def test_detect_login_request_on_idp_endpoint():
    trace = _login_trace()
    messages = classify.detect_login_requests(classify.decode_trace(trace))
    assert len(messages) == 1
    msg = messages[0]
    assert msg.idp == "Google"
    assert msg.channel == classify.CHANNEL_QUERY
    assert msg.params.response_type == "code"
    assert msg.params.redirect_uri == "https://shop.example/cb"
    assert msg.locations["client_id"].render().startswith("http-query:")


def test_detect_unknown_idp_via_response_type_fallback():
    url = ("https://sso.partner.example/authorize?" + spar.encode_form([
        ("client_id", "abc"),
        ("redirect_uri", "https://shop.example/cb"),
        ("response_type", "code"),
    ]))
    trace = _trace([har_entry(url)])
    messages = classify.detect_login_requests(classify.decode_trace(trace))
    assert len(messages) == 1
    assert messages[0].idp == classify.UNKNOWN_IDP


def test_unknown_endpoint_without_response_type_is_ignored():
    url = ("https://cdn.example/widget?" + spar.encode_form([
        ("client_id", "abc"),
        ("redirect_uri", "https://shop.example/cb"),
    ]))
    trace = _trace([har_entry(url)])
    assert classify.detect_login_requests(classify.decode_trace(trace)) == []


def test_detect_request_with_percent_encoded_redirect_uri():
    # encode_form percent-encodes the URI; detection must see it decoded
    trace = _login_trace()
    (msg,) = classify.detect_login_requests(classify.decode_trace(trace))
    assert "%3A" not in msg.params.redirect_uri


def test_detect_request_in_post_message():
    event = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:01Z",
        "source_origin": "https://shop.example",
        "target_origin": "https://accounts.google.com",
        "payload": spar.encode_json({
            "client_id": "abc",
            "redirect_uri": "https://shop.example/cb",
            "response_type": "id_token",
        }),
    }
    trace = _trace([har_entry("https://shop.example/")], ibc=[event])
    (msg,) = classify.detect_login_requests(classify.decode_trace(trace))
    assert msg.ref_kind == classify.REF_IBC
    assert msg.channel == classify.CHANNEL_POST_MESSAGE
    assert msg.idp == "Google"


def test_object_ibc_payload_decodes_like_its_json_string_twin():
    payload = {"id_token": spar.encode_jwt({"alg": "RS256"}, {"sub": "1"}),
               "state": "s-1"}

    def decoded_event(payload):
        event = {"kind": "post-message", "at": "2026-01-17T12:00:02Z",
                 "source_origin": "https://accounts.google.com",
                 "target_origin": "https://shop.example", "payload": payload}
        trace = _trace([har_entry("https://shop.example/")], ibc=[event])
        (item,) = classify.decode_trace(trace).ibc_events
        return item

    as_object = decoded_event(payload)
    assert as_object.token_channel == classify.CHANNEL_POST_MESSAGE
    assert as_object == decoded_event(spar.encode_json(payload))


def test_dedupe_keeps_first_request_per_destination():
    trace = _login_trace()
    messages = classify.detect_login_requests(classify.decode_trace(trace))
    doubled = messages + messages
    assert list(classify.dedupe_login_requests(doubled).values()) == messages


# ---------------------------------------------------------------------------
# response matching

def test_match_response_in_form_post_body():
    trace = _login_trace(LoginShape())
    view = classify.decode_trace(trace)
    (request,) = classify.detect_login_requests(view)
    response = classify.match_login_response(view, request)
    assert response is not None
    assert response.channel == classify.CHANNEL_BODY
    assert response.params.code is not None
    assert response.entry_ref == 2


def test_match_response_in_query():
    trace = _login_trace(LoginShape(delivery="query"))
    view = classify.decode_trace(trace)
    (request,) = classify.detect_login_requests(view)
    response = classify.match_login_response(view, request)
    assert response.channel == classify.CHANNEL_QUERY


def test_match_response_in_fragment():
    trace = _login_trace(LoginShape(response_type="token",
                                    scope="email profile", pkce=False,
                                    delivery="fragment"))
    view = classify.decode_trace(trace)
    (request,) = classify.detect_login_requests(view)
    response = classify.match_login_response(view, request)
    assert response.channel == classify.CHANNEL_FRAGMENT
    assert response.params.access_token is not None


def test_match_response_via_post_message():
    trace = _login_trace(LoginShape(delivery="none"))
    view = classify.decode_trace(trace)
    (request,) = classify.detect_login_requests(view)
    assert classify.match_login_response(view, request) is None

    event = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:03Z",
        "source_origin": "https://accounts.google.com",
        "target_origin": "https://shop.example",
        "payload": spar.encode_json({"code": "zz!zz!zz!"}),
    }
    har = json.dumps(build_har(
        synth_login_entries(random.Random(1), "shop.example",
                            LoginShape(delivery="none")), [event]))
    trace = parse_trace_bundle(har, json.dumps(build_meta("shop.example")))
    view = classify.decode_trace(trace)
    (request,) = classify.detect_login_requests(view)
    response = classify.match_login_response(view, request)
    assert response.ref_kind == classify.REF_IBC
    assert response.channel == classify.CHANNEL_POST_MESSAGE


def test_match_response_via_post_message_to_an_ipv6_loopback():
    # a native app's RFC 8252 loopback redirect; its origin keeps the brackets
    shape = LoginShape(delivery="none", redirect_uri="http://[::1]:8080/cb")
    event = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:03Z",
        "source_origin": "https://accounts.google.com",
        "target_origin": "http://[::1]:8080",
        "payload": spar.encode_json({"code": "zz!zz!zz!"}),
    }
    trace = _trace(synth_login_entries(random.Random(1), "shop.example",
                                       shape), [event])
    view = classify.decode_trace(trace)
    (request,) = classify.detect_login_requests(view)
    response = classify.match_login_response(view, request)
    assert response.ref_kind == classify.REF_IBC
    assert response.params.code == "zz!zz!zz!"


@pytest.mark.parametrize("target_origin", [
    "https://shop.example:443", "https://Shop.Example", "HTTPS://shop.example",
])
def test_match_response_via_post_message_to_an_equivalent_origin(
        target_origin):
    # each spelling names the origin of https://shop.example/cb
    event = {
        "kind": "post-message",
        "at": "2026-01-17T12:00:03Z",
        "source_origin": "HTTPS://Accounts.Google.com:443",
        "target_origin": target_origin,
        "payload": spar.encode_json({"code": "zz!zz!zz!"}),
    }
    trace = _trace(synth_login_entries(random.Random(1), "shop.example",
                                       LoginShape(delivery="none")), [event])
    view = classify.decode_trace(trace)
    (request,) = classify.detect_login_requests(view)
    response = classify.match_login_response(view, request)
    assert response.ref_kind == classify.REF_IBC
    assert response.params.code == "zz!zz!zz!"


def _delivery_trace(redirect_uri, delivered_to):
    shape = LoginShape(delivery="none", redirect_uri=redirect_uri)
    entries = synth_login_entries(random.Random(1), "shop.example", shape)
    entries.append(har_entry(delivered_to, started_at="2026-01-17T12:00:05Z"))
    return _trace(entries)


# scheme, host and path must equal the redirect_uri's, not merely extend it
@pytest.mark.parametrize("redirect_uri, delivered_to", [
    ("https://shop.example/cb", "https://shop.example/other?code=abc123xyz!"),
    ("https://shop.example/cb", "https://shop.example/cb-evil?code=abc123xyz!"),
    ("https://shop.example/cb", "https://shop.example/cb/x?code=abc123xyz!"),
    ("https://shop.example",
     "https://shop.example.attacker.example/x?code=abc123xyz!"),
], ids=["other-path", "longer-path", "sub-path", "longer-host"])
def test_response_to_other_path_is_not_matched(redirect_uri, delivered_to):
    view = classify.decode_trace(_delivery_trace(redirect_uri, delivered_to))
    (request,) = classify.detect_login_requests(view)
    assert classify.match_login_response(view, request) is None


def test_response_to_root_path_matches_empty_path():
    view = classify.decode_trace(_delivery_trace(
        "https://shop.example", "https://shop.example/?code=abc123xyz!"))
    (request,) = classify.detect_login_requests(view)
    response = classify.match_login_response(view, request)
    assert response.entry_ref == 2
    assert classify.classify_returned_flow(response) == classify.FLOW_CODE


# ---------------------------------------------------------------------------
# logins

def _token_endpoint_entry(url):
    return har_entry(url, started_at="2026-01-17T12:00:05Z",
                     body_text=json.dumps({"code": "c-1"}),
                     body_mime="application/json")


def test_find_logins_on_a_two_run_unit():
    entries = synth_login_entries(random.Random(1), "shop.example",
                                  LoginShape())
    facebook = _token_endpoint_entry(
        "https://graph.facebook.com/v19.0/oauth/access_token")
    google = _token_endpoint_entry("https://oauth2.googleapis.com/token")
    # run 2 first logs in through another redirect path of the same site
    detour = synth_login_entries(random.Random(3), "shop.example", LoginShape(
        redirect_uri="https://shop.example/alt"))
    run2 = _trace(detour + synth_login_entries(random.Random(2), "shop.example",
                                               LoginShape()))
    detour_request, request2 = classify.detect_login_requests(
        classify.decode_trace(run2))
    assert detour_request.params.redirect_uri == "https://shop.example/alt"

    (login,) = classify.find_logins(
        classify.decode_trace(_trace(entries + [facebook])), None, run2)
    assert (login.request.idp, login.request.params.redirect_uri) == \
        ("Google", "https://shop.example/cb")
    assert login.request2 == request2
    assert login.request2.params.state != login.request.params.state
    assert login.response.entry_ref == 2
    assert login.response.params.code is not None
    # another IdP's token endpoint does not count, the login's own does
    assert not login.token_exchange_visible

    (login,) = classify.find_logins(
        classify.decode_trace(_trace(entries + [facebook, google])))
    assert login.request2 is None
    assert login.token_exchange_visible


def test_token_exchange_nesting_bound_holds_at_any_stack_depth():
    # 900 levels load at the top of the stack but not 150 frames deeper
    entries = synth_login_entries(random.Random(1), "shop.example",
                                  LoginShape())
    bound = spar.MAX_JSON_NESTING
    for levels, visible in ((bound - 1, True), (bound, False), (900, False)):
        body = '{"code":"c-1","x":' + "[" * levels + "]" * levels + "}"
        view = classify.decode_trace(_trace(entries + [har_entry(
            "https://oauth2.googleapis.com/token",
            started_at="2026-01-17T12:00:05Z", body_text=body,
            body_mime="application/json")]))
        (top,) = classify.find_logins(view)
        (deeper,) = from_deeper(150, lambda: classify.find_logins(view))
        assert top.token_exchange_visible == deeper.token_exchange_visible \
            == visible


# run 2 is decoded only where a partner can be; these cover each branch

FACEBOOK_AUTH_URL = "https://www.facebook.com/dialog/oauth"
PARTNER_AUTH_URL = "https://sso.partner.example/authorize"


def _login_entries(rng, auth_url=AUTH_URL, shape=LoginShape()):
    """A synth login whose authorization request goes to ``auth_url``."""
    entries = synth_login_entries(rng, "shop.example", shape)
    request = entries[1]["request"]
    request["url"] = request["url"].replace(AUTH_URL, auth_url)
    return entries


def _login_event(rng, redirect_uri="https://shop.example/cb"):
    """A login request posted from the page to the Google widget."""
    return {
        "kind": "post-message",
        "at": "2026-01-17T12:00:01Z",
        "source_origin": "https://shop.example",
        "target_origin": "https://accounts.google.com",
        "payload": spar.encode_json({
            "client_id": "abc",
            "redirect_uri": redirect_uri,
            "response_type": "id_token",
            "state": f"{rng.getrandbits(128):032x}",
        }),
    }


_BEACON = "https://tracker.example/p?u=https%3A%2F%2Fshop.example%2F&e=view"


def _query_at(trace, host):
    """The one non-empty query of ``trace``'s requests to ``host``."""
    (query,) = [parts.query for parts in (urlsplit(entry.request.url)
                                          for entry in trace.entries)
                if parts.hostname == host and parts.query]
    return query


def test_find_logins_pairs_an_unknown_idp_request(decoded):
    # found only through response_type, the request's IdP is unknown, and so
    # is its partner's: the registry cannot narrow run 2, so all of it is read
    run1 = _trace(_login_entries(random.Random(1), PARTNER_AUTH_URL)
                  + [har_entry(_BEACON)])
    run2 = _trace(_login_entries(random.Random(2), PARTNER_AUTH_URL)
                  + [har_entry(_BEACON.replace("view", "load"))])
    (login,) = classify.find_logins(classify.decode_trace(run1), None, run2)
    assert login.request.idp == classify.UNKNOWN_IDP
    (request2,) = classify.detect_login_requests(classify.decode_trace(run2))
    assert login.request2 == request2
    assert login.request2.params.state != login.request.params.state
    assert decoded[_query_at(run2, "tracker.example")] == 2


def test_find_logins_pairs_a_post_message_request(decoded):
    rng = random.Random(5)
    run1 = _trace([har_entry("https://shop.example/")], ibc=[_login_event(rng)])
    event2 = _login_event(rng)
    run2 = _trace([har_entry("https://shop.example/"), har_entry(_BEACON)],
                  ibc=[event2])
    (login,) = classify.find_logins(classify.decode_trace(run1), None, run2)
    assert (login.request.ref_kind, login.request.idp) == \
        (classify.REF_IBC, "Google")
    assert (login.request2.ref_kind, login.request2.idp) == \
        (classify.REF_IBC, "Google")
    assert login.request2.params.state != login.request.params.state
    assert decoded[event2["payload"]] == 1
    assert decoded[_query_at(run2, "tracker.example")] == 0


def test_find_logins_skips_a_run2_login_at_another_idp(decoded):
    run1 = _trace(_login_entries(random.Random(1)))
    run2 = _trace(_login_entries(random.Random(2), FACEBOOK_AUTH_URL,
                                 LoginShape(delivery="query")))
    (login,) = classify.find_logins(classify.decode_trace(run1), None, run2)
    assert login.request.idp == "Google"
    assert login.request2 is None
    facebook_query = _query_at(run2, "www.facebook.com")
    callback_query = _query_at(run2, "shop.example")
    assert (decoded[facebook_query], decoded[callback_query]) == (0, 0)
    # decoded in full, run 2 has a login, but of another IdP
    (other,) = classify.detect_login_requests(classify.decode_trace(run2))
    assert other.idp == "Facebook"


def _pair_runs(run1_messages, run2_messages):
    """Each run-1 message with the first unused run-2 message of the same
    IdP and redirect_uri host and path, or None."""
    def key(msg):
        parts = split_url(msg.params.redirect_uri or "")
        return msg.idp, f"{(parts.hostname or '').lower()}{parts.path}"

    used = set()
    pairs = []
    for msg in run1_messages:
        mate = None
        for index, other in enumerate(run2_messages):
            if index not in used and key(other) == key(msg):
                used.add(index)
                mate = other
                break
        pairs.append((msg, mate))
    return pairs


def _reference_logins(view, run2):
    """find_logins with all of run 2 decoded, then paired by a scan over
    the run-2 requests."""
    def requests(decoded_view):
        return list(classify.dedupe_login_requests(
            classify.detect_login_requests(decoded_view)).values())

    view2 = classify.decode_trace(run2, view.max_depth, view.max_nodes)
    pairs = _pair_runs(requests(view), requests(view2))
    logins = classify.find_logins(view)
    assert [login.request for login in logins] == [msg for msg, _ in pairs]
    return [login._replace(request2=mate)
            for login, (_, mate) in zip(logins, pairs)]


def _random_run(rng):
    """0-2 logins, each an HTTP one at Google, Facebook or an unknown IdP or
    a postMessage one at Google, to one of two redirect paths; a beacon."""
    entries, ibc = [har_entry(_BEACON)], []
    for _ in range(rng.randrange(3)):
        kind = rng.choice((AUTH_URL, FACEBOOK_AUTH_URL, PARTNER_AUTH_URL,
                           "post-message"))
        redirect_uri = rng.choice(("https://shop.example/cb",
                                   "https://shop.example/alt"))
        if kind == "post-message":
            ibc.append(_login_event(rng, redirect_uri))
            continue
        shape = dataclasses.replace(rng.choice(list(TRIGGER_SHAPES.values())),
                                    redirect_uri=redirect_uri)
        entries += _login_entries(rng, kind, shape)
    return _trace(entries, ibc)


def test_find_logins_equals_decoding_all_of_run2(fixture_pack, bundle_loader):
    root, manifest = fixture_pack
    units = [(bundle_loader(root / domain / IDP_NAME / "run1"),
              bundle_loader(root / domain / IDP_NAME / "run2"))
             for domain in manifest["fixtures"]]
    rng = random.Random(11)
    units += [(_random_run(rng), _random_run(rng)) for _ in range(60)]
    paired = 0
    for run1, run2 in units:
        view = classify.decode_trace(run1)
        logins = classify.find_logins(view, None, run2)
        assert logins == _reference_logins(view, run2)
        paired += sum(login.request2 is not None for login in logins)
    assert paired > len(manifest["fixtures"])


# ---------------------------------------------------------------------------
# protocol and flow classification

def test_protocol_oidc_signals():
    def req(scope=None, response_type="code"):
        return classify.SsoMessage(
            entry_ref=0, ref_kind=classify.REF_ENTRY,
            channel=classify.CHANNEL_QUERY, idp="Google",
            params=classify.SsoParams(scope=scope,
                                      response_type=response_type),
            locations={})

    assert classify.classify_protocol(req(scope="openid email")) == "oidc"
    assert classify.classify_protocol(req(response_type="code id_token")) == "oidc"
    assert classify.classify_protocol(req(scope="email")) == "oauth2"
    # openid must be a whole scope token, not a substring
    assert classify.classify_protocol(req(scope="openidX")) == "oauth2"


def test_requested_flow_truth_table():
    cases = {
        None: "unknown",
        "": "unknown",
        "code": "code",
        "token": "implicit",
        "id_token": "implicit",
        "code token": "hybrid",
        "code id_token": "hybrid",
        "token id_token": "implicit",
        "code token id_token": "hybrid",
        "device_code": "unknown",
        "code magic": "unknown",
    }
    for response_type, expected in cases.items():
        assert classify.classify_requested_flow(response_type) == expected, \
            response_type


def test_returned_flow_from_params():
    def resp(**params):
        return classify.SsoMessage(
            entry_ref=0, ref_kind=classify.REF_ENTRY,
            channel=classify.CHANNEL_QUERY,
            idp="Google", params=classify.SsoParams(**params), locations={})

    assert classify.classify_returned_flow(None) == "unknown"
    assert classify.classify_returned_flow(resp(code="c")) == "code"
    assert classify.classify_returned_flow(resp(access_token="t")) == "implicit"
    assert classify.classify_returned_flow(resp(id_token="i")) == "implicit"
    assert classify.classify_returned_flow(resp(code="c", id_token="i")) == "hybrid"
    assert classify.classify_returned_flow(resp()) == "unknown"


# ---------------------------------------------------------------------------
# run pairing

def test_find_logins_pairs_the_first_run2_request_per_destination():
    run2 = _trace(synth_login_entries(random.Random(2), "shop.example",
                                      LoginShape())
                  + synth_login_entries(random.Random(4), "shop.example",
                                        LoginShape()))
    first, second = classify.detect_login_requests(classify.decode_trace(run2))
    view = classify.decode_trace(_login_trace(seed=1))
    (login,) = classify.find_logins(view, None, run2)
    assert login.request2 == first
    # values differ across runs, the destination does not
    assert login.request.params.state not in (first.params.state,
                                              second.params.state)


def test_find_logins_tolerates_missing_partner():
    view = classify.decode_trace(_login_trace(seed=1))
    for run2 in (None, _trace([har_entry(_BEACON)])):
        (login,) = classify.find_logins(view, None, run2)
        assert login.request2 is None


# ---------------------------------------------------------------------------
# registry loading

def test_load_registry_from_json():
    registry = classify.load_registry(json.dumps({
        "idps": [{
            "name": "Acme",
            "authorization_patterns": ["login.acme.example/authorize"],
            "token_patterns": ["login.acme.example/token"],
        }],
    }))
    assert registry.match_authorization(*_at(
        "https://login.acme.example/authorize?x=1")) == "Acme"
    assert registry.match_authorization(*_at("https://other.example/")) is None
    assert registry.match_token(*_at("https://login.acme.example/token")) == "Acme"


@pytest.mark.parametrize("patterns", [5, [5], "accounts.google.com", None,
                                      {"a": "b"}])
@pytest.mark.parametrize("key", ["authorization_patterns", "token_patterns"])
def test_load_registry_requires_lists_of_strings(key, patterns):
    # before, 5 raised TypeError, [5] AttributeError during detection, and a
    # bare string was read as one pattern per character
    doc = {"idps": [{"name": "Acme", key: patterns}]}
    with pytest.raises(MalformedInput, match=key):
        classify.load_registry(json.dumps(doc))


def test_default_registry_patterns():
    registry = classify.default_registry()
    assert registry.match_authorization(*_at(
        "https://accounts.google.com/o/oauth2/v2/auth")) == "Google"
    assert registry.match_authorization(*_at(
        "https://www.facebook.com/v17.0/dialog/oauth")) == "Facebook"
    assert registry.match_authorization(*_at(
        "https://appleid.apple.com/auth/authorize")) == "Apple"
    assert registry.match_origin("https://accounts.google.com") == "Google"


def test_default_registry_is_its_document_through_load_registry():
    # one build path: the built-in document passes the file checks too
    assert classify.default_registry() == classify.load_registry(
        json.dumps(classify._BUILTIN_REGISTRY))


def _at(url):
    """The (parts, lowercased host) the registry matches a URL by."""
    return split_url(url), url_host(url)


def _reference_match(doc, url, keys):
    """The first IdP, in document order and then pattern order, with a
    pattern under ``keys`` whose host is the URL's and whose path prefixes
    the URL's path."""
    parts = split_url(url)
    host, path = (parts.hostname or "").lower(), parts.path or "/"
    for item in doc["idps"]:
        for key in keys:
            for pattern in item.get(key, []):
                p_host, _, p_path = pattern.partition("/")
                if host == p_host.lower() and path.startswith("/" + p_path):
                    return item["name"]
    return None


def _reference_origin(doc, origin):
    host = url_host(origin) if "://" in origin else origin.lower()
    if not host:
        return None
    for item in doc["idps"]:
        for key in ("authorization_patterns", "token_patterns"):
            for pattern in item.get(key, []):
                if pattern.partition("/")[0].lower() == host:
                    return item["name"]
    return None


_SHARED_HOST_DOC = {"idps": [
    {"name": "A",
     "authorization_patterns": ["Login.example/a", "login.example/"],
     "token_patterns": ["token.example/t"]},
    {"name": "B", "authorization_patterns": ["login.example/ab", "b.example/x"],
     "token_patterns": ["token.example/", "login.example/t"]},
    {"name": "C", "authorization_patterns": ["/blank-host"],
     "token_patterns": ["c.example"]},
]}


@pytest.mark.parametrize("url", [
    "https://login.example/ab/x", "https://LOGIN.example/a",
    "https://login.example", "https://login.example/z", "https://b.example/x?y", "https://b.example/y",
    "https://token.example/t1", "https://token.example/u", "https://c.example/",
    "https://login.example/t", "mailto:x@login.example", "https://[::1/x", "",
])
def test_registry_matches_as_a_scan_in_document_order(url):
    registry = classify.load_registry(json.dumps(_SHARED_HOST_DOC))
    assert registry.match_authorization(*_at(url)) == _reference_match(
        _SHARED_HOST_DOC, url, ("authorization_patterns",))
    assert registry.match_token(*_at(url)) == _reference_match(
        _SHARED_HOST_DOC, url, ("token_patterns",))


@pytest.mark.parametrize("origin", [
    "https://login.example", "https://token.example", "https://b.example",
    "https://c.example", "c.example", "LOGIN.EXAMPLE", "*", "",
    "https://other.example",
])
def test_registry_matches_origins_as_a_scan_in_document_order(origin):
    registry = classify.load_registry(json.dumps(_SHARED_HOST_DOC))
    assert registry.match_origin(origin) == _reference_origin(
        _SHARED_HOST_DOC, origin)
