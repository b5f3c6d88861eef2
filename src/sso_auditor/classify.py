"""Find login requests and responses in a trace and classify the protocol.

``decode_trace`` decodes each parameter surface of a trace once (an HTTP
entry's query, fragment and body, an in-browser message's payload) under
the run's SPAR budgets.  SPAR records the nodes named after a protocol
parameter while it decodes; only those hits are kept, and the first of
each name gives the item's protocol parameters.  Detection, response
matching, the security rules and the privacy detectors all read this view
instead of decoding again.  A second recording of a login is decoded only
inside ``find_logins``, and only where a partner of a first-run login
request can be.

Detection is parameter-driven: an HTTP entry or an in-browser message is a
login request when its decoded parameters carry both ``client_id`` and
``redirect_uri`` and either the destination matches a known identity
provider endpoint or, as a generic fallback, the request also names a
``response_type``.  Responses are matched by delivery to the request's
``redirect_uri`` (or the equivalent postMessage target origin) together
with at least one token-bearing parameter; an entry URL's scheme, host and
path must equal the redirect_uri's (exact matching, RFC 9700).

``find_logins`` puts each login together once, as a ``Login`` record that
the security rules and the privacy detectors read: the deduplicated request,
its response, its partner in a second recording, and whether the login's
own IdP token endpoint answered visibly.  The second recording is parsed in
full but decoded only for the entries and events whose registry IdP is one
of the first run's login IdPs (all of it when a first-run request was found
only through ``response_type``): ``pair_runs`` pairs a message only with one
of the same IdP, so no other item can hold a partner.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from . import spar
from .domains import origin_of, split_url, url_host
from .exceptions import MalformedInput, MalformedJwt
from .trace import HttpEntry, Trace, load_json

CHANNEL_QUERY = "http-query"
CHANNEL_FRAGMENT = "http-fragment"
CHANNEL_BODY = "http-body"
CHANNEL_POST_MESSAGE = "post-message"

REF_ENTRY = "entry"
REF_IBC = "ibc"

UNKNOWN_IDP = "unknown"
TOTAL_LABEL = "Total"  # the reports' total rows; no registry IdP may take it

FLOW_CODE = "code"
FLOW_IMPLICIT = "implicit"
FLOW_HYBRID = "hybrid"
FLOW_UNKNOWN = "unknown"

PROTOCOL_OAUTH2 = "oauth2"
PROTOCOL_OIDC = "oidc"

# response_type token kind -> the parameter that delivers it
TOKEN_KINDS = {"code": "code", "token": "access_token", "id_token": "id_token"}
TOKEN_PARAMS = tuple(TOKEN_KINDS.values())

class SsoParams(NamedTuple):
    client_id: str | None = None
    redirect_uri: str | None = None
    response_type: str | None = None
    scope: str | None = None
    state: str | None = None
    nonce: str | None = None
    code_challenge: str | None = None
    code: str | None = None
    access_token: str | None = None
    id_token: str | None = None
    client_secret: str | None = None
    at_hash: str | None = None

    def get(self, name: str) -> str | None:
        return getattr(self, name)


# parameters read from the decoded surfaces; at_hash comes from the id_token
_PARAM_NAMES = tuple(name for name in SsoParams._fields if name != "at_hash")


class ParamLocation(NamedTuple):
    """Where a parameter was found, and its node as the view decoded it."""

    channel: str
    path: tuple[str, ...]
    node: spar.SparNode

    def render(self) -> str:
        return f"{self.channel}:{spar.render_path(self.path)}"


class SsoMessage(NamedTuple):
    entry_ref: int
    ref_kind: str  # "entry" or "ibc"
    channel: str
    idp: str
    params: SsoParams
    locations: dict[str, ParamLocation]


# ---------------------------------------------------------------------------
# identity provider registry

class IdpEndpoints(NamedTuple):
    name: str
    authorization_patterns: tuple[str, ...] = ()
    token_patterns: tuple[str, ...] = ()


class IdpRegistry(NamedTuple):
    idps: tuple[IdpEndpoints, ...]

    def match_authorization(self, url: str) -> str | None:
        return self._match(url, "authorization_patterns")

    def match_token(self, url: str) -> str | None:
        return self._match(url, "token_patterns")

    def match_origin(self, origin: str) -> str | None:
        host = url_host(origin) if "://" in origin else origin.lower()
        if not host:
            return None
        for idp in self.idps:
            for pattern in idp.authorization_patterns + idp.token_patterns:
                if _pattern_host(pattern) == host:
                    return idp.name
        return None

    def _match(self, url: str, attr: str) -> str | None:
        parts = split_url(url)
        host = (parts.hostname or "").lower()
        path = parts.path or "/"
        for idp in self.idps:
            for pattern in getattr(idp, attr):
                p_host, _, p_path = pattern.partition("/")
                if host == p_host.lower() and path.startswith("/" + p_path):
                    return idp.name
        return None


def _pattern_host(pattern: str) -> str:
    return pattern.partition("/")[0].lower()


def default_registry() -> IdpRegistry:
    return IdpRegistry(idps=(
        IdpEndpoints(
            name="Google",
            authorization_patterns=(
                "accounts.google.com/o/oauth2",
                "accounts.google.com/signin/oauth",
                "accounts.google.com/gsi",
            ),
            token_patterns=(
                "oauth2.googleapis.com/token",
                "www.googleapis.com/oauth2",
                "accounts.google.com/o/oauth2/token",
            ),
        ),
        IdpEndpoints(
            name="Facebook",
            authorization_patterns=(
                "www.facebook.com/dialog/oauth",
                "www.facebook.com/v",
                "m.facebook.com/dialog/oauth",
                "www.facebook.com/login",
            ),
            token_patterns=(
                "graph.facebook.com/oauth/access_token",
                "graph.facebook.com/v",
            ),
        ),
        IdpEndpoints(
            name="Apple",
            authorization_patterns=("appleid.apple.com/auth/authorize",),
            token_patterns=("appleid.apple.com/auth/token",),
        ),
    ))


def load_registry(data: bytes | str) -> IdpRegistry:
    """Registry config: {"idps": [{"name", "authorization_patterns", "token_patterns"}]}"""
    doc = load_json(data, "registry")
    if not isinstance(doc, dict) or not isinstance(doc.get("idps"), list):
        raise MalformedInput("registry document needs an idps list")
    idps = []
    for item in doc["idps"]:
        if not isinstance(item, dict) or "name" not in item:
            raise MalformedInput("registry idp entries need a name")
        patterns = {}
        for key in ("authorization_patterns", "token_patterns"):
            value = item.get(key, [])
            if not isinstance(value, list) \
                    or not all(isinstance(p, str) for p in value):
                raise MalformedInput(f"registry {key} must be a list of strings")
            patterns[key] = tuple(value)
        if item["name"] == TOTAL_LABEL:
            raise MalformedInput(f"registry idp name {TOTAL_LABEL!r} is "
                                 "reserved")
        idps.append(IdpEndpoints(name=str(item["name"]), **patterns))
    return IdpRegistry(idps=tuple(idps))


# ---------------------------------------------------------------------------
# the decoded view of a trace

# "" is a body recorded without a MIME type
_PARSED_BODY_MIMES = ("application/x-www-form-urlencoded", "application/json",
                      "text/plain", "")


def _mime(body_mime: str | None) -> str:
    """The bare, lowercased MIME type of a recorded body."""
    return (body_mime or "").split(";")[0].strip().lower()


class DecodedItem(NamedTuple):
    """One HTTP entry (query, fragment, body surfaces) or IBC event (payload).

    ``surfaces`` holds, per surface with any, the hits of the parameter
    names (``_PARAM_NAMES``): each name -> every ``(path, node)`` ending in
    it, in preorder; no other segment is kept.  ``params`` and
    ``locations`` give the first hit per name across the surfaces, in that
    order, and ``token_channel`` the first surface carrying a token
    parameter, if any.
    """

    surfaces: tuple[tuple[str, spar.SegmentIndex], ...]
    params: SsoParams
    locations: dict[str, ParamLocation]
    token_channel: str | None


# every item that was not decoded or has no parameter hits; never mutated
_EMPTY_ITEM = DecodedItem(surfaces=(), params=SsoParams(), locations={},
                          token_channel=None)


class DecodedTrace(NamedTuple):
    """Items aligned with ``trace.entries`` and ``trace.ibc_events``, and the
    SPAR budgets they were decoded under."""

    trace: Trace
    entries: tuple[DecodedItem, ...]
    ibc_events: tuple[DecodedItem, ...]
    max_depth: int
    max_nodes: int


def decode_trace(trace: Trace, max_depth: int = spar.DEFAULT_MAX_DEPTH,
                 max_nodes: int = spar.DEFAULT_MAX_NODES,
                 idps: frozenset[str] | None = None,
                 registry: IdpRegistry | None = None) -> DecodedTrace:
    """Decode every surface of ``trace`` once, under the given budgets.

    Given ``idps``, decode only the entries whose URL and the events whose
    target origin map to one of them in ``registry``; every other item is
    left empty, with no parameters and no token channel.
    """
    if idps is not None:
        registry = registry or default_registry()
    return DecodedTrace(
        trace=trace,
        entries=tuple(
            _decoded_item(_entry_surfaces(entry), max_depth, max_nodes)
            if idps is None
            or registry.match_authorization(entry.request.url) in idps
            else _EMPTY_ITEM
            for entry in trace.entries),
        ibc_events=tuple(
            _decoded_item([(CHANNEL_POST_MESSAGE, spar.decode, event.payload)],
                          max_depth, max_nodes)
            if idps is None
            or registry.match_origin(event.target_origin) in idps
            else _EMPTY_ITEM
            for event in trace.ibc_events),
        max_depth=max_depth,
        max_nodes=max_nodes,
    )


# (channel, spar.decode or spar.decode_query_string, value)
Surface = tuple[str, Callable[..., spar.SparNode], str]


def _entry_surfaces(entry: HttpEntry) -> list[Surface]:
    """Parameter surfaces of a request: query, fragment, body, each with the
    decoder it is read with."""
    parts = split_url(entry.request.url)
    mime = _mime(entry.request.body_mime)
    body = entry.request.body if mime in _PARSED_BODY_MIMES else None
    # (channel, value, decode as a query string even without codec evidence)
    surfaces = ((CHANNEL_QUERY, parts.query, True),
                (CHANNEL_FRAGMENT, parts.fragment, "=" in parts.fragment),
                (CHANNEL_BODY, body, mime == "application/x-www-form-urlencoded"))
    return [(channel, spar.decode_query_string if as_query else spar.decode,
             value)
            for channel, value, as_query in surfaces if value]


def _decoded_item(surfaces: list[Surface], max_depth: int,
                  max_nodes: int) -> DecodedItem:
    hit_surfaces = []
    for channel, decoder, value in surfaces:
        hits: spar.SegmentIndex = {name: [] for name in _PARAM_NAMES}
        decoder(value, max_depth, max_nodes, hits=hits)
        found = {name: nodes for name, nodes in hits.items() if nodes}
        if found:
            hit_surfaces.append((channel, found))
    if not hit_surfaces:
        return _EMPTY_ITEM
    locations: dict[str, ParamLocation] = {}
    token_channel = None
    for channel, hits in hit_surfaces:
        for name in _PARAM_NAMES:
            if name in hits and name not in locations:
                path, node = hits[name][0]
                locations[name] = ParamLocation(channel=channel, path=path,
                                                node=node)
        if token_channel is None and any(name in hits for name in TOKEN_PARAMS):
            token_channel = channel
    values = {name: loc.node.raw for name, loc in locations.items()}
    at_hash = None
    id_token = values.get("id_token")
    if id_token:
        try:
            _, payload, _ = spar.jwt_parts(id_token)
        except MalformedJwt:
            payload = {}
        raw = payload.get("at_hash")
        if isinstance(raw, str):
            at_hash = raw
    return DecodedItem(surfaces=tuple(hit_surfaces),
                       params=SsoParams(**values, at_hash=at_hash),
                       locations=locations, token_channel=token_channel)


# ---------------------------------------------------------------------------
# login request / response detection

def detect_login_requests(view: DecodedTrace,
                          registry: IdpRegistry | None = None,
                          ) -> list[SsoMessage]:
    registry = registry or default_registry()
    trace = view.trace
    messages: list[SsoMessage] = []
    for ref_kind, items in ((REF_ENTRY, view.entries), (REF_IBC, view.ibc_events)):
        for index, item in enumerate(items):
            params = item.params
            if not (params.client_id and params.redirect_uri):
                continue
            if ref_kind == REF_ENTRY:
                idp = registry.match_authorization(trace.entries[index].request.url)
            else:
                idp = registry.match_origin(trace.ibc_events[index].target_origin)
            if idp is None and params.response_type is None:
                continue
            messages.append(SsoMessage(
                entry_ref=index, ref_kind=ref_kind,
                channel=item.locations["client_id"].channel,
                idp=idp or UNKNOWN_IDP, params=params, locations=item.locations,
            ))
    return messages


def dedupe_login_requests(messages: list[SsoMessage]) -> list[SsoMessage]:
    """One login request per (idp, redirect_uri host+path); first wins."""
    seen: set[tuple[str, str]] = set()
    out = []
    for msg in messages:
        key = (msg.idp, _redirect_prefix_key(msg.params.redirect_uri or ""))
        if key in seen:
            continue
        seen.add(key)
        out.append(msg)
    return out


def _redirect_prefix_key(redirect_uri: str) -> str:
    parts = split_url(redirect_uri)
    return f"{(parts.hostname or '').lower()}{parts.path}"


def _url_base(url: str) -> str | None:
    """scheme://netloc/path, the first two lowercased and an empty path read
    as "/"; None for a URL without a scheme or one that cannot be split."""
    parts = split_url(url)
    if not parts.scheme:
        return None
    return f"{parts.scheme.lower()}://{parts.netloc.lower()}{parts.path or '/'}"


def _entry_time(trace: Trace, msg: SsoMessage):
    if msg.ref_kind == REF_ENTRY:
        return trace.entries[msg.entry_ref].started_at
    return trace.ibc_events[msg.entry_ref].at


def match_login_response(view: DecodedTrace, request: SsoMessage,
                         ) -> SsoMessage | None:
    """First later delivery of a token to the request's redirect_uri."""
    redirect_uri = request.params.redirect_uri
    if not redirect_uri:
        return None
    trace = view.trace
    base = _url_base(redirect_uri)
    target_origin = origin_of(redirect_uri)
    req_time = _entry_time(trace, request)

    candidates: list[tuple[object, int, int, str]] = []
    start_index = request.entry_ref + 1 if request.ref_kind == REF_ENTRY else 0
    for index in range(start_index, len(trace.entries)):
        entry = trace.entries[index]
        if entry.started_at < req_time or base is None \
                or _url_base(entry.request.url) != base \
                or view.entries[index].token_channel is None:
            continue
        candidates.append((entry.started_at, 0, index, REF_ENTRY))
    ibc_start = request.entry_ref + 1 if request.ref_kind == REF_IBC else 0
    for index in range(ibc_start, len(trace.ibc_events)):
        event = trace.ibc_events[index]
        if event.at < req_time \
                or event.target_origin not in ("*", target_origin) \
                or view.ibc_events[index].token_channel is None:
            continue
        candidates.append((event.at, 1, index, REF_IBC))
    if not candidates:
        return None
    _, _, index, ref_kind = min(candidates, key=lambda item: item[:2])
    item = (view.entries if ref_kind == REF_ENTRY else view.ibc_events)[index]
    return SsoMessage(
        entry_ref=index, ref_kind=ref_kind,
        channel=item.token_channel, idp=request.idp, params=item.params,
        locations=item.locations,
    )


# ---------------------------------------------------------------------------
# protocol and flow classification

def classify_protocol(request: SsoMessage | None,
                      response: SsoMessage | None = None) -> str:
    scope = (request.params.scope or "") if request else ""
    if "openid" in scope.split():
        return PROTOCOL_OIDC
    response_type = (request.params.response_type or "") if request else ""
    if "id_token" in response_type.split():
        return PROTOCOL_OIDC
    if response is not None and response.params.id_token:
        return PROTOCOL_OIDC
    return PROTOCOL_OAUTH2


_FLOW_TOKENS = frozenset({"code", "token", "id_token"})


def _flow(kinds: set[str]) -> str:
    """The flow that requests or returns the token kinds ``kinds``."""
    if not kinds:
        return FLOW_UNKNOWN
    if kinds == {"code"}:
        return FLOW_CODE
    if "code" in kinds:
        return FLOW_HYBRID
    return FLOW_IMPLICIT


def classify_requested_flow(response_type: str | None) -> str:
    tokens = set((response_type or "").split())
    return _flow(tokens) if tokens <= _FLOW_TOKENS else FLOW_UNKNOWN


def classify_returned_flow(response: SsoMessage | None) -> str:
    return _flow(returned_token_kinds(response))


def returned_token_kinds(response: SsoMessage | None) -> set[str]:
    if response is None:
        return set()
    return {kind for kind, param in TOKEN_KINDS.items()
            if response.params.get(param) is not None}


def requested_token_kinds(request: SsoMessage | None) -> set[str]:
    if request is None or request.params.response_type is None:
        return set()
    tokens = set(request.params.response_type.split())
    return tokens & _FLOW_TOKENS


def pair_runs(run1_messages: list[SsoMessage], run2_messages: list[SsoMessage],
              ) -> list[tuple[SsoMessage, SsoMessage | None]]:
    """Align messages of two recordings of the same login procedure."""
    def key(msg: SsoMessage) -> tuple[str, str]:
        return (msg.idp, _redirect_prefix_key(msg.params.redirect_uri or ""))

    used: set[int] = set()
    pairs: list[tuple[SsoMessage, SsoMessage | None]] = []
    for msg in run1_messages:
        mate = None
        for index, other in enumerate(run2_messages):
            if index not in used and key(other) == key(msg):
                used.add(index)
                mate = other
                break
        pairs.append((msg, mate))
    return pairs


# ---------------------------------------------------------------------------
# logins

class Login(NamedTuple):
    """One login procedure: its request, the matched response, the same
    request in the second recording, and whether the login's own IdP token
    endpoint answered in the front channel with more than was asked for."""

    request: SsoMessage
    response: SsoMessage | None = None
    request2: SsoMessage | None = None
    token_exchange_visible: bool = False


def find_logins(view: DecodedTrace, registry: IdpRegistry | None = None,
                run2: Trace | None = None) -> list[Login]:
    """The deduplicated logins of ``view``, in detection order, each paired
    with its partner in ``run2`` (the second recording), if given.

    ``run2`` is decoded here, under ``view``'s budgets, and only where a
    partner can be.  A run-2 message pairs only with a request of its own
    IdP, which is its registry IdP or ``unknown``; unless a run-1 request is
    ``unknown``, an item mapping to none of run 1's IdPs holds no partner.
    """
    registry = registry or default_registry()
    requests = dedupe_login_requests(detect_login_requests(view, registry))
    requests2 = []
    if run2 is not None:
        idps = frozenset(request.idp for request in requests)
        view2 = decode_trace(run2, view.max_depth, view.max_nodes,
                             None if UNKNOWN_IDP in idps else idps, registry)
        requests2 = dedupe_login_requests(detect_login_requests(view2, registry))
    exchanges = _token_exchanges(view.trace, registry) if requests else []
    return [Login(request=request,
                  response=match_login_response(view, request),
                  request2=request2,
                  token_exchange_visible=any(
                      idp == request.idp and _gives_more(doc, request)
                      for idp, doc in exchanges))
            for request, request2 in pair_runs(requests, requests2)]


def _token_exchanges(trace: Trace, registry: IdpRegistry,
                     ) -> list[tuple[str, dict]]:
    """(IdP, JSON object) of each recorded token endpoint response."""
    exchanges = []
    for entry in trace.entries:
        idp = registry.match_token(entry.request.url)
        body = entry.response.body
        if idp is None or not body \
                or _mime(entry.response.body_mime) not in ("application/json",
                                                           "text/plain", ""):
            continue
        try:
            doc = json.loads(body)
        except (ValueError, RecursionError):
            continue
        if isinstance(doc, dict):
            exchanges.append((idp, doc))
    return exchanges


def _gives_more(doc: dict, request: SsoMessage) -> bool:
    """A token endpoint answer carrying a code, or an unrequested id_token."""
    return "code" in doc or ("id_token" in doc
                             and "id_token" not in requested_token_kinds(request))
