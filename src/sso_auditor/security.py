"""Passive security checks over recorded login runs.

``run_all`` decodes the first recording once (``classify.decode_trace``, under
the configured SPAR budgets) and puts each login together once
(``classify.find_logins``, which decodes the second recording only where a
partner of a first-run login can be).  Every per-login rule has one signature,
``check_x(login, cfg) -> list[Finding]``, and runs from the ``LOGIN_RULES``
table of (group name, rule), each group guarded so that a crashing rule
becomes one ``analyzer.error`` finding.  The view is the rules' only SPAR
input, so ``run_all``'s ``decode_trace`` call alone applies the budgets: a
rule reads a parameter's node (``SsoMessage.locations``) as the view cut it,
with ``max_spar_depth - d`` levels left at surface depth d and the
surface's node budget shared.  Rules decode only what is no request
surface, a Referer header and a 307 ``Location``, under the view's budgets.
Nothing is ever replayed or probed.  Findings carry a stable rule_id, a
category (vulnerability or potential-issue), and non-empty evidence pointing
back into the trace; their domain is the analyzed unit's.

Scoping decisions that matter for interpretation:

* Randomness checks compare the two recordings of a login and otherwise
  bound entropy by charset class times length, an upper bound by design.
* A present PKCE challenge suppresses CSRF findings entirely when
  ``treat_pkce_as_csrf_protection`` is set (the default).
* ``secret.token-in-url`` inspects query components only.  Fragment-borne
  tokens never reach server logs; their exposure is what the obsolete-flow
  check reports.
* Rules are evaluated against the first recording; the second one only
  supplies paired values.

Each rule's category, title, reference and report column live in
``data/rules.json`` and nowhere else; ``Finding.category`` reads it.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import NamedTuple

from . import classify, spar
from .classify import DecodedTrace, IdpRegistry, Login, SsoMessage
from .domains import is_loopback_host, registrable_domain, split_url, url_host
from .exceptions import MalformedJwt, ProfileMismatch
from .trace import PROFILE_LOGIN_RUN, Trace

CATEGORY_VULNERABILITY = "vulnerability"

BASIS_STATIC = "static-across-runs"
BASIS_CHARSET = "charset-length"
BASIS_ABSENT = "absent"

MAX_EXCERPT = 200

RULE_CSRF_MISSING = "csrf.missing"
RULE_CSRF_WEAK = "csrf.weak"
RULE_FLOW_OBSOLETE = "flow.obsolete"
RULE_PROTOCOL_MIXUP = "protocol.mixup"
RULE_FLOW_MIXUP = "flow.mixup"
RULE_OPEN_REDIRECT = "redirect.nested-url"
RULE_SECRET_FC = "secret.client-secret-fc"
RULE_REFERER_LEAK = "secret.referer-leak"
RULE_TOKEN_IN_URL = "secret.token-in-url"
RULE_PLAIN_REDIRECT_URI = "tls.plain-redirect-uri"
RULE_PLAIN_REQUEST = "tls.plain-request"
RULE_307_RESPONSE = "redirect.307-authz-response"
RULE_CODE_UNPROTECTED = "inject.code-unprotected"
RULE_AT_HASH_MISSING = "inject.at-hash-missing"
RULE_IDTOKEN_SYMMETRIC = "idtoken.symmetric-alg"
RULE_IDTOKEN_NONE = "idtoken.alg-none"
RULE_IDTOKEN_MALFORMED = "idtoken.malformed"
RULE_ANALYZER_ERROR = "analyzer.error"


def load_rule_catalog() -> list[dict]:
    text = resources.files("sso_auditor").joinpath("data/rules.json") \
        .read_text(encoding="utf-8")
    return json.loads(text)


# rule id -> catalog entry (category, title, reference, optional column)
RULES: dict[str, dict] = {item["rule_id"]: item for item in load_rule_catalog()}


class _EvidenceFields(NamedTuple):
    entry_index: int
    spar_path: str
    excerpt: str


class Evidence(_EvidenceFields):
    """The excerpt is cut to its first ``MAX_EXCERPT`` characters."""

    __slots__ = ()

    def __new__(cls, entry_index: int, spar_path: str, excerpt: str):
        return super().__new__(cls, entry_index, spar_path,
                               excerpt[:MAX_EXCERPT])


class _FindingFields(NamedTuple):
    rule_id: str
    idp: str
    evidence: tuple[Evidence, ...]
    message: str


class Finding(_FindingFields):
    """A rule's verdict; ``evidence`` is never empty."""

    __slots__ = ()

    def __new__(cls, rule_id: str, idp: str, evidence: tuple[Evidence, ...],
                message: str):
        if not evidence:
            raise ValueError("findings need at least one evidence item")
        return super().__new__(cls, rule_id, idp, evidence, message)

    @property
    def category(self) -> str:
        return RULES[self.rule_id]["category"]

    def to_dict(self) -> dict:
        return {**self._asdict(),
                "evidence": tuple(item._asdict() for item in self.evidence),
                "category": self.category}


class RuleConfig(NamedTuple):
    entropy_threshold_bits: float = 96.0
    treat_pkce_as_csrf_protection: bool = True
    max_spar_depth: int = spar.DEFAULT_MAX_DEPTH
    max_spar_nodes: int = spar.DEFAULT_MAX_NODES


class EntropyEstimate(NamedTuple):
    bits: float
    basis: str


# ---------------------------------------------------------------------------
# entropy estimation

_DIGITS = frozenset("0123456789")
_HEX_LOWER = frozenset("0123456789abcdef")
_HEX_UPPER = frozenset("0123456789ABCDEF")
_ALNUM = frozenset(
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_B64URL = _ALNUM | frozenset("-_")

CHARSET_SIZES = {
    "digits": 10,
    "hex": 16,
    "alphanumeric": 62,
    "base64url": 64,
    "printable": 94,
}


def charset_class(value: str) -> str:
    chars = set(value)
    if chars <= _DIGITS:
        return "digits"
    if chars <= _HEX_LOWER or chars <= _HEX_UPPER:
        return "hex"
    if chars <= _ALNUM:
        return "alphanumeric"
    if chars <= _B64URL:
        return "base64url"
    return "printable"


def estimate_entropy(node: spar.SparNode | None,
                     paired_value: str | None = None) -> EntropyEstimate:
    """Upper-bound the randomness of a protocol parameter's decoded ``node``.

    A value that repeats across paired recordings carries no randomness at
    all.  Otherwise the bound is the best leaf of the decoded value:
    length times log2 of the inferred charset class size.
    """
    if node is None:
        return EntropyEstimate(bits=0.0, basis=BASIS_ABSENT)
    if paired_value is not None and node.raw == paired_value:
        return EntropyEstimate(bits=0.0, basis=BASIS_STATIC)
    best = 0.0
    for _, raw in spar.leaves(node):
        bits = len(raw) * math.log2(CHARSET_SIZES[charset_class(raw)])
        if bits > best:
            best = bits
    return EntropyEstimate(bits=best, basis=BASIS_CHARSET)


# ---------------------------------------------------------------------------
# evidence helpers

def _param_evidence(msg: SsoMessage, name: str) -> Evidence:
    loc = msg.locations[name]
    return Evidence(entry_index=msg.entry_ref, spar_path=loc.render(),
                    excerpt=loc.node.raw)


def _request_evidence(msg: SsoMessage) -> Evidence:
    return Evidence(entry_index=msg.entry_ref,
                    spar_path=msg.locations["client_id"].render(),
                    excerpt=msg.params.redirect_uri or msg.params.client_id or "")


# ---------------------------------------------------------------------------
# per-login rules: check_x(login, cfg) -> list[Finding]

_CSRF_PARAMS = ("state", "nonce", "code_challenge")


def check_csrf(login: Login, cfg: RuleConfig) -> list[Finding]:
    req = login.request
    present = [name for name in _CSRF_PARAMS if req.params.get(name) is not None]
    if not present:
        return [Finding(
            rule_id=RULE_CSRF_MISSING, idp=req.idp,
            evidence=(_request_evidence(req),),
            message="login request carries neither state nor nonce nor a "
                    "PKCE challenge",
        )]
    if cfg.treat_pkce_as_csrf_protection and req.params.code_challenge is not None:
        return []
    paired = login.request2
    best_name, best = None, None
    for name in present:
        estimate = estimate_entropy(
            req.locations[name].node,
            paired.params.get(name) if paired else None)
        if best is None or estimate.bits > best.bits:
            best_name, best = name, estimate
    assert best is not None and best_name is not None
    if best.bits > cfg.entropy_threshold_bits:
        return []
    if best.basis == BASIS_STATIC:
        detail = "value repeats across recordings"
    else:
        detail = f"upper bound {best.bits:.2f} bits"
    return [Finding(
        rule_id=RULE_CSRF_WEAK, idp=req.idp,
        evidence=(_param_evidence(req, best_name),),
        message=f"best CSRF protection parameter {best_name!r} is guessable "
                f"({detail}, threshold {cfg.entropy_threshold_bits:g} bits)",
    )]


def check_obsolete_flow(login: Login, cfg: RuleConfig) -> list[Finding]:
    response = login.response
    if response is None:
        return []
    returned = classify.classify_returned_flow(response)
    if returned == classify.FLOW_IMPLICIT:
        reason = "tokens are issued directly in the front channel (implicit flow)"
        token_name = "access_token" if response.params.access_token else "id_token"
    elif returned == classify.FLOW_HYBRID and response.params.access_token:
        reason = "hybrid flow delivers the access token in the front channel"
        token_name = "access_token"
    else:
        return []
    return [Finding(
        rule_id=RULE_FLOW_OBSOLETE, idp=login.request.idp,
        evidence=(_param_evidence(response, token_name),),
        message=reason,
    )]


def check_mixups(login: Login, cfg: RuleConfig) -> list[Finding]:
    request, response = login.request, login.response
    findings = []
    scope_tokens = (request.params.scope or "").split()
    if response is not None and response.params.id_token is not None \
            and "openid" not in scope_tokens:
        findings.append(Finding(
            rule_id=RULE_PROTOCOL_MIXUP, idp=request.idp,
            evidence=(_param_evidence(response, "id_token"),),
            message="an id_token was returned although the request did not "
                    "ask for the openid scope",
        ))

    requested_flow = classify.classify_requested_flow(request.params.response_type)
    returned_flow = classify.classify_returned_flow(response)
    requested_kinds = classify.requested_token_kinds(request)
    returned_kinds = classify.returned_token_kinds(response)
    flows_known = (requested_flow != classify.FLOW_UNKNOWN
                   and returned_flow != classify.FLOW_UNKNOWN)
    mismatch = flows_known and requested_flow != returned_flow
    extra_kinds = sorted(returned_kinds - requested_kinds) if requested_kinds else []
    if mismatch or extra_kinds or login.token_exchange_visible:
        anchor = response if response is not None else request
        token_name = next((param for kind, param in classify.TOKEN_KINDS.items()
                           if kind in (extra_kinds or returned_kinds)), None)
        evidence = (_param_evidence(anchor, token_name) if token_name
                    else _request_evidence(anchor))
        if login.token_exchange_visible and not (mismatch or extra_kinds):
            message = "a front-channel token exchange returned additional " \
                      "token material"
        else:
            message = (f"requested flow {requested_flow!r} but the response "
                       f"matches {returned_flow!r}")
        findings.append(Finding(
            rule_id=RULE_FLOW_MIXUP, idp=request.idp,
            evidence=(evidence,), message=message,
        ))
    return findings


def check_open_redirect(login: Login, cfg: RuleConfig) -> list[Finding]:
    request = login.request
    base = request.locations.get("redirect_uri")
    if base is None:
        return []
    nested = spar.find_nested_urls(base.node)
    if not nested:
        return []
    evidence = tuple(
        Evidence(entry_index=request.entry_ref,
                 spar_path=f"{base.render()}/{spar.render_path(path)}",
                 excerpt=url)
        for path, url in nested
    )
    return [Finding(
        rule_id=RULE_OPEN_REDIRECT, idp=request.idp,
        evidence=evidence,
        message=f"redirect_uri embeds {len(evidence)} nested absolute URL(s); "
                "possible open-redirector chaining",
    )]


def check_injection_protection(login: Login, cfg: RuleConfig) -> list[Finding]:
    request, response = login.request, login.response
    if response is None:
        return []
    findings = []
    if response.params.code is not None \
            and request.params.code_challenge is None \
            and request.params.nonce is None:
        findings.append(Finding(
            rule_id=RULE_CODE_UNPROTECTED, idp=request.idp,
            evidence=(_param_evidence(response, "code"),),
            message="authorization code is not bound to the client via PKCE "
                    "or nonce; code injection is not detectable",
        ))
    if response.params.id_token is not None \
            and response.params.access_token is not None:
        try:
            _, payload, _ = spar.jwt_parts(response.params.id_token)
        except MalformedJwt:
            payload = None
        if payload is not None and "at_hash" not in payload:
            findings.append(Finding(
                rule_id=RULE_AT_HASH_MISSING, idp=request.idp,
                evidence=(_param_evidence(response, "id_token"),),
                message="id_token and access_token are returned together but "
                        "the id_token carries no at_hash binding",
            ))
    return findings


def check_id_token_alg(login: Login, cfg: RuleConfig) -> list[Finding]:
    response = login.response
    if response is None or response.params.id_token is None:
        return []
    evidence = (_param_evidence(response, "id_token"),)
    try:
        header, _, _ = spar.jwt_parts(response.params.id_token)
    except MalformedJwt as exc:
        return [Finding(
            rule_id=RULE_IDTOKEN_MALFORMED, idp=response.idp, evidence=evidence,
            message=f"id_token does not decode as a JWT: {exc}",
        )]
    alg = str(header.get("alg", ""))
    if alg.lower() == "none":
        return [Finding(
            rule_id=RULE_IDTOKEN_NONE, idp=response.idp, evidence=evidence,
            message="id_token is unsigned (alg=none)",
        )]
    if alg.startswith("HS"):
        return [Finding(
            rule_id=RULE_IDTOKEN_SYMMETRIC, idp=response.idp, evidence=evidence,
            message=f"id_token uses a symmetric signature ({alg}); the "
                    "client must hold the shared secret",
        )]
    return []


# (group name, rule) in evaluation order; a group that raises becomes one
# analyzer.error finding named after it
LOGIN_RULES = (
    ("csrf", check_csrf),
    ("obsolete-flow", check_obsolete_flow),
    ("mixups", check_mixups),
    ("open-redirect", check_open_redirect),
    ("injection", check_injection_protection),
    ("id-token-alg", check_id_token_alg),
)


# ---------------------------------------------------------------------------
# trace-level rules: ``idp`` labels findings not anchored to one login

def check_secret_leakage(view: DecodedTrace, requests: list[SsoMessage],
                         idp: str) -> list[Finding]:
    trace = view.trace
    findings = []

    # bodies are not browser-visible URLs; IBC payloads are front channel
    secret_evidence = [
        Evidence(entry_index=index,
                 spar_path=f"{channel}:{spar.render_path(path)}",
                 excerpt=node.raw)
        for items in (view.entries, view.ibc_events)
        for index, item in enumerate(items)
        for channel, hits in item.surfaces if channel != classify.CHANNEL_BODY
        for path, node in hits.get("client_secret", ())
    ]
    if secret_evidence:
        findings.append(Finding(
            rule_id=RULE_SECRET_FC, idp=idp,
            evidence=tuple(secret_evidence),
            message="client_secret is exposed in the front channel",
        ))

    client_site = registrable_domain(trace.metadata.domain)
    idp_sites = {registrable_domain(url_host(trace.entries[m.entry_ref].request.url))
                 for m in requests if m.ref_kind == classify.REF_ENTRY}
    referer_evidence = []
    for index, entry in enumerate(trace.entries):
        referer = entry.request.header("referer")
        if not referer:
            continue
        dest_site = registrable_domain(url_host(entry.request.url))
        if dest_site == client_site or dest_site in idp_sites:
            continue
        path = _token_path(spar.decode, referer, view)
        if path is not None:
            referer_evidence.append(Evidence(
                entry_index=index, spar_path=f"referer:{spar.render_path(path)}",
                excerpt=referer))
    if referer_evidence:
        findings.append(Finding(
            rule_id=RULE_REFERER_LEAK, idp=idp,
            evidence=tuple(referer_evidence),
            message="login tokens leak through the Referer header to a "
                    "third party",
        ))

    url_evidence = []
    for index, item in enumerate(view.entries):
        query = dict(item.surfaces).get(classify.CHANNEL_QUERY, {})
        path = _first_token_path(query)
        if path is not None:
            url_evidence.append(Evidence(
                entry_index=index,
                spar_path=f"{classify.CHANNEL_QUERY}:{spar.render_path(path)}",
                excerpt=trace.entries[index].request.url))
    if url_evidence:
        findings.append(Finding(
            rule_id=RULE_TOKEN_IN_URL, idp=idp,
            evidence=tuple(url_evidence),
            message="login tokens appear in navigated URL query strings "
                    "(browser history, server logs)",
        ))
    return findings


def _token_path(decoder, value: str, view: DecodedTrace) -> spar.Path | None:
    """Path of the first token parameter in ``value``, decoded by ``decoder``
    (``spar.decode`` or ``spar.decode_query_string``) under ``view``'s budgets."""
    hits: spar.SegmentIndex = {name: [] for name in classify.TOKEN_PARAMS}
    decoder(value, view.max_depth, view.max_nodes, hits=hits)
    return _first_token_path(hits)


def _first_token_path(hits: spar.SegmentIndex) -> spar.Path | None:
    """Path of the first hit of the first token parameter present."""
    for name in classify.TOKEN_PARAMS:
        if hits.get(name):
            return hits[name][0][0]
    return None


def check_transport(view: DecodedTrace, requests: list[SsoMessage],
                    idp: str) -> list[Finding]:
    trace = view.trace
    findings = []

    for msg in requests:
        redirect_uri = msg.params.redirect_uri
        if not redirect_uri:
            continue
        parts = split_url(redirect_uri)
        if parts.scheme.lower() == "http" \
                and not is_loopback_host(parts.hostname or ""):
            findings.append(Finding(
                rule_id=RULE_PLAIN_REDIRECT_URI, idp=msg.idp,
                evidence=(_param_evidence(msg, "redirect_uri"),),
                message="redirect_uri uses plain http on a non-loopback host",
            ))

    for index, entry in enumerate(trace.entries):
        if split_url(entry.request.url).scheme.lower() == "http":
            findings.append(Finding(
                rule_id=RULE_PLAIN_REQUEST, idp=idp,
                evidence=(Evidence(entry_index=index, spar_path="url",
                                   excerpt=entry.request.url),),
                message="request sent over plain http",
            ))

    for index, entry in enumerate(trace.entries):
        if entry.response.status != 307 or not entry.response.redirect_target:
            continue
        target = entry.response.redirect_target
        parts = split_url(target)
        if any(_token_path(spar.decode_query_string, component, view)
               is not None
               for component in (parts.query, parts.fragment) if component):
            findings.append(Finding(
                rule_id=RULE_307_RESPONSE, idp=idp,
                evidence=(Evidence(entry_index=index, spar_path="location",
                                   excerpt=target),),
                message="authorization response is relayed with status 307, "
                        "which re-sends request bodies",
            ))
    return findings


def _primary_idp(trace: Trace, requests: list[SsoMessage]) -> str:
    # the detected provider name keeps trace-level findings in the same
    # report row as the login-anchored ones; the operator's metadata label
    # is only a fallback for traces where detection came up empty, and never
    # the reports' total-row label
    if requests:
        return requests[0].idp
    label = trace.metadata.idp_label
    if label and label != classify.TOTAL_LABEL:
        return label
    return classify.UNKNOWN_IDP


# ---------------------------------------------------------------------------
# orchestration

class LoginAnalysis(NamedTuple):
    idp: str
    protocol: str
    requested_flow: str
    returned_flow: str
    countermeasures: dict[str, bool]
    request_ref: int
    response_ref: int | None
    response_channel: str | None


class SecurityAnalysis(NamedTuple):
    """One unit's result, built by ``run_all`` once both lists are done."""

    domain: str
    idp: str
    logins: list[LoginAnalysis]
    findings: list[Finding]

    @property
    def vulnerability_count(self) -> int:
        return sum(1 for f in self.findings
                   if f.category == CATEGORY_VULNERABILITY)

    def rule_ids(self) -> set[str]:
        return {f.rule_id for f in self.findings}

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "idp": self.idp,
            "logins": [login._asdict() for login in self.logins],
            "findings": [{**f.to_dict(), "domain": self.domain}
                         for f in self.findings],
            "vulnerabilities": self.vulnerability_count,
        }


def run_all(run1: Trace, run2: Trace | None = None,
            cfg: RuleConfig | None = None,
            registry: IdpRegistry | None = None) -> SecurityAnalysis:
    """Run every passive check over one (domain, idp) login procedure."""
    cfg = cfg or RuleConfig()
    for trace in (run1, run2):
        if trace is not None and trace.metadata.profile_kind != PROFILE_LOGIN_RUN:
            raise ProfileMismatch(
                f"security rules need login-run traces, got "
                f"{trace.metadata.profile_kind}")

    view1 = classify.decode_trace(run1, cfg.max_spar_depth, cfg.max_spar_nodes)
    logins = classify.find_logins(view1, registry, run2)
    requests = [login.request for login in logins]
    idp = _primary_idp(run1, requests)
    rows: list[LoginAnalysis] = []
    findings: list[Finding] = []

    for login in logins:
        request, response = login.request, login.response
        for name, rule in LOGIN_RULES:
            try:
                findings.extend(rule(login, cfg))
            except Exception as exc:  # a broken rule must not kill the report
                findings.append(Finding(
                    rule_id=RULE_ANALYZER_ERROR, idp=request.idp,
                    evidence=(Evidence(entry_index=request.entry_ref,
                                       spar_path=name,
                                       excerpt=repr(exc)),),
                    message=f"rule group {name!r} failed: {exc}",
                ))

        rows.append(LoginAnalysis(
            idp=request.idp,
            protocol=classify.classify_protocol(request, response),
            requested_flow=classify.classify_requested_flow(
                request.params.response_type),
            returned_flow=classify.classify_returned_flow(response),
            countermeasures={
                "pkce": request.params.code_challenge is not None,
                "nonce": request.params.nonce is not None,
                "at_hash": (response is not None
                            and response.params.at_hash is not None),
            },
            request_ref=request.entry_ref,
            response_ref=response.entry_ref if response else None,
            response_channel=response.channel if response else None,
        ))

    findings.extend(check_secret_leakage(view1, requests, idp))
    findings.extend(check_transport(view1, requests, idp))
    findings.sort(key=lambda f: (f.rule_id, f.evidence[0].entry_index,
                                 f.evidence[0].spar_path))
    return SecurityAnalysis(domain=run1.metadata.domain, idp=idp, logins=rows,
                            findings=findings)
