"""Privacy leak detection on visit traces.

Two leak kinds matter for profiling by identity providers:

* LAL, login attempt leak: the mere possibility of logging in leaks the
  visited website to the provider because the login widget or probe talks
  to the provider's servers before the user does anything.
* TEL, token exchange leak: tokens for an already-consenting user flow to
  the website (query, fragment, or in-browser message) on a plain visit,
  telling the provider about every return visit.

Both detectors read a visit's decoded view (``classify.decode_trace``) and
its logins (``classify.find_logins``, found once per visit): LAL the login
requests, TEL their matched responses.  Both refuse login-run traces: a
deliberate login is consent, not leakage.  Findings carry the capture
profile so aggregation can split consent-given from no-consent visits.
"""

from __future__ import annotations

from typing import NamedTuple

from . import classify
from .classify import (
    DecodedTrace, IdpRegistry, Login, SsoMessage, default_registry,
)
from .exceptions import ProfileMismatch
from .trace import PROFILE_LOGIN_RUN, Trace

LEAK_LAL = "LAL"
LEAK_TEL = "TEL"

ANNOTATION_NO_REQUEST = "response-without-request"


class PrivacyEvidence(NamedTuple):
    ref_kind: str  # "entry" or "ibc"
    index: int
    detail: str


class PrivacyFinding(NamedTuple):
    kind: str
    idp: str
    domain: str
    profile_kind: str
    evidence: PrivacyEvidence
    annotation: str | None = None

    def to_dict(self) -> dict:
        return {**self._asdict(), "evidence": self.evidence._asdict()}


def _finding(trace: Trace, kind: str, idp: str, evidence: PrivacyEvidence,
             annotation: str | None = None) -> PrivacyFinding:
    """A finding on the visit ``trace``, which gives its domain and profile."""
    return PrivacyFinding(kind, idp, trace.metadata.domain,
                          trace.metadata.profile_kind, evidence, annotation)


def _require_visit_trace(trace: Trace, analysis: str) -> None:
    if trace.metadata.profile_kind == PROFILE_LOGIN_RUN:
        raise ProfileMismatch(
            f"{analysis} applies to visit traces, not login runs")


def detect_lal(view: DecodedTrace, logins: list[Login],
               ) -> list[PrivacyFinding]:
    """One finding per identity provider that received a login request,
    naming its first one: deduplication keeps the first of each (IdP,
    redirect_uri) in order, so that is also the first the trace holds."""
    trace = view.trace
    _require_visit_trace(trace, "login attempt leak detection")
    first: dict[str, SsoMessage] = {}
    for login in logins:
        first.setdefault(login.request.idp, login.request)
    findings = []
    for msg in first.values():
        detail = (trace.entries[msg.entry_ref].request.url
                  if msg.ref_kind == classify.REF_ENTRY
                  else trace.ibc_events[msg.entry_ref].payload)
        findings.append(_finding(trace, LEAK_LAL, msg.idp, PrivacyEvidence(
            msg.ref_kind, msg.entry_ref, detail[:200])))
    return findings


def detect_tel(view: DecodedTrace, logins: list[Login],
               registry: IdpRegistry | None = None) -> list[PrivacyFinding]:
    """One finding per login response that delivered a token on a visit."""
    trace = view.trace
    _require_visit_trace(trace, "token exchange leak detection")
    registry = registry or default_registry()
    findings = []
    matched_refs: set[tuple[str, int]] = set()
    for login in logins:
        response = login.response
        if response is None:
            continue
        matched_refs.add((response.ref_kind, response.entry_ref))
        findings.append(_finding(trace, LEAK_TEL, login.request.idp,
                                 PrivacyEvidence(response.ref_kind,
                                                 response.entry_ref,
                                                 f"token via {response.channel}")))
    # token deliveries with no causally earlier login request: flag them for
    # manual review instead of dropping them
    for index, event in enumerate(trace.ibc_events):
        if (classify.REF_IBC, index) in matched_refs \
                or view.ibc_events[index].token_channel is None:
            continue
        idp = registry.match_origin(event.source_origin) or classify.UNKNOWN_IDP
        findings.append(_finding(
            trace, LEAK_TEL, idp,
            PrivacyEvidence(classify.REF_IBC, index, f"token via {event.kind}"),
            annotation=ANNOTATION_NO_REQUEST))
    return findings


def aggregate_privacy(findings: list[PrivacyFinding]) -> dict:
    """Counts per provider and capture profile, deduplicated.

    Two findings of the same kind for the same (domain, idp, profile) count
    once: a leak either exists for a visit or it does not.
    """
    keys = {(finding.domain, finding.idp, finding.profile_kind, finding.kind)
            for finding in findings}
    rows: dict[str, dict] = {}
    for _, idp, profile, kind in sorted(keys):
        row = rows.setdefault(idp, {
            "idp": idp,
            "no-consent-visit": {LEAK_LAL: 0, LEAK_TEL: 0},
            "consent-given-visit": {LEAK_LAL: 0, LEAK_TEL: 0},
        })
        if profile in row:
            row[profile][kind] += 1

    ordered = [rows[idp] for idp in sorted(rows)]
    totals = {profile: {kind: sum(r[profile][kind] for r in ordered)
                        for kind in (LEAK_LAL, LEAK_TEL)}
              for profile in ("no-consent-visit", "consent-given-visit")}
    return {"rows": ordered, "totals": totals}
