"""Seeded benchmark corpora and the ground truth the generator knows.

Every corpus is written with the public builders of ``sso_auditor.synth``
(``synth_login_entries``, ``synth_visit_entries``, ``har_entry``,
``build_har``, ``build_meta``, ``write_bundle``) plus the noise traffic
defined here.  The same ``(workload, seed)`` always yields the same bytes.

The ground truth is derived from what the generator put into each bundle,
never from the analyzer: expected rule ids come from the login shape that
was drawn, flows and protocol from the shape's knobs, and the response
entry index from the generator's own ordering of the entries it wrote.

Regenerate a corpus by hand with::

    PYTHONPATH=src python3 perfbench/corpus.py --workload analyze-query \
        --seed 1 /tmp/corpus
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

from sso_auditor import spar, synth
from sso_auditor.trace import PROFILE_CONSENT_VISIT, PROFILE_NO_CONSENT_VISIT

WORKLOADS = ("analyze-query", "analyze-crawl", "privacy-visits")

# analyze-query: seeded login units plus cross-IdP units built from a fixed
# seed, so the share of operations that hit the known flow.mixup fault is the
# same in every corpus
QUERY_UNITS = 44
QUERY_CROSS_IDP_UNITS = 4
# beacon kinds per trace; the counts are exact, the order is seeded.  The mix
# and the sizes below are chosen to make decoding the bulk of the work, not
# measured from a crawl: no crawl data is in the repository.
QUERY_BEACON_MIX = (("analytics", 9), ("pixel", 6), ("sync", 5),
                    ("batch", 5), ("decoy", 4), ("deep", 1))
CROSS_IDP_SEED = 424242

CRAWL_UNITS = 240
# body sizes in KB per unit, cycling by unit index so that every seed has the
# same size mix in the same directory order: document, app script, style
# sheet, vendor script
CRAWL_BODY_KB = ((1, 3, 12, 40, 120, 300), (8, 24, 48, 96), (2, 6, 12, 24),
                 (4, 16, 64))

VISIT_DOMAINS = 60
VISIT_BEACON_MIX = (("analytics", 3), ("pixel", 2), ("sync", 2),
                    ("batch", 2), ("decoy", 1))

# events per repeated-key beacon, in the order the batch beacons of a trace
# are drawn; fixed so that decoding work does not vary with the seed
BATCH_SIZES = (8, 14, 20, 26, 32)

# rule ids whose findings are vulnerabilities (exit code 2); the others are
# potential issues.  Taken from the rule definitions in the standards cited
# by the README, kept here so the expected exit code does not come from the
# analyzer's own catalog.
VULNERABILITY_RULES = frozenset({
    "csrf.missing", "csrf.weak", "secret.client-secret-fc",
    "secret.referer-leak", "tls.plain-redirect-uri", "idtoken.symmetric-alg",
    "idtoken.alg-none",
})

BASELINE = "baseline"
FLOW_TOKENS = frozenset({"code", "token", "id_token"})


@dataclass
class UnitTruth:
    """Expected analyze output for one (domain, idp) login unit."""
    domain: str
    rules: list[str]
    protocol: str
    requested_flow: str
    returned_flow: str
    response_ref: int | None
    entry_count: int
    cross_idp: bool = False
    logins: int = 1


@dataclass
class VisitTruth:
    """Expected privacy findings for one visit bundle."""
    domain: str
    profile_kind: str
    lal: int
    tel: int
    entry_count: int
    ibc_count: int


@dataclass
class Corpus:
    workload: str
    seed: int
    root: Path
    units: list[UnitTruth] = field(default_factory=list)
    visits: list[VisitTruth] = field(default_factory=list)
    entries: int = 0
    ibc_events: int = 0
    bundles: int = 0
    bytes: int = 0

    @property
    def subcommand(self) -> str:
        return "privacy" if self.workload == "privacy-visits" else "analyze"

    @property
    def operations(self) -> int:
        return len(self.visits) if self.visits else len(self.units)

    @property
    def expected_exit(self) -> int:
        if any(set(u.rules) & VULNERABILITY_RULES for u in self.units):
            return 2
        return 0


# ---------------------------------------------------------------------------
# small helpers

_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_WORDS = ("home", "pricing", "docs", "blog", "signin", "account", "cart",
          "search", "news", "help", "about", "careers", "deals", "feed")


def _stamp(offset_ms: int) -> str:
    seconds, millis = divmod(offset_ms, 1000)
    minutes, seconds = divmod(seconds, 60)
    return f"2026-01-17T12:{minutes:02d}:{seconds:02d}.{millis:03d}Z"


def _noise_offset(rng: random.Random, low_ms: int, high_ms: int) -> int:
    # never on a whole second: the login entries sit on whole seconds
    while True:
        offset = rng.randrange(low_ms, high_ms)
        if offset % 1000:
            return offset


def _word(rng: random.Random) -> str:
    return rng.choice(_WORDS)


def _slug(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_ALNUM) for _ in range(length))


def _browser_headers(rng: random.Random, referer: str | None,
                     dest: str) -> list[tuple[str, str]]:
    major = rng.randrange(118, 126)
    headers = [
        ("User-Agent", f"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
                       f"(KHTML, like Gecko) Chrome/{major}.0.0.0 Safari/537.36"),
        ("Accept", "text/html,application/xhtml+xml,application/xml;q=0.9,"
                   "image/avif,image/webp,*/*;q=0.8"),
        ("Accept-Language", rng.choice(("en-US,en;q=0.9", "de-DE,de;q=0.8",
                                        "fr-FR,fr;q=0.9,en;q=0.5"))),
        ("Accept-Encoding", "gzip, deflate, br"),
        ("sec-ch-ua", f'"Chromium";v="{major}", "Not(A:Brand";v="24"'),
        ("sec-ch-ua-mobile", "?0"),
        ("sec-ch-ua-platform", '"Linux"'),
        ("Sec-Fetch-Dest", dest),
        ("Sec-Fetch-Mode", "navigate" if dest == "document" else "no-cors"),
        ("Sec-Fetch-Site", "cross-site"),
        ("Cookie", f"_ga=GA1.2.{synth.rand_digits(rng, 10)}."
                   f"{synth.rand_digits(rng, 10)}; sid={synth.rand_hex(rng, 32)}; "
                   f"consent=v2-{synth.rand_hex(rng, 12)}"),
    ]
    if referer:
        headers.append(("Referer", referer))
    return headers


def _add_response_headers(entry: dict, mime: str, rng: random.Random) -> dict:
    entry["response"]["headers"].extend([
        {"name": "Content-Type", "value": mime},
        {"name": "Content-Length",
         "value": str(len(entry["response"]["content"]["text"]))},
        {"name": "Cache-Control", "value": rng.choice(
            ("no-store", "max-age=3600", "public, max-age=31536000"))},
        {"name": "Date", "value": "Sat, 17 Jan 2026 12:00:01 GMT"},
        {"name": "Server", "value": rng.choice(("nginx", "cloudflare", "envoy"))},
        {"name": "ETag", "value": f'"{synth.rand_hex(rng, 16)}"'},
        {"name": "Strict-Transport-Security", "value": "max-age=63072000"},
        {"name": "X-Content-Type-Options", "value": "nosniff"},
    ])
    return entry


def _ordered(entries: list[dict]) -> list[dict]:
    # the HAR reader orders entries by start time and keeps file order on
    # ties; the fixed timestamp format makes string order time order
    return sorted(entries, key=lambda e: e["startedDateTime"])


def _index_of(entries: list[dict], wanted: dict | None) -> int | None:
    if wanted is None:
        return None
    for index, entry in enumerate(entries):
        if entry is wanted:
            return index
    raise AssertionError("response entry missing from its trace")


# ---------------------------------------------------------------------------
# third-party beacons: nested URLs, percent-encoded and base64 JSON, JWT-like
# values, repeated keys, and client_id decoys without a redirect_uri.  No key
# at any depth is a token or secret parameter name, so beacons alone trip no
# rule and create no login request.

def _beacon_url(rng: random.Random, kind: str, domain: str,
                batch_size: int) -> str:
    vendor = _slug(rng, 6)
    page = (f"https://{domain}/{_word(rng)}?utm_source={_word(rng)}"
            f"&utm_campaign={_slug(rng, 8)}")
    if kind == "analytics":
        payload = {"items": [{"sku": _slug(rng, 8), "qty": rng.randrange(1, 9)}
                             for _ in range(2)],
                   "page": page, "value": rng.randrange(100, 99999)}
        pairs = [("v", "2"), ("tid", f"G-{_slug(rng, 10).upper()}"),
                 ("cid", f"{synth.rand_digits(rng, 10)}."
                         f"{synth.rand_digits(rng, 10)}"),
                 ("dl", page),
                 ("dr", f"https://search.example/q?s={_word(rng)}"
                        f"&p={rng.randrange(1, 9)}"),
                 ("en", rng.choice(("page_view", "scroll", "view_item"))),
                 ("ep", spar.encode_base64(spar.encode_json(payload)))]
        return f"https://collect.{vendor}.example/g/collect?" \
            + spar.encode_form(pairs)
    if kind == "pixel":
        sid = synth.make_id_token("RS256", {
            "sub": synth.rand_hex(rng, 16), "sid": _slug(rng, 12),
            "iat": 1768651200 + rng.randrange(0, 9999)})
        user = {"em": synth.rand_hex(rng, 64), "ct": _word(rng),
                "fbp": f"fb.1.{synth.rand_digits(rng, 13)}"}
        custom = {"content_ids": [_slug(rng, 6) for _ in range(3)],
                  "source_url": page}
        pairs = [("id", synth.rand_digits(rng, 15)), ("ev", "PageView"),
                 ("sid", sid), ("ud", spar.encode_base64url(spar.encode_json(user))),
                 ("cd", spar.encode_json(custom))]
        return f"https://px.{vendor}.example/tr?" + spar.encode_form(pairs)
    if kind == "sync":
        inner = spar.encode_url(f"match.{_slug(rng, 5)}.example", "/px",
                                [("uid", synth.rand_hex(rng, 20)),
                                 ("gdpr", "0")])
        middle = spar.encode_url(f"sync.{_slug(rng, 5)}.example", "/redir",
                                 [("r", inner), ("pid", synth.rand_digits(rng, 6))])
        pairs = [("redirect", middle), ("pid", synth.rand_digits(rng, 5)),
                 ("ts", synth.rand_digits(rng, 13))]
        return f"https://ads.{vendor}.example/usersync?" + spar.encode_form(pairs)
    if kind == "batch":
        pairs = [("e", spar.encode_json({"t": rng.choice(("click", "view", "hover")),
                                          "ts": 1768651200000 + rng.randrange(99999),
                                          "el": f"#{_slug(rng, 6)}"}))
                 for _ in range(batch_size)]
        pairs.append(("sdk", "js-3.1"))
        return f"https://events.{vendor}.example/batch?" + spar.encode_form(pairs)
    if kind == "decoy":
        config = {"theme": "outline", "origin": f"https://{domain}",
                  "locale": "en_US"}
        pairs = [("client_id", f"{synth.rand_digits(rng, 12)}-widget.apps.example"),
                 ("origin", f"https://{domain}"), ("sdk", "joey"),
                 ("cfg", spar.encode_base64(spar.encode_json(config)))]
        return f"https://widgets.{vendor}.example/embed?" + spar.encode_form(pairs)
    if kind == "deep":
        # base64 JSON wrapped in itself until it is deeper than the SPAR
        # depth limit, as consent strings and tag containers sometimes are
        value = synth.rand_hex(rng, 17)
        for _ in range(4):
            value = spar.encode_base64(spar.encode_json({"d": value}))
        return f"https://tags.{vendor}.example/c?" + spar.encode_form(
            [("cfg", value), ("v", synth.rand_digits(rng, 4))])
    raise ValueError(f"unknown beacon kind: {kind}")


def beacons(rng: random.Random, domain: str,
            mix: tuple[tuple[str, int], ...]) -> list[dict]:
    kinds = [kind for kind, count in mix for _ in range(count)]
    rng.shuffle(kinds)
    out = []
    batches = 0
    for kind in kinds:
        referer = (f"https://{domain}/login?ref={_word(rng)}"
                   f"&utm_medium={_slug(rng, 5)}")
        batch_size = BATCH_SIZES[batches % len(BATCH_SIZES)]
        batches += kind == "batch"
        entry = synth.har_entry(
            _beacon_url(rng, kind, domain, batch_size),
            started_at=_stamp(_noise_offset(rng, 50, 3950)),
            request_headers=_browser_headers(rng, referer, "image"),
            status=rng.choice((200, 204)), body_text="", body_mime="image/gif")
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# login units (analyze)

def login_shape(rule_id: str, domain: str) -> synth.LoginShape:
    """The shape that trips ``rule_id`` alone (or nothing, for the baseline).

    Two trigger shapes need the domain in their redirect_uri; they are
    filled in the same way as ``synth.build_fixture_pack`` does.
    """
    if rule_id == BASELINE:
        return synth.LoginShape()
    if rule_id == "redirect.nested-url":
        return synth.LoginShape(redirect_uri=f"https://{domain}/cb"
                                "?next=https%3A%2F%2Fevil.example%2F")
    if rule_id == "tls.plain-redirect-uri":
        return synth.LoginShape(delivery="none",
                                redirect_uri=f"http://{domain}/cb")
    return synth.TRIGGER_SHAPES[rule_id]


def _expected_login(shape: synth.LoginShape) -> tuple[str, str, str]:
    """(protocol, requested flow, returned flow) implied by a shape."""
    requested_tokens = set(shape.response_type.split())
    if not requested_tokens or not requested_tokens <= FLOW_TOKENS:
        requested = "unknown"
    elif requested_tokens == {"code"}:
        requested = "code"
    elif "code" in requested_tokens:
        requested = "hybrid"
    else:
        requested = "implicit"

    delivered = shape.delivery != "none"
    has_code = delivered and "code" in requested_tokens
    has_token = delivered and ("token" in requested_tokens
                               or shape.include_access_token
                               or shape.id_token is not None)
    if has_code and has_token:
        returned = "hybrid"
    elif has_code:
        returned = "code"
    elif has_token:
        returned = "implicit"
    else:
        returned = "unknown"

    oidc = ("openid" in shape.scope.split() or "id_token" in requested_tokens
            or (delivered and shape.id_token is not None))
    return ("oidc" if oidc else "oauth2"), requested, returned


def _login_trace(rng: random.Random, domain: str, shape: synth.LoginShape,
                 noise: list[dict]) -> tuple[list[dict], int | None]:
    login = synth.synth_login_entries(rng, domain, shape)
    response = login[2] if shape.delivery != "none" else None
    entries = _ordered(login + noise)
    return entries, _index_of(entries, response)


def _write_login_unit(corpus: Corpus, unit_dir: Path, domain: str,
                      rule_id: str, rng: random.Random, noise_fn,
                      cross_idp: bool = False) -> None:
    shape = login_shape(rule_id, domain)
    truth = None
    for run_index in (1, 2):
        noise = noise_fn(rng, domain)
        if cross_idp:
            noise.append(_graph_code_entry(rng))
        entries, response_ref = _login_trace(rng, domain, shape, noise)
        har = synth.build_har(entries)
        meta = synth.build_meta(domain, run_index=run_index)
        synth.write_bundle(unit_dir / f"run{run_index}", har, meta)
        corpus.entries += len(entries)
        corpus.bundles += 1
        if run_index == 1:
            protocol, requested, returned = _expected_login(shape)
            truth = UnitTruth(
                domain=domain,
                rules=[] if rule_id == BASELINE else [rule_id],
                protocol=protocol, requested_flow=requested,
                returned_flow=returned, response_ref=response_ref,
                entry_count=len(entries), cross_idp=cross_idp)
    corpus.units.append(truth)


def _graph_code_entry(rng: random.Random) -> dict:
    # a Facebook Graph API call of another site feature; its JSON carries a
    # top-level "code" that belongs to Facebook, not to the Google login
    entry = synth.har_entry(
        f"https://graph.facebook.com/v19.0/{synth.rand_digits(rng, 15)}/activities",
        method="POST", started_at=_stamp(_noise_offset(rng, 2100, 2900)),
        request_headers=_browser_headers(rng, None, "empty"),
        post_mime="application/json",
        post_text=spar.encode_json({"event": "CUSTOM_APP_EVENTS"}),
        body_text=spar.encode_json({"code": 0, "message": "accepted"}),
        body_mime="application/json")
    return entry


def _rule_choices() -> list[str]:
    return [BASELINE] + sorted(synth.TRIGGER_SHAPES)


def build_analyze_query(corpus: Corpus) -> None:
    choices = _rule_choices()
    rng = random.Random(f"analyze-query/{corpus.seed}")

    def noise(r, domain):
        return beacons(r, domain, QUERY_BEACON_MIX)

    for index in range(QUERY_UNITS - QUERY_CROSS_IDP_UNITS):
        domain = f"q{index:03d}-{_slug(rng, 5)}.example"
        rule_id = choices[index % len(choices)] if index < len(choices) \
            else rng.choice(choices)
        unit_rng = random.Random(f"{corpus.seed}/{domain}")
        _write_login_unit(corpus, corpus.root / domain / synth.IDP_NAME,
                          domain, rule_id, unit_rng, noise)
    # inputs independent of the seed: the known fault fails on exactly
    # these units in every corpus
    for index in range(QUERY_CROSS_IDP_UNITS):
        domain = f"xidp-{index}.example"
        unit_rng = random.Random(CROSS_IDP_SEED + index)
        _write_login_unit(corpus, corpus.root / domain / synth.IDP_NAME,
                          domain, BASELINE, unit_rng, noise, cross_idp=True)


# ---------------------------------------------------------------------------
# crawl units: query-less page loads with realistic headers and bodies

_TEXT_POOL_CHARS = 512 * 1024


def _text_pool(rng: random.Random) -> str:
    words = ["<div class=\"c-%s\">" % _slug(rng, 4) for _ in range(64)] + \
        ["</div>", "<p>", "</p>", "var", "function", "return", "const",
         "{", "}", ";"] + [_slug(rng, rng.randrange(3, 10)) for _ in range(200)]
    parts, size = [], 0
    while size < _TEXT_POOL_CHARS:
        word = rng.choice(words)
        parts.append(word)
        size += len(word) + 1
    return " ".join(parts)


def _page_entries(rng: random.Random, domain: str, pool: str,
                  index: int) -> list[dict]:
    def body(kb):
        size = kb * 1024
        start = rng.randrange(0, len(pool) - size)
        return pool[start:start + size]

    doc_kb, app_kb, css_kb, vendor_kb = (sizes[index % len(sizes)]
                                         for sizes in CRAWL_BODY_KB)
    page = f"https://{domain}/"
    specs = [
        (page, "document", "text/html", body(doc_kb)),
        (f"https://static.{domain}/app.{synth.rand_hex(rng, 8)}.js", "script",
         "application/javascript", body(app_kb)),
        (f"https://static.{domain}/style.{synth.rand_hex(rng, 8)}.css", "style",
         "text/css", body(css_kb)),
        (f"https://cdn.{_slug(rng, 6)}.example/lib/vendor.{synth.rand_hex(rng, 8)}.js",
         "script", "application/javascript", body(vendor_kb)),
        (f"https://{domain}/api/session", "empty", "application/json",
         spar.encode_json({"user": None, "csrf": synth.rand_hex(rng, 32),
                           "features": [_word(rng) for _ in range(6)]})),
        (f"https://img.{domain}/hero-{rng.randrange(1, 99)}.webp", "image",
         "image/webp", ""),
        (f"https://fonts.{_slug(rng, 5)}.example/inter-{rng.randrange(100, 900)}"
         ".woff2", "font", "font/woff2", ""),
        (f"https://{domain}/manifest.json", "manifest", "application/json",
         spar.encode_json({"name": domain, "icons": [f"/i{n}.png" for n in range(4)]})),
    ]
    out = []
    for url, dest, mime, text in specs:
        entry = synth.har_entry(
            url, started_at=_stamp(_noise_offset(rng, 20, 980)),
            request_headers=_browser_headers(
                rng, None if dest == "document" else page, dest),
            body_text=text, body_mime=mime)
        out.append(_add_response_headers(entry, mime, rng))
    return out


def build_analyze_crawl(corpus: Corpus) -> None:
    choices = _rule_choices()
    rng = random.Random(f"analyze-crawl/{corpus.seed}")
    pool = _text_pool(rng)
    for index in range(CRAWL_UNITS):
        domain = f"c{index:03d}-{_slug(rng, 5)}.example"
        # one unit in four draws a shape (16 of 17 choices are flawed); the
        # share is chosen, not measured: the paper's crawl found missing or
        # weak CSRF protection alone in 784 of 3,020 logins (26%)
        rule_id = rng.choice(choices) if index % 4 == 0 else BASELINE
        unit_rng = random.Random(f"{corpus.seed}/{domain}")

        def noise(r, d, index=index):
            return _page_entries(r, d, pool, index)

        _write_login_unit(corpus, corpus.root / domain / synth.IDP_NAME,
                          domain, rule_id, unit_rng, noise)


# ---------------------------------------------------------------------------
# privacy visits

def _ibc_noise(rng: random.Random, domain: str) -> list[dict]:
    site = f"https://{domain}"
    events = [
        {"kind": "post-message", "source_origin": "https://accounts.google.com",
         "target_origin": site,
         "payload": spar.encode_json({"type": "resize",
                                      "height": rng.randrange(40, 400),
                                      "frame": f"g_id_{_slug(rng, 6)}"})},
        {"kind": "post-message", "source_origin": f"https://tags.{_slug(rng, 5)}.example",
         "target_origin": "*",
         "payload": spar.encode_json({
             "event": "gtm.load",
             "ctx": spar.encode_base64(spar.encode_json(
                 {"page": f"{site}/{_word(rng)}?utm_source={_word(rng)}",
                  "vid": synth.rand_hex(rng, 16)}))})},
        {"kind": "post-message", "source_origin": site,
         "target_origin": f"https://widgets.{_slug(rng, 5)}.example",
         "payload": spar.encode_form([
             ("cmd", "init"),
             ("config", spar.encode_json({"origin": site, "lang": "en"}))])},
        {"kind": "post-message", "source_origin": f"https://cmp.{_slug(rng, 5)}.example",
         "target_origin": site,
         "payload": spar.encode_json({
             "tcf": synth.make_id_token("ES256", {"v": 2,
                                                  "cid": synth.rand_hex(rng, 12)}),
             "gdprApplies": True})},
        {"kind": "fragment-change", "source_origin": site, "target_origin": site,
         "payload": f"section={_word(rng)}&ref={spar.encode_percent(site + '/')}"},
    ]
    for event in events:
        event["at"] = _stamp(_noise_offset(rng, 1100, 3900))
    return events


def build_privacy_visits(corpus: Corpus) -> None:
    rng = random.Random(f"privacy-visits/{corpus.seed}")
    for index in range(VISIT_DOMAINS):
        domain = f"v{index:03d}-{_slug(rng, 5)}.example"
        unit_dir = corpus.root / domain / synth.IDP_NAME
        for dir_name, profile, consented in (
                ("consent", PROFILE_CONSENT_VISIT, True),
                ("noconsent", PROFILE_NO_CONSENT_VISIT, False)):
            visit_rng = random.Random(f"{corpus.seed}/{domain}/{dir_name}")
            entries, ibc = synth.synth_visit_entries(visit_rng, domain,
                                                     consented=consented)
            entries = _ordered(entries + beacons(visit_rng, domain,
                                                 VISIT_BEACON_MIX))
            ibc = sorted(ibc + _ibc_noise(visit_rng, domain),
                         key=lambda ev: ev["at"])
            synth.write_bundle(unit_dir / dir_name, synth.build_har(entries),
                               synth.build_meta(domain, profile_kind=profile),
                               ibc=ibc)
            corpus.entries += len(entries)
            corpus.ibc_events += len(ibc)
            corpus.bundles += 1
            # the widget request leaks the visit (LAL); only a consenting
            # user receives a token by postMessage (TEL)
            corpus.visits.append(VisitTruth(
                domain=domain, profile_kind=profile, lal=1,
                tel=1 if consented else 0, entry_count=len(entries),
                ibc_count=len(ibc)))


_BUILDERS = {
    "analyze-query": build_analyze_query,
    "analyze-crawl": build_analyze_crawl,
    "privacy-visits": build_privacy_visits,
}


def build(workload: str, seed: int, root: Path) -> Corpus:
    """Write the corpus for ``(workload, seed)`` into an empty ``root``."""
    root = Path(root)
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    corpus = Corpus(workload=workload, seed=seed, root=root)
    _BUILDERS[workload](corpus)
    corpus.bytes = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
    return corpus


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("out")
    args = parser.parse_args(argv)
    corpus = build(args.workload, args.seed, Path(args.out))
    print(json.dumps({"workload": corpus.workload, "seed": corpus.seed,
                      "operations": corpus.operations,
                      "bundles": corpus.bundles, "entries": corpus.entries,
                      "ibc_events": corpus.ibc_events, "bytes": corpus.bytes,
                      "expected_exit": corpus.expected_exit}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
