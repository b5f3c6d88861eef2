"""Acceptance gate: end-to-end checks over the released behavior.

Each test prints a single ``[PASS]``/``[FAIL]`` verdict line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and covers one
externally stated requirement of the analyzer.
"""

import functools
import json
import math
import random
import string
import time
from collections import Counter

import pytest

from sso_auditor import (
    classify, cli, landscape, privacy, report, security, spar,
)
from sso_auditor.exceptions import ProfileMismatch
from sso_auditor.synth import (
    BASELINE_DOMAIN, LoginShape, build_big_har, build_har, build_meta,
    har_entry, write_login_unit, write_visit_unit,
)
from sso_auditor.trace import parse_trace_bundle


def criterion(label):
    """Print one verdict line per acceptance criterion, pass or fail."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\n[FAIL] {label}: {type(exc).__name__}: {exc}")
                raise
            print(f"\n[PASS] {label}" + (f": {detail}" if detail else ""))
        return run
    return wrap


def _load_unit(unit_dir):
    def bundle(run_name):
        run_dir = unit_dir / run_name
        if not run_dir.is_dir():
            return None
        ibc_path = run_dir / "ibc.json"
        return parse_trace_bundle(
            (run_dir / "trace.har").read_bytes(),
            (run_dir / "meta.json").read_bytes(),
            ibc_path.read_bytes() if ibc_path.is_file() else None)

    return bundle("run1"), bundle("run2")


# ---------------------------------------------------------------------------
# 1. every rule fires exactly on its trigger fixture

@criterion("1/9 rule one-hot matrix")
def test_rule_one_hot_matrix(fixture_pack):
    root, manifest = fixture_pack
    fixtures = manifest["fixtures"]
    assert len(fixtures) >= 12

    started = time.perf_counter()
    fired: dict[str, set[str]] = {}
    problems = []
    for domain, expected_rules in sorted(fixtures.items()):
        run1, run2 = _load_unit(root / domain / manifest["idp"])
        analysis = security.run_all(run1, run2)
        fired[domain] = analysis.rule_ids()
        if fired[domain] != set(expected_rules):
            problems.append(f"{domain}: expected {sorted(expected_rules)}, "
                            f"got {sorted(fired[domain])}")
        if domain == BASELINE_DOMAIN and analysis.vulnerability_count:
            problems.append(f"baseline has {analysis.vulnerability_count} "
                            "vulnerability findings")
    elapsed = time.perf_counter() - started

    # one-hot in both directions: each rule fires on its own fixture only
    for domain, expected_rules in fixtures.items():
        for rule_id in expected_rules:
            extra = [d for d, rules in fired.items()
                     if rule_id in rules and d != domain]
            if extra:
                problems.append(f"{rule_id} also fired on {extra}")

    assert not problems, "; ".join(problems)
    assert elapsed < 5.0, f"matrix took {elapsed:.2f}s"
    triggers = sum(1 for rules in fixtures.values() if rules)
    return f"{triggers} trigger fixtures + baseline, {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. recursive parameter decoding round-trips generated structures

_LEAF_CHARS = string.ascii_lowercase + string.digits


def _gen_leaf(rng):
    length = rng.randint(3, 9)
    body = "".join(rng.choice(_LEAF_CHARS) for _ in range(length))
    value = body + "!"  # "!" keeps the value inert
    return value, Counter([value]), True


def _gen_key(rng, taken):
    while True:
        key = "".join(rng.choice(string.ascii_lowercase)
                      for _ in range(rng.randint(1, 3)))
        if key not in taken:
            taken.add(key)
            return key


def _gen_structure(rng, depth):
    """Returns (encoded value, expected leaf multiset, stays-a-leaf flag)."""
    if depth == 0 or rng.random() < 0.25:
        return _gen_leaf(rng)
    kind = rng.choice(("form", "json-object", "json-array", "jwt", "url",
                       "base64", "base64url", "percent"))
    children = [_gen_structure(rng, depth - 1)
                for _ in range(rng.randint(1, 3))]
    expected = sum((leaves for _, leaves, _ in children), Counter())
    taken: set[str] = set()

    if kind == "form":
        encoded = spar.encode_form([(_gen_key(rng, taken), value)
                                    for value, _, _ in children])
    elif kind == "json-object":
        encoded = spar.encode_json({_gen_key(rng, taken): value
                                    for value, _, _ in children})
    elif kind == "json-array":
        encoded = spar.encode_json([value for value, _, _ in children])
    elif kind == "jwt":
        payload = {_gen_key(rng, taken): value for value, _, _ in children}
        encoded = spar.encode_jwt({"alg": "RS256"}, payload)
        expected += Counter({"RS256": 1, "c2ln": 1})
    elif kind == "url":
        host = rng.choice(("app.example", "idp.example"))
        encoded = spar.encode_url(host, "/cb",
                                  [(_gen_key(rng, taken), value)
                                   for value, _, _ in children])
        expected += Counter({"https": 1, host: 1, "/cb": 1})
    elif kind in ("base64", "base64url"):
        encoder = spar.encode_base64 if kind == "base64" else \
            spar.encode_base64url
        encoded = encoder(children[0][0])
        expected = children[0][1]
    else:  # percent
        child_value, expected, child_leaf = children[0]
        encoded = spar.encode_percent(child_value)
        if encoded == child_value:
            # nothing needed quoting, the wrap is a no-op
            return child_value, expected, child_leaf
        if child_leaf:
            # escaped plain text is still plain text, not structure
            return encoded, Counter([encoded]), True
    return encoded, expected, False


@criterion("2/9 recursive parameter round-trip")
def test_spar_roundtrip_and_budgets():
    rng = random.Random(42)
    mismatches = 0
    for index in range(1000):
        encoded, expected, _ = _gen_structure(rng, depth=5)
        tree = spar.decode(encoded, max_depth=32, max_nodes=10_000)
        got = Counter(value for _, value in spar.leaves(tree))
        if got != expected:
            mismatches += 1
            if mismatches == 1:
                first = (index, encoded[:80])
    assert mismatches == 0, f"{mismatches} mismatches, first at {first}"

    hostile = "x!"
    for _ in range(50):
        hostile = spar.encode_percent(hostile)
    tree = spar.decode(hostile)  # default budgets, must not raise
    nodes = [node for _, node in spar.walk(tree)]
    assert max(node.depth for node in nodes) <= spar.DEFAULT_MAX_DEPTH
    assert len(nodes) <= spar.DEFAULT_MAX_NODES
    return "1000 structures exact, 50-level input capped silently"


# ---------------------------------------------------------------------------
# 3. entropy estimates match the closed-form oracle

_CLASS_SPECS = {
    # class -> (alphabet, size, char that pins the class)
    "digits": (string.digits, 10, "7"),
    "hex": ("0123456789abcdef", 16, "f"),
    "alphanumeric": (string.ascii_letters + string.digits, 62, "z"),
    "base64url": (string.ascii_letters + string.digits + "-_", 64, "_"),
    "printable": (string.ascii_letters + string.digits + " !@#$^*()", 94,
                  "!"),
}


def _class_sample(rng, name):
    alphabet, size, pin = _CLASS_SPECS[name]
    length = rng.randint(5, 40)
    if length % 4 == 0:
        length += 1  # dodge the base64 decoding attempt
    chars = [rng.choice(alphabet) for _ in range(length)]
    chars[rng.randrange(length)] = pin
    value = "".join(chars)
    return value, len(value) * math.log2(size)


@criterion("3/9 entropy oracle")
def test_entropy_oracle():
    rng = random.Random(7)
    names = sorted(_CLASS_SPECS)
    for _ in range(500):
        name = rng.choice(names)
        value, expected_bits = _class_sample(rng, name)
        estimate = security.estimate_entropy(spar.decode(value))
        assert estimate.bits == expected_bits, \
            f"{name} sample {value!r}: {estimate.bits} != {expected_bits}"
        paired = security.estimate_entropy(spar.decode(value), value)
        assert paired.bits == 0.0
        assert paired.basis == security.BASIS_STATIC

    state = "83749274"
    bits = security.estimate_entropy(spar.decode(state)).bits
    assert abs(bits - 26.58) < 0.01
    params = {"client_id": "c", "redirect_uri": "https://a.example/cb",
              "state": state}
    login = classify.Login(request=classify.SsoMessage(
        entry_ref=0, ref_kind=classify.REF_ENTRY,
        channel=classify.CHANNEL_QUERY, idp="Google",
        params=classify.SsoParams(**params),
        locations={name: classify.ParamLocation(
            classify.CHANNEL_QUERY, (name,), spar.decode(value))
            for name, value in params.items()}))
    findings = security.check_csrf(login, security.RuleConfig())
    assert [f.rule_id for f in findings] == ["csrf.weak"]
    return f"500 samples exact, 8-digit state {bits:.2f} bits flagged"


# ---------------------------------------------------------------------------
# 4. flow classification truth table

def _flow_oracle(kinds: frozenset) -> str:
    if not kinds:
        return "unknown"
    if kinds == {"code"}:
        return "code"
    if "code" in kinds:
        return "hybrid"
    return "implicit"


@criterion("4/9 flow classification matrix")
def test_flow_classification_matrix():
    kinds = ("code", "token", "id_token")
    checked = 0
    for mask in range(8):
        subset = frozenset(k for i, k in enumerate(kinds) if mask >> i & 1)
        expected = _flow_oracle(subset)
        orderings = ([" ".join(subset)] if subset else [""])
        orderings.append(" ".join(sorted(subset, reverse=True)))
        for response_type in orderings:
            got = classify.classify_requested_flow(response_type or None)
            assert got == expected, \
                f"{response_type!r}: {got} != {expected}"
            checked += 1
    assert classify.classify_requested_flow(None) == "unknown"
    return f"all 8 subsets plus missing response_type, {checked} calls"


# ---------------------------------------------------------------------------
# 5. search query templates are frozen byte for byte

@criterion("5/9 search query fidelity")
def test_search_query_fidelity():
    expected = [
        "reddit.com login site:reddit.com",
        "reddit login site:reddit.com",
        "log in reddit site:*.reddit.com",
        "reddit login signin signup register account site:reddit.com",
        'site:reddit.com (intitle:"login" OR intitle:"log in" OR '
        'intitle:"signin" OR intitle:"sign in")',
    ]
    got = landscape.build_search_queries("reddit.com")
    assert got == expected
    assert all(isinstance(q, str) for q in got)
    return "5 query strings byte-exact"


# ---------------------------------------------------------------------------
# 6. report diffs agree with a set-difference oracle

_PROTOCOLS = {"oauth2": "OAuth 2.0", "oidc": "OIDC"}
_FLOWS = ("code", "hybrid", "implicit", "unknown")


def _random_report(rng, domains, idps):
    """A stored ``analyze`` report of random units, and per unit key its
    rule ids and login rows."""
    fragments, units = [], {}
    for domain in domains:
        for idp in idps:
            if rng.random() < 0.5:
                continue
            rule_ids = {rule for rule in sorted(security.RULES)[:4]
                        if rng.random() < 0.3}
            logins = [{"idp": idp, "protocol": rng.choice(sorted(_PROTOCOLS)),
                       "requested_flow": rng.choice(_FLOWS)}
                      for _ in range(rng.randrange(3))]
            fragments.append({"domain": domain, "idp": idp, "logins": logins,
                              "findings": [{"rule_id": rule}
                                           for rule in sorted(rule_ids)]})
            units[f"{domain}/{idp}"] = (rule_ids, logins)
    config = {"entropy_threshold_bits": rng.choice((64.0, 96.0)),
              "idp_registry": "built-in"}
    return {"config": config, "security": fragments}, units


def _landscape_cells(units, idp):
    """The landscape row of ``idp`` (``None``: the total) as a Counter."""
    rows = [(unit.split("/")[0], login)
            for unit, (_, logins) in units.items() for login in logins
            if idp in (None, login["idp"])]
    cells = Counter({"Websites": len({domain for domain, _ in rows}),
                     "Logins": len(rows)})
    cells.update(_PROTOCOLS[login["protocol"]] for _, login in rows)
    cells.update(login["requested_flow"] for _, login in rows)
    return cells


def _swapped(diff):
    return {
        "units_added": diff["units_removed"],
        "units_removed": diff["units_added"],
        "rules": [{"unit": row["unit"], "gained": row["lost"],
                   "lost": row["gained"]} for row in diff["rules"]],
        "logins": [{"unit": row["unit"], "old": row["new"], "new": row["old"]}
                   for row in diff["logins"]],
        "landscape": {label: {header: -delta for header, delta in cells.items()}
                      for label, cells in diff["landscape"].items()},
        "config": {key: {"old": change["new"], "new": change["old"]}
                   for key, change in diff["config"].items()},
    }


@criterion("6/9 report diff oracle")
def test_diff_matches_set_oracle():
    rng = random.Random(11)
    domains = [f"site{i:03d}.example" for i in range(200)]
    idps = ("Apple", "Facebook", "Google")
    headers = ["Websites", "Logins", *_PROTOCOLS.values(), *_FLOWS]
    changed = Counter()
    for _ in range(20):
        old, before = _random_report(rng, domains, idps)
        new, after = _random_report(rng, domains, idps)
        diff = report.diff_reports(old, new)
        common = sorted(before.keys() & after.keys())
        assert diff["units_added"] == sorted(after.keys() - before.keys())
        assert diff["units_removed"] == sorted(before.keys() - after.keys())
        assert diff["rules"] == [
            {"unit": unit, "gained": sorted(after[unit][0] - before[unit][0]),
             "lost": sorted(before[unit][0] - after[unit][0])}
            for unit in common if before[unit][0] != after[unit][0]]
        assert diff["logins"] == [
            {"unit": unit, "old": before[unit][1], "new": after[unit][1]}
            for unit in common if before[unit][1] != after[unit][1]]
        landscape = {}
        for label, idp in [(idp, idp) for idp in idps] + [("Total", None)]:
            delta = _landscape_cells(after, idp)
            delta.subtract(_landscape_cells(before, idp))
            if any(delta.values()):
                landscape[label] = {header: delta[header] for header in headers}
        assert diff["landscape"] == landscape
        old_bits, new_bits = (doc["config"]["entropy_threshold_bits"]
                              for doc in (old, new))
        assert diff["config"] == ({} if old_bits == new_bits else {
            "entropy_threshold_bits": {"old": old_bits, "new": new_bits}})

        assert report.diff_reports(new, old) == _swapped(diff)
        assert not any(report.diff_reports(old, old).values())
        changed.update(section for section, value in diff.items() if value)
    # every section was exercised
    assert set(changed) == set(diff)
    return "20 random report pairs over 200 domains x 3 IdPs"


# ---------------------------------------------------------------------------
# 7. privacy findings respect the capture profile

@criterion("7/9 privacy profile gating")
def test_privacy_profile_gating(tmp_path):
    unit = tmp_path / "news.example" / "google"
    write_visit_unit(unit, "news.example", seed=21)

    def bundle(name):
        d = unit / name
        ibc_path = d / "ibc.json"
        return classify.decode_trace(parse_trace_bundle(
            (d / "trace.har").read_bytes(), (d / "meta.json").read_bytes(),
            ibc_path.read_bytes() if ibc_path.is_file() else None))

    noconsent = bundle("noconsent")
    logins = classify.find_logins(noconsent)
    lal = privacy.detect_lal(noconsent, logins)
    tel = privacy.detect_tel(noconsent, logins)
    assert [f.kind for f in lal] == ["LAL"]
    assert tel == [], "TEL must stay silent without consent"

    consent = bundle("consent")
    logins = classify.find_logins(consent)
    assert [f.kind for f in privacy.detect_lal(consent, logins)] == ["LAL"]
    assert [f.kind for f in privacy.detect_tel(consent, logins)] == ["TEL"]

    login_har = json.dumps(build_har([har_entry("https://a.example/")]))
    login_meta = json.dumps(build_meta("a.example"))  # login-run profile
    login_trace = classify.decode_trace(
        parse_trace_bundle(login_har.encode(), login_meta.encode()))
    logins = classify.find_logins(login_trace)
    with pytest.raises(ProfileMismatch):
        privacy.detect_lal(login_trace, logins)
    with pytest.raises(ProfileMismatch):
        privacy.detect_tel(login_trace, logins)
    return "LAL-only without consent, LAL+TEL with consent, login runs refused"


# ---------------------------------------------------------------------------
# 8. reports are deterministic and exit codes follow findings

@criterion("8/9 deterministic reports and exit codes")
def test_determinism_and_exit_codes(fixture_pack, tmp_path):
    root, _ = fixture_pack
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli.main(["analyze", str(root), "--out", str(out1)])
    code2 = cli.main(["analyze", str(root), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()

    doc = json.loads(out1.read_text())
    vulns = sum(frag["vulnerabilities"] for frag in doc["security"])
    assert vulns > 0 and code1 == code2 == 2

    clean_root = tmp_path / "clean"
    write_login_unit(clean_root / BASELINE_DOMAIN / "google",
                     BASELINE_DOMAIN, LoginShape(), seed=7)
    clean_out = tmp_path / "clean.json"
    clean_code = cli.main(["analyze", str(clean_root),
                           "--out", str(clean_out)])
    clean_doc = json.loads(clean_out.read_text())
    assert sum(f["vulnerabilities"] for f in clean_doc["security"]) == 0
    assert clean_code == 0
    return f"byte-identical reports, exit 2 with {vulns} vulns, exit 0 clean"


# ---------------------------------------------------------------------------
# 9. a large capture stays fast

@criterion("9/9 throughput on a 10 MiB capture")
def test_throughput_big_har():
    har_bytes, meta_bytes = build_big_har()
    assert len(har_bytes) >= 10 * 1024 * 1024
    started = time.perf_counter()
    trace = parse_trace_bundle(har_bytes, meta_bytes)
    assert len(trace.entries) == 1000
    analysis = security.run_all(trace)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"parse+analyze took {elapsed:.2f}s"
    assert analysis.logins, "the capture's login must still be detected"
    return (f"{len(har_bytes) / 1024 / 1024:.1f} MiB, 1000 entries "
            f"in {elapsed:.2f}s")
