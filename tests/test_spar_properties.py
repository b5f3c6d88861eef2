"""Property tests for the recursive decoder.

Structures are built from the module's own encoders while tracking the leaf
multiset the finished tree must contain.  Every generated leaf contains a
"!", which no codec layer accepts, so it can never be mistaken for another
encoding (without one, a value such as "enp6enp6" is valid base64 of
"zzzzzz").
"""

import json
import re
import string
from collections import Counter
from contextlib import ExitStack
from unittest import mock
from urllib.parse import parse_qsl, unquote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sso_auditor import classify, spar
from sso_auditor.domains import split_url

from conftest import load_bundle

LEAF_ALPHABET = string.ascii_lowercase + string.digits + "!"

# (encoded string, expected leaf multiset, has inner structure)
Structure = tuple[str, Counter, bool]

# 5-11 characters of the alphabet with a "!" inserted at a drawn position
leaf_values = st.tuples(
    st.text(alphabet=LEAF_ALPHABET, min_size=5, max_size=11),
    st.integers(min_value=0, max_value=11),
).map(lambda drawn: drawn[0][:drawn[1]] + "!" + drawn[0][drawn[1]:])
form_keys = st.from_regex(r"[a-z][a-z0-9]{0,2}", fullmatch=True)


def _leaf(value: str) -> Structure:
    return (value, Counter({value: 1}), False)


@st.composite
def wrap_form(draw, children) -> Structure:
    pairs = draw(st.lists(st.tuples(form_keys, children),
                          min_size=1, max_size=3))
    encoded = spar.encode_form([(k, enc) for k, (enc, _, _) in pairs])
    leaves = Counter()
    for _, (_, counter, _) in pairs:
        leaves.update(counter)
    return (encoded, leaves, True)


@st.composite
def wrap_json(draw, children) -> Structure:
    if draw(st.booleans()):
        items = draw(st.lists(children, min_size=1, max_size=3))
        doc = [enc for enc, _, _ in items]
        counters = [counter for _, counter, _ in items]
    else:
        mapping = draw(st.dictionaries(form_keys, children,
                                       min_size=1, max_size=3))
        doc = {key: enc for key, (enc, _, _) in mapping.items()}
        counters = [counter for _, counter, _ in mapping.values()]
    leaves = Counter()
    for counter in counters:
        leaves.update(counter)
    return (spar.encode_json(doc), leaves, True)


@st.composite
def wrap_jwt(draw, children) -> Structure:
    mapping = draw(st.dictionaries(form_keys, children,
                                   min_size=1, max_size=2))
    payload = {key: enc for key, (enc, _, _) in mapping.items()}
    token = spar.encode_jwt({"alg": "RS256"}, payload)
    # the header and signature contribute their own leaves
    leaves = Counter({"RS256": 1, "c2ln": 1})
    for _, counter, _ in mapping.values():
        leaves.update(counter)
    return (token, leaves, True)


@st.composite
def wrap_url(draw, children) -> Structure:
    host = draw(st.sampled_from(["app.example", "idp.example"]))
    pairs = draw(st.lists(st.tuples(form_keys, children),
                          min_size=1, max_size=2))
    url = spar.encode_url(host, "/cb", [(k, enc) for k, (enc, _, _) in pairs])
    leaves = Counter({"https": 1, host: 1, "/cb": 1})
    for _, (_, counter, _) in pairs:
        leaves.update(counter)
    return (url, leaves, True)


@st.composite
def wrap_base64(draw, children) -> Structure:
    enc, leaves, _ = draw(children)
    encoder = draw(st.sampled_from([spar.encode_base64, spar.encode_base64url]))
    return (encoder(enc), leaves, True)


@st.composite
def wrap_percent(draw, children) -> Structure:
    enc, leaves, structured = draw(children)
    if not structured:
        # percent decoding only sticks when the decoded string has structure
        enc = spar.encode_form([(draw(form_keys), enc)])
    return (spar.encode_percent(enc), leaves, True)


structures = st.recursive(
    leaf_values.map(_leaf),
    lambda children: st.one_of(
        wrap_form(children), wrap_json(children), wrap_jwt(children),
        wrap_url(children), wrap_base64(children), wrap_percent(children)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(structures)
def test_decode_recovers_exact_leaf_multiset(structure):
    encoded, expected, _ = structure
    tree = spar.decode(encoded, max_depth=32, max_nodes=10_000)
    got = Counter(raw for _, raw in spar.leaves(tree))
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(leaf_values)
def test_inert_values_stay_leaves(value):
    tree = spar.decode(value)
    assert tree.is_leaf
    assert tree.raw == value


@settings(max_examples=200, deadline=None)
@given(structures)
def test_decode_is_deterministic(structure):
    encoded, _, _ = structure
    first = spar.decode(encoded, max_depth=32, max_nodes=10_000)
    second = spar.decode(encoded, max_depth=32, max_nodes=10_000)
    assert first.to_dict() == second.to_dict()


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=500),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=40))
def test_budgets_hold_for_arbitrary_input(value, max_depth, max_nodes):
    tree = spar.decode(value, max_depth=max_depth, max_nodes=max_nodes)
    nodes = [node for _, node in spar.walk(tree)]
    assert len(nodes) <= max_nodes
    assert max(node.depth for node in nodes) <= max_depth


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=300))
@example("https://[abc/x")
@example("a=http://[::1")
def test_decode_never_raises(value):
    tree = spar.decode(value)
    assert tree.raw == value


# ---------------------------------------------------------------------------
# the guarded decoder against a reference copy of the unguarded one

def _reference_decode_node(node, budget):
    """Every codec tried in order, each running its own rejection tests."""
    if node.depth >= budget.max_depth:
        return
    for attempt in (spar._try_jwt, spar._try_json, spar._try_form,
                    spar._try_url, spar._try_percent, spar._try_base64):
        if attempt(node, node.raw, budget):
            break
    if not node.children:
        node.decoding = spar.LEAF


def _reference_json_child_text(value):
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


_REFERENCE_FORM_KEY = re.compile(r"[A-Za-z0-9_.%+~\[\]-]+")


def _reference_try_form(node, value, budget):
    """The form codec splitting each piece on "&" and "=" to validate it."""
    if "=" not in value or spar._ABS_URL.match(value):
        return False
    pairs = []
    for piece in value.split("&"):
        key, sep, val = piece.partition("=")
        if not sep or not key or not _REFERENCE_FORM_KEY.fullmatch(key):
            return False
        pairs.append((key, val))
    if len(pairs) == 1 and set(pairs[0][1]) <= {"="}:
        return False
    node.decoding = spar.WWW_FORM
    spar._attach_form_children(node, value, budget)
    return bool(node.children)


def _reference_http_url_parts(value):
    """The URL parts, testing each character with ``str.isspace``."""
    if not spar._ABS_URL.match(value) or any(c.isspace() for c in value):
        return None
    parts = split_url(value)
    if parts.scheme.lower() in ("http", "https") and parts.netloc:
        return parts
    return None


def _reference_load_container(text):
    """The object or array ``json.loads`` gives, within the nesting bound."""
    if spar._too_deep(text):
        return None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return doc if isinstance(doc, (dict, list)) else None


def _reference_is_absolute_http_url(value):
    return _reference_http_url_parts(value) is not None


def index(tree):
    """The segment index by its definition: final path segment -> every
    (path, node) ending in it, in preorder, root excluded.  SPAR's recorded
    ``hits`` are checked against it."""
    hits = {}
    for path, node in spar.walk(tree):
        if path:
            hits.setdefault(path[-1], []).append((path, node))
    return hits


# segments the codecs name themselves, and parameter names
CODEC_SEGMENTS = ("decoded", "query-string", "payload", "signature", "header",
                  "0", "1", "scheme", "host", "path", "fragment")
REQUESTED_NAMES = CODEC_SEGMENTS + ("a", "k", "q", "x", "state", "absent")


def _decode_with_hits(decoder, value, max_depth, max_nodes, names):
    """(tree, hits) of ``decoder`` asked to record ``names``."""
    hits = {name: [] for name in names}
    return decoder(value, max_depth, max_nodes, hits=hits), hits


def _index_of(tree, names):
    """What ``hits`` keyed by ``names`` must hold for ``tree``."""
    found = index(tree)
    return {name: found.get(name, []) for name in names}


def _with_reference(fn, *args):
    """``fn(*args)`` with the reference attempt loop, ``parse_qsl``,
    ``unquote``, ``json.dumps``, ``json.loads``, the split form check and
    ``urlsplit`` after a per-character whitespace test in place of the
    decoder's own, and with every JSON child and JWT header decoded again
    from its text."""
    with ExitStack() as stack:
        for name, reference in (
                ("_decode_node", _reference_decode_node),
                ("_form_pairs",
                 lambda text: parse_qsl(text, keep_blank_values=True)),
                ("_unquote", unquote),
                ("_json_child_text", _reference_json_child_text),
                ("_try_form", _reference_try_form),
                ("_http_url_parts", _reference_http_url_parts),
                ("_load_container", _reference_load_container),
                ("_parsed", lambda doc: None)):
            stack.enter_context(mock.patch.object(spar, name, reference))
        return fn(*args)


def _index_paths(hits):
    return [(seg, [path for path, _ in found]) for seg, found in hits.items()]


def _index_ids(hits):
    """The index with each node by identity, for two indexes of one tree."""
    return [(seg, [(path, id(node)) for path, node in found])
            for seg, found in hits.items()]


BUDGETS = ((8, 10_000), (2, 5), (1, 1))

# pieces that pass or nearly pass each codec's first test
_PIECES = [".", "{", "}", "[", "]", "=", "&", "%", "+", '"', ":", ",", " ",
           "\t", "http", "HTTP", "https://x.example/p?", "http://[::1",
           "\\u0063", "%7B", "%22", "%3D", "%26", "%2", "%zz", "%C3%A9",
           "%C3", "a", "b", "c", "x", "0", "1", "-", "_", "/", "\u00e9",
           "true", "null", "1.5", "eyJ"]
hostile_text = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)


def _jwt_of(payload: str) -> str:
    header = spar.encode_base64url('{"alg":"HS256"}').rstrip("=")
    return f"{header}.{spar.encode_base64url(payload).rstrip('=')}.c2ln"


def _json_of(pair) -> str:
    text, other = pair
    return json.dumps({"k": text, "n": 7, "t": True, "f": False, "z": None,
                       "x": 1.5, "l": [other, -3], "o": {"i": other}},
                      ensure_ascii=False)


hostile_values = st.recursive(
    hostile_text,
    lambda inner: st.one_of(
        inner.map(spar.encode_base64), inner.map(spar.encode_base64url),
        inner.map(_jwt_of), inner.map(spar.encode_percent),
        st.tuples(inner, inner).map(_json_of),
        st.lists(st.tuples(form_keys, inner), min_size=1,
                 max_size=3).map(spar.encode_form),
        st.tuples(inner, inner).map("=".join),
        st.tuples(inner, inner).map("&".join),
        st.tuples(st.sampled_from(["", " ", "\n "]), inner).map("".join),
        inner.map(lambda text: "https://x.example/p?q=" + text)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(hostile_values)
@example("  {\"a\": \"\\u0063=1\"}")
@example("eyJhbGciOiJIUzI1NiJ9.e30.c2ln")
@example("a=1&a=2&b=%3D%26&+=+&&=x")
@example("abcd==")
@example("a=b==")
@example("a=b&")
@example("https://x.example/p?q=a\x1cb")
@example("HTTPS://x.example/p?q=1")
@example("a=https://x.example/\u3000?q=1")
@example('{"o": {"n": NaN, "z": -0.0, "d": 1, "d": {"s": "\\ud800=1"}}}')
@example('[{"k": [NaN, -0.0, {"a": "x", "a": "\\ud800"}]}]')
def test_guarded_decoder_equals_the_reference(value):
    for max_depth, max_nodes in BUDGETS:
        for decoder in (spar.decode, spar.decode_query_string):
            want = _with_reference(decoder, value, max_depth, max_nodes)
            got = decoder(value, max_depth, max_nodes)
            assert got.to_dict() == want.to_dict()
            names = dict.fromkeys([*index(want), *CODEC_SEGMENTS])
            got, hits = _decode_with_hits(decoder, value, max_depth,
                                          max_nodes, names)
            assert got.to_dict() == want.to_dict()
            assert _index_paths(hits) == _index_paths(_index_of(want, names))
            assert spar.find_nested_urls(got) == [
                (path, node.raw) for path, node in spar.walk(want)
                if path and _reference_is_absolute_http_url(node.raw)]


def test_reference_expander_runs_at_every_level():
    # "a=" and a percent-encoded JSON object that holds a form: five nodes
    value = "a=" + spar.encode_percent('{"k": "x=1&y=2"}')
    depths = []

    def recording(node, budget):
        depths.append(node.depth)
        _reference_decode_node(node, budget)

    with mock.patch.object(spar, "_decode_node", recording):
        tree = spar.decode(value)
    assert len(list(spar.walk(tree))) == 5
    assert sorted(depths) == [0, 1, 2, 3, 3]
    assert tree.to_dict() == spar.decode(value).to_dict()


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab=&%+2BC3A9zé ", max_size=40) | hostile_text)
@example("%C3=%A9&&a+b=%2B+&=&x")
def test_form_pairs_equal_parse_qsl(value):
    assert list(spar._form_pairs(value)) == \
        parse_qsl(value, keep_blank_values=True)


@settings(max_examples=200, deadline=None)
@given(hostile_values | structures.map(lambda structure: structure[0]),
       st.lists(st.sampled_from(REQUESTED_NAMES), unique=True))
@example("a=%7B%22a%22%3A%22x%3D1%22%7D&a=eyJhbGciOiJIUzI1NiJ9.e30.c2ln", [])
@example("x=https%3A%2F%2Fi.example%2Fp%3Fq%3D%2525&%=%zz", ["decoded"])
def test_index_is_the_walk_definition(value, requested):
    """The hits SPAR records while decoding are the index by its walk
    definition, node by node and in preorder, for every segment of the
    tree and for a drawn set of names; the tree does not change."""
    for max_depth, max_nodes in ((32, 10_000), *BUDGETS):
        for decoder in (spar.decode, spar.decode_query_string):
            plain = decoder(value, max_depth, max_nodes)
            every = dict.fromkeys([*index(plain), *REQUESTED_NAMES])
            for names in (every, requested):
                tree, hits = _decode_with_hits(decoder, value, max_depth,
                                               max_nodes, names)
                assert tree.to_dict() == plain.to_dict()
                assert list(hits) == list(names)
                assert _index_ids(hits) == _index_ids(_index_of(tree, names))


# pieces near every edge of urlsplit: brackets, userinfo and ports,
# delimiters in every order, case, non-ASCII hosts (one expanding to "a/c"
# under NFKC), C0 controls and whitespace
_URL_PIECES = ["[", "]", "::1", "[::1]", "@", ":", ":443", ":99999", "/",
               "//", "?", "#", "x.example", "X.Example", "a", "%41", "&",
               "=", "\u00e9", "b\u00fccher", "\u2100", "\uff0f", "\x00",
               "\x01", "\x1f", "\x7f", "\t", "\n", " ", "\u3000"]
_URL_STARTS = ["http://", "https://", "HTTP://", "hTtPs://", "http:/",
               "https:", "ftp://", "", " https://"]


@settings(max_examples=500, deadline=None)
@given(st.tuples(st.sampled_from(_URL_STARTS),
                 st.lists(st.sampled_from(_URL_PIECES), max_size=12)
                 .map("".join)).map("".join)
       | st.text(max_size=30).map("https://".__add__))
@example("https://[::1]:8443/cb?x=1")
@example("https://[::1/cb")
@example("https://::1]/cb")
@example("https://user:pw@x.example:8080/p")
@example("https://x.example:443")
@example("https://x.example/p#f?q")
@example("https://x.example/p?#f")
@example("https://x.example?")
@example("HTTPS://X.Example/P")
@example("https://b\u00fccher.example/x")
@example("https://\u2100.example/x")
@example("https://x.example/\x00\x01p?q=\x1b")
@example("https:///x")
def test_http_url_parts_equal_the_urlsplit_reference(value):
    assert spar._http_url_parts(value) == _reference_http_url_parts(value)


@settings(max_examples=500, deadline=None)
@given(hostile_text
       | st.text(alphabet=' \t\n\r\x1c\ufeff{}[]":,.-+0123456789eEaflnrstu\\',
                 max_size=30))
@example(' {"a": [1, 2.5e3, null]} \n')
@example("[1] x")
@example("[1]\x1c")
@example("\ufeff[]")
@example('"s"')
@example("null")
@example("")
@example("[NaN, -Infinity]")
def test_load_container_equals_json_loads(text):
    assert repr(spar._load_container(text)) == \
        repr(_reference_load_container(text))


# text near every edge of the escape decoder: escapes in both cases,
# truncated ones, backslashes and "\x" look-alikes, controls, non-ASCII
_QUOTED_PIECES = ["%", "%4", "%41", "%e9", "%E9", "%C3%A9", "%c3", "%zz",
                  "%%", "%0", "%00", "%5C", "%5c", "%7f", "%80", "%FF",
                  "\\", "\\x", "\\x4", "\\x41", "\\xzz", "\\\\", "\\%41",
                  "x", "a", "F", "f", "9", "+", "&", "=", " ", "\x00",
                  "\n", "\x7f", "\u00e9", "\u20ac", "\U0001f600"]


@pytest.mark.filterwarnings("error")
@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_QUOTED_PIECES), max_size=16).map("".join)
       | st.text(alphabet="%\\x0123456789abcdefABCDEFg+&= \t\u00e9",
                 max_size=30)
       | st.text(max_size=20))
@example("%")
@example("abc%")
@example("%4")
@example("\\x41%41\\")
@example("%C3%A9\u00e9%41")
def test_unquote_equals_urllib_unquote(value):
    assert spar._unquote(value) == unquote(value)


@pytest.mark.parametrize("max_depth, max_nodes", BUDGETS)
def test_fixture_pack_surfaces_index_and_decode_as_the_reference(
        fixture_pack, max_depth, max_nodes):
    root, _ = fixture_pack
    surfaces = 0
    for har in sorted(root.rglob("trace.har")):
        trace = load_bundle(har.parent)
        for entry in trace.entries:
            decoding = classify._entry_surfaces(entry)
            wanted = _with_reference(lambda: [
                decoder(value, max_depth, max_nodes)
                for _, decoder, value in decoding])
            for (_, decoder, value), want in zip(decoding, wanted):
                surfaces += 1
                names = dict.fromkeys([*index(want), *CODEC_SEGMENTS])
                tree, hits = _decode_with_hits(decoder, value, max_depth,
                                               max_nodes, names)
                assert tree.to_dict() == want.to_dict()
                assert _index_ids(hits) == _index_ids(_index_of(tree, names))
    assert surfaces > 0
