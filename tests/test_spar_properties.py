"""Property tests for the recursive decoder.

Structures are built from the module's own encoders while tracking the leaf
multiset the finished tree must contain.  Every generated leaf contains a
"!", which no codec layer accepts, so it can never be mistaken for another
encoding (without one, a value such as "enp6enp6" is valid base64 of
"zzzzzz").
"""

import json
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
    assert spar.count_nodes(tree) <= max_nodes
    assert spar.max_tree_depth(tree) <= max_depth


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=300))
@example("https://[abc/x")
@example("a=http://[::1")
def test_decode_never_raises(value):
    tree = spar.decode(value)
    assert tree.raw == value


# ---------------------------------------------------------------------------
# the guarded decoder against a reference copy of the unguarded one

def _reference_decode_node(value, depth, max_depth, budget):
    """Every codec tried in order, each running its own rejection tests."""
    node = spar.SparNode(raw=value, decoding=spar.LEAF, depth=depth)
    if depth >= max_depth:
        return node
    for attempt in (spar._try_jwt, spar._try_json, spar._try_form,
                    spar._try_url, spar._try_percent, spar._try_base64):
        if attempt(node, value, max_depth, budget):
            break
    if not node.children:
        node.decoding = spar.LEAF
    return node


def _reference_json_child_text(value):
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


def _reference_is_absolute_http_url(value):
    if not spar._ABS_URL.match(value) or any(c.isspace() for c in value):
        return False
    parts = split_url(value)
    return parts.scheme.lower() in ("http", "https") and bool(parts.netloc)


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
    ``unquote`` and ``json.dumps`` in place of the decoder's own."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            spar, "_decode_node", _reference_decode_node))
        stack.enter_context(mock.patch.object(
            spar, "_form_pairs",
            lambda text: parse_qsl(text, keep_blank_values=True)))
        stack.enter_context(mock.patch.object(spar, "_unquote", unquote))
        stack.enter_context(mock.patch.object(
            spar, "_json_child_text", _reference_json_child_text))
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
