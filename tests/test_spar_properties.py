"""Property tests for the recursive decoder.

Structures are built from the module's own encoders while tracking the leaf
multiset the finished tree must contain.  Every generated leaf contains a
"!", which no codec layer accepts, so it can never be mistaken for another
encoding (without one, a value such as "enp6enp6" is valid base64 of
"zzzzzz").
"""

import string
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sso_auditor import spar

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
