"""Frozen-example tests for the recursive parameter decoder."""

import json
import time

import pytest

from sso_auditor import spar
from sso_auditor.exceptions import MalformedJwt


def test_plain_value_stays_leaf():
    tree = spar.decode("abc123")
    assert tree.is_leaf
    assert tree.decoding == spar.LEAF
    assert tree.raw == "abc123"
    assert spar.count_nodes(tree) == 1


def test_form_pairs_decode_to_children():
    tree = spar.decode("a=1&b=2")
    assert tree.decoding == spar.WWW_FORM
    assert set(tree.children) == {"a", "b"}
    assert tree.children["a"].raw == "1"
    assert tree.children["b"].raw == "2"
    assert [raw for _, raw in spar.leaves(tree)] == ["1", "2"]


def test_percent_wrapped_json():
    tree = spar.decode("%7B%22r%22%3A%22x%22%7D")
    assert tree.decoding == spar.PERCENT
    (inner,) = tree.children.values()
    assert inner.decoding == spar.JSON_DOC
    assert inner.children["r"].raw == "x"


def test_percent_that_unwraps_to_plain_text_stays_leaf():
    # decoding changes the string but yields no structure: keep the original
    tree = spar.decode("hello%20world")
    assert tree.is_leaf


def test_json_containers_only():
    assert spar.decode('{"k": [1, 2]}').decoding == spar.JSON_DOC
    assert spar.decode('"bare string"').is_leaf
    assert spar.decode("42").is_leaf
    assert spar.decode("{}").is_leaf


def test_json_array_indices_become_segments():
    tree = spar.decode('["x", {"y": "z"}]')
    assert set(tree.children) == {"0", "1"}
    assert tree.children["0"].raw == "x"
    assert tree.children["1"].children["y"].raw == "z"


def test_jwt_decodes_to_three_parts():
    token = spar.encode_jwt({"alg": "RS256"}, {"sub": "1"})
    tree = spar.decode(token)
    assert tree.decoding == spar.JWT
    assert set(tree.children) == {"header", "payload", "signature"}
    assert tree.children["header"].children["alg"].raw == "RS256"
    assert tree.children["payload"].children["sub"].raw == "1"
    # signatures are opaque bytes; never decoded further
    assert tree.children["signature"].is_leaf
    assert tree.children["signature"].raw == "c2ln"


def test_jwt_parts_helper_roundtrip():
    token = spar.encode_jwt({"alg": "HS256"}, {"sub": "u", "n": 3})
    header, payload, signature = spar.jwt_parts(token)
    assert header == {"alg": "HS256"}
    assert payload == {"sub": "u", "n": 3}
    assert signature == "c2ln"


def test_jwt_parts_rejects_garbage():
    from sso_auditor.exceptions import MalformedJwt
    for bad in ("", "a.b", "x.y.z.w", "not a jwt", "!!.!!.!!"):
        with pytest.raises(MalformedJwt):
            spar.jwt_parts(bad)


def test_nested_url_components():
    url = "https://idp.example/auth?state=1&next=https%3A%2F%2Fevil.example%2F"
    tree = spar.decode(url)
    assert tree.decoding == spar.NESTED_URL
    assert tree.children["scheme"].raw == "https"
    assert tree.children["host"].raw == "idp.example"
    query = tree.children["query-string"]
    assert query.decoding == spar.QUERY_STRING
    assert query.children["state"].raw == "1"
    assert query.children["next"].raw == "https://evil.example/"


def test_find_nested_urls():
    url = "https://rp.example/cb?next=https%3A%2F%2Fevil.example%2F"
    hits = spar.find_nested_urls(spar.decode(url))
    assert [raw for _, raw in hits] == ["https://evil.example/"]

    assert spar.find_nested_urls(spar.decode("state123")) == []
    # the root itself being a URL is not "nested"
    assert spar.find_nested_urls(spar.decode("https://rp.example/cb")) == []


def test_search_outer_first():
    found = {"state": []}
    spar.decode_query_string("state=" + spar.encode_percent("state=a"),
                             hits=found)
    hits = found["state"]
    assert len(hits) == 2
    outer, inner = hits
    assert len(outer[0]) < len(inner[0])
    assert inner[1].raw == "a"


def test_base64_json_payload():
    encoded = spar.encode_base64(json.dumps({"k": "v"}))
    tree = spar.decode(encoded)
    assert tree.decoding == spar.BASE64
    (child,) = tree.children.values()
    assert child.decoding == spar.JSON_DOC
    assert child.children["k"].raw == "v"


def test_base64url_alphabet_is_labelled():
    encoded = spar.encode_base64url("{\"a\":\"+/~~~\"}")
    tree = spar.decode(encoded)
    assert tree.decoding == spar.BASE64URL


def test_base64_rejects_non_printable_and_bad_length():
    # random hex that inflates to non-printable bytes stays a leaf
    assert spar.decode("deadbeefdeadbeef").is_leaf
    # length not a multiple of 4: never attempted
    assert spar.decode("aGVsbG8gd29ybGQhe").is_leaf


def test_base64_rejects_non_ascii_text_outside_json():
    # valid base64 whose bytes are printable but non-ASCII UTF-8
    assert spar.decode("04000400").is_leaf
    encoded = spar.encode_base64(json.dumps({"k": "Ӎ"}, ensure_ascii=False))
    tree = spar.decode(encoded)
    assert tree.decoding == spar.BASE64
    assert tree.children["decoded"].children["k"].raw == "Ӎ"


def test_empty_and_blank_query_strings():
    assert spar.decode("").is_leaf
    # an empty query component has nothing to force apart
    assert spar.decode_query_string("").is_leaf
    # a single blank parameter still becomes a child here, unlike decode()
    tree = spar.decode_query_string("flag=")
    assert tree.decoding == spar.QUERY_STRING
    assert tree.children["flag"].raw == ""


def test_query_string_keeps_blank_values():
    tree = spar.decode_query_string("a=&b=2")
    assert tree.children["a"].raw == ""
    assert tree.children["b"].raw == "2"


def test_duplicate_keys_get_distinct_segments():
    tree = spar.decode("k=1&k=2")
    assert set(tree.children) == {"k", "k#2"}
    assert tree.children["k"].raw == "1"
    assert tree.children["k#2"].raw == "2"


def test_duplicate_key_names_skip_literal_collisions():
    tree = spar.decode_query_string("a=1&a=2&a#2=3&a=4")
    assert list(tree.children) == ["a", "a#2", "a#2#2", "a#3"]
    assert [child.raw for child in tree.children.values()] == \
        ["1", "2", "3", "4"]


def test_many_duplicate_keys_decode_in_linear_time():
    value = "&".join(["a=1"] * 20_000)
    started = time.perf_counter()
    tree = spar.decode_query_string(value, max_nodes=50_000)
    assert time.perf_counter() - started < 2.0
    assert len(tree.children) == 20_000
    assert "a#20000" in tree.children


def test_form_key_charset_rejects_urls_as_forms():
    # "=" appears, but the left side is not a form key
    assert spar.decode("https://x.example/p?a=1").decoding == spar.NESTED_URL
    tree = spar.decode("a b c=1")
    assert tree.is_leaf


def test_max_depth_truncates_silently():
    value = "a=1"
    for _ in range(20):
        value = "outer=" + spar.encode_percent(value)
    tree = spar.decode(value, max_depth=4, max_nodes=10_000)
    assert spar.max_tree_depth(tree) <= 4


def test_max_nodes_truncates_silently():
    value = "&".join(f"k{i}={i}" for i in range(100))
    tree = spar.decode(value, max_nodes=10)
    assert spar.count_nodes(tree) <= 10


def test_budget_validation():
    with pytest.raises(ValueError):
        spar.decode("x", max_depth=0)
    with pytest.raises(ValueError):
        spar.decode("x", max_nodes=0)


def test_render_path():
    assert spar.render_path(("query", "state")) == "query/state"
    assert spar.render_path(()) == ""


def test_walk_is_preorder_root_first():
    tree = spar.decode("a=1&b=2")
    paths = [path for path, _ in spar.walk(tree)]
    assert paths[0] == ()
    assert set(paths[1:]) == {("a",), ("b",)}


@pytest.mark.parametrize("depth", [979, 100_000])
def test_json_too_deep_to_load_stays_a_leaf(depth):
    value = "[" * depth + "]" * depth
    tree = spar.decode(value)
    assert tree.is_leaf
    assert tree.raw == value


def test_decode_never_raises_near_the_json_nesting_limit():
    # wherever loading gives up, that layer stays opaque instead of raising
    for depth in range(900, 1010, 3):
        for value in ("[" * depth + "]" * depth,
                      '{"a":' * depth + "1" + "}" * depth):
            tree = spar.decode(value)
            assert all(raw.startswith(value[:1]) or raw == "1"
                       for _, raw in spar.leaves(tree))
            encoded = spar.encode_base64(value)
            assert spar.decode(encoded).raw == encoded


def test_deep_jwt_parts_are_malformed_not_raising():
    deep = "[" * 100_000 + "]" * 100_000
    token = spar.encode_jwt({"alg": "RS256"}, {"sub": "1"}).split(".")
    token[1] = spar.encode_base64url(deep).rstrip("=")
    with pytest.raises(MalformedJwt):
        spar.jwt_parts(".".join(token))
    header = spar.encode_base64url(deep).rstrip("=")
    assert spar.decode(f"{header}.{token[1]}.c2ln").decoding != spar.JWT


def test_trees_compare_by_value():
    value = "a=1&next=https%3A%2F%2Fb.example%2F%3Fc%3D2"
    tree = spar.decode(value)
    assert tree == spar.decode(value)
    assert tree is not spar.decode(value)
    other = spar.decode(value)
    child = next(iter(other.children.values()))
    child.decoding = spar.BASE64
    assert tree != other
