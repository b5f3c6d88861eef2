"""Recursive decoding of login-protocol parameter values into searchable trees.

Login traffic hides parameters inside each other: JWTs inside fragments,
URLs inside percent-encoded JSON inside query strings.  ``decode`` unwraps a
single string value into a tree in which every recognized layer becomes an
inner node and every opaque value becomes a leaf.  The codec attempt order
is fixed so that the same input always yields the same tree:

1. JWT          three dot-separated base64url segments, header is a JSON
                object carrying "alg"
2. JSON         objects and arrays only; bare scalars stay leaves
3. form pairs   "k=v" joined by "&"; keys restricted to a token charset so
                URLs and base64 padding are not misread as forms
4. nested URL   absolute http(s) URL, split into components plus a
                query-string subtree
5. percent      applied only when unquoting changes the string and the
                decoded string itself has structure
6. base64(url)  length >= 8 and a multiple of 4, canonical alphabet, and
                the decoded bytes are printable ASCII or a UTF-8 JSON
                container

Each codec is tried only when its own first rejection test passes, and
that guard is the test copied exactly, so skipping a codec never changes a
tree: JWT needs exactly two "."; JSON a first character "{", "[" or
whitespace; form pairs an "=" and no http(s) scheme; a nested URL that
scheme; percent a "%"; base64 a length of at least 8 that is a multiple
of 4.

Stops are silent: depth and node budgets truncate the tree, and JSON nested
too deeply to load stays a leaf; none of them raises.  A node is a leaf
exactly when it has no children.

Percent-decoding (form keys and values, and the percent codec) gives
exactly what ``urllib.parse.unquote`` gives.  ASCII text is decoded by the
C escape decoder: every backslash is doubled and every "%" becomes "\\x",
so the only escapes left are "\\\\" and "\\xHH".  Non-ASCII text, and a
"%" not followed by two hex digits (which ``unquote`` keeps as it is), fall
back to ``unquote``.

Given ``hits``, a dict from path segment to a list, ``decode`` and
``decode_query_string`` append ``(path, node)`` to ``hits[name]`` for every
node of the tree whose final path segment is a key ``name`` of ``hits``, in
preorder; other segments are not recorded.  Starting from empty lists,
``hits[name]`` ends as every ``(path, node)`` of the tree whose path ends in
``name``, in preorder (the root, with the empty path, is never recorded).
Callers that read a few parameter names thus need no second walk.
"""

from __future__ import annotations

import base64
import binascii
import codecs
import json
import re
from typing import Callable, Iterator
from urllib.parse import SplitResult, unquote

from .domains import split_url
from .exceptions import MalformedJwt

LEAF = "leaf"
PERCENT = "percent"
WWW_FORM = "www-form"
QUERY_STRING = "query-string"
JSON_DOC = "json"
JWT = "jwt"
BASE64 = "base64"
BASE64URL = "base64url"
NESTED_URL = "nested-url"

DEFAULT_MAX_DEPTH = 8
DEFAULT_MAX_NODES = 10_000

Path = tuple[str, ...]

_B64URL_SEGMENT = re.compile(r"[A-Za-z0-9_-]+={0,2}")
_B64_STD = re.compile(r"[A-Za-z0-9+/]+={0,2}")
# Keys a form pair may use.  Deliberately narrow: misreading a URL or a JWT
# as a form creates false structure that a parameter lookup would report.
_FORM_KEY = re.compile(r"[A-Za-z0-9_.%+~\[\]-]+")
_ABS_URL = re.compile(r"https?://", re.IGNORECASE)


class SparNode:
    """One decoded layer.  ``children`` maps path segments to subtrees.

    Two nodes are equal when their raw values, decodings, depths and
    children are."""

    __slots__ = ("raw", "decoding", "children", "depth")
    __hash__ = None  # mutable, compared by value

    def __init__(self, raw: str, decoding: str = LEAF,
                 children: dict[str, SparNode] | None = None, depth: int = 0):
        self.raw = raw
        self.decoding = decoding
        self.children = {} if children is None else children
        self.depth = depth

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SparNode:
            return NotImplemented
        return (self.raw == other.raw and self.decoding == other.decoding
                and self.depth == other.depth
                and self.children == other.children)

    def __repr__(self) -> str:
        return (f"SparNode(raw={self.raw!r}, decoding={self.decoding!r}, "
                f"children={self.children!r}, depth={self.depth!r})")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def to_dict(self) -> dict:
        out: dict = {"raw": self.raw, "decoding": self.decoding, "children": {}}
        for segment, child in self.children.items():
            out["children"][segment] = child.to_dict()
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, ensure_ascii=False)


SegmentIndex = dict[str, list[tuple[Path, SparNode]]]


class _Budget:
    """The node budget of one decode, and the hits it records; ``path``,
    kept only when ``hits`` is given, is the path of the node being
    decoded."""

    __slots__ = ("used", "limit", "hits", "path")

    def __init__(self, limit: int, hits: SegmentIndex | None = None):
        self.used = 0
        self.limit = limit
        self.hits = hits
        self.path: Path = ()

    def take(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def decode(value: str, max_depth: int = DEFAULT_MAX_DEPTH,
           max_nodes: int = DEFAULT_MAX_NODES, *,
           hits: SegmentIndex | None = None) -> SparNode:
    """Decode one string into a tree.  Never raises on hostile input.

    ``hits`` receives the nodes under its own keys (see the module doc).
    """
    if max_depth < 1 or max_nodes < 1:
        raise ValueError("max_depth and max_nodes must be >= 1")
    budget = _Budget(max_nodes, hits)
    budget.take()  # root
    return _decode_node(value, 0, max_depth, budget)


def decode_query_string(value: str, max_depth: int = DEFAULT_MAX_DEPTH,
                        max_nodes: int = DEFAULT_MAX_NODES, *,
                        hits: SegmentIndex | None = None) -> SparNode:
    """Decode a string already known to be a URL query component.

    Unlike ``decode`` this skips the codec heuristics for the top layer, so
    even a single blank parameter ("flag=") becomes a child.  ``hits`` is
    filled as by ``decode``.
    """
    if max_depth < 1 or max_nodes < 1:
        raise ValueError("max_depth and max_nodes must be >= 1")
    budget = _Budget(max_nodes, hits)
    budget.take()
    return _query_node(value, 0, max_depth, budget)


def _query_node(value: str, depth: int, max_depth: int,
                budget: _Budget) -> SparNode:
    """A query-string node holding the form pairs of ``value``; a leaf when
    there are none.  Its own node is already taken from ``budget``."""
    node = SparNode(value, QUERY_STRING, {}, depth)
    _attach_form_children(node, value, max_depth, budget)
    if not node.children:
        node.decoding = LEAF
    return node


# ---------------------------------------------------------------------------
# pipeline

def _decode_node(value: str, depth: int, max_depth: int, budget: _Budget) -> SparNode:
    node = SparNode(value, LEAF, {}, depth)
    if depth >= max_depth or not value:
        return node
    # the codecs in their fixed order, each behind its own first test
    if value.count(".") == 2 and _try_jwt(node, value, max_depth, budget):
        return node
    first = value[0]
    if (first in "{[" or first.isspace()) \
            and _try_json(node, value, max_depth, budget):
        return node
    url = _ABS_URL.match(value)
    if not url and "=" in value and _try_form(node, value, max_depth, budget):
        return node
    if url and _try_url(node, value, max_depth, budget):
        return node
    if "%" in value and _try_percent(node, value, max_depth, budget):
        return node
    if len(value) >= 8 and len(value) % 4 == 0 \
            and _try_base64(node, value, max_depth, budget):
        return node
    # a codec that took no child may have labelled the node
    node.decoding = LEAF
    return node


def _add_child(node: SparNode, segment: str, value: str, max_depth: int,
               budget: _Budget,
               build: Callable[..., SparNode] | None = None) -> bool:
    """Attach ``build(value, ...)`` (``_decode_node`` by default) under
    ``segment``; False when the depth limit or the node budget stops it.

    A requested segment's hit slot is reserved before the child is built,
    so hits stay in preorder.
    """
    if node.depth >= max_depth or not budget.take():
        return False
    build = build or _decode_node
    hits = budget.hits
    if hits is None:
        node.children[segment] = build(value, node.depth + 1, max_depth,
                                       budget)
        return True
    parent_path = budget.path
    path = budget.path = parent_path + (segment,)
    found = hits.get(segment)
    if found is not None:
        slot = len(found)
        found.append(None)  # reserved until the child is built
    child = node.children[segment] = build(value, node.depth + 1, max_depth,
                                           budget)
    budget.path = parent_path
    if found is not None:
        found[slot] = (path, child)
    return True


def _leaf_node(value: str, depth: int, max_depth: int,
               budget: _Budget) -> SparNode:
    return SparNode(value, LEAF, {}, depth)


def _try_jwt(node: SparNode, value: str, max_depth: int, budget: _Budget) -> bool:
    segments = value.split(".")
    if len(segments) != 3:
        return False
    header_seg, payload_seg, signature_seg = segments
    if not (_B64URL_SEGMENT.fullmatch(header_seg)
            and _B64URL_SEGMENT.fullmatch(payload_seg)):
        return False
    if signature_seg and not _B64URL_SEGMENT.fullmatch(signature_seg):
        return False
    header_text = _b64url_to_text(header_seg)
    if header_text is None:
        return False
    try:
        header = json.loads(header_text)
    except (ValueError, RecursionError):
        return False
    if not isinstance(header, dict) or "alg" not in header:
        return False
    payload_text = _b64url_to_text(payload_seg)
    node.decoding = JWT
    _add_child(node, "header", header_text, max_depth, budget)
    # an undecodable payload stays opaque; the signature always does
    _add_child(node, "payload",
               payload_text if payload_text is not None else payload_seg,
               max_depth, budget)
    if node.children:
        _add_child(node, "signature", signature_seg, max_depth, budget,
                   _leaf_node)
    return bool(node.children)


def _try_json(node: SparNode, value: str, max_depth: int, budget: _Budget) -> bool:
    stripped = value.strip()
    if not stripped or stripped[0] not in "{[":
        return False
    try:
        doc = json.loads(stripped)
    except (ValueError, RecursionError):
        return False
    if not isinstance(doc, (dict, list)) or not doc:
        return False
    node.decoding = JSON_DOC
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, child in items:
        if not _add_child(node, str(key), _json_child_text(child), max_depth,
                          budget):
            break
    return bool(node.children)


def _json_child_text(value: object) -> str:
    # what json.dumps gives for the scalars it loads, without calling it;
    # bool is tested before int, of which it is a subclass
    if isinstance(value, str):
        return value
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


def _try_form(node: SparNode, value: str, max_depth: int, budget: _Budget) -> bool:
    if "=" not in value or _ABS_URL.match(value):
        return False
    pairs = []
    for piece in value.split("&"):
        key, sep, val = piece.partition("=")
        if not sep or not key or not _FORM_KEY.fullmatch(key):
            return False
        pairs.append((key, val))
    # a lone "xxxx=" or "xxxx==" is far more likely base64 padding than a form
    if len(pairs) == 1 and set(pairs[0][1]) <= {"="}:
        return False
    node.decoding = WWW_FORM
    _attach_form_children(node, value, max_depth, budget)
    return bool(node.children)


def _attach_form_children(node: SparNode, value: str, max_depth: int,
                          budget: _Budget) -> None:
    # Form keys are the only segments that repeat (JSON keys and indices,
    # JWT parts and URL components are distinct).  A repeat becomes key#2,
    # key#3, ...; ``next_suffix`` resumes each key's probe where it stopped,
    # which gives the same names as probing from 2 since names are never
    # freed, in linear time over many repeats.
    next_suffix: dict[str, int] = {}
    for key, val in _form_pairs(value):
        segment, n = key, next_suffix.get(key, 2)
        while segment in node.children:
            segment = f"{key}#{n}"
            n += 1
        next_suffix[key] = n
        if not _add_child(node, segment, val, max_depth, budget):
            break


def _form_pairs(value: str) -> Iterator[tuple[str, str]]:
    """The pairs of ``parse_qsl(value, keep_blank_values=True)``, one at a
    time, unquoting only a part that holds a "%"."""
    for piece in value.split("&"):
        if not piece:
            continue
        key, _, val = piece.partition("=")
        if "+" in key:
            key = key.replace("+", " ")
        if "%" in key:
            key = _unquote(key)
        if "+" in val:
            val = val.replace("+", " ")
        if "%" in val:
            val = _unquote(val)
        yield key, val


def _unquote(value: str) -> str:
    """``unquote(value)``, by the C escape decoder for ASCII text."""
    if value.isascii():
        try:
            return codecs.escape_decode(
                value.replace("\\", "\\\\").replace("%", "\\x")
            )[0].decode("utf-8", "replace")
        except ValueError:  # a "%" not followed by two hex digits
            pass
    return unquote(value)


def _try_url(node: SparNode, value: str, max_depth: int, budget: _Budget) -> bool:
    parts = _http_url_parts(value)
    if parts is None:
        return False
    node.decoding = NESTED_URL
    _add_child(node, "scheme", parts.scheme.lower(), max_depth, budget)
    _add_child(node, "host", parts.netloc, max_depth, budget)
    if parts.path:
        _add_child(node, "path", parts.path, max_depth, budget)
    if parts.query:
        _add_child(node, "query-string", parts.query, max_depth, budget,
                   _query_node)
    if parts.fragment:
        _add_child(node, "fragment", parts.fragment, max_depth, budget)
    return bool(node.children)


def _try_percent(node: SparNode, value: str, max_depth: int, budget: _Budget) -> bool:
    if "%" not in value:
        return False
    decoded = _unquote(value)
    if decoded == value:
        return False
    # only unwrap when the decoded string itself has structure
    snapshot = budget.used
    if not _add_child(node, "decoded", decoded, max_depth, budget):
        return False
    if node.children["decoded"].is_leaf:
        # a leaf has no descendants, so its own hit is the last one
        del node.children["decoded"]
        budget.used = snapshot
        if budget.hits is not None and "decoded" in budget.hits:
            budget.hits["decoded"].pop()
        return False
    node.decoding = PERCENT
    return True


def _try_base64(node: SparNode, value: str, max_depth: int, budget: _Budget) -> bool:
    if len(value) < 8 or len(value) % 4 != 0:
        return False
    if _B64_STD.fullmatch(value):
        label = BASE64URL if ("-" in value or "_" in value) else BASE64
    elif _B64URL_SEGMENT.fullmatch(value):
        label = BASE64URL
    else:
        return False
    try:
        if label == BASE64:
            raw = base64.b64decode(value, validate=True)
        else:
            raw = base64.urlsafe_b64decode(value)
    except (binascii.Error, ValueError):
        return False
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    if not text:
        return False
    # short alphanumeric tokens often happen to decode to printable
    # non-ASCII text ("04000400" -> "\u04cd4\u04cd4"); only JSON may carry it
    if not (text.isascii() and text.isprintable()) \
            and not _parses_as_json_container(text):
        return False
    node.decoding = label
    _add_child(node, "decoded", text, max_depth, budget)
    return bool(node.children)


def _parses_as_json_container(text: str) -> bool:
    stripped = text.strip()
    if not stripped or stripped[0] not in "{[":
        return False
    try:
        return isinstance(json.loads(stripped), (dict, list))
    except (ValueError, RecursionError):
        return False


def _http_url_parts(value: str) -> SplitResult | None:
    """The parts of an absolute http(s) URL; None for any other value."""
    if not _ABS_URL.match(value) or any(c.isspace() for c in value):
        return None
    parts = split_url(value)  # empty for e.g. "https://[abc/x"
    if parts.scheme.lower() in ("http", "https") and parts.netloc:
        return parts
    return None


def _b64url_to_text(segment: str) -> str | None:
    padded = segment + "=" * (-len(segment) % 4)
    try:
        return base64.urlsafe_b64decode(padded).decode("utf-8")
    except (binascii.Error, ValueError, UnicodeDecodeError):
        return None


# ---------------------------------------------------------------------------
# tree queries

def walk(tree: SparNode) -> Iterator[tuple[Path, SparNode]]:
    """Depth-first preorder over (path, node), root first with empty path."""
    stack: list[tuple[Path, SparNode]] = [((), tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend(reversed([(path + (seg,), child)
                               for seg, child in node.children.items()]))


def find_nested_urls(tree: SparNode) -> list[tuple[Path, str]]:
    """Non-root nodes whose raw value is an absolute http(s) URL."""
    return [(path, node.raw) for path, node in walk(tree)
            if path and _http_url_parts(node.raw) is not None]


def leaves(tree: SparNode) -> list[tuple[Path, str]]:
    return [(path, node.raw) for path, node in walk(tree) if node.is_leaf]


def count_nodes(tree: SparNode) -> int:
    return sum(1 for _ in walk(tree))


def max_tree_depth(tree: SparNode) -> int:
    return max(node.depth for _, node in walk(tree))


def render_path(path: Path) -> str:
    return "/".join(path)


# ---------------------------------------------------------------------------
# JWT helpers shared by the classifiers and rules

def jwt_parts(token: str) -> tuple[dict, dict, str]:
    """Split a compact JWT into (header, payload, signature segment).

    Raises MalformedJwt when the value is not a three-segment token with a
    JSON object header carrying "alg" and a JSON object payload.
    """
    segments = token.split(".")
    if len(segments) != 3:
        raise MalformedJwt(f"expected 3 segments, got {len(segments)}")
    header_text = _b64url_to_text(segments[0])
    payload_text = _b64url_to_text(segments[1])
    if header_text is None or payload_text is None:
        raise MalformedJwt("header or payload is not base64url text")
    try:
        header = json.loads(header_text)
        payload = json.loads(payload_text)
    except (ValueError, RecursionError) as exc:
        raise MalformedJwt(f"header or payload is not JSON: {exc}") from exc
    if not isinstance(header, dict) or "alg" not in header:
        raise MalformedJwt("header is not a JSON object with an alg claim")
    if not isinstance(payload, dict):
        raise MalformedJwt("payload is not a JSON object")
    return header, payload, segments[2]


# ---------------------------------------------------------------------------
# encoders: the inverse operations, used to build synthetic values

def encode_form(pairs: list[tuple[str, str]]) -> str:
    from urllib.parse import quote
    return "&".join(f"{k}={quote(v, safe='')}" for k, v in pairs)


def encode_json(doc: object) -> str:
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)


def encode_percent(value: str) -> str:
    from urllib.parse import quote
    return quote(value, safe="")


def encode_base64(value: str) -> str:
    return base64.b64encode(value.encode("utf-8")).decode("ascii")


def encode_base64url(value: str) -> str:
    return base64.urlsafe_b64encode(value.encode("utf-8")).decode("ascii")


def encode_jwt(header: dict, payload: dict, signature_seg: str = "c2ln") -> str:
    def seg(doc: dict) -> str:
        return base64.urlsafe_b64encode(
            json.dumps(doc, separators=(",", ":")).encode("utf-8")
        ).decode("ascii").rstrip("=")
    return f"{seg(header)}.{seg(payload)}.{signature_seg}"


def encode_url(host: str, path: str, query_pairs: list[tuple[str, str]],
               scheme: str = "https") -> str:
    query = encode_form(query_pairs)
    url = f"{scheme}://{host}{path}"
    return f"{url}?{query}" if query else url
