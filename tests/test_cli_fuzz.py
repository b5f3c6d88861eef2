"""Seeded fuzzing of the command line over mutated fixture-pack input.

Each mutant copies one fixture-pack unit, damages one of its files (or an
IdP registry file passed with ``--idp-registry``) and runs ``analyze`` on
it.  Whatever the damage, the CLI must not raise, must exit 0, 1 or 2, and
must print exactly one ``error:`` line when it exits 1.  The stored-report
mutants damage the pack's JSON report the same way and feed it to ``report
render`` and ``report diff``, which must exit 0 or 1 on the same terms.
"""

import copy
import json
import random
import shutil

import pytest

from sso_auditor import cli

SEED = 20_260_119
MUTANTS = 60

BAD_URLS = ("https://[::1/cb", "https://shop.example:99999/cb",
            "http://[::1]:99999/x?redirect_uri=https://[::1/cb")

REGISTRY = {"idps": [
    {"name": "Google",
     "authorization_patterns": ["accounts.google.com/o/oauth2",
                                "accounts.google.com/signin/oauth"],
     "token_patterns": ["oauth2.googleapis.com/token"]},
    {"name": "Acme", "authorization_patterns": ["login.acme.example/authorize"],
     "token_patterns": ["login.acme.example/token"]},
]}


class _Pairs(list):
    """A JSON object as its (key, value) pairs, so keys may repeat."""


class _Raw(str):
    """JSON text written as it is."""


def _load(text):
    return json.loads(text, object_pairs_hook=_Pairs)


def _dump(node):
    if isinstance(node, _Raw):
        return node
    if isinstance(node, _Pairs):
        return "{" + ",".join(f"{json.dumps(key)}:{_dump(value)}"
                              for key, value in node) + "}"
    if isinstance(node, list):
        return "[" + ",".join(_dump(value) for value in node) + "]"
    return json.dumps(node)


def _slots(node):
    """Every (container, position) holding a value, in document order."""
    items = enumerate(node) if not isinstance(node, _Pairs) else \
        ((index, value) for index, (_, value) in enumerate(node))
    for position, value in items:
        yield node, position
        if isinstance(value, list):
            yield from _slots(value)


def _get(container, position):
    value = container[position]
    return value[1] if isinstance(container, _Pairs) else value


def _set(container, position, value):
    if isinstance(container, _Pairs):
        container[position] = (container[position][0], value)
    else:
        container[position] = value


def _nested(low, high, rng):
    depth = rng.randrange(low, high)
    return "[" * depth + "]" * depth


def _mutate(rng, data):
    """One damaged copy of the JSON document ``data`` and the damage done."""
    kind = rng.choice(("truncate", "deep-text", "deep-value", "bad-url",
                       "duplicate-key", "0xff"))
    if kind == "truncate":
        return data[:rng.randrange(len(data))], kind
    if kind == "0xff":
        at = rng.randrange(len(data) + 1)
        return data[:at] + b"\xff" + data[at:], kind
    if kind == "deep-text":
        depth = rng.randrange(1000, 100_000)
        return b"[" * depth + data + b"]" * depth, kind
    doc = _load(data)
    slots = list(_slots(doc))
    objects = [node for node in [doc] + [_get(*slot) for slot in slots]
               if isinstance(node, _Pairs) and node]
    if not slots or kind == "duplicate-key" and not objects:
        return data[:-1], "truncate"  # nothing inside to damage
    if kind == "duplicate-key":
        target = rng.choice(objects)
        key = rng.choice(target)[0]
        # a copy: the value picked may hold ``target`` itself
        value = rng.choice(("x", 99_999, [], _Pairs(), rng.choice(BAD_URLS),
                            copy.deepcopy(_get(*rng.choice(slots)))))
        target.append((key, value))
        return _dump(doc).encode(), kind
    strings = [slot for slot in slots if isinstance(_get(*slot), str)] or slots
    container, position = rng.choice(strings)
    old = _get(container, position)
    if kind == "bad-url":
        bad = rng.choice(BAD_URLS)
        new = old.replace("https://", bad + "/", 1) \
            if isinstance(old, str) and "https://" in old and rng.random() < 0.5 \
            else bad
    else:  # deep-value: a string SPAR decodes, or JSON structure that loads
        new = _nested(200, 3000, rng) if rng.random() < 0.5 else \
            _Raw(_nested(100, 800, rng))
    _set(container, position, new)
    return _dump(doc).encode(), kind


@pytest.mark.parametrize("mutant", range(MUTANTS))
def test_analyze_survives_mutated_input(fixture_pack, tmp_path, capsys, mutant):
    rng = random.Random(SEED * 1000 + mutant)
    pack, _ = fixture_pack
    unit = rng.choice(sorted(path for path in pack.glob("*/*")
                             if path.is_dir()))
    root = tmp_path / "traces"
    shutil.copytree(unit, root / unit.parent.name / unit.name)
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps(REGISTRY))
    target = rng.choice(sorted(root.glob("*/*/run*/*.*")) + [registry])
    mutated, kind = _mutate(rng, target.read_bytes())
    target.write_bytes(mutated)

    argv = ["analyze", str(root)]
    if target == registry:
        argv += ["--idp-registry", str(registry)]
    code = cli.main(argv)

    where = f"{kind} of {target.relative_to(tmp_path)}"
    err = capsys.readouterr().err
    assert code in (0, 1, 2), where
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, (where, err)
    else:
        assert err == "", (where, err)


REPORT_MUTANTS = 40


@pytest.fixture(scope="module")
def stored_report(fixture_pack, tmp_path_factory):
    """The fixture pack's JSON report, as ``analyze --out`` stores it."""
    pack, _ = fixture_pack
    path = tmp_path_factory.mktemp("stored") / "report.json"
    assert cli.main(["analyze", str(pack), "--out", str(path)]) == 2
    return path


@pytest.mark.parametrize("mutant", range(REPORT_MUTANTS))
def test_report_commands_survive_mutated_stored_reports(stored_report, tmp_path,
                                                       capsys, mutant):
    rng = random.Random(SEED * 1000 + MUTANTS + mutant)
    mutated, kind = _mutate(rng, stored_report.read_bytes())
    bad = tmp_path / "mutant.json"
    bad.write_bytes(mutated)
    for argv in (["report", "render", str(bad)],
                 ["report", "diff", str(stored_report), str(bad)]):
        argv += ["--format", rng.choice(("json", "markdown"))]
        code = cli.main(argv)
        where = f"{kind}: {' '.join(argv[:2])}"
        err = capsys.readouterr().err
        assert code in (0, 1), where
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, (where, err)
        else:
            assert err == "", (where, err)
