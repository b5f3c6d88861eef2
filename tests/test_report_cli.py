"""Unit tests for report assembly, rendering, and the command line."""

import hashlib
import itertools
import json
import random
import re
import shutil

import pytest

from sso_auditor import cli, report, security
from sso_auditor.exceptions import UnknownFormat
from sso_auditor.synth import (
    LoginShape, build_har, build_meta, har_entry, synth_login_entries,
    write_bundle, write_login_unit, write_visit_unit,
)
from sso_auditor.trace import parse_trace_bundle

from test_landscape import REDDIT_QUERIES


def _analysis(domain="shop.example", shape=LoginShape(), seed=1):
    def trace(run_seed):
        har = json.dumps(build_har(
            synth_login_entries(random.Random(run_seed), domain, shape)))
        meta = json.dumps(build_meta(domain))
        return parse_trace_bundle(har.encode(), meta.encode())

    return security.run_all(trace(seed), trace(seed + 1))


# ---------------------------------------------------------------------------
# report assembly

def test_build_report_shape_and_defaults():
    doc = report.build_report()
    assert doc["schema_version"] == 2
    assert doc["tool"]["name"] == "sso-auditor"
    assert doc["generated_at"] == "1970-01-01T00:00:00Z"
    assert doc["security"] == []
    assert doc["privacy"] is None
    assert doc["errors"] == []
    assert "landscape" not in doc
    assert doc["config"]["idp_registry"] == "built-in"
    assert doc["config"]["entropy_threshold_bits"] == 96.0


def test_build_report_sorts_fragments_by_domain():
    doc = report.build_report(security=[_analysis("b.example"),
                                        _analysis("a.example")])
    assert [frag["domain"] for frag in doc["security"]] == \
        ["a.example", "b.example"]


def test_canonical_json_is_sorted_and_newline_terminated():
    text = report.canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    assert report.canonical_json({"a": [2, {"z": 0, "y": 1}], "b": 1}) == \
        report.canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]})


def test_render_report_rejects_unknown_format():
    with pytest.raises(UnknownFormat):
        report.render_report(report.build_report(), "xml")


def test_vulnerability_count_sums_fragments():
    shape = LoginShape(state_kind="absent", pkce=False, delivery="none",
                       scope="email profile")
    doc = report.build_report(security=[_analysis(shape=shape),
                                        _analysis("b.example", shape)])
    assert report.report_vulnerability_count(doc) == 2
    assert report.report_vulnerability_count(report.build_report()) == 0


def test_markdown_summary_counts_match_findings():
    shape = LoginShape(state_kind="absent", pkce=False, delivery="none",
                       scope="email profile")
    doc = report.build_report(security=[_analysis(shape=shape)])
    text = report.render_report(doc, "markdown")
    lines = text.splitlines()
    assert lines[0] == "# Login security summary"
    header = ("| IdP | Obsolete Flows | Protocol Mix-Up | Flow Mix-Up | "
              "Open Redirect | CSRF Weak | CSRF Missing | Secret Leakage |")
    assert header in lines
    assert "| Google | 0 | 0 | 0 | 0 | 0 | 1 | 0 |" in lines
    assert "| Total | 0 | 0 | 0 | 0 | 0 | 1 | 0 |" in lines


def test_markdown_includes_privacy_and_landscape_sections():
    privacy_table = {
        "rows": [{"idp": "Google",
                  "no-consent-visit": {"LAL": 1, "TEL": 0},
                  "consent-given-visit": {"LAL": 1, "TEL": 1}}],
        "totals": {"no-consent-visit": {"LAL": 1, "TEL": 0},
                   "consent-given-visit": {"LAL": 1, "TEL": 1}},
    }
    # two websites, three logins: OIDC code, OIDC hybrid, and an OAuth
    # implicit request whose response never came
    analyses = [
        _analysis("a.example"),
        _analysis("a.example", LoginShape(response_type="code id_token")),
        _analysis("b.example", LoginShape(response_type="token",
                                          scope="email", delivery="none")),
    ]
    doc = report.build_report(security=analyses, privacy=privacy_table)
    text = report.render_report(doc, "markdown")
    assert "# Privacy leaks" in text
    assert "| Google | 1 | 0 | 1 | 1 |" in text
    assert "# SSO landscape" in text
    lines = text.splitlines()
    assert ("| IdP | Websites | Logins | OAuth 2.0 | OIDC | code | hybrid | "
            "implicit | unknown |") in lines
    assert "| Google | 2 | 3 | 1 | 2 | 1 | 1 | 1 | 0 |" in lines
    assert "| Total | 2 | 3 | 1 | 2 | 1 | 1 | 1 | 0 |" in lines

    # no login rows, no landscape section
    text = report.render_report(report.build_report(privacy=privacy_table),
                                "markdown")
    assert "# SSO landscape" not in text


# ---------------------------------------------------------------------------
# command line

@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)


@pytest.fixture()
def weak_pack(tmp_path):
    root = tmp_path / "traces"
    write_login_unit(root / "shop.example" / "google", "shop.example",
                     LoginShape(state_kind="weak", pkce=False,
                                delivery="none"), seed=3)
    return root


@pytest.fixture()
def clean_pack(tmp_path):
    root = tmp_path / "clean"
    write_login_unit(root / "safe.example" / "google", "safe.example",
                     LoginShape(), seed=4)
    return root


def test_analyze_exit_codes(weak_pack, clean_pack, capsys):
    assert cli.main(["analyze", str(weak_pack)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["security"][0]["domain"] == "shop.example"
    assert report.report_vulnerability_count(doc) == 1

    assert cli.main(["analyze", str(clean_pack)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["security"][0]["findings"] == []


def test_analyze_markdown_and_out_file(weak_pack, tmp_path, capsys):
    out = tmp_path / "report.md"
    code = cli.main(["analyze", str(weak_pack), "--format", "markdown",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("# Login security summary")


def test_analyze_is_deterministic_bytes(weak_pack, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["analyze", str(weak_pack), "--out", str(out1)]) == 2
    assert cli.main(["analyze", str(weak_pack), "--out", str(out2)]) == 2
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_missing_directory(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "nope")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_rejects_incomplete_unit(tmp_path, capsys):
    unit = tmp_path / "t" / "a.example" / "google"
    unit.mkdir(parents=True)
    assert cli.main(["analyze", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert "run1" in err
    assert err.startswith("error: a.example/google: ") and err.count("\n") == 1


def _write_unit(command, unit_dir, domain, seed):
    """One analyze or privacy unit; returns one of its bundle directories."""
    if command == "analyze":
        write_login_unit(unit_dir, domain, LoginShape(state_kind="weak"), seed)
        return unit_dir / "run1"
    write_visit_unit(unit_dir, domain, seed)
    return unit_dir / "consent"


@pytest.mark.parametrize("command, section", [("analyze", "security"),
                                              ("privacy", "privacy")])
def test_damaged_unit_is_named_and_the_rest_reported(tmp_path, capsys,
                                                     command, section):
    root = tmp_path / "traces"
    bad = _write_unit(command, root / "a.example" / "google", "a.example", 3)
    _write_unit(command, root / "b.example" / "google", "b.example", 4)
    (bad / "trace.har").write_text('{"log": {"entries": [')
    code = cli.main([command, str(root)])
    captured = capsys.readouterr()
    assert code in (0, 2) and captured.err == ""
    doc = json.loads(captured.out)
    (error,) = doc["errors"]
    assert error["unit"] == "a.example/google" and error["error"]

    alone = tmp_path / "alone"
    shutil.copytree(root / "b.example", alone / "b.example")
    assert cli.main([command, str(alone)]) == code
    doc_alone = json.loads(capsys.readouterr().out)
    assert doc_alone["errors"] == []
    assert doc[section] == doc_alone[section]

    # the Markdown report names the skipped unit too
    assert cli.main([command, str(root), "--format", "markdown"]) == code
    markdown = capsys.readouterr().out
    assert "# Skipped units" in markdown
    assert "| a.example/google | " in markdown
    assert "# Skipped units" not in report.render_report(
        doc_alone, report.FORMAT_MARKDOWN)


def test_unit_errors_do_not_depend_on_the_root_path(tmp_path, monkeypatch,
                                                    capsys):
    root = tmp_path / "traces"
    for domain, seed in (("a.example", 3), ("b.example", 4), ("c.example", 5)):
        _write_unit("analyze", root / domain / "google", domain, seed)
    shutil.rmtree(root / "a.example" / "google" / "run1")
    (root / "c.example" / "google" / "run2" / "meta.json").unlink()
    moved = tmp_path / "elsewhere" / "copy"
    shutil.copytree(root, moved)

    codes, outputs = set(), []
    monkeypatch.chdir(tmp_path)
    for path in (str(root), "traces", "elsewhere/copy", str(moved)):
        for format in ("json", "markdown"):
            codes.add(cli.main(["analyze", path, "--format", format]))
            outputs.append(capsys.readouterr().out)
    assert len(codes) == 1 and codes <= {0, 2}
    assert outputs[0::2] == [outputs[0]] * 4
    assert outputs[1::2] == [outputs[1]] * 4
    assert json.loads(outputs[0])["errors"] == [
        {"unit": "a.example/google", "error": "no trace.har in run1"},
        {"unit": "c.example/google", "error": "no meta.json in run2"},
    ]
    assert "| c.example/google | no meta.json in run2 |" in outputs[1]


def _table_cells(line: str) -> list[str]:
    """The cells of one Markdown table row; an escaped "\\|" is no border."""
    assert line.startswith("| ") and line.endswith(" |"), line
    return re.split(r" (?<!\\)\| ", line[2:-2])


def test_markdown_tables_keep_outside_labels_in_one_cell(tmp_path, capsys):
    # an IdP label from meta.json and a unit name with "|" and a line break;
    # no login is detected, so the label names the plain-http finding's row
    # (a finding that is no vulnerability and has no summary column)
    root = tmp_path / "traces"
    for run in (1, 2):
        write_bundle(root / "shop.example" / "google" / f"run{run}",
                     build_har([har_entry("http://shop.example/login")]),
                     build_meta("shop.example", idp="Go|og\nle",
                                run_index=run))
    (root / "bad|site.example" / "google").mkdir(parents=True)
    assert cli.main(["analyze", str(root), "--format", "markdown"]) == 0
    lines = capsys.readouterr().out.splitlines()

    tables = 0
    for number, line in enumerate(lines):
        if line.startswith("|") and not lines[number - 1].startswith("|"):
            tables += 1
            width = len(_table_cells(line))
            rows = itertools.takewhile(bool, lines[number + 1:])
            assert all(len(_table_cells(row)) == width
                       for row in rows if not row.startswith("| ---"))
    assert tables == 2  # the summary and the skipped units
    assert any(line.startswith("| Go\\|og le | 0 |") for line in lines)
    assert any(line.startswith("| bad\\|site.example/google | ")
               for line in lines)


def test_config_env_and_flag_precedence(tmp_path, monkeypatch, capsys):
    root = tmp_path / "traces"
    # strong random state but no PKCE: fine at 96 bits, weak at 200
    write_login_unit(root / "shop.example" / "google", "shop.example",
                     LoginShape(pkce=False), seed=5)
    assert cli.main(["analyze", str(root)]) == 0
    capsys.readouterr()

    config = tmp_path / "auditor.json"
    config.write_text(json.dumps({"entropy_threshold_bits": 200}))
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
    assert cli.main(["analyze", str(root)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["entropy_threshold_bits"] == 200.0

    # an explicit flag beats the config file
    assert cli.main(["analyze", str(root), "--entropy-bits", "96"]) == 0
    capsys.readouterr()


def test_config_env_rejects_bad_json(tmp_path, monkeypatch, capsys, weak_pack):
    config = tmp_path / "auditor.json"
    config.write_text("{nope")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
    assert cli.main(["analyze", str(weak_pack)]) == 1
    assert "config" in capsys.readouterr().err


def test_custom_idp_registry_flag(tmp_path, capsys, clean_pack):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({
        "idps": [{"name": "Google",
                  "authorization_patterns": ["accounts.google.com/o/oauth2"],
                  "token_patterns": ["oauth2.googleapis.com/token"]}],
    }))
    code = cli.main(["analyze", str(clean_pack),
                     "--idp-registry", str(registry)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["idp_registry"] == str(registry)


def test_privacy_subcommand(tmp_path, capsys):
    root = tmp_path / "visits"
    write_visit_unit(root / "news.example" / "google", "news.example", seed=6)
    assert cli.main(["privacy", str(root)]) == 0
    doc = json.loads(capsys.readouterr().out)
    (row,) = doc["privacy"]["rows"]
    assert row["idp"] == "Google"
    assert row["no-consent-visit"] == {"LAL": 1, "TEL": 0}
    assert row["consent-given-visit"] == {"LAL": 1, "TEL": 1}
    assert doc["privacy"]["findings"]
    assert doc["security"] == []


def test_spar_subcommand(capsys):
    assert cli.main(["spar", "a=1&b=2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decoding"] == "www-form"
    assert {k: v["raw"] for k, v in doc["children"].items()} == \
        {"a": "1", "b": "2"}


def test_landscape_queries_subcommand(capsys):
    assert cli.main(["landscape", "queries", "reddit.com"]) == 0
    assert capsys.readouterr().out.splitlines() == REDDIT_QUERIES
    assert cli.main(["landscape", "queries", "not a domain"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_landscape_diff_subcommand(tmp_path, capsys):
    def record(domain, *idps):
        return json.dumps({"domain": domain, "scanned_at": "t", "idps": [
            {"idp": i, "method": "keyword",
             "login_page": f"https://{domain}/login"} for i in idps]}) + "\n"

    prev, next_ = tmp_path / "prev.jsonl", tmp_path / "next.jsonl"
    prev.write_text(record("a.example", "google"))
    next_.write_text(record("a.example", "google", "apple"))
    assert cli.main(["landscape", "diff", str(prev), str(next_)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["added"] == [["a.example", "apple"]]
    assert doc["removed"] == []

    code = cli.main(["landscape", "diff", str(prev), str(next_),
                     "--format", "markdown"])
    assert code == 0
    assert capsys.readouterr().out.startswith("| Change |")

    assert cli.main(["landscape", "diff", str(prev),
                     str(tmp_path / "missing.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_report_render_subcommand(tmp_path, capsys, weak_pack):
    stored = tmp_path / "report.json"
    assert cli.main(["analyze", str(weak_pack), "--out", str(stored)]) == 2
    assert cli.main(["report", "render", str(stored),
                     "--format", "markdown"]) == 0
    assert capsys.readouterr().out.startswith("# Login security summary")

    assert cli.main(["report", "render", str(stored),
                     "--format", "xml"]) == 1
    assert "format" in capsys.readouterr().err


def test_fixture_pack_reports_are_pinned(fixture_pack, tmp_path):
    # size and sha256 prefix of the canonical reports; a refactor that is
    # meant to keep the output must keep these bytes
    root, _ = fixture_pack
    for fmt, size, digest in (("json", 17_923, "76cce4ffbfc9446f"),
                              ("markdown", 588, "979ee58c45927fe1")):
        out = tmp_path / f"report.{fmt}"
        assert cli.main(["analyze", str(root), "--format", fmt,
                         "--out", str(out)]) == 2
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()[:16]) == \
            (size, digest)


def test_fixture_pack_landscape_is_counted_from_login_rows(fixture_pack,
                                                          tmp_path):
    root, _ = fixture_pack
    stored = tmp_path / "report.json"
    assert cli.main(["analyze", str(root), "--out", str(stored)]) == 2
    markdown = tmp_path / "report.md"
    assert cli.main(["analyze", str(root), "--format", "markdown",
                     "--out", str(markdown)]) == 2
    rendered = tmp_path / "rendered.md"
    assert cli.main(["report", "render", str(stored), "--format", "markdown",
                     "--out", str(rendered)]) == 0
    assert rendered.read_bytes() == markdown.read_bytes()

    lines = markdown.read_text().splitlines()
    assert "# SSO landscape" in lines
    assert "| Google | 17 | 17 | 4 | 13 | 12 | 4 | 1 | 0 |" in lines
    assert "| Total | 17 | 17 | 4 | 13 | 12 | 4 | 1 | 0 |" in lines


@pytest.mark.parametrize("redirect_uri", ["https://shop.example:99999/cb",
                                          "https://[::1/cb"])
def test_analyze_survives_unsplittable_redirect_uri(tmp_path, capsys,
                                                    redirect_uri):
    root = tmp_path / "traces"
    write_login_unit(root / "shop.example" / "google", "shop.example",
                     LoginShape(redirect_uri=redirect_uri), seed=5)
    assert cli.main(["analyze", str(root)]) in (0, 2)
    captured = capsys.readouterr()
    assert captured.err == ""
    (fragment,) = json.loads(captured.out)["security"]
    assert len(fragment["logins"]) == 1


# a client_secret that is a lone surrogate, which has no UTF-8 form: from a
# JSON escape inside a parameter, and from the HAR's own escape
@pytest.fixture(params=["?x=%7B%22client_secret%22%3A%22%5Cud800%22%7D",
                        "?client_secret=\ud800"], ids=["param", "har"])
def surrogate_pack(tmp_path, request):
    root = tmp_path / "traces"
    unit = root / "shop.example" / "google"
    for run in (1, 2):
        entries = synth_login_entries(random.Random(run), "shop.example",
                                      LoginShape())
        if run == 1:
            entries.append(har_entry("https://shop.example/page"
                                     + request.param))
        write_bundle(unit / f"run{run}", build_har(entries),
                     build_meta("shop.example", run_index=run))
    return root


def _surrogate_excerpts(doc):
    return [evidence["excerpt"] for fragment in doc["security"]
            for finding in fragment["findings"]
            for evidence in finding["evidence"]
            if evidence["spar_path"].endswith("client_secret")]


def test_lone_surrogate_is_written_as_its_escape(surrogate_pack, tmp_path,
                                                 capsys):
    assert cli.main(["analyze", str(surrogate_pack)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "\\ud800" in captured.out
    assert _surrogate_excerpts(json.loads(captured.out)) == ["\ud800"]

    stored = tmp_path / "report.json"
    assert cli.main(["analyze", str(surrogate_pack), "--out",
                     str(stored)]) == 2
    assert stored.read_text() == captured.out

    assert cli.main(["analyze", str(surrogate_pack), "--format",
                     "markdown"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("# Login security summary")

    for fmt in ("json", "markdown"):
        assert cli.main(["report", "render", str(stored), "--format",
                         fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "json":
            assert captured.out == stored.read_text()


def test_spar_subcommand_writes_a_lone_surrogate_as_its_escape(capsys):
    assert cli.main(["spar", '{"a": "\\ud800"}']) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["children"]["a"]["raw"] == "\ud800"


_GOOD_RECORD = {"domain": "a.example", "idps": [{"idp": "google"}]}


@pytest.mark.parametrize("command, payload", [
    ("render", b"not json {"),
    ("render", b"[1, 2]"),
    ("diff", json.dumps({"domain": "a.example",
                         "idps": [{"method": "manual"}]}).encode()),
    ("diff", b'{"domain": "a.example\xff"}\n'),
    ("diff", json.dumps({"domain": "a.example", "idps": "google"}).encode()),
    ("render", b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    ("diff", b"[" * 100_000 + b"]" * 100_000),
    ("render", b'{"generated_at": "\xff"}'),
], ids=["render-not-json", "render-not-object", "diff-idp-missing",
        "diff-not-utf8", "diff-idps-not-list", "render-too-deep",
        "diff-too-deep", "render-not-utf8"])
def test_malformed_input_gives_one_error_line(tmp_path, capsys, command,
                                              payload):
    bad = tmp_path / "bad"
    bad.write_bytes(payload)
    if command == "render":
        argv = ["report", "render", str(bad)]
    else:
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps(_GOOD_RECORD) + "\n")
        argv = ["landscape", "diff", str(good), str(bad)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_bare_group_commands_fail(capsys):
    assert cli.main(["landscape"]) == 1
    assert "subcommand" in capsys.readouterr().err
    assert cli.main(["report"]) == 1
    assert "subcommand" in capsys.readouterr().err
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# configuration checks and hostile input

def _set_config(tmp_path, monkeypatch, text):
    config = tmp_path / "auditor.json"
    config.write_text(text)
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))


def _one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("key", ["max_spar_depth", "max_spar_nodes"])
@pytest.mark.parametrize("value", [0, -2, True, "8", 2.5, None])
def test_config_rejects_spar_budgets_that_are_not_ints_of_at_least_one(
        tmp_path, monkeypatch, capsys, weak_pack, key, value):
    _set_config(tmp_path, monkeypatch, json.dumps({key: value}))
    assert cli.main(["analyze", str(weak_pack)]) == 1
    _one_error_line(capsys, key)


@pytest.mark.parametrize("key, value", [
    ("treat_pkce_as_csrf_protection", "false"),
    ("treat_pkce_as_csrf_protection", 0),
    ("treat_pkce_as_csrf_protection", None),
    ("idp_registry", 5),
    ("idp_registry", ["registry.json"]),
    ("idp_registry", "registry\0.json"),
])
def test_config_rejects_values_of_the_wrong_type(
        tmp_path, monkeypatch, capsys, weak_pack, key, value):
    # before, "false" enabled the PKCE exemption and 5 gave a TypeError
    _set_config(tmp_path, monkeypatch, json.dumps({key: value}))
    assert cli.main(["analyze", str(weak_pack)]) == 1
    _one_error_line(capsys, key)


@pytest.mark.parametrize("target, payload, needle", [
    ("config", b'{"idp_registry": "\xff"}', "config file is not UTF-8"),
    ("registry", b'{"idps": [{"name": "Google\xff"}]}',
     "registry is not UTF-8"),
    ("registry", json.dumps({"idps": [
        {"name": "G", "authorization_patterns": 5}]}).encode(),
     "authorization_patterns"),
    ("registry", json.dumps({"idps": [
        {"name": "G", "token_patterns": [5]}]}).encode(), "token_patterns"),
    ("registry", json.dumps({"idps": [
        {"name": "G", "authorization_patterns": "accounts.google.com"}]})
     .encode(), "authorization_patterns"),
], ids=["config-not-utf8", "registry-not-utf8", "patterns-number",
        "pattern-not-string", "patterns-bare-string"])
def test_bad_config_or_registry_file_gives_one_error_line(
        tmp_path, monkeypatch, capsys, clean_pack, target, payload, needle):
    # before, the registry cases ended in UnicodeDecodeError, TypeError and
    # AttributeError tracebacks, or (a bare string) one pattern per character
    path = tmp_path / f"{target}.json"
    path.write_bytes(payload)
    argv = ["analyze", str(clean_pack)]
    if target == "config":
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
    else:
        argv += ["--idp-registry", str(path)]
    assert cli.main(argv) == 1
    _one_error_line(capsys, needle)


@pytest.mark.parametrize("config, flag", [
    ('{"entropy_threshold_bits": NaN}', None),
    ('{"entropy_threshold_bits": -Infinity}', None),
    ('{"entropy_threshold_bits": "96"}', None),
    ("{}", "nan"),
    ("{}", "inf"),
    # the flag is checked too, not only the file it overrides
    ('{"entropy_threshold_bits": 96}', "nan"),
])
def test_config_rejects_non_finite_entropy_threshold(
        tmp_path, monkeypatch, capsys, weak_pack, config, flag):
    _set_config(tmp_path, monkeypatch, config)
    argv = ["analyze", str(weak_pack)]
    if flag is not None:
        argv += ["--entropy-bits", flag]
    assert cli.main(argv) == 1
    _one_error_line(capsys, "entropy_threshold_bits")


@pytest.mark.parametrize("flag", ["--max-depth", "--max-nodes"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_spar_subcommand_rejects_budgets_below_one(capsys, flag, value):
    assert cli.main(["spar", "a=1", flag, value]) == 1
    _one_error_line(capsys, flag)


def test_config_budget_reaches_analyze_detection(tmp_path, monkeypatch,
                                                 capsys, clean_pack):
    # two nodes hold the query root and its first pair (client_id) only, so
    # no redirect_uri is seen and no login request is detected
    cli.main(["analyze", str(clean_pack)])
    (fragment,) = json.loads(capsys.readouterr().out)["security"]
    assert len(fragment["logins"]) == 1

    _set_config(tmp_path, monkeypatch, json.dumps({"max_spar_nodes": 2}))
    cli.main(["analyze", str(clean_pack)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["max_spar_nodes"] == 2
    assert doc["security"][0]["logins"] == []


def test_config_budget_reaches_privacy_detection(tmp_path, monkeypatch,
                                                 capsys):
    root = tmp_path / "visits"
    write_visit_unit(root / "news.example" / "google", "news.example", seed=6)
    assert cli.main(["privacy", str(root)]) == 0
    assert json.loads(capsys.readouterr().out)["privacy"]["findings"]

    # the widget requests go undetected: no LAL, and the consented token
    # delivery is reported as one without a request
    _set_config(tmp_path, monkeypatch, json.dumps({"max_spar_nodes": 2}))
    assert cli.main(["privacy", str(root)]) == 0
    findings = json.loads(capsys.readouterr().out)["privacy"]["findings"]
    assert [(f["kind"], f["annotation"]) for f in findings] == \
        [("TEL", "response-without-request")]


def test_analyze_survives_deeply_nested_json_bodies(tmp_path, capsys):
    deep = "[" * 2048 + "]" * 2048  # 4 KB, too deep for json.loads
    entries = synth_login_entries(random.Random(5), "shop.example",
                                  LoginShape())
    login = entries[1]["request"]
    login["method"] = "POST"
    login["postData"] = {"mimeType": "application/json", "text": deep}
    # a token endpoint answer is read outside the per-rule error guard
    entries.append(har_entry("https://oauth2.googleapis.com/token",
                             method="POST", started_at="2026-01-17T12:00:03Z",
                             body_text=deep, body_mime="application/json"))
    root = tmp_path / "traces"
    write_bundle(root / "shop.example" / "google" / "run1", build_har(entries),
                 build_meta("shop.example"))
    assert cli.main(["analyze", str(root)]) in (0, 2)
    captured = capsys.readouterr()
    assert captured.err == ""
    (fragment,) = json.loads(captured.out)["security"]
    assert len(fragment["logins"]) == 1


@pytest.mark.parametrize("fmt, text", [
    ("markdown", json.dumps({"security": [{"findings": ["x"]}]})),
    ("markdown", json.dumps({"security": "x"})),
    ("markdown", json.dumps({"privacy": {"rows": [1]}})),
    ("markdown", json.dumps({"security": [{"findings": [{"rule_id": []}]}]})),
], ids=["finding-not-object", "security-not-list", "privacy-row-not-object",
        "rule-id-not-hashable"])
def test_report_render_rejects_wrong_shapes(tmp_path, capsys, fmt, text):
    stored = tmp_path / "report.json"
    stored.write_text(text)
    assert cli.main(["report", "render", str(stored), "--format", fmt]) == 1
    _one_error_line(capsys, "report file")


@pytest.mark.parametrize("target", ["config", "registry", "har", "meta"])
def test_deeply_nested_input_files_give_one_error_line(
        tmp_path, monkeypatch, capsys, clean_pack, target):
    deep = "[" * 100_000 + "]" * 100_000
    argv = ["analyze", str(clean_pack)]
    if target == "config":
        _set_config(tmp_path, monkeypatch, deep)
    elif target == "registry":
        (tmp_path / "registry.json").write_text(deep)
        argv += ["--idp-registry", str(tmp_path / "registry.json")]
    else:
        run1 = clean_pack / "safe.example" / "google" / "run1"
        (run1 / ("trace.har" if target == "har" else "meta.json")).write_text(deep)
    assert cli.main(argv) == 1
    _one_error_line(capsys)
