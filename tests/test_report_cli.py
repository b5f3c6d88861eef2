"""Unit tests for report assembly, rendering, and the command line."""

import hashlib
import itertools
import json
import random
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_a_metadata_label_total_gives_no_second_total_row(tmp_path, capsys):
    # no login is detected in either unit, so their plain-http findings are
    # labelled from meta.json; "Total" is the reports' own total-row label
    root = tmp_path / "traces"
    for domain, idp in (("a.example", "Total"), ("b.example", "Google")):
        for run in (1, 2):
            write_bundle(root / domain / idp.lower() / f"run{run}",
                         build_har([har_entry(f"http://{domain}/login")]),
                         build_meta(domain, idp=idp, run_index=run))
    assert cli.main(["analyze", str(root), "--format", "markdown"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" | ")[0] for line in lines
            if line.startswith("| Total |")] == ["| Total"]
    assert any(line.startswith("| unknown | ") for line in lines)
    assert any(line.startswith("| Google | ") for line in lines)


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


def test_report_render_subcommand(tmp_path, capsys, weak_pack):
    stored = tmp_path / "report.json"
    assert cli.main(["analyze", str(weak_pack), "--out", str(stored)]) == 2
    assert cli.main(["report", "render", str(stored),
                     "--format", "markdown"]) == 0
    assert capsys.readouterr().out.startswith("# Login security summary")

    assert cli.main(["report", "render", str(stored),
                     "--format", "xml"]) == 1
    assert "format" in capsys.readouterr().err


def _sections(markdown: str) -> dict[str, list[str]]:
    """Each ``# Title`` of a Markdown diff and its table's body rows."""
    sections = {}
    for block in markdown.split("\n\n# "):
        title, _, table = block.lstrip("# ").partition("\n\n")
        sections[title] = table.splitlines()[2:]
    return sections


def test_report_diff_subcommand(fixture_pack, tmp_path, capsys):
    # pack B is pack A with csrf-missing.example hardened, one unit removed
    # and one added
    old_pack, _ = fixture_pack
    new_pack = tmp_path / "new"
    shutil.copytree(old_pack, new_pack)
    shutil.rmtree(new_pack / "csrf-missing.example" / "google")
    write_login_unit(new_pack / "csrf-missing.example" / "google",
                     "csrf-missing.example", LoginShape(), seed=9)
    shutil.rmtree(new_pack / "tls-plain-request.example")
    write_login_unit(new_pack / "added.example" / "google", "added.example",
                     LoginShape(), seed=10)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    for pack, stored in ((old_pack, old), (new_pack, new)):
        assert cli.main(["analyze", str(pack), "--out", str(stored)]) == 2

    assert cli.main(["report", "diff", str(old), str(new)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    diff = json.loads(captured.out)
    assert diff["units_added"] == ["added.example/Google"]
    assert diff["units_removed"] == ["tls-plain-request.example/Google"]
    assert diff["rules"] == [{"unit": "csrf-missing.example/Google",
                              "gained": [], "lost": ["csrf.missing"]}]
    (logins,) = diff["logins"]
    assert logins["unit"] == "csrf-missing.example/Google"
    assert [row["countermeasures"]["pkce"]
            for row in (*logins["old"], *logins["new"])] == [False, True]
    # csrf-missing.example asked for OAuth 2.0 and now asks for OIDC
    cells = {"Websites": 0, "Logins": 0, "OAuth 2.0": -1, "OIDC": 1,
             "code": 0, "hybrid": 0, "implicit": 0, "unknown": 0}
    assert diff["landscape"] == {"Google": cells, "Total": cells}
    assert diff["config"] == {}

    out = tmp_path / "diff.md"
    assert cli.main(["report", "diff", str(old), str(new),
                     "--format", "markdown", "--out", str(out)]) == 0
    sections = _sections(out.read_text())
    assert list(sections) == ["Units added", "Units removed", "Rules",
                              "Logins", "Landscape", "Config"]
    assert sections["Units added"] == ["| added.example/Google |"]
    assert sections["Units removed"] == ["| tls-plain-request.example/Google |"]
    assert sections["Rules"] == ["| csrf-missing.example/Google |  | "
                                 "csrf.missing |"]
    assert [_table_cells(row)[0] for row in sections["Logins"]] == \
        ["csrf-missing.example/Google"]
    assert sections["Landscape"] == [
        f"| {label} | 0 | 0 | -1 | 1 | 0 | 0 | 0 | 0 |"
        for label in ("Google", "Total")]
    assert sections["Config"] == []

    assert cli.main(["report", "diff", str(old), str(old)]) == 0
    assert not any(json.loads(capsys.readouterr().out).values())
    assert cli.main(["report", "diff", str(old), str(new),
                     "--format", "xml"]) == 1
    assert "format" in capsys.readouterr().err
    assert cli.main(["report", "diff", str(old),
                     str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_diff_reports_merges_fragments_that_share_a_key():
    def fragment(rule_ids, flows):
        return {"domain": "a.example", "idp": "Google",
                "findings": [{"rule_id": rule} for rule in rule_ids],
                "logins": [{"idp": "Google", "requested_flow": flow}
                           for flow in flows]}

    old = {"security": [fragment(["csrf.weak"], ["code"])]}
    new = {"security": [fragment(["csrf.weak", "csrf.missing"], ["code"]),
                        fragment(["flow.obsolete"], ["implicit"])]}
    diff = report.diff_reports(old, new)
    assert diff["units_added"] == diff["units_removed"] == []
    assert diff["rules"] == [{"unit": "a.example/Google",
                              "gained": ["csrf.missing", "flow.obsolete"],
                              "lost": []}]
    assert diff["logins"] == [{
        "unit": "a.example/Google",
        "old": [{"idp": "Google", "requested_flow": "code"}],
        "new": [{"idp": "Google", "requested_flow": "code"},
                {"idp": "Google", "requested_flow": "implicit"}]}]
    assert diff["landscape"]["Google"]["Logins"] == 1
    assert diff["landscape"]["Google"]["implicit"] == 1
    assert diff["landscape"]["Google"]["Websites"] == 0
    # the same rule ids split over the fragments in another way: no change
    swapped = {"security": new["security"][::-1]}
    assert report.diff_reports(new, swapped)["rules"] == []


def test_render_diff_markdown_tables():
    diff = {"units_added": ["a.example/Go|og\nle"], "units_removed": [],
            "rules": [{"unit": "b.example/Google", "gained": ["csrf.weak"],
                       "lost": ["csrf.missing", "flow.obsolete"]}],
            "logins": [{"unit": "b.example/Google", "old": [],
                        "new": [{"idp": "Google", "protocol": "oidc"}]}],
            "landscape": {"Go|og\nle": dict.fromkeys(
                ["Websites", "Logins", "OAuth 2.0", "OIDC", "code", "hybrid",
                 "implicit", "unknown"], 1)},
            "config": {"max_spar_depth": {"old": 8, "new": None}}}
    sections = _sections(report.render_diff(diff, "markdown"))
    assert sections == {
        "Units added": ["| a.example/Go\\|og le |"],
        "Units removed": [],
        "Rules": ["| b.example/Google | csrf.weak | csrf.missing "
                  "flow.obsolete |"],
        "Logins": ['| b.example/Google | [] | [{"idp":"Google",'
                   '"protocol":"oidc"}] |'],
        "Landscape": ["| Go\\|og le | 1 | 1 | 1 | 1 | 1 | 1 | 1 | 1 |"],
        "Config": ["| max_spar_depth | 8 | null |"],
    }
    assert report.render_diff(diff) == report.canonical_json(diff)
    with pytest.raises(UnknownFormat):
        report.render_diff(diff, "xml")


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


@pytest.mark.parametrize("command, payload", [
    ("render", b"not json {"),
    ("render", b"[1, 2]"),
    ("diff", json.dumps({"security": [{"domain": "a.example"}]}).encode()),
    ("diff", b'{"security": [{"domain": "a.example\xff"}]}\n'),
    ("diff", json.dumps({"security": "a.example/Google"}).encode()),
    ("render", b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    ("diff", b"[" * 100_000 + b"]" * 100_000),
    ("render", b'{"generated_at": "\xff"}'),
    ("diff", b"[1, 2]"),
    ("diff", json.dumps({"security": [{"idp": "Google"}]}).encode()),
], ids=["render-not-json", "render-not-object", "diff-idp-missing",
        "diff-not-utf8", "diff-security-not-list", "render-too-deep",
        "diff-too-deep", "render-not-utf8", "diff-not-object",
        "diff-domain-missing"])
def test_malformed_input_gives_one_error_line(tmp_path, capsys, command,
                                              payload):
    bad = tmp_path / "bad"
    bad.write_bytes(payload)
    if command == "render":
        argv = ["report", "render", str(bad)]
    else:
        good = tmp_path / "good.json"
        good.write_text(report.render_report(report.build_report()))
        argv = ["report", "diff", str(good), str(bad)]
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


@pytest.mark.parametrize("argv", [
    ["analyze", "PACK", "--format", "xml"],
    ["analyze", "PACK", "--bogus"],
    ["analyze"],
    ["spar", "x", "--max-depth", "abc"],
], ids=["bad-choice", "unknown-option", "missing-trace-dir", "bad-int"])
def test_usage_errors_exit_1_with_one_error_line(capsys, weak_pack, argv):
    # argparse's own exit code, 2, is the "vulnerability found" code
    argv = [str(weak_pack) if arg == "PACK" else arg for arg in argv]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["analyze", "--help"]):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert exc_info.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_module_runs_as_a_script(fixture_pack, capsys):
    root, _ = fixture_pack
    assert cli.main(["analyze", str(root)]) == 2
    expected = capsys.readouterr().out.encode("utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "sso_auditor.cli", "analyze",
                          str(root)], capture_output=True, env=env, timeout=120)
    assert run.returncode == 2
    assert run.stdout == expected


# the benchmark's set-up launch: import the CLI, build the default rule
# config and registry; then print which of the named modules are loaded
_STARTUP_CODE = (
    "import sys, sso_auditor.cli; "
    "from sso_auditor.security import RuleConfig; "
    "from sso_auditor.classify import default_registry; "
    "RuleConfig(); default_registry(); "
    "print(' '.join(name for name in sys.argv[1:] if name in sys.modules))")


def test_startup_loads_no_code_generation_and_no_other_command():
    # dataclasses (with inspect) generates methods at import; privacy and
    # landscape are imported by their own commands, synth only by tests
    unwanted = ["dataclasses", "inspect", "sso_auditor.privacy",
                "sso_auditor.landscape", "sso_auditor.synth"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _STARTUP_CODE, *unwanted],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


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
    ("registry", json.dumps({"idps": [{"name": "Total"}]}).encode(),
     "'Total' is reserved"),
], ids=["config-not-utf8", "registry-not-utf8", "patterns-number",
        "pattern-not-string", "patterns-bare-string", "idp-named-total"])
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
