from collections import Counter

import pytest

from sso_auditor import spar
from sso_auditor.synth import build_fixture_pack
from sso_auditor.trace import parse_trace_bundle


@pytest.fixture(scope="session")
def fixture_pack(tmp_path_factory):
    """The on-disk rule trigger pack: (root dir, manifest dict)."""
    root = tmp_path_factory.mktemp("fixture-pack")
    manifest = build_fixture_pack(root)
    return root, manifest


def from_deeper(frames, fn):
    """``fn()``, called ``frames`` Python frames below the caller."""
    return fn() if frames == 0 else from_deeper(frames - 1, fn)


def load_bundle(bundle_dir):
    ibc_path = bundle_dir / "ibc.json"
    return parse_trace_bundle(
        (bundle_dir / "trace.har").read_bytes(),
        (bundle_dir / "meta.json").read_bytes(),
        ibc_path.read_bytes() if ibc_path.is_file() else None,
    )


@pytest.fixture(scope="session")
def bundle_loader():
    return load_bundle


@pytest.fixture
def decoded(monkeypatch):
    """Counts calls of ``spar.decode`` and ``spar.decode_query_string`` per
    top-level value."""
    counts = Counter()
    for name in ("decode", "decode_query_string"):
        def counting(value, *args, _decode=getattr(spar, name), **kwargs):
            counts[value] += 1
            return _decode(value, *args, **kwargs)
        monkeypatch.setattr(spar, name, counting)
    return counts
