"""``tools/report_digest.py``: one digest line by default, and one line per report first with ``--each``."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HASHES = {"protocol-loops/1/0": "b" * 64, "configs/chsh.json": "a" * 64}


def load_tool(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool puts src/ and bench/ first on the path
    spec = importlib.util.spec_from_file_location("report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(monkeypatch):
    module = load_tool(monkeypatch)
    monkeypatch.setattr(module, "report_hashes", lambda: dict(HASHES))
    return module


def digest_line():
    return f"2 reports, digest {hashlib.sha256(json.dumps(HASHES, sort_keys=True).encode()).hexdigest()[:16]}"


def test_default_output_is_the_digest_line_alone(tool, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["report_digest.py"])
    tool.main()
    assert capsys.readouterr().out.splitlines() == [digest_line()]


def test_each_lists_every_report_in_key_order_before_the_digest(tool, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["report_digest.py", "--each"])
    tool.main()
    assert capsys.readouterr().out.splitlines() == [
        f"configs/chsh.json {'a' * 64}",
        f"protocol-loops/1/0 {'b' * 64}",
        digest_line(),
    ]


def test_every_report_keeps_its_bytes(monkeypatch, capsys):
    # The digest of every benchmark and shipped-config report, pinned.  A change that moves
    # reports on purpose regenerates the goldens and updates this pin with them.
    tool = load_tool(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["report_digest.py"])
    tool.main()
    assert capsys.readouterr().out.splitlines() == ["98 reports, digest 512603375a259856"]
