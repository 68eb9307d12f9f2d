"""Smoke runs of the documented scripts, each in its own interpreter."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import break_boson_same_point

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_theorem_scan(tmp_path):
    done = run_script("theorem_scan.py", "--ring", "6", "--max-twos-s", "2", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    verdicts = [
        json.loads((tmp_path / f"theorem_twos{twos_s}.json").read_text())["verdict_sigma"]
        for twos_s in range(3)
    ]
    assert verdicts == [1, -1, 1]


def test_theorem_scan_without_a_verdict_exits_one_after_every_report(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("theorem_scan", ROOT / "scripts" / "theorem_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    break_boson_same_point(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["theorem_scan.py", "--ring", "6", "--max-twos-s", "2", "--out", str(tmp_path)])
    assert scan.main() == 1
    reports = [json.loads((tmp_path / f"theorem_twos{twos_s}.json").read_text()) for twos_s in range(3)]
    # bosons' vanishing same-point pair breaks half-integral spin only
    assert [r["verdict_sigma"] for r in reports] == [1, None, 1]
    assert "2s=1: no verdict: expected exactly one consistent grade, got [1, -1]" in capsys.readouterr().out


def test_pair_demo(tmp_path):
    done = run_script("pair_demo.py", "--ring", "6", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for label in ("bosons", "fermions"):
        assert (tmp_path / f"profile_{label}.csv").is_file()
        assert (tmp_path / f"angular_{label}.csv").is_file()
