"""The multi-tenant serve CLI surface, driven as real subprocesses.

Malformed ``--tenants`` / ``--replicas`` / ``--quota`` values must exit
2 with argparse usage on stderr (the contract CI scripts and operators
rely on), and the pinned ``--smoke`` gate must pass end to end —
including the replica-kill drill — in one short run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.report import RunReport

REPO = Path(__file__).parent.parent


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO,
    )


class TestMalformedFlagsExitTwo:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--tenants", "0"),
            ("--tenants", "-3"),
            ("--tenants", "a:platinum"),
            ("--tenants", "a:gold,a:gold"),
            ("--tenants", ","),
            ("--tenants", "2", "--replicas", "0"),
            ("--tenants", "2", "--replicas", "two"),
            ("--tenants", "2", "--quota", "0"),
            ("--tenants", "2", "--quota", "-5"),
        ],
    )
    def test_malformed_value_exits_2_with_usage(self, flags):
        proc = run_cli("serve", *flags)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
        # argparse names the offending option in its error line.
        assert flags[-2].lstrip("-").split()[0] in proc.stderr.replace(
            "--", ""
        ) or flags[-2] in proc.stderr


class TestClusterSmoke:
    def test_smoke_gate_passes(self):
        proc = run_cli(
            "serve", "--smoke", "--tenants", "3", "--replicas", "2",
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "cluster gate: PASS" in proc.stdout
        # The drill section confirms the replica kill actually fired.
        assert "replicas live: 1/2" in proc.stdout

    def test_named_tenants_json_out(self, tmp_path):
        out = tmp_path / "cluster.json"
        proc = run_cli(
            "serve", "--tenants", "web:gold,batch:bronze",
            "--scale", "8", "--queries", "40", "--duration", "0.2",
            "--seed", "5", "--validate", "--out", str(out),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(out.read_text())
        assert set(doc["tenants"]) == {"web", "batch"}
        assert doc["report"]["accounted"] == 40
        assert doc["report"]["wrong_parents"] == 0
        # The same file is a RunReport `repro compare` can load.
        report = RunReport.load(out)
        assert report.metrics["serve.requests"] == 40
        assert set(report.context["tenants"]) == {"web", "batch"}
