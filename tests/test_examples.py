"""Smoke tests: every example script runs end-to-end and prints its report.

The examples are the user-facing entry points promised by the README; running
them (with reduced sizes where they accept one) guards against API drift.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, f"{script} failed:\n{result.stderr}"
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "bytes/string" in out
        assert "pdms-golomb" in out
        assert "per-PE output sizes" in out

    def test_session_quickstart(self):
        out = _run("session_quickstart.py")
        assert "config hash" in out
        assert "machine reuses" in out
        assert "ms-stamped" in out
        assert "batch ingest" in out

    def test_dna_reads_sort(self):
        out = _run("dna_reads_sort.py", "800")
        assert "PDMS-Golomb" in out
        assert "fewer bytes than MS" in out

    def test_suffix_sorting(self):
        out = _run("suffix_sorting.py", "1200")
        assert "suffix array verified" in out

    def test_web_corpus_sort(self):
        out = _run("web_corpus_sort.py")
        assert "bytes_per_string" in out
        assert "commoncrawl" in out

    def test_trace_quickstart(self):
        out = _run("trace_quickstart.py", "1200")
        assert "legend:" in out
        assert "strings/s" in out
        assert "(valid)" in out

    def test_dn_weak_scaling(self):
        out = _run("dn_weak_scaling.py")
        assert "Weak scaling" in out
        assert "modelled time" in out
