"""The claim registry as a gate, checked without simulating.

``repro claims`` must fail when a paper direction flips and must not
fail when a claim improves; EXPERIMENTS.md's generated block must list
exactly the registry's claims, and its summary line must agree with the
verdicts its own rows report.  The Figure 1 claims measure the historic
dataset, so they run here in milliseconds; the simulated groups are
checked at the study scale by CI's ``claims`` job.
"""

import dataclasses
import re
from pathlib import Path

from repro.cli import main
from repro.core import claims

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def _block() -> list[str]:
    """The lines between EXPERIMENTS.md's ``claims`` markers."""
    lines = EXPERIMENTS.read_text(encoding="utf-8").splitlines()
    begin = lines.index("<!-- claims:begin -->")
    end = lines.index("<!-- claims:end -->")
    return lines[begin + 1:end]


def _table_rows(block: list[str]) -> list[list[str]]:
    """The cells of every claim row (header and rule lines excluded)."""
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in block if line.startswith("| ")]
    return [row for row in rows if row[0] != "claim"]


def _swap(monkeypatch, index: int, **changes) -> claims.Claim:
    """Replace one registry entry for the test's duration."""
    registry = list(claims.CLAIMS)
    registry[index] = dataclasses.replace(registry[index], **changes)
    monkeypatch.setattr(claims, "CLAIMS", registry)
    return registry[index]


class TestVerdicts:
    def test_ranks(self):
        claim = claims.Claim(
            "fig1", "x", "p", lambda exp: {}, "v={v}",
            holds=lambda m: m.v > 0, near=lambda m: m.v > 10)
        assert claim.verdict({"v": 20}) == "match"
        assert claim.verdict({"v": 5}) == "direction"
        assert claim.verdict({"v": -1}) == "miss"
        directional = dataclasses.replace(claim, near=None)
        assert directional.verdict({"v": 5}) == "match"

    def test_registry_is_well_formed(self):
        assert list(dict.fromkeys(c.group for c in claims.CLAIMS)) == \
            list(claims.GROUPS)
        for claim in claims.CLAIMS:
            assert claim.expected in claims.VERDICTS, claim.label
            if claim.expected != "match":
                assert claim.note, f"{claim.label}: a gap needs a note"
        labels = [(c.group, c.label) for c in claims.CLAIMS]
        assert len(labels) == len(set(labels))


class TestGate:
    def test_flipped_direction_fails(self, monkeypatch, capsys):
        original = claims.CLAIMS[0]
        flipped = _swap(monkeypatch, 0, measure=lambda exp: {
            **original.measure(exp), "growth": 0.5})
        assert main(["claims", "fig1"]) == 1
        out, err = capsys.readouterr()
        assert f"| {flipped.label} |" in out
        assert "miss (expected match)" in out
        assert (f"repro claims: fig1 claim '{flipped.label}' is miss, "
                f"expected match") in err

    def test_improvement_does_not_fail(self, monkeypatch, capsys):
        _swap(monkeypatch, 0, expected="miss", note="was a gap")
        _swap(monkeypatch, 1, expected="direction", note="was a gap")
        assert main(["claims", "fig1"]) == 0
        out, err = capsys.readouterr()
        assert "match (expected miss)" in out
        assert "match (expected direction)" in out
        assert err == ""

    def test_unknown_group_exits_2(self, capsys):
        assert main(["claims", "fig9"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro claims: unknown claim groups fig9")

    def test_figure_block_reads_the_registry(self):
        block = claims.paper_vs_measured("fig1", None)
        assert block.startswith("paper vs measured\nclaim")
        for claim in claims.CLAIMS[:3]:
            assert claim.label in block


class TestExperimentsBlock:
    def test_block_lists_the_registry_in_order(self):
        block = _block()
        headings = [line[4:] for line in block if line.startswith("### ")]
        assert headings == list(claims.GROUPS.values())
        assert [row[0] for row in _table_rows(block)] == \
            [c.label for c in claims.CLAIMS]

    def test_recorded_verdicts_are_the_expected_ones(self):
        verdicts = [row[3] for row in _table_rows(_block())]
        assert verdicts == [c.expected for c in claims.CLAIMS]

    def test_summary_line_counts_the_rows(self):
        block = _block()
        rows = _table_rows(block)
        summary = block[-1]
        match = re.match(
            r"Summary at scale 0\.25: (\d+) claims — (\d+) match .*?, "
            r"(\d+) direction .*?, (\d+) miss ", summary)
        assert match, summary
        total, *counts = (int(g) for g in match.groups())
        assert total == len(rows)
        assert counts == [sum(row[3].split()[0] == verdict for row in rows)
                          for verdict in claims.VERDICTS]


def test_claims_output_is_the_block_for_its_group(capsys):
    """A group's tables in ``repro claims`` output are byte-identical to
    the same lines of EXPERIMENTS.md (the whole-file diff is CI's)."""
    assert main(["claims", "fig1"]) == 0
    printed = capsys.readouterr().out.splitlines()
    block = _block()
    tables = printed[:-2]
    start = block.index(tables[0])
    assert block[start:start + len(tables)] == tables
