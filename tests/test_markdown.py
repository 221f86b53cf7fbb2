"""Tests for the judges and the EXPERIMENTS.md view that prints them."""

import pytest

from repro.analysis import markdown
from repro.analysis.experiments import EXPERIMENTS, ExperimentResult


def judge(exp_id, rows):
    return EXPERIMENTS[exp_id].judge(rows)


class TestShapeVerdict:
    """Hand-made PASS / FAIL rows against the judges in experiments.py."""

    def test_fig2_pass(self):
        assert judge("fig2", [["SDC", 6, 5, 1], ["SWS", 3, 2, 1]])

    def test_fig2_fail(self):
        assert not judge("fig2", [["SDC", 6, 5, 1], ["SWS", 4, 3, 1]])

    def test_fig5_requires_stall_contrast(self):
        assert judge("fig5", [[1, 9.0], [2, 0.0]])
        assert not judge("fig5", [[1, 0.0], [2, 0.0]])

    def test_fig2_shm_holds_every_protocol_to_its_count(self):
        rows = [["SWS", "claim", 2, 0, 0, 1, 3, 2],
                ["SWS", "empty", 1, 0, 0, 0, 1, 1],
                ["SWS", "damped", 0, 0, 1, 0, 1, 0],
                ["SDC", "claim", 1, 2, 2, 1, 6, 3],
                ["SDC", "empty", 1, 1, 2, 0, 4, 2],
                ["ff-mult", "claim", 0, 1, 2, 1, 4, 1]]
        assert judge("fig2-shm", rows)
        damped_rmw = [r[:2] + [1, 0, 1, 0, 2, 1] if r[1] == "damped" else r
                      for r in rows]
        assert not judge("fig2-shm", damped_rmw)

    def test_fig5_shm_requires_one_cost_and_the_wait_contrast(self):
        rows = [[e, cap, slots, 2, 2, 0, 2, "yes" if e == 1 else "no"]
                for e in (1, 2) for cap, slots in ((256, 9), (4096, 13))]
        assert judge("fig5-shm", rows)
        # The cost that zeroes every slot grows with the completion row.
        per_slot = [r[:4] + [2 + 2 * r[2]] + r[5:] for r in rows]
        assert not judge("fig5-shm", per_slot)
        assert not judge("fig5-shm", [r[:7] + ["no"] for r in rows])

    def test_xbackend_requires_one_count_and_one_checksum(self):
        rows = [["UTS test_tiny", "SWS", 85, 85, 85, "-", "0x1", "0x1"],
                ["serving", "SDC", 7, 7, 7, "0x2", "0x2", "0x2"]]
        assert judge("xbackend", rows)
        lost = [rows[0], ["serving", "SDC", 7, 6, 7, "0x2", "0x2", "0x2"]]
        assert not judge("xbackend", lost)
        twice = [rows[0][:6] + ["0x3", "0x1"], rows[1]]
        assert not judge("xbackend", twice)

    def test_malformed_rows_raise(self):
        """No third verdict: rows a judge cannot read are an error (an
        ``error`` row in a sweep), never a silent pass."""
        with pytest.raises((KeyError, IndexError, ValueError)):
            judge("fig2", [])

    def test_explore_race_needs_a_clean_fused_claim_and_a_caught_split(self):
        rows = [["flat", n, "fixed", f"{int(n > 2)}/1",
                 "conservation" if n > 2 else "-", 0 if n > 2 else "-", "0/1"]
                for n in (2, 3, 4)]
        assert judge("explore-race", rows)
        assert not judge("explore-race", [r[:6] + ["1/1"] for r in rows])
        missed = rows[:2] + [rows[2][:3] + ["0/1", "-", "-", "0/1"]]
        assert not judge("explore-race", missed)

    def test_every_experiment_has_a_claim_and_a_judge(self):
        assert len(EXPERIMENTS) == 29
        for exp_id, exp in EXPERIMENTS.items():
            assert exp.claim and "n/a" not in exp.claim, exp_id
            assert callable(exp.judge), exp_id

    def test_fig7_judge_is_the_strict_one(self):
        def rows(sws_runtime=10.0, sws_search=1.0, eff=95.0, sd=0.5):
            return [
                ["SDC", 2, 10.0, 0, 100.0, eff, sd, 0, 4.0, 2.0],
                ["SWS", 2, sws_runtime, 0, 100.0, eff, sd, 0, 2.0, sws_search],
                ["SDC", 4, 6.0, 0, 100.0, 80.0, sd, 0, 8.0, 4.0],
                ["SWS", 4, 6.0, 0, 100.0, 80.0, sd, 0, 3.0, 1.0],
            ]

        assert judge("fig7", rows())
        assert not judge("fig7", rows(sws_runtime=11.5))  # parity within 10 %
        assert not judge("fig7", rows(sws_search=2.5))    # search lower everywhere
        assert not judge("fig7", rows(eff=85.0))          # > 90 % at smallest scale
        assert not judge("fig7", rows(sd=6.0))            # SD < 5 % everywhere

    PROTOCOLS = [
        ["sws", "exactly-once", 3, 2, 1.3, 4.4, 26.0, 5000.0, 0],
        ["sws-v1", "exactly-once", 3, 2, 1.3, 4.4, 21.0, 5000.0, 0],
        ["sdc", "exactly-once", 6, 5, 3.1, 4.4, 19.0, 5000.0, 0],
        ["ff-mult", "at-least-once", 3, 3, 1.8, 18.0, 5.0, 600.0, 268],
        ["localized", "exactly-once", 3, 2, 1.3, 4.4, 24.0, 5000.0, 0],
    ]

    @pytest.mark.parametrize("row, col, value", [
        (None, None, None),   # the table above passes
        (2, 3, 4),            # sdc blocking off its declared budget of 5
        (0, 8, 1),            # a duplicate under exactly-once
        (4, 4, 3.2),          # an SWS-family steal slower than SDC's
        (0, 5, 6.0),          # sws mean runtime beyond its own seed range
    ])
    def test_protocols_judge(self, row, col, value):
        rows = [list(r) for r in self.PROTOCOLS]
        if row is not None:
            rows[row][col] = value
        assert judge("protocols", rows) == (row is None)

    def test_protocols_gap_inside_the_seed_range_passes(self):
        rows = [list(r) for r in self.PROTOCOLS]
        rows[0][5] = 4.7  # 6.4 % above sdc's mean, range 26 %
        assert judge("protocols", rows)

    SERVING = [
        ["SDC", "0.25x", 531, 531, 0, 1.8, 7.2, 9.5, "100.0%"],
        ["SDC", "0.90x", 1888, 1888, 0, 9.1, 35.4, 999.9, "99.6%"],
        ["SDC", "1.50x", 3051, 2194, 857, 108.6, 135.3, 1150.1, "23.2%"],
        ["SWS", "0.25x", 531, 531, 0, 1.3, 8.4, 9.1, "100.0%"],
        ["SWS", "0.90x", 1888, 1888, 0, 8.7, 34.0, 960.6, "99.6%"],
        ["SWS", "1.50x", 3051, 2194, 857, 108.6, 135.3, 1150.1, "23.2%"],
    ]

    @pytest.mark.parametrize("row, col, value", [
        (None, None, None),
        (1, 6, 5.0),     # p99 falls as load rises
        (4, 6, 35.5),    # SWS p99 above SDC's at 0.9x capacity
        (0, 4, 3),       # shedding below capacity
    ])
    def test_serving_judge(self, row, col, value):
        rows = [list(r) for r in self.SERVING]
        if row is not None:
            rows[row][col] = value
        assert judge("serving", rows) == (row is None)

    @pytest.mark.parametrize("exp_id", ["serving_sws", "serving_sdc"])
    def test_serving_bench_judge(self, exp_id):
        row = ["SWS", 1800000, 1888, 1888, 1880, 8, 8.7, 34.0, 960.6, "99.6%", "0x0"]
        assert judge(exp_id, [row])
        assert not judge(exp_id, [row[:4] + [1879] + row[5:]])  # one lost

    FAULTS = [
        [11, "SWS", 0.005, 1200, 1200, 1200, 4.47, 164, 12, 0.073, 0, 18],
        [11, "SDC", 0.005, 1200, 1200, 1200, 4.89, 141, 20, 0.142, 8, 31],
        [11, "SWS", 0.02, 1200, 1200, 1200, 4.70, 158, 46, 0.291, 0, 57],
        [11, "SDC", 0.02, 1200, 1200, 1200, 6.02, 153, 97, 0.634, 30, 135],
    ]

    @pytest.mark.parametrize("row, col, value", [
        (None, None, None),   # the table above passes
        (0, 6, 5.0),          # SWS slower at drop 0.005: not judged
        (2, 10, 1),           # SWS with one lease break
        (1, 10, 0),           # SDC recovering no lock
        (3, 9, 1.4 * 0.291),  # SDC retries/steal 1.4x SWS's
        (3, 6, 4.70),         # SDC no slower at drop 0.02
        (1, 4, 1199),         # one run executed 1,199 tasks
        (2, 5, 1199),         # one task ran twice
    ])
    def test_ablate_faults_judge(self, row, col, value):
        rows = [list(r) for r in self.FAULTS]
        if row is not None:
            rows[row][col] = value
        assert judge("ablate-faults", rows) == (row in (None, 0))

    def test_fig7_jumbo_judge(self):
        assert judge("fig7_jumbo", [[2112, 2.7, 4224, 4224, 742, 485929]])
        assert not judge("fig7_jumbo", [[2112, 2.7, 4224, 4223, 742, 485929]])
        assert not judge("fig7_jumbo", [[2112, 2.7, 4224, 4224, 0, 485929]])
        assert not judge("fig7_jumbo", [[2048, 2.7, 4224, 4224, 742, 485929]])


class TestMarkdownTable:
    def test_renders_github_table(self):
        r = ExperimentResult("t", ["a", "b"], [[1, 2.5]])
        out = markdown.markdown_table(r)
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2.5 |"


def stub_fig2(scale, sws=(3, 2, 1)):
    return ExperimentResult(
        "stub", ["impl", "total", "blk", "nb"],
        [["SDC", 6, 5, 1], ["SWS", *sws]],
        notes=["stub note"],
    )


class TestGenerate:
    def test_generate_subset(self):
        results = [
            ExperimentResult("later", ["a"], [[1]], exp_id="tab1", claim="c1",
                             verdict="PASS"),
            ExperimentResult("stub", ["impl"], [["SDC"]], notes=["stub note"],
                             exp_id="fig2", claim="SDC = 6", verdict="FAIL"),
        ]
        text = markdown.render_document(results, "quick")
        assert text.index("## fig2: stub") < text.index("## tab1: later")  # sorted
        assert "**Claim:** SDC = 6" in text
        assert "- stub note" in text
        assert "**Shape verdict:** FAIL" in text and "**Shape verdict:** PASS" in text
        assert "--scale quick --markdown" in text

    def test_main_writes_file(self, monkeypatch, tmp_path):
        """``sweep --markdown`` over a stubbed registry, to keep it fast."""
        from repro.__main__ import main

        from repro.analysis import exp_steal

        fig2 = EXPERIMENTS["fig2"]
        monkeypatch.setattr(exp_steal, "fig2", stub_fig2)
        out = tmp_path / "EXP.md"
        rc = main(["sweep", "--scenarios", "fig2", "--jobs", "1", "--quiet",
                   "--no-cache", "--markdown", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "## fig2: stub" in text and fig2.claim in text

    def test_main_fails_on_shape_fail(self, monkeypatch, tmp_path, capsys):
        from repro.__main__ import main

        from repro.analysis import exp_steal

        monkeypatch.setattr(exp_steal, "fig2",
                            lambda scale: stub_fig2(scale, sws=(9, 9, 0)))
        out = tmp_path / "f.md"
        rc = main(["sweep", "--scenarios", "fig2", "--jobs", "1", "--quiet",
                   "--no-cache", "--markdown", str(out)])
        assert rc == 1
        assert "not PASS: fig2 (FAIL)" in capsys.readouterr().err
        assert "**Shape verdict:** FAIL" in out.read_text()  # still written
