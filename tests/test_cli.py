"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestServices:
    def test_lists_catalog(self, capsys):
        assert main(["services"]) == 0
        out = capsys.readouterr().out
        assert "mega" in out
        assert "youtube" in out

    def test_json_output(self, capsys):
        assert main(["services", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["id"] == "mega" for row in rows)


class TestSolo:
    def test_solo_run(self, capsys):
        code = main(["solo", "iperf_bbr", "--duration", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mbps solo" in out

    def test_solo_json(self, capsys):
        code = main(["solo", "iperf_reno", "--duration", "20", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["throughput_bps"]["iperf_reno"] > 0


class TestPair:
    def test_pair_run(self, capsys):
        code = main(
            ["pair", "iperf_cubic", "iperf_reno", "--duration", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iperf_cubic" in out
        assert "% of MmF share" in out

    def test_pair_json_shares_sum(self, capsys):
        code = main(
            ["pair", "iperf_cubic", "iperf_reno", "--duration", "20", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["mmf_share"]) == {"iperf_cubic", "iperf_reno"}


class TestBenchCompare:
    """The bench regression gate: ``compare()`` and the --compare flag."""

    def _payload(self, rate_p50, rate_best=None):
        return {
            "scenarios": {
                "pair-x": {
                    "pkts_per_sec": rate_best or rate_p50,
                    "pkts_per_sec_p50": rate_p50,
                }
            }
        }

    def test_compare_flags_regressions(self):
        from repro.bench import compare

        lines, regressions = compare(
            self._payload(100.0), self._payload(80.0), threshold=0.15
        )
        assert len(lines) == 1 and "REGRESSION" in lines[0]
        assert len(regressions) == 1 and "pair-x" in regressions[0]

    def test_compare_within_threshold_passes(self):
        from repro.bench import compare

        lines, regressions = compare(
            self._payload(100.0), self._payload(90.0), threshold=0.15
        )
        assert regressions == []
        assert "0.90x" in lines[0]

    def test_compare_prefers_p50_rate(self):
        from repro.bench import compare

        # Best-rep rate collapsed but p50 held: not a regression (and
        # vice versa would be one).
        baseline = self._payload(100.0, rate_best=100.0)
        current = self._payload(99.0, rate_best=10.0)
        _lines, regressions = compare(baseline, current, threshold=0.15)
        assert regressions == []

    def test_compare_falls_back_for_old_baselines(self):
        from repro.bench import compare

        baseline = {"scenarios": {"pair-x": {"pkts_per_sec": 100.0}}}
        _lines, regressions = compare(
            baseline, self._payload(50.0), threshold=0.15
        )
        assert len(regressions) == 1

    def test_compare_tolerates_missing_scenarios(self):
        from repro.bench import compare

        lines, regressions = compare({"scenarios": {}}, self._payload(50.0))
        assert lines == ["pair-x: no baseline"]
        assert regressions == []

    def test_cli_compare_gate(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "bench.json"
        base = tmp_path / "baseline.json"
        # One real (tiny) run: the suite executes and writes its payload.
        code = main([
            "bench", "--duration", "0.3", "--repeats", "1",
            "--output", str(out), "--json",
        ])
        assert code == 0
        recorded = json.loads(out.read_text())
        assert recorded["scenarios"]
        # From here on the scenario runner replays that recording, so the
        # gate's exit codes depend on the two payloads alone: tier-1 holds
        # no wall-clock assertion.
        monkeypatch.setattr(
            "repro.bench.run_benchmark",
            lambda **_kwargs: json.loads(json.dumps(recorded)),
        )
        gate = [
            "bench", "--output", str(out), "--json", "--compare", str(base),
        ]

        def baseline_scaled(factor):
            payload = json.loads(json.dumps(recorded))
            for row in payload["scenarios"].values():
                for key in ("pkts_per_sec", "pkts_per_sec_p50"):
                    if key in row:
                        row[key] *= factor
            base.write_text(json.dumps(payload))
            capsys.readouterr()

        # Against itself, and against a baseline 10% faster (inside the
        # default 15% threshold), the gate passes.
        baseline_scaled(1.0)
        assert main(gate) == 0
        baseline_scaled(1.1)
        assert main(gate) == 0
        # A baseline 25% faster fails it; a looser threshold lets it by.
        baseline_scaled(1.25)
        assert main(gate) == 1
        assert "regressed" in capsys.readouterr().err
        assert main(gate + ["--fail-threshold", "0.5"]) == 0
        # An unreadable baseline is an error, not a skip.
        code = main(gate[:-1] + [str(tmp_path / "missing.json")])
        assert code == 2


class TestClassify:
    def test_classify_reno(self, capsys):
        code = main(["classify", "reno", "--duration", "20"])
        assert code == 0
        assert "reno-like" in capsys.readouterr().out

    def test_unknown_cca(self, capsys):
        assert main(["classify", "nope"]) == 2


class TestCycle:
    def test_small_cycle(self, capsys):
        code = main(
            [
                "cycle",
                "--services", "iperf_cubic", "iperf_reno",
                "--trials", "1",
                "--duration", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "median losing share" in out


class TestSweep:
    def test_bandwidth_sweep(self, capsys):
        code = main(
            [
                "sweep", "bandwidth", "iperf_cubic", "iperf_reno",
                "--values", "4,8",
                "--trials", "1",
                "--duration", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4.00" in out and "8.00" in out
