"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.cliargs import config_from_args, network_from_args
from repro.core.cache import trial_cache_key
from repro.core.runner import TrialSpec

from tests import cache_logs


#: ``fleet plan`` commands short of the flag a case adds.
PLAN_CYCLE = ["fleet", "plan", "cycle", "--out-dir", "p", "--shards", "2"]
#: A cycle that runs in seconds where a policy flag is taken.
CYCLE = [
    "cycle", "--services", "iperf_cubic", "iperf_reno", "--trials", "1",
    "--duration", "10",
]
PLAN_SWEEP = [
    "fleet", "plan", "sweep", "bandwidth", "iperf_cubic", "iperf_reno",
    "--out-dir", "p", "--shards", "2",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    @pytest.mark.parametrize(
        "command",
        [
            ["pair", "iperf_cubic", "iperf_reno"],
            ["fleet", "run-shard", "shard-0.json", "--cache-dir", "c",
             "--backend", "process"],
            ["fleet", "cycle", "--out-dir", "d"],
        ],
        ids=["pair", "run-shard", "fleet-cycle"],
    )
    def test_pool_size_below_one_is_a_usage_error(
        self, command, workers, capsys
    ):
        """A pool needs a worker: ``--workers 0`` used to run inline
        silently, or die in ``concurrent.futures`` with a traceback."""
        with pytest.raises(SystemExit) as raised:
            main([*command, "--workers", workers])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "argument --workers: expected an integer >= 1" in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["fleet", "plan", "cycle", "--out-dir", "p"], "--shards", "0"),
            (["fleet", "plan", "cycle", "--out-dir", "p"], "--shards", "-1"),
            (["fleet", "plan", "cycle", "--out-dir", "p", "--shards", "2"],
             "--trials", "0"),
            (["fleet", "cycle", "--out-dir", "d"], "--shards", "0"),
            (["cycle"], "--trials", "0"),
            (["sweep", "bandwidth", "iperf_cubic", "iperf_reno",
              "--values", "8"], "--trials", "0"),
            (["fleet", "retry", "plan.json", "c0", "--out-dir", "r"],
             "--attempt", "-1"),
            (["service", "ingest-once", "--spool", "s", "--out", "o"],
             "--plan-shards", "0"),
            (["service", "ingest-once", "--spool", "s", "--out", "o"],
             "--plan-trials", "0"),
            (["service", "ingest-once", "--spool", "s", "--out", "o"],
             "--window-cycles", "0"),
            (["service", "run", "--spool", "s", "--out", "o"],
             "--window-cycles", "-1"),
        ],
        ids=[
            "plan-shards-0", "plan-shards-neg", "plan-trials-0",
            "fleet-cycle-shards-0", "cycle-trials-0", "sweep-trials-0",
            "retry-attempt-neg", "service-plan-shards-0",
            "service-plan-trials-0", "service-window-cycles-0",
            "service-run-window-cycles-neg",
        ],
    )
    def test_counts_below_one_are_usage_errors(
        self, command, flag, value, capsys, tmp_path, monkeypatch
    ):
        """Every count flag is an integer >= 1 at parse time: these used
        to die in a ``ValueError`` traceback (exit 1), or - for the
        service's next-plan shape - only at the first ingest."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main([*command, flag, value])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected an integer >= 1" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag, value, complaint",
        [
            (["pair", "iperf_cubic", "iperf_reno"], "--duration", "0",
             "expected a number > 0"),
            (["pair", "iperf_cubic", "iperf_reno"], "--duration", "1e-8",
             "expected seconds that leave a positive measurement window"),
            (["pair", "iperf_cubic", "iperf_reno"], "--bandwidth", "0",
             "expected a number > 0"),
            (["cycle"], "--bandwidth", "inf", "expected a number > 0"),
            (["service", "ingest-once", "--spool", "s", "--out", "o"],
             "--plan-duration", "0", "expected a number > 0"),
            (["service", "ingest-once", "--spool", "s", "--out", "o"],
             "--plan-bandwidths", ",", "expected a number > 0"),
            (["service", "ingest-once", "--spool", "s", "--out", "o"],
             "--plan-bandwidths", "0", "expected a number > 0"),
            (["service", "ingest-once", "--spool", "s", "--out", "o"],
             "--plan-bandwidths", "8,-8", "expected a number > 0"),
            (["service", "run", "--spool", "s", "--out", "o"],
             "--poll-sec", "-1", "expected a number > 0"),
            (["service", "run", "--spool", "s", "--out", "o"],
             "--max-loops", "0", "expected an integer >= 1"),
            (PLAN_CYCLE, "--buffer-bdp", "inf", "expected a number > 0"),
            (PLAN_CYCLE, "--buffer-bdp", "nan", "expected a number > 0"),
            (PLAN_CYCLE, "--buffer-bdp", "0", "expected a number > 0"),
            (PLAN_CYCLE, "--buffer-bdp", "-1", "expected a number > 0"),
            (["pair", "iperf_cubic", "iperf_reno"], "--buffer-bdp", "inf",
             "expected a number > 0"),
            (PLAN_SWEEP, "--values", "8,nan", "expected a finite number"),
            (PLAN_SWEEP, "--values", "inf", "expected a finite number"),
            (["sweep", "bandwidth", "iperf_cubic", "iperf_reno"],
             "--values", "8,-inf", "expected a finite number"),
            (CYCLE, "--min-trials", "-3", "expected an integer >= 1"),
            (CYCLE, "--min-trials", "0", "expected an integer >= 1"),
            (CYCLE, "--max-trials", "0", "expected an integer >= 1"),
            (CYCLE, "--batch-size", "0", "expected an integer >= 1"),
            (["fleet", "cycle", "--out-dir", "d"], "--batch-size", "0",
             "expected an integer >= 1"),
            (CYCLE, "--ci-mbps", "nan", "expected a number > 0"),
            (CYCLE, "--ci-mbps", "0", "expected a number > 0"),
            (CYCLE, "--ci-mbps", "-1", "expected a number > 0"),
        ],
        ids=[
            "pair-duration-0", "pair-duration-no-window", "pair-bandwidth-0",
            "cycle-bandwidth-inf", "service-plan-duration-0",
            "service-plan-bandwidths-empty", "service-plan-bandwidths-0",
            "service-plan-bandwidths-neg", "service-poll-sec-neg",
            "service-max-loops-0", "plan-buffer-bdp-inf",
            "plan-buffer-bdp-nan", "plan-buffer-bdp-0", "plan-buffer-bdp-neg",
            "pair-buffer-bdp-inf", "plan-sweep-values-nan",
            "plan-sweep-values-inf", "sweep-values-neg-inf",
            "cycle-min-trials-neg", "cycle-min-trials-0",
            "cycle-max-trials-0", "cycle-batch-size-0",
            "fleet-cycle-batch-size-0", "cycle-ci-mbps-nan",
            "cycle-ci-mbps-0", "cycle-ci-mbps-neg",
        ],
    )
    def test_numbers_out_of_range_are_usage_errors(
        self, command, flag, value, complaint, capsys, tmp_path, monkeypatch
    ):
        """A rate, duration or interval flag is checked at parse time:
        these died in a ``ValueError`` traceback (exit 1), or were taken
        - a zero-bandwidth next plan, a poll loop that never sleeps, a
        ``--max-loops 0`` that still ran a pass, a plan with a zero or
        negative buffer."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main([*command, f"{flag}={value}"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {complaint}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-1", "one"])
    def test_a_negative_retry_budget_is_a_usage_error(
        self, value, capsys, tmp_path, monkeypatch
    ):
        """``fleet cycle --max-retries -1`` used to dispatch no shard and
        abort with "no receipt after -1 retries"."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main(["fleet", "cycle", "--out-dir", "d", "--max-retries", value])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "argument --max-retries: expected an integer >= 0" in err
        assert list(tmp_path.iterdir()) == []


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


class TestDamagedArtifacts:
    """A damaged cache entry or model file ends a top-level command with
    exit 1 and one ``repro error: <file>: <defect>`` line, as under
    ``fleet`` - not a traceback."""

    PAIR = ["pair", "iperf_cubic", "iperf_reno", "--duration", "5"]

    def test_pair_over_a_cut_short_cache_entry(self, tmp_path, capsys):
        args = build_parser().parse_args(self.PAIR)
        spec = TrialSpec.pair(
            args.service_a, args.service_b, network_from_args(args),
            config_from_args(args), seed=args.seed,
        )
        key = trial_cache_key(spec)
        log = cache_logs.append(tmp_path, {key: b'{"contender_id": "iperf_cu'})
        assert main([*self.PAIR, "--cache-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"repro error: {log}: line 1, key {key}: not valid JSON"
        )
        assert "Traceback" not in err

    def test_earlystop_fit_over_a_damaged_entry(self, tmp_path, capsys):
        key = "ab" * 32
        log = cache_logs.append(tmp_path, {f"{key}.flight": b"{}", key: b"[]"})
        code = main([
            "earlystop", "fit", "--cache-dir", str(tmp_path),
            "--out", str(tmp_path / "model.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"repro error: {log}: line 2, key {key}: expected a JSON "
            "object, found list\n"
        )

    def test_pair_with_a_future_schema_model(self, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({"schema": 99}))
        assert main([*self.PAIR, "--earlystop", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro error: {model}: ")
        assert "schema" in err and err.count("\n") == 1


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

    SWEEP = ["bandwidth", "iperf_cubic", "iperf_reno", "--values", "4,8",
             "--buffer-bdp", "8", "--trials", "1", "--duration", "5"]

    def test_runs_the_trials_fleet_plan_sweep_plans(self, tmp_path):
        """Every flag the planner honours, ``--buffer-bdp`` included."""
        from repro.fleet import load_plan

        cache = tmp_path / "cache"
        assert main(["sweep", *self.SWEEP, "--cache-dir", str(cache)]) == 0
        assert main(["fleet", "plan", "sweep", *self.SWEEP, "--shards", "1",
                     "--out-dir", str(tmp_path / "plan")]) == 0
        plan = load_plan(tmp_path / "plan" / "plan.json")
        assert sorted(cache_logs.records(cache)) == sorted(
            plan.expected_keys()
        )

    def test_json_is_the_points(self, capsys):
        from repro.core.sweep import SweepPoint

        assert main(["sweep", *self.SWEEP, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [SweepPoint(**p).parameter for p in payload] == [4.0, 8.0]
