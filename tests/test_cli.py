"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.persist.journal import JOURNAL_NAME, _canonical, _crc


def _restamp_begin(directory, tag):
    """Re-stamp the journal's begin record (valid CRC) with format ``tag``."""
    path = os.path.join(directory, JOURNAL_NAME)
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        body = json.loads(line)
        if body["kind"] == "begin":
            body.pop("crc")
            body["data"]["format"] = tag
            lines[i] = _canonical({**body, "crc": _crc(body)})
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")


def _refused(capsys, argv):
    """Run a refused resume; returns its one ``error:`` line."""
    assert main(argv) != 0
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.topology == "canonical"
        assert args.policy == "hlf"
        assert args.ga is False

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "bogus"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "S-CORE" in out
        assert "128 racks" in out

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "--racks", "4", "--hosts-per-rack", "2", "--tors-per-agg", "2",
                "--cores", "1", "--vms-per-host", "4", "--iterations", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "initial cost" in out
        assert "reduction" in out

    def test_run_with_ga(self, capsys):
        code = main(
            [
                "run",
                "--racks", "4", "--hosts-per-rack", "2", "--tors-per-agg", "2",
                "--cores", "1", "--vms-per-host", "4", "--iterations", "2",
                "--ga", "--ga-population", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GA-optimal reference" in out
        assert "cost ratio vs optimal" in out

    def test_run_fattree(self, capsys):
        code = main(
            ["run", "--topology", "fattree", "--fattree-k", "4",
             "--vms-per-host", "4", "--iterations", "2"]
        )
        assert code == 0
        assert "topology:" in capsys.readouterr().out

    def test_compare_policies(self, capsys):
        code = main(
            [
                "compare-policies",
                "--racks", "4", "--hosts-per-rack", "2", "--tors-per-agg", "2",
                "--cores", "1", "--vms-per-host", "4", "--iterations", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for policy in ("rr", "hlf", "random", "lrv"):
            assert policy in out

    def test_migration_profile(self, capsys):
        code = main(["migration-profile", "--points", "3", "--samples", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "downtime" in out
        assert out.count("\n") >= 4


class TestScenarioCommand:
    def test_list_catalogue(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "steady", "diurnal-drift", "hotspot-flip",
            "flash-crowd", "rolling-maintenance",
        ):
            assert name in out

    def test_bare_command_lists_too(self, capsys):
        assert main(["scenario"]) == 0
        assert "steady" in capsys.readouterr().out

    def test_run_named_scenario_toy(self, capsys):
        code = main(
            ["scenario", "steady", "--scale", "toy", "--epochs", "2",
             "--iterations-per-epoch", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch" in out
        assert "migrations" in out
        assert "scheduling" in out

    def test_profile_with_checkpoint_dir_prints_the_phase_table(
        self, tmp_path, capsys
    ):
        code = main(
            ["scenario", "steady", "--scale", "toy", "--epochs", "1",
             "--iterations-per-epoch", "1", "--profile",
             "--checkpoint-dir", str(tmp_path / "ckpt")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduling phases" in out
        assert "transition" in out

    def test_a_resumed_run_profiles_only_when_asked(self, tmp_path, capsys):
        """Snapshots carry no profiling state, so resuming a profiled run
        without ``--profile`` prints no phase table."""
        directory = str(tmp_path / "ckpt")
        code = main(
            ["scenario", "steady", "--scale", "toy", "--epochs", "1",
             "--iterations-per-epoch", "1", "--profile",
             "--checkpoint-dir", directory]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["scenario", "--recover-from", directory]) == 0
        assert "scheduling phases" not in capsys.readouterr().out
        assert main(
            ["scenario", "--recover-from", directory, "--profile"]
        ) == 0
        assert "scheduling phases" in capsys.readouterr().out

    def test_unknown_scenario_errors(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            main(["scenario", "not-a-scenario"])


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--state-dir", "/tmp/x"])
        assert args.scale == "toy"
        assert args.source == "poisson"
        assert args.resume is False

    def test_state_dir_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_then_resume_round_trip(self, tmp_path, capsys):
        where = str(tmp_path / "svc")
        code = main(
            ["serve", "--state-dir", where, "--scale", "toy",
             "--horizon-rounds", "3", "--rate", "2", "--print-plans"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan round=" in out
        assert "stopped: stream absorbed and scheduler quiesced" in out
        assert "admission:" in out

        # A finished service resumes idempotently: same committed cost,
        # no re-work, recovery provenance printed.
        assert main(["serve", "--state-dir", where, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "recovered from: snapshot-" in out
        assert "(0 live)" in out

    def test_resume_of_an_older_format_is_one_error_line(
        self, tmp_path, capsys
    ):
        where = str(tmp_path / "svc")
        assert main(
            ["serve", "--state-dir", where, "--scale", "toy", "--rounds", "1"]
        ) == 0
        capsys.readouterr()
        _restamp_begin(where, "score-journal/v6")
        line = _refused(capsys, ["serve", "--state-dir", where, "--resume"])
        assert "score-journal/v6" in line

    def test_resume_of_a_scenario_directory_is_one_error_line(
        self, tmp_path, capsys
    ):
        where = str(tmp_path / "run")
        assert main(
            ["scenario", "steady", "--scale", "toy", "--epochs", "1",
             "--iterations-per-epoch", "1", "--checkpoint-dir", where]
        ) == 0
        capsys.readouterr()
        line = _refused(capsys, ["serve", "--state-dir", where, "--resume"])
        assert "SchedulerService" in line
        # And the other way round: a service directory is no scenario run.
        served = str(tmp_path / "svc")
        assert main(
            ["serve", "--state-dir", served, "--scale", "toy", "--rounds", "1"]
        ) == 0
        capsys.readouterr()
        line = _refused(capsys, ["scenario", "--recover-from", served])
        assert "DurableScenarioRun" in line

    def test_serve_from_jsonl_file(self, tmp_path, capsys):
        feed = tmp_path / "events.jsonl"
        feed.write_text(
            "# one arrival, one surge\n"
            '{"at_round": 1.0, "kind": "arrival", "count": 2, "rate": 300}\n'
            '{"at_round": 1.5, "kind": "traffic_surge", "factor": 1.3}\n'
        )
        code = main(
            ["serve", "--state-dir", str(tmp_path / "svc"),
             "--source", f"jsonl:{feed}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events: " in out
        assert "stopped: stream absorbed and scheduler quiesced" in out

    def test_serve_max_rounds_stops_early(self, tmp_path, capsys):
        code = main(
            ["serve", "--state-dir", str(tmp_path / "svc"), "--rounds", "2"]
        )
        assert code == 0
        assert "stopped: max_rounds=2 reached" in capsys.readouterr().out
