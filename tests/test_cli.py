"""Tests for the artifact-regeneration CLI."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in COMMANDS:
            args = parser.parse_args([command])
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["tab1"])
        assert args.refs == 30_000
        assert args.workloads is None

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])


class TestArgumentValidation:
    """Supervision flags are validated up front: every violation is a
    one-line configuration error with exit code 2."""

    def test_jobs_zero_rejected(self, capsys):
        assert main(["tab1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_negative_rejected(self, capsys):
        assert main(["tab1", "--jobs", "-4"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_run_timeout_must_be_positive(self, capsys):
        assert main(["tab1", "--run-timeout", "0"]) == 2
        assert "--run-timeout" in capsys.readouterr().err

    def test_retries_cannot_be_negative(self, capsys):
        assert main(["tab1", "--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err

    def test_resume_requires_journal(self, capsys):
        assert main(["suite", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_resume_with_missing_journal_is_exit_2(self, tmp_path, capsys):
        """--resume pointing at a journal that was never written is a
        configuration error naming the path, not a silent fresh start
        and not the JournalMismatchError stale-config message."""
        missing = tmp_path / "never-written.jsonl"
        code = main([
            "fig9", "--refs", "200", "--workloads", "gups",
            "--schemes", "radix", "--journal", str(missing), "--resume",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "nothing to resume" in err and str(missing) in err
        assert not missing.exists()

    def test_shards_must_be_positive(self, capsys):
        assert main(["serve", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_malformed_repro_jobs_env_is_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert main(["tab1"]) == 2
        assert "REPRO_JOBS" in capsys.readouterr().err


class TestCommands:
    def test_tab1(self, capsys):
        assert main(["tab1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "LVM Page Walk Cache" in out

    def test_hardware(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "bytes=3.00" in out

    def test_tab2_subset(self, capsys):
        assert main(["tab2", "--workloads", "gups"]) == 0
        out = capsys.readouterr().out
        assert "gups" in out

    def test_fig9_tiny(self, capsys):
        assert main([
            "fig9", "--workloads", "gups", "--refs", "2000"
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "lvm" in out

    def test_trace_cache_line_counts_workload_builds(self, tmp_path, capsys):
        """A warm second sweep builds no workload; the count sits before
        ``dir=`` so greps on the older prefix still match."""
        argv = ["suite", "--workloads", "gups", "--schemes", "radix",
                "--refs", "500", "--trace-cache-dir", str(tmp_path)]
        for built in (1, 0):
            assert main(argv) == 0
            err = capsys.readouterr().err
            assert (
                f"trace cache: hits={1 - built} builds={built} rebuilds=0 "
                f"workloads_built={built} dir="
            ) in err

    def test_collisions_tiny(self, capsys):
        assert main([
            "collisions", "--workloads", "gups", "--refs", "2000"
        ]) == 0
        out = capsys.readouterr().out
        assert "collision rates" in out
