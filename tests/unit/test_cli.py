"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.dataset == "yeast"
        assert args.strategy == "approximate"
        assert args.k == 10

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--dataset", "imagenet"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Encrypted M-Index" in out
        assert "level 3" in out
        assert "transformed" in out

    def test_demo_runs_small(self, capsys):
        code = main(
            [
                "demo",
                "--dataset", "cophir",
                "--records", "300",
                "--k", "3",
                "--queries", "3",
                "--cand-sizes", "10", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Candidate set size" in out
        assert "Recall [%]" in out

    def test_demo_precise_reports_exactness(self, capsys):
        code = main(
            [
                "demo",
                "--dataset", "cophir",
                "--records", "300",
                "--strategy", "precise",
                "--k", "3",
                "--queries", "2",
                "--cand-sizes", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recall 100%" in out

    def test_demo_unknown_strategy_exits(self):
        with pytest.raises(SystemExit):
            main(["demo", "--strategy", "quantum"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.dataset == "yeast"
        assert args.duration is None

    def test_serve_rejects_unknown_transport(self):
        # there is one socket transport and no flag to pick another
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--transport", "tcp-async"])

    def test_serve_starts_and_stops(self, capsys):
        code = main(
            [
                "serve",
                "--dataset", "cophir",
                "--records", "200",
                "--duration", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 200 records on 127.0.0.1:" in out
        assert "server stopped" in out

    def test_attack_precise_leaks(self, capsys):
        assert main(["attack", "--strategy", "precise",
                     "--records", "400"]) == 0
        out = capsys.readouterr().out
        assert "leakage score" in out

    def test_attack_approximate_blocked(self, capsys):
        assert main(["attack", "--strategy", "approximate",
                     "--records", "400"]) == 0
        out = capsys.readouterr().out
        assert "blocked" in out
