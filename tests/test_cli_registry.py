"""The CLI help is generated from the command registry — and stays so.

``python -m repro --help`` used to be a hand-written string; commands
(``chaos``, ``metrics``) had to be added twice and could drift. Now
:data:`repro.__main__.REGISTRY` is the single source of truth and these
tests pin the contract: every registered command appears in the help, the
help lists nothing unregistered, and dispatch agrees with both.
"""

from __future__ import annotations

import re

import pytest

from repro.__main__ import COMMANDS, REGISTRY, _usage, main

#: A command line in the generated help: two-space indent, then the name.
_HELP_COMMAND_RE = re.compile(r"^  (\w[\w-]*)", re.MULTILINE)


def help_commands() -> set[str]:
    body = _usage().split("commands:", 1)[1]
    return set(_HELP_COMMAND_RE.findall(body))


class TestHelpEqualsRegistry:
    def test_help_lists_exactly_the_registered_commands(self):
        assert help_commands() == set(REGISTRY)

    def test_dispatch_table_is_a_view_of_the_registry(self):
        assert set(COMMANDS) == set(REGISTRY)
        for name, cmd in REGISTRY.items():
            assert COMMANDS[name] is cmd.handler
            assert cmd.name == name
            assert cmd.usage[0].split()[0] == name
            assert cmd.help  # every command explains itself

    def test_serve_is_registered(self):
        assert "serve" in REGISTRY
        assert "serve" in help_commands()

    def test_help_output_goes_through_the_generator(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == _usage() + "\n"


class TestPipelineCommand:
    def test_pipeline_is_registered(self):
        assert "pipeline" in REGISTRY
        assert "pipeline" in help_commands()

    def test_generated_help_pins_the_usage(self):
        """The pipeline usage lines are registry-generated; pin them so
        the help cannot drift from the parser."""
        cmd = REGISTRY["pipeline"]
        assert cmd.usage[0] == (
            "pipeline NET [--stages S] [--microbatches M] [--replicas R]"
        )
        for fragment in ("--schedule", "--method", "--batch", "--bucket-mb",
                         "--trace"):
            assert any(fragment in line for line in cmd.usage)
        assert "docs/parallelism.md" in " ".join(cmd.help)
        usage_text = _usage()
        for line in cmd.usage:
            assert line in usage_text

    @pytest.mark.parametrize(
        "flag,value", [("--stages", "0"), ("--stages", "-2"),
                       ("--microbatches", "0"), ("--microbatches", "-3"),
                       ("--replicas", "0")]
    )
    def test_invalid_counts_exit_2(self, capsys, flag, value):
        assert main(["pipeline", "lenet", flag, value]) == 2
        assert flag.lstrip("-") in capsys.readouterr().err

    def test_too_many_stages_exits_2(self, capsys):
        assert main(["pipeline", "lenet", "--stages", "999"]) == 2
        assert "stages" in capsys.readouterr().err

    def test_unknown_net_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "nosuchnet"])
        assert exc.value.code == 2

    def test_runs_and_reports_on_lenet(self, capsys):
        assert main(["pipeline", "lenet", "--stages", "2",
                     "--microbatches", "4", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "bubble" in out
        assert "stage" in out

    def test_power_of_two_hybrid_runs(self, capsys):
        """Stages x replicas must be a power of two for the recursive
        halving/doubling allreduces; 2 x 2 is."""
        assert main(["pipeline", "lenet", "--stages", "2", "--replicas", "2",
                     "--microbatches", "2", "--batch", "4"]) == 0
        assert "DP reference at 4 node(s)" in capsys.readouterr().out

    def test_trace_export_is_valid_chrome(self, tmp_path, capsys):
        import json

        from repro.testing.chrome import validate_chrome

        path = tmp_path / "pipe.json"
        assert main(["pipeline", "lenet", "--stages", "2",
                     "--microbatches", "2", "--batch", "4",
                     "--trace", str(path)]) == 0
        assert validate_chrome(json.loads(path.read_text())) == []


class TestServeArgs:
    def test_malformed_arrival_seed_exits_2(self, capsys):
        assert main(["serve", "lenet", "--arrivals", "nope"]) == 2
        assert "malformed arrival seed" in capsys.readouterr().err

    def test_unknown_profile_exits_2(self, capsys):
        assert main(["serve", "lenet", "--arrivals", "tsunami:0x1:0"]) == 2

    def test_malformed_fault_seed_exits_2(self, capsys):
        assert (
            main(["serve", "lenet", "--faults", "not-a-seed"]) == 2
        )

    def test_invalid_batching_knobs_exit_2(self, capsys):
        assert main(["serve", "lenet", "--max-batch", "0"]) == 2
        assert "max_batch" in capsys.readouterr().err

    def test_unknown_net_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "nosuchnet"])
        assert exc.value.code == 2


class TestBadValuesExit2:
    """Out-of-range values fail at the CLI edge: exit 2 and one ``error:``
    line, never a traceback from deep inside the simulator."""

    @pytest.mark.parametrize(
        "argv",
        [
            "profile lenet 0",
            "trace lenet --batch 0",
            "trace lenet --ranks 6 --supernode 4",
            "serve lenet --requests 0",
            "serve lenet --rate 0",
            "metrics lenet --ranks 0",
            "whatif lenet --ranks 0",
            "chaos lenet --ranks 0",
            "pipeline lenet --stages 0",
            "pipeline lenet --batch 0",
            "pipeline lenet --bucket-mb 0",
            "pipeline lenet --bucket-mb -1",
            "pipeline lenet --stages 3",
            "pipeline lenet --stages 2 --replicas 3",
            "pipeline lenet --stages 4 --replicas 3",
            "train 0",
            "train abc",
            "whatif lenet --scale dma=inf",
            "whatif lenet --scale layer:nosuch=0.5",
            "report --bogus",
            "experiment fig11 --bucket-mb 96",
            "list extra",
            "profile lenet 16 extra",
            "train 1 extra",
            "train 2 --lr -1",
        ],
    )
    def test_one_error_line(self, capsys, argv):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""
