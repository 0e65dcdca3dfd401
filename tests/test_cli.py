import io
import json

import pytest

from hypersquare import (
    Config,
    complete,
    dense_instance,
    format_hypergraph,
    parse_hypergraph,
)
from hypersquare.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, entry, main
from conftest import recursion_headroom


def run_cli(capsys, monkeypatch, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_complete_roundtrip(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["gen", "complete", "6"])
        assert code == EXIT_OK
        assert parse_hypergraph(out) == complete(6)

    def test_manifest_embedded(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["gen", "complete", "5"])
        first = out.splitlines()[0]
        assert first.startswith("# manifest: ")
        manifest = json.loads(first.removeprefix("# manifest: "))
        assert manifest["argv"] == ["gen", "complete", "5"]

    def test_random_requires_seed(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, monkeypatch, ["gen", "random", "8", "--p", "0.5"]
        )
        assert code == EXIT_USAGE
        assert "seed" in err

    def test_seed_env_var_ignored(self, capsys, monkeypatch):
        # replay needs only the manifest's argv: the environment supplies no
        # seed, so a seedless command runs with seed 0 whatever is set
        text = format_hypergraph(dense_instance(16, 0.8, 2))
        argv = ["construct", "--theta-star", "0.3"]
        monkeypatch.delenv("HYPERSQUARE_SEED", raising=False)
        code, out_unset, _ = run_cli(capsys, monkeypatch, argv, stdin_text=text)
        assert code in (EXIT_OK, EXIT_FAILURE)
        monkeypatch.setenv("HYPERSQUARE_SEED", "7")
        assert run_cli(capsys, monkeypatch, argv, stdin_text=text)[:2] == (code, out_unset)
        assert json.loads(out_unset)["manifest"]["seed"] == 0
        code, out, err = run_cli(capsys, monkeypatch, ["gen", "random", "8", "--p", "0.5"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "seed" in err

    def test_dense_deterministic_bytes(self, capsys, monkeypatch):
        argv = ["gen", "dense", "12", "--delta2", "0.8", "--seed", "3"]
        outs = set()
        for _ in range(3):
            code, out, _ = run_cli(capsys, monkeypatch, argv)
            assert code == EXIT_OK
            outs.add(out)
        assert len(outs) == 1


class TestCheck:
    def test_cycle_accepted(self, capsys, monkeypatch):
        text = format_hypergraph(complete(6))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["check", "cycle", "C 0 1 2 3 4 5"], stdin_text=text
        )
        assert code == EXIT_OK
        assert out.strip() == "ACCEPTED"

    def test_path_rejected(self, capsys, monkeypatch):
        text = "n 6\n0 1 2\n"
        code, out, _ = run_cli(
            capsys, monkeypatch, ["check", "path", "0 1 2 3"], stdin_text=text
        )
        assert code == EXIT_OK
        assert out.strip() == "REJECTED"

    def test_parse_error_names_line(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, monkeypatch, ["check", "path", "0 1 2"], stdin_text="n 4\n0 1 x\n"
        )
        assert code == EXIT_USAGE
        assert "line 2" in err


class TestConnectCommand:
    def test_found(self, capsys, monkeypatch):
        text = format_hypergraph(complete(10))
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["connect", "--from", "0,1,2", "--to", "3,4,5"],
            stdin_text=text,
        )
        assert code == EXIT_OK
        assert out.strip() == "0 1 2 3 4 5"

    def test_none_exit2(self, capsys, monkeypatch):
        left = complete(5).iter_edges()
        right = [tuple(v + 5 for v in e) for e in complete(5).iter_edges()]
        from hypersquare import Hypergraph3

        text = format_hypergraph(Hypergraph3(10, list(left) + list(right)))
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["connect", "--from", "0,1,2", "--to", "5,6,7", "--cap-m", "4"],
            stdin_text=text,
        )
        assert code == EXIT_FAILURE
        assert out.strip() == "NONE"

    def test_forbid_in_range_accepted(self, capsys, monkeypatch):
        text = format_hypergraph(complete(10))
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["connect", "--from", "0,1,2", "--to", "3,4,5", "--forbid", "6,7"],
            stdin_text=text,
        )
        assert code == EXIT_OK
        assert out.strip() == "0 1 2 3 4 5"

    def test_forbid_out_of_range_rejected(self, capsys, monkeypatch):
        text = format_hypergraph(complete(10))
        code, out, err = run_cli(
            capsys,
            monkeypatch,
            ["connect", "--from", "0,1,2", "--to", "3,4,5", "--forbid", "6 99"],
            stdin_text=text,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "forbidden vertex 99" in err


class TestOracleCommand:
    def test_pikhurko_no(self, capsys, monkeypatch, pik8):
        text = format_hypergraph(pik8[0])
        code, out, _ = run_cli(
            capsys, monkeypatch, ["oracle", "cycle"], stdin_text=text
        )
        assert code == EXIT_OK
        assert out.strip() == "no"

    def test_tiling_witness(self, capsys, monkeypatch):
        text = format_hypergraph(complete(8))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["oracle", "tiling"], stdin_text=text
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "yes"

    def test_too_deep_input_is_an_error(self, capsys, monkeypatch):
        text = format_hypergraph(complete(40))
        with recursion_headroom(30):
            code, out, err = run_cli(capsys, monkeypatch, ["oracle", "cycle"], stdin_text=text)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: n=40 is too large for the exact oracle")


class TestConstructCommand:
    def test_success_json(self, capsys, monkeypatch):
        text = format_hypergraph(complete(24))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["construct", "--seed", "1"], stdin_text=text
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["outcome"] == "cycle"
        assert sorted(payload["cycle"]) == list(range(24))
        assert "timings" not in payload["stats"]

    def test_failure_exit2(self, capsys, monkeypatch):
        text = "n 20\n"
        code, out, _ = run_cli(
            capsys, monkeypatch, ["construct", "--seed", "1"], stdin_text=text
        )
        assert code == EXIT_FAILURE
        assert json.loads(out)["outcome"] == "failure"

    def test_reproducible_default_output(self, capsys, monkeypatch):
        text = format_hypergraph(complete(22))
        argv = ["construct", "--seed", "9"]
        outs = {run_cli(capsys, monkeypatch, argv, stdin_text=text)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_timings_flag(self, capsys, monkeypatch):
        text = format_hypergraph(complete(20))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["construct", "--seed", "1", "--timings"], stdin_text=text
        )
        assert "timings" in json.loads(out)["stats"]


class TestProbeCommand:
    def test_csv_shape(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["probe", "--n", "10", "--grid", "0.7,0.8,0.9", "--trials", "5", "--seed", "1"],
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "fraction,trial,oracle,pipeline,agreement"
        assert len(lines) == 2 + 15

    def test_byte_identical_across_runs(self, capsys, monkeypatch):
        argv = ["probe", "--n", "8", "--grid", "0.8", "--trials", "2", "--seed", "5"]
        outs = {run_cli(capsys, monkeypatch, argv)[1] for _ in range(3)}
        assert len(outs) == 1


class TestTileCoverAbsorb:
    def test_tile_json(self, capsys, monkeypatch):
        text = format_hypergraph(complete(16))
        code, out, _ = run_cli(capsys, monkeypatch, ["tile", "--seed", "1"], stdin_text=text)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["k4_tiles"]) == 4
        assert payload["weight"] == 44

    def test_cover_json(self, capsys, monkeypatch):
        text = format_hypergraph(complete(16))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["cover", "--q", "8", "--seed", "1"], stdin_text=text
        )
        payload = json.loads(out)
        assert len(payload["paths"]) == 2
        assert payload["uncovered"] == []

    def test_absorb_demo(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["absorb", "--demo", "--n", "20"])
        assert code == EXIT_OK
        assert "before:" in out and "after:" in out

    def test_each_command_takes_only_the_config_flags_it_reads(
        self, capsys, monkeypatch
    ):
        knobs = {"alpha": 0.06, "theta_star": 0.2, "cap_m": 10, "q": 12, "tau": 0.02, "mu": 0.2}
        reads = {
            "construct": ("theta_star", "cap_m", "q"),
            "absorb": ("theta_star", "cap_m"),
            "tile": ("alpha", "tau"),
            "cover": ("q", "mu"),
        }
        text = format_hypergraph(complete(8))
        for command, names in reads.items():
            head = [command, "--seed", "3"] + (["--demo"] if command == "absorb" else [])
            argv = list(head)
            for name in names:
                argv += ["--" + name.replace("_", "-"), str(knobs[name])]
            code, out, _ = run_cli(capsys, monkeypatch, argv, stdin_text=text)
            assert code in (EXIT_OK, EXIT_FAILURE), command
            if out.startswith("# manifest: "):
                manifest = json.loads(out.splitlines()[0].removeprefix("# manifest: "))
            else:
                manifest = json.loads(out)["manifest"]
            # compared as JSON text, so an int knob parsed as a float shows
            want = Config(seed=3, **{name: knobs[name] for name in names}).as_dict()
            assert json.dumps(manifest["config"], sort_keys=True) == json.dumps(
                want, sort_keys=True
            ), command
            for name in knobs.keys() - set(names):
                flag = "--" + name.replace("_", "-")
                code, out, err = run_cli(
                    capsys, monkeypatch, head + [flag, str(knobs[name])], stdin_text=text
                )
                assert code == EXIT_USAGE, (command, flag)
                assert out == ""
                assert "unrecognized arguments" in err


class TestAuxCommand:
    def test_gvw_edges(self, capsys, monkeypatch):
        text = format_hypergraph(complete(6))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["aux", "gvw", "--v", "0", "--w", "1"], stdin_text=text
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "# vertices: 2 3 4 5"
        assert len(lines) - 1 == 6

    def test_walks_csv(self, capsys, monkeypatch):
        text = format_hypergraph(complete(8))
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["aux", "walks", "--beta", "0.01", "--v", "0", "--length", "2"],
            stdin_text=text,
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "vertex,walks"

    def test_missing_flags_usage_error(self, capsys, monkeypatch):
        text = format_hypergraph(complete(6))
        code, _, err = run_cli(capsys, monkeypatch, ["aux", "g3"], stdin_text=text)
        assert code == EXIT_USAGE


class TestUsage:
    def test_unknown_command(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, monkeypatch, ["frobnicate"])
        assert code == EXIT_USAGE
        argv = ["probe", "--n", "8", "--grid", "0.8", "--trials", "1", "--seed", "1"]
        code, out, err = run_cli(capsys, monkeypatch, argv + ["--jobs", "2"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err

    def test_bad_config_value(self, capsys, monkeypatch):
        text = format_hypergraph(complete(20))
        code, _, err = run_cli(
            capsys,
            monkeypatch,
            ["tile", "--seed", "1", "--tau", "1.5"],
            stdin_text=text,
        )
        assert code == EXIT_USAGE
        assert "tau=1.5 must lie in (0, 1)" in err


class TestInputFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--theta-star", "0.3", "--seed", "2"],
            ["oracle", "cycle", "--json"],
            ["cover", "--q", "4", "--seed", "1"],
        ],
    )
    def test_input_file_matches_stdin(self, capsys, monkeypatch, tmp_path, argv):
        code, text, _ = run_cli(
            capsys, monkeypatch, ["gen", "dense", "14", "--delta2", "0.8", "--seed", "3"]
        )
        assert code == EXIT_OK
        path = tmp_path / "dense14.txt"
        path.write_text(text, encoding="utf-8")
        file_argv = argv + ["--input", str(path)]
        code_stdin, out_stdin, _ = run_cli(capsys, monkeypatch, argv, stdin_text=text)
        code_file, out_file, _ = run_cli(capsys, monkeypatch, file_argv)
        assert code_file == code_stdin
        # a manifest records the argument vector as given, --input included
        assert out_file.replace(json.dumps(file_argv), json.dumps(argv)) == out_stdin

    def test_missing_input_file(self, capsys, monkeypatch, tmp_path):
        code, out, err = run_cli(
            capsys, monkeypatch, ["oracle", "cycle", "--input", str(tmp_path / "absent.txt")]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")


class TestEntry:
    @pytest.mark.parametrize(
        "argv, stdin_text, status",
        [
            (["gen", "complete", "6"], "", EXIT_OK),
            (["gen", "bogus", "6"], "", EXIT_USAGE),
            (["connect", "--from", "0,1,2", "--to", "3,4,5"], "n 6\n0 1 2\n3 4 5\n", EXIT_FAILURE),
        ],
    )
    def test_console_script_exit_codes(self, capsys, monkeypatch, argv, stdin_text, status):
        monkeypatch.setattr("sys.argv", ["hypersquare"] + argv)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == status
