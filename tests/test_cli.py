"""Command-line interface: subcommands, exit codes, and output files."""
import hashlib
import json

import pytest

from hbonet.cli import build_parser, main
from hbonet.network import SUPPORTED_WIDTHS, load_stage_table
from hbonet.train import ToyConfig


class TestAnalyze:
    def test_prints_ledger_and_exits_zero(self, capsys):
        rc = main(["analyze", "--preset", "hbonet", "--width", "1.0",
                   "--resolution", "224"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MFLOPs" in out and "total" in out

    # sha256 of `hbonet analyze --preset P --width W --resolution R` stdout:
    # every row's MACs, parameters and shapes, and the totals
    STDOUT = [
        pytest.param("hbonet", "1.0", "224", "67a7ee75e31d1abf6e38ae8e991bb371"
                     "18d858c583ac7a377640694afdb2335e", id="hbonet-1.0@224"),
        pytest.param("hbonet", "0.25", "96", "0ee8a91506fd2c7ddd28fb19f9f385cb"
                     "0a11e267542e77372a916b4079d1ebb7", id="hbonet-0.25@96"),
        pytest.param("mobilenetv2", "1.0", "224", "f86e7fe14fbe27fded78739db1eb7ecc"
                     "65e807622020eec696fb6ed15d5c124d", id="mobilenetv2-1.0@224"),
        pytest.param("mobilenetv2", "0.25", "96", "6dc73e5379499335bf643e0111dc9a6a"
                     "0b43ec6b4e8b0de9dc91a2cd5e51b8e8", id="mobilenetv2-0.25@96"),
    ]

    @pytest.mark.parametrize("preset,width,res,digest", STDOUT)
    def test_stdout_is_pinned(self, preset, width, res, digest, capsys, pin_versions):
        assert main(["analyze", "--preset", preset, "--width", width,
                     "--resolution", res]) == 0
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == digest, f"analyze stdout changed (sha256 {got}); {pin_versions}"

    def test_expectation_within_tolerance(self, capsys):
        rc = main(["analyze", "--preset", "hbonet", "--width", "1.0",
                   "--resolution", "224", "--expect-mflops", "305",
                   "--tol", "3"])
        assert rc == 0
        assert "within" in capsys.readouterr().out

    def test_expectation_failure_exits_one(self, capsys):
        rc = main(["analyze", "--preset", "hbonet", "--width", "1.0",
                   "--resolution", "224", "--expect-mflops", "500",
                   "--tol", "3"])
        assert rc == 1
        assert "OUTSIDE" in capsys.readouterr().out

    def test_unknown_preset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--preset", "resnet"])
        assert excinfo.value.code == 2

    def test_csv_and_json_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "ledger.csv"
        json_path = tmp_path / "ledger.json"
        rc = main(["analyze", "--preset", "hbonet", "--width", "0.25",
                   "--resolution", "96", "--csv", str(csv_path),
                   "--json", str(json_path)])
        assert rc == 0
        assert csv_path.read_text().startswith("# format_version=1")
        doc = json.loads(json_path.read_text())
        assert doc["format_version"] == 1 and doc["mflops"] > 0

    def test_variant_flag(self, capsys):
        rc = main(["analyze", "--preset", "hbonet", "--width", "0.25",
                   "--divisor", "8", "--variant", "2", "--resolution", "224",
                   "--expect-mflops", "45", "--tol", "3"])
        assert rc == 0

    def test_custom_spec_file(self, tmp_path, capsys):
        doc = {"format_version": 1, "name": "mini", "stages": [
            {"op": "conv3x3", "c": 8, "n": 1, "s": 2},
            {"op": "hbo", "t": 2, "c": 8, "n": 1, "s": 2},
            {"op": "avgpool"},
            {"op": "classifier"},
        ]}
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(doc))
        rc = main(["analyze", "--spec", str(path), "--resolution", "64",
                   "--num-classes", "4"])
        assert rc == 0

    @pytest.mark.parametrize("width", [str(w) for w in SUPPORTED_WIDTHS])
    @pytest.mark.parametrize("preset", ["hbonet", "mobilenetv2"])
    def test_dumped_table_builds_the_preset(self, preset, width, tmp_path, capsys):
        """A table written by ``dump-spec`` and read back by ``--spec`` gets
        its preset's divisor policy, so it builds the preset's network: the
        same ledger at every supported width."""
        assert main(["dump-spec", "--preset", preset]) == 0
        path = tmp_path / f"{preset}.json"
        path.write_text(capsys.readouterr().out)
        flags = ["--width", width, "--resolution", "160"]
        assert main(["analyze", "--preset", preset, *flags]) == 0
        want = capsys.readouterr().out
        assert main(["analyze", "--spec", str(path), *flags]) == 0
        assert capsys.readouterr().out == want

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 1, "stages": [
            {"op": "hbo", "c": 8}]}))
        rc = main(["analyze", "--spec", str(path)])
        assert rc == 2
        assert "stage 0" in capsys.readouterr().err


class TestTrace:
    def test_thirteen_stage_rows(self, capsys):
        rc = main(["trace", "--preset", "hbonet", "--width", "1.0"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(out) == 13
        assert out[0].split() == ["conv1", "112x112x32"]
        assert out[-1].split() == ["classifier", "1x1x1000"]


class TestInfer:
    def test_runs_and_reports_shape(self, capsys):
        rc = main(["infer", "--preset", "hbonet", "--width", "0.25",
                   "--resolution", "96", "--batch", "2", "--num-classes",
                   "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "logits shape: (2, 10)" in out


class TestGradcheck:
    def test_passes_at_default_threshold(self, capsys):
        rc = main(["gradcheck", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks passed" in out

    def test_impossible_threshold_fails(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--threshold", "1e-18"])
        assert rc == 1

    # sha256 of `hbonet gradcheck`'s default stdout: every check's relative
    # error to four digits, so a change in any gradient's last bits shows
    STDOUT_SHA256 = "49a8557d17b1e63c345c234270327576d585a00e9be14b53ad5e6983c48d7a74"

    def test_default_stdout_is_pinned(self, capsys, pin_versions):
        assert main(["gradcheck"]) == 0
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == self.STDOUT_SHA256, \
            f"gradcheck stdout changed (sha256 {got}); {pin_versions}"


class TestTrainToy:
    def test_tiny_run_writes_csv(self, tmp_path, capsys):
        log_path = tmp_path / "log.csv"
        rc = main(["train-toy", "--epochs", "1", "--samples", "64",
                   "--seed", "0", "--log-csv", str(log_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch   0" in out
        assert log_path.read_text().startswith("# format_version=1")

    def test_defaults_are_the_reference_config(self):
        args = build_parser().parse_args(["train-toy"])
        config = ToyConfig()
        assert args.epochs is None
        assert (args.samples, args.batch_size, args.lr,
                args.label_smoothing) == (config.num_samples,
                                          config.batch_size, config.base_lr,
                                          config.label_smoothing)

    @pytest.mark.parametrize("argv", [
        ["--epochs", "41"],
        ["--epochs", "0"],
        ["--samples", "0"],
        ["--batch-size", "0"],
    ])
    def test_out_of_range_is_usage_error(self, argv, capsys):
        rc = main(["train-toy", *argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestBadInput:
    """Every bad flag value exits 2 with a single ``error:`` line."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--expect-mflops", "0"],
        ["analyze", "--width", "0"],
        ["analyze", "--width", "-1"],
        ["analyze", "--width", "0.5", "--divisor", "3"],
        ["analyze", "--num-classes", "0"],
        ["analyze", "--tol", "-1", "--expect-mflops", "300"],
        ["analyze", "--seed", "-1"],
        ["analyze", "--variant", "0"],
        ["analyze", "--variant", "-3"],
        ["analyze", "--preset", "mobilenetv2", "--variant", "0"],
        ["trace", "--preset", "mobilenetv2", "--variant", "2"],
        ["analyze", "--spec", "{missing}"],
        ["analyze", "--spec", "{not_json}"],
        ["analyze", "--spec", "{json_list}"],
        ["trace", "--num-classes", "0"],
        ["infer", "--batch", "0"],
        ["gradcheck", "--step", "0"],
        ["gradcheck", "--threshold", "-1"],
        ["gradcheck", "--threshold", "nan"],
        ["train-toy", "--width", "0"],
        ["train-toy", "--lr", "-1"],
        ["train-toy", "--label-smoothing", "1"],
        ["analyze", "--spec", "{stages_int}"],
        ["analyze", "--spec", "{negative_c}"],
        ["analyze", "--spec", "{fractional_n}"],
        ["analyze", "--spec", "{no_pool}"],
        ["infer", "--spec", "{no_pool}"],
        ["analyze", "--spec", "{stride_key}", "--resolution", "32"],
        ["analyze", "--spec", "{extra_row_key}", "--resolution", "32"],
        ["analyze", "--spec", "{extra_table_key}", "--resolution", "32"],
        ["analyze", "--csv", "{missing}/ledger.csv"],
        ["analyze", "--json", "{missing}/ledger.json"],
        ["analyze", "--csv", "{folder}"],
        ["train-toy", "--epochs", "1", "--samples", "64",
         "--log-csv", "{missing}/log.csv"],
        ["analyze", "--csv", ""],
        ["analyze", "--json", ""],
        ["train-toy", "--epochs", "1", "--samples", "64", "--log-csv", ""],
    ])
    def test_exits_two_with_one_error_line(self, argv, tmp_path, capsys):
        not_json = tmp_path / "not.json"
        not_json.write_text("{")
        json_list = tmp_path / "list.json"
        json_list.write_text("[1, 2]")
        bad_stages = {
            "stages_int": 5,
            "negative_c": [{"op": "conv3x3", "c": -8, "n": 1, "s": 2}],
            "fractional_n": [{"op": "conv3x3", "c": 32, "n": 1.5, "s": 2}],
            "no_pool": [{"op": "conv3x3", "c": 16, "s": 2}, {"op": "classifier"}],
            "stride_key": [{"op": "conv3x3", "c": 16, "stride": 2}, {"op": "avgpool"}],
            "extra_row_key": [{"op": "conv3x3", "c": 16, "s": 2, "extra": 3},
                              {"op": "avgpool"}],
        }
        tables = {}
        for key, stages in bad_stages.items():
            tables[key] = tmp_path / f"{key}.json"
            tables[key].write_text(json.dumps({"format_version": 1,
                                               "stages": stages}))
        tables["extra_table_key"] = tmp_path / "extra_table_key.json"
        tables["extra_table_key"].write_text(json.dumps(
            {"format_version": 1, "stages": [{"op": "avgpool"}], "extra": 3}))
        argv = [a.format(missing=tmp_path / "missing.json", folder=tmp_path,
                         not_json=not_json, json_list=json_list, **tables)
                for a in argv]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestDumpSpec:
    @pytest.mark.parametrize("preset", ["hbonet", "mobilenetv2"])
    def test_emits_valid_stage_table(self, preset, capsys):
        rc = main(["dump-spec", "--preset", preset])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["format_version"] == 1
        assert doc["name"] == preset
        assert load_stage_table(doc)[0] == preset   # every key is known

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for sub in ("analyze", "trace", "infer", "gradcheck", "train-toy",
                    "dump-spec"):
            assert sub in out
