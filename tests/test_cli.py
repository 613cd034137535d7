import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbench.cli import main
from skewbench.config import (KNOWN_KEYS, ConfigError, load_config,
                              parse_config_text)
from skewbench.core import Dataset, ExampleKind, SkewbenchError
from skewbench.datagen import GenSpec, generate_imbalanced
from skewbench.io import (dataset_to_csv_text, read_dataset_csv,
                          write_dataset_csv)
from skewbench.plotting import scatter_svg
from skewbench.resample import METHOD_NAMES


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(40, 3)) * 1e3,
                     rng.integers(0, 2, size=40),
                     kinds=rng.integers(0, 4, size=40).astype(np.uint8))
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.points, ds.points)  # 17 sig digits round-trip
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.kinds, ds.kinds)

    def test_round_trip_without_kinds(self, tmp_path):
        ds = Dataset(np.array([[0.1, 0.2], [1.0 / 3.0, 2.0 / 7.0]]), np.array([0, 1]))
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert back.kinds is None
        assert np.array_equal(back.points, ds.points)

    def test_header_and_tags(self):
        ds = Dataset(np.array([[1.5, 2.5]]), np.array([1]),
                     kinds=np.array([int(ExampleKind.BORDERLINE)], dtype=np.uint8))
        text = dataset_to_csv_text(ds)
        lines = text.splitlines()
        assert lines[0] == "f0,f1,label,kind"
        assert lines[1] == "1.5,2.5,1,borderline"

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,oops,1\n")
        with pytest.raises(SkewbenchError, match="line 3"):
            read_dataset_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0\n")
        with pytest.raises(SkewbenchError, match="line 2"):
            read_dataset_csv(path)

    def test_bad_kind_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label,kind\n1.0,0,odd\n")
        with pytest.raises(SkewbenchError, match="line 2"):
            read_dataset_csv(path)


class TestConfigParsing:
    def test_basic_parse_with_comments(self):
        cfg = parse_config_text("# comment\ngen.n_samples = 400 # inline\n\n"
                                "gen.ratio = 79:21\n")
        assert cfg == {"gen.n_samples": "400", "gen.ratio": "79:21"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("gen.bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("gen.dims = 2\ngen.dims = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config_text("gen.dims 2\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/definitely/not/here.cfg")


class TestGenerateCommand:
    def test_prints_counts_and_writes_files(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("gen.n_samples = 400\ngen.ratio = 79:21\ngen.seed = 3\n")
        out = tmp_path / "data.csv"
        code = main(["generate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "316 / 84, IR 3.8" in captured
        assert out.exists()
        sidecar = tmp_path / "data_centers.csv"
        assert sidecar.exists()
        assert sidecar.read_text().splitlines()[0] == "center_x0,center_x1,label,subcluster"
        ds = read_dataset_csv(out)
        assert ds.n == 400
        assert ds.kinds is not None

    def test_seed_repeat_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["generate", "--seed", "9", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a_centers.csv").read_bytes() == \
            (tmp_path / "b_centers.csv").read_bytes()

    def test_invalid_fractions_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gen.disturbance_ratio = 0.8\ngen.rare_fraction = 0.3\n"
                       "gen.safe_fraction = 0.3\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "must equal 1" in capsys.readouterr().err

    def test_infeasible_packing_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "packed.cfg"
        cfg.write_text("gen.box = 0,1\ngen.min_center_separation = 50\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "center packing infeasible" in capsys.readouterr().err


class TestResampleCommand:
    @pytest.fixture()
    def dataset_csv(self, tmp_path):
        ds, _ = generate_imbalanced(GenSpec(n_samples=400, class_ratio=(79, 21),
                                            seed=5, minority_subclusters=2))
        path = tmp_path / "in.csv"
        write_dataset_csv(ds, path)
        return path

    def test_ncr_preserves_minority_count_in_block(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["resample", str(dataset_csv), "--method", "ncr",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        blocks = captured.split("--- after ---")
        assert "Number of samples: 400" in blocks[0]
        assert "Number of Minority class sample: 84" in blocks[0]
        assert "Number of Minority class sample: 84" in blocks[1]
        assert "Imbalance Ratio : 3.8" in blocks[0]

    def test_ro_balances_and_reports(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["resample", str(dataset_csv), "--method", "ro", "--seed", "1",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        after = captured.split("--- after ---")[1]
        assert "Number of samples: 632" in after
        assert "Imbalance Ratio : 1.0" in after
        assert read_dataset_csv(out).n == 632

    def test_ro_on_balanced_input_identity(self, tmp_path, capsys):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 0, 1, 1]))
        src = tmp_path / "b.csv"
        write_dataset_csv(ds, src)
        out = tmp_path / "out.csv"
        assert main(["resample", str(src), "--method", "ro", "--out", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_unknown_method_exit_2(self, dataset_csv, tmp_path, capsys):
        code = main(["resample", str(dataset_csv), "--method", "wild",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("base", "ro", "co", "smote", "ncr", "sparsity"):
            assert name in err

    def test_malformed_csv_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,label\nx,0\n")
        code = main(["resample", str(bad), "--method", "ro",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_prints_metric_table(self, tmp_path, capsys):
        ds, _ = generate_imbalanced(GenSpec(n_samples=150, class_ratio=(4, 1),
                                            seed=2, minority_subclusters=2,
                                            center_box=(0.0, 12.0),
                                            min_center_separation=3.0))
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, path)
        code = main(["eval", str(path), "--method", "base", "--method", "ncr",
                     "--classifier", "knn", "--folds", "3", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("method,classifier,sensitivity_mean")
        assert len(out) == 3
        assert out[1].startswith("base,knn,")
        assert out[2].startswith("ncr,knn,")


class TestExperimentCommand:
    def test_smoke_config_runs_and_writes(self, tmp_path, capsys):
        code = main(["experiment", "--config", "configs/smoke.cfg",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        report = (tmp_path / "run" / "report.csv").read_text()
        lines = report.strip().splitlines()
        assert len(lines) == 1 + 2  # header + methods x classifiers
        assert (tmp_path / "run" / "pivots.txt").exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["experiment", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "requires --config" in capsys.readouterr().err

    def test_cell_errors_warn_but_exit_0(self, tmp_path, capsys):
        # 15 samples at 5:1 leave 2 minority points, below folds=3: the cell
        # fails, the failure lands in the report, and the exit code stays 0.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("exp.sizes = 15\nexp.subclusters = 1\nexp.folds = 3\n"
                       "exp.repeats = 1\nexp.methods = base\n"
                       "exp.classifiers = knn\n")
        code = main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning" in err
        report = (tmp_path / "run" / "report.csv").read_text()
        assert "smaller than folds" in report

    def test_progress_lines_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("exp.subclusters = 1,2\nexp.sizes = 60\nexp.folds = 3\n"
                       "exp.repeats = 2\nexp.methods = base\nexp.classifiers = knn\n")
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 0
        progress = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("cell ")]
        assert progress == [
            "cell 1/2 finished (subclusters=1 size=60 ratio=5:1 disturbance=0)",
            "cell 2/2 finished (subclusters=2 size=60 ratio=5:1 disturbance=0)"]


class TestPlotCommand:
    def make_five_blob_csv(self, tmp_path):
        ds, _ = generate_imbalanced(GenSpec(
            n_samples=480, class_ratio=(5, 1), seed=21, minority_subclusters=4,
            majority_subclusters=1, sub_sigma=1.0, center_box=(0.0, 40.0),
            min_center_separation=8.0))
        path = tmp_path / "five.csv"
        write_dataset_csv(ds, path)
        return path

    def test_show_centers_draws_five_crosses(self, tmp_path):
        path = self.make_five_blob_csv(tmp_path)
        out = tmp_path / "plot.svg"
        assert main(["plot", str(path), "--show-centers", "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count('class="center"') == 5
        assert svg.startswith("<svg")

    def test_empty_dataset_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1,label\n")
        code = main(["plot", str(empty), "--out", str(tmp_path / "o.svg")])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_non_2d_errors(self, tmp_path, capsys):
        ds = Dataset(np.zeros((4, 3)), np.array([0, 0, 1, 1]))
        path = tmp_path / "d3.csv"
        write_dataset_csv(ds, path)
        code = main(["plot", str(path), "--out", str(tmp_path / "o.svg")])
        assert code == 1
        assert "requires 2-D" in capsys.readouterr().err

    def test_byte_identical_output(self, tmp_path):
        path = self.make_five_blob_csv(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert main(["plot", str(path), "--show-centers", "--show-kinds",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kind_rings_rendered(self, tmp_path):
        ds, _ = generate_imbalanced(GenSpec(
            n_samples=200, class_ratio=(4, 1), seed=3, minority_subclusters=2,
            disturbance_ratio=0.4, rare_fraction=0.2,
            center_box=(0.0, 14.0), min_center_separation=3.0))
        path = tmp_path / "k.csv"
        write_dataset_csv(ds, path)
        out = tmp_path / "k.svg"
        assert main(["plot", str(path), "--show-kinds", "--out", str(out)]) == 0
        svg = out.read_text()
        assert "stroke-dasharray" in svg  # borderline rings
        svg_plain = scatter_svg(read_dataset_csv(path), show_kinds=False)
        assert "stroke-dasharray" not in svg_plain


class TestBadInput:
    @pytest.mark.parametrize("command,config", [
        ("generate", "gen.safe_fraction = abc"),
        ("generate", "gen.box = 0,inf"),
        ("generate", "gen.box = -1e308,1e308"),
        ("generate", "gen.sub_sigma = nan"),
        ("experiment", "exp.methods = sparsity\nsparsity.alpha = nan"),
        ("experiment", "exp.folds = 1"),
    ])
    def test_bad_number_exit_2(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\n")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # Values no run could work with are refused when the config is built,
    # before anything is allocated or generated. Warnings are errors here and
    # below: a numpy RuntimeWarning would otherwise be hidden by pytest's
    # capture while the error line still looked right.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command,config,named", [
        ("generate", "gen.n_samples = 3000000000", "n_samples"),
        ("generate", "gen.dims = 20000", "dims"),
        pytest.param("generate", "gen.dims = 1" + "0" * 400, "dims",
                     id="generate-gen.dims = 400 digits-dims"),
        ("generate", "gen.sub_sigma = 1e200", "sub_sigma"),
        ("generate", "gen.sub_sigma = 1e308", "sub_sigma"),
        ("generate", "gen.box = -1e200,1e200", "center_box"),
        ("experiment", "exp.methods = sparsity\nsparsity.alpha = 1e308", "alpha"),
    ])
    def test_unworkable_number_exit_2(self, tmp_path, capsys, command, config, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\nexp.sizes = 60\nexp.repeats = 1\n"
                       if command == "experiment" else config + "\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "out").exists()

    # A CSV has no generator spec to bound: sparsity bounds alpha by the span
    # of the data it reads, before it moves any point.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command,config,named", [
        ("resample", "sparsity.alpha = 1e308", "alpha"),
    ])
    def test_overflowing_number_exit_1(self, tmp_path, capsys, command, config, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
        if command == "resample":
            ds, _ = generate_imbalanced(GenSpec(seed=5))
            write_dataset_csv(ds, tmp_path / "in.csv")
            argv += [str(tmp_path / "in.csv"), "--method", "sparsity"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["resample", "--method", "ncr"],
                                      ["resample", "--method", "smote"], ["eval"]])
    def test_overflowing_distances_exit_1(self, tmp_path, capsys, argv):
        rng = np.random.default_rng(0)
        huge = Dataset(rng.uniform(-1e200, 1e200, size=(40, 2)), np.repeat([0, 1], [30, 10]))
        write_dataset_csv(huge, tmp_path / "huge.csv")
        if argv[0] == "resample":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        assert main(argv + [str(tmp_path / "huge.csv")]) == 1
        assert capsys.readouterr().err == ("error: squared distances overflow: "
                                           "coordinates too far apart\n")

    @pytest.mark.parametrize("config", ["knn.k = 0", "tree.max_depth = -1",
                                        "tree.min_leaf = 0"])
    def test_bad_classifier_exit_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\nexp.sizes = 60\nexp.repeats = 1\n")
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    # A fold count no run can use is a setting error, as `exp.folds = 1` is,
    # whichever way it arrives.
    @pytest.mark.parametrize("folds", ["1", "0", "-3"])
    def test_eval_bad_folds_exit_2(self, tmp_path, capsys, folds):
        ds, _ = generate_imbalanced(GenSpec(n_samples=60, seed=5))
        write_dataset_csv(ds, tmp_path / "in.csv")
        assert main(["eval", str(tmp_path / "in.csv"), "--folds", folds]) == 2
        assert capsys.readouterr().err == "error: folds must be >= 2\n"

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_config_directory_exit_2(self, tmp_path, capsys, command):
        code = main([command, "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: config path is not a file: {tmp_path}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["resample", "--method", "ro", "--out", "out.csv"],
                                      ["eval"], ["plot", "--out", "out.svg"]],
                             ids=["resample", "eval", "plot"])
    @pytest.mark.parametrize("row,message", [
        pytest.param(b"\xe9,1,1", "line 3: invalid feature value", id="non-ascii"),
        pytest.param(b"1,1,99999999999999999999999",
                     "line 3: invalid label '99999999999999999999999'", id="label-over-int64"),
    ])
    def test_unreadable_row_exit_1(self, tmp_path, capsys, monkeypatch, argv, row, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_bytes(b"f0,f1,label\n1.0,2.0,0\n" + row + b"\n")
        assert main(argv + ["in.csv"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"gen.box = 0,20\ngen.n_samples = 4\xff00\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"error: {cfg} line 2: invalid UTF-8 byte 0xff\n"
        assert not (tmp_path / "out.csv").exists()

    # An amount no dataset could hold is a config error before any data is read.
    @pytest.mark.parametrize("argv", [["resample", "--method", "smote", "--out", "out.csv"],
                                      ["eval", "--method", "smote"],
                                      ["experiment", "--out", "run"]],
                             ids=["resample", "eval", "experiment"])
    def test_huge_smote_amount_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        ds, _ = generate_imbalanced(GenSpec(n_samples=60, seed=5))
        write_dataset_csv(ds, tmp_path / "in.csv")
        (tmp_path / "bad.cfg").write_text("smote.amount_pct = 100000000000000000000\n"
                                          "exp.methods = smote\nexp.sizes = 60\n"
                                          "exp.repeats = 1\n")
        if argv[0] != "experiment":
            argv = argv + ["in.csv"]
        assert main(argv + ["--config", "bad.cfg"]) == 2
        assert capsys.readouterr().err == "error: smote amount_pct must be at most 1000000000\n"
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "run").exists()

    def test_memory_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def no_memory(spec):
            raise MemoryError("Unable to allocate 35.3 GiB for an array")

        monkeypatch.setattr("skewbench.cli.generate_imbalanced", no_memory)
        code = main(["generate", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: Unable to allocate 35.3 GiB for an array\n"


# None of these values can ask for a large allocation: counts stay below 2
# and 1e308 parses only as a float.
FUZZ_VALUES = ("abc", "nan", "inf", "-1", "0", "1e308", "1:0", "0,inf", "")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    ds, _ = generate_imbalanced(GenSpec(n_samples=60, class_ratio=(4, 1), seed=1,
                                        center_box=(0.0, 12.0),
                                        min_center_separation=3.0))
    write_dataset_csv(ds, path / "in.csv")
    return path


@settings(max_examples=30, deadline=None)
@given(entries=st.dictionaries(st.sampled_from(sorted(KNOWN_KEYS)),
                               st.sampled_from(FUZZ_VALUES), max_size=3),
       method=st.sampled_from(METHOD_NAMES))
def test_fuzzed_config_never_crashes(fuzz_dir, entries, method):
    cfg = fuzz_dir / "fuzz.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    for argv in (["generate", "--out", str(fuzz_dir / "gen.csv")],
                 ["resample", str(fuzz_dir / "in.csv"), "--method", method,
                  "--out", str(fuzz_dir / "res.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", str(cfg)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


# Fields a damaged dataset CSV may hold: bytes that are not ASCII, integers
# past int64, non-finite numbers, empty fields and stray commas.
CSV_FIELDS = (b"0", b"1", b"2", b"-1", b"0.5", b"nan", b"inf", b"1e400", b"", b",",
              b"\xe9", b"1\xff", b"99999999999999999999", b"-99999999999999999999",
              b"safe", b"rare")


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(CSV_FIELDS), min_size=2, max_size=5),
                     max_size=4),
       at=st.integers(0, 60), kinds=st.booleans())
def test_fuzzed_csv_rows_never_crash(fuzz_dir, rows, at, kinds):
    lines = (fuzz_dir / "in.csv").read_bytes().splitlines()
    if not kinds:
        lines = [line.rsplit(b",", 1)[0] for line in lines]
    lines[1 + at:1 + at] = [b",".join(row) for row in rows]
    (fuzz_dir / "rows.csv").write_bytes(b"\n".join(lines) + b"\n")
    for argv in (["resample", "--method", "ro", "--out", str(fuzz_dir / "res.csv")],
                 ["eval", "--folds", "2"], ["plot", "--out", str(fuzz_dir / "rows.svg")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + [str(fuzz_dir / "rows.csv")])
        assert code in (0, 1, 2)
        err_lines = err.getvalue().splitlines()
        assert code == 0 or (len(err_lines) == 1 and err_lines[0].startswith("error: "))
